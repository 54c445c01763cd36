// Packet-layer tests: frame construction/parsing, checksums, corruption
// detection, destination rewriting, and FNV hashing.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/packet.h"

namespace atmo {
namespace {

constexpr MacAddr kSrc{0x02, 0x11, 0x22, 0x33, 0x44, 0x55};
constexpr MacAddr kDst{0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee};

FiveTuple Flow() {
  return FiveTuple{.src_ip = 0x0a000001, .dst_ip = 0x0a000002, .src_port = 1234,
                   .dst_port = 5678};
}

TEST(PacketTest, BuildParseRoundTrip) {
  std::uint8_t frame[kMaxFrameLen];
  const char payload[] = "twelve bytes";
  std::size_t len = BuildUdpFrame(frame, kSrc, kDst, Flow(), payload, 12);
  EXPECT_GE(len, kMinFrameLen);

  auto parsed = ParseUdpFrame(frame, len);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->flow, Flow());
  EXPECT_EQ(parsed->src_mac, kSrc);
  EXPECT_EQ(parsed->dst_mac, kDst);
  EXPECT_EQ(parsed->payload_len, 12u);
  EXPECT_EQ(std::memcmp(parsed->payload, payload, 12), 0);
}

TEST(PacketTest, FinishUdpFrameMatchesBuildUdpFrame) {
  // The zero-copy egress path places the payload first and wraps headers
  // around it; the result must be byte-identical to the copying builder for
  // every payload length class (empty, padded, typical, max).
  for (std::size_t plen : {std::size_t{0}, std::size_t{5}, std::size_t{17},
                           std::size_t{100}, kMaxFrameLen - kHeadersLen}) {
    std::vector<std::uint8_t> payload(plen);
    for (std::size_t i = 0; i < plen; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }
    std::uint8_t built[kMaxFrameLen] = {};
    std::size_t built_len = BuildUdpFrame(built, kSrc, kDst, Flow(), payload.data(), plen);

    std::uint8_t finished[kMaxFrameLen] = {};
    if (plen > 0) {  // payload pre-placed; data() may be null when empty
      std::memcpy(finished + kHeadersLen, payload.data(), plen);
    }
    std::size_t finished_len = FinishUdpFrame(finished, kSrc, kDst, Flow(), plen);

    ASSERT_EQ(finished_len, built_len) << "payload len " << plen;
    EXPECT_EQ(std::memcmp(finished, built, built_len), 0) << "payload len " << plen;
    auto parsed = ParseUdpFrame(finished, finished_len);
    ASSERT_TRUE(parsed.has_value()) << "payload len " << plen;
    EXPECT_EQ(parsed->payload_len, plen);
  }
}

TEST(PacketTest, MinimumFramePadding) {
  std::uint8_t frame[kMaxFrameLen];
  std::size_t len = BuildUdpFrame(frame, kSrc, kDst, Flow(), "", 0);
  EXPECT_EQ(len, kMinFrameLen) << "64-byte wire frames (60 + FCS)";
  auto parsed = ParseUdpFrame(frame, len);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload_len, 0u);
}

TEST(PacketTest, LargePayload) {
  std::uint8_t frame[kMaxFrameLen];
  std::vector<std::uint8_t> payload(kMaxFrameLen - kHeadersLen);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  std::size_t len = BuildUdpFrame(frame, kSrc, kDst, Flow(), payload.data(), payload.size());
  EXPECT_EQ(len, kMaxFrameLen);
  auto parsed = ParseUdpFrame(frame, len);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload_len, payload.size());
  EXPECT_EQ(std::memcmp(parsed->payload, payload.data(), payload.size()), 0);
}

TEST(PacketTest, CorruptIpHeaderRejected) {
  std::uint8_t frame[kMaxFrameLen];
  std::size_t len = BuildUdpFrame(frame, kSrc, kDst, Flow(), "x", 1);
  frame[kEthHeaderLen + 8] ^= 0xff;  // flip the TTL without fixing checksum
  EXPECT_FALSE(ParseUdpFrame(frame, len).has_value());
}

TEST(PacketTest, NonIpv4Rejected) {
  std::uint8_t frame[kMaxFrameLen];
  std::size_t len = BuildUdpFrame(frame, kSrc, kDst, Flow(), "x", 1);
  PutU16(frame + 12, 0x0806);  // ARP ethertype
  EXPECT_FALSE(ParseUdpFrame(frame, len).has_value());
}

TEST(PacketTest, TruncatedFrameRejected) {
  std::uint8_t frame[kMaxFrameLen];
  BuildUdpFrame(frame, kSrc, kDst, Flow(), "x", 1);
  EXPECT_FALSE(ParseUdpFrame(frame, kHeadersLen - 1).has_value());
  EXPECT_FALSE(ParseUdpFrame(frame, 0).has_value());
}

TEST(PacketTest, NonUdpProtocolRejected) {
  std::uint8_t frame[kMaxFrameLen];
  FiveTuple tcp = Flow();
  tcp.proto = 6;
  std::size_t len = BuildUdpFrame(frame, kSrc, kDst, tcp, "x", 1);
  EXPECT_FALSE(ParseUdpFrame(frame, len).has_value());
}

TEST(PacketTest, RewriteDestinationKeepsFrameValid) {
  std::uint8_t frame[kMaxFrameLen];
  std::size_t len = BuildUdpFrame(frame, kSrc, kDst, Flow(), "payload", 7);
  MacAddr new_mac{0x02, 9, 9, 9, 9, 9};
  RewriteDestination(frame, len, new_mac, 0x0a0000ff);

  auto parsed = ParseUdpFrame(frame, len);
  ASSERT_TRUE(parsed.has_value()) << "checksum must be refreshed";
  EXPECT_EQ(parsed->dst_mac, new_mac);
  EXPECT_EQ(parsed->flow.dst_ip, 0x0a0000ffu);
  EXPECT_EQ(parsed->flow.src_ip, Flow().src_ip) << "source untouched";
  EXPECT_EQ(std::memcmp(parsed->payload, "payload", 7), 0) << "payload untouched";
}

TEST(PacketTest, InternetChecksumKnownVector) {
  // RFC 1071 example-style check: checksum of a buffer plus its checksum
  // verifies to zero.
  std::uint8_t data[20] = {0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11,
                           0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7};
  std::uint16_t sum = InternetChecksum(data, sizeof(data));
  EXPECT_EQ(sum, 0xb861) << "classic IPv4 header example";
  PutU16(data + 10, sum);
  EXPECT_EQ(InternetChecksum(data, sizeof(data)), 0);
}

TEST(PacketTest, FnvIsStableAndSpreads) {
  EXPECT_EQ(Fnv1a("", 0), 0xcbf29ce484222325ull) << "FNV-1a offset basis";
  std::uint64_t a = Fnv1a("a", 1);
  std::uint64_t b = Fnv1a("b", 1);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Fnv1a("a", 1)) << "deterministic";
  // Distribution sanity: 1000 keys into 64 buckets, none empty-ish.
  int buckets[64] = {};
  for (int i = 0; i < 1000; ++i) {
    ++buckets[Fnv1a(&i, sizeof(i)) % 64];
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_GT(buckets[i], 2) << "bucket " << i;
    EXPECT_LT(buckets[i], 50) << "bucket " << i;
  }
}

TEST(PacketTest, EndianHelpers) {
  std::uint8_t buf[4];
  PutU32(buf, 0x01020304);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[3], 4);
  EXPECT_EQ(GetU32(buf), 0x01020304u);
  PutU16(buf, 0xbeef);
  EXPECT_EQ(GetU16(buf), 0xbeef);
}

}  // namespace
}  // namespace atmo
