// serve_splice and serve_percall (README.md, "Workloads").
//
// A closed loop of 32 outstanding frames: each poll the simulated NIC
// receives 32 freshly generated client requests, the serving loop answers
// them on the zero-copy path (ixgbe RxPeekBurst -> ParseUdpFrame -> Maglev
// -> httpd/kvstore HandleRequestSpliced -> TxInPlaceDeferred) and the NIC
// transmits the responses into the egress check. The two workloads differ
// only in the checked kernel work that certifies the requests:
//
//   serve_splice  : one kBorrow grant rendezvous per burst (kRecv, kSend
//                   with the grant, kGrantReturn), on TraceFixture's
//                   2048-frame machine;
//   serve_percall : one checked mmap/munmap Step per request, on the
//                   BootConfig default 16384-frame machine.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "report.h"
#include "spans.h"
#include "src/apps/httpd.h"
#include "src/apps/kvstore.h"
#include "src/apps/maglev.h"
#include "src/drivers/dma_arena.h"
#include "src/drivers/ixgbe_driver.h"
#include "src/hw/sim_nic.h"
#include "src/net/packet.h"
#include "src/obs/alloc_hook.h"
#include "src/obs/copy_probe.h"
#include "src/verif/refinement_checker.h"
#include "src/verif/trace_gen.h"
#include "src/vstd/check.h"

namespace perfbench {
namespace {

using namespace atmo;

constexpr std::uint32_t kBurst = 32;        // frames outstanding in the closed loop
constexpr std::uint32_t kNicRing = 512;
constexpr std::uint64_t kDataFrames = 8192;  // DMA memory behind the NIC
constexpr std::uint64_t kClientsMask = (1ull << 20) - 1;
constexpr std::uint32_t kKeys = 4096;
// The exact counters cover the first kCountedSteps checked steps after
// set-up, rounded up to a whole poll, so they do not depend on speed.
constexpr std::uint64_t kCountedSteps = 1024;
// Untimed warm-up after the counted window: caches fill, vectors grow.
constexpr std::uint64_t kWarmupNs = 500'000'000;
// The timed loop runs in blocks of this length. req_per_s and steps_per_s
// are medians over blocks. Traced runs alternate traced and untraced
// blocks; the throughput ratio between them is obs.trace_overhead_pct.
constexpr std::uint64_t kBlockNs = 1'000'000'000;
constexpr std::size_t kKeptSpans = 1u << 17;

constexpr VAddr kReqWindow = 0x200000;  // serve_percall's mmap churn window
constexpr std::uint32_t kReqWindowSlots = 32;
constexpr VAddr kGrantSlotVa = 0x900000;  // lent page, procs[0]
constexpr VAddr kGrantDestVa = 0xA00000;  // its borrowed mapping, procs[1]

constexpr std::uint32_t kServerIp = 0x0a0000feu;
constexpr MacAddr kServerMac{0x02, 0, 0, 0, 0, 0x02};
constexpr std::uint16_t kHttpPort = 80;
constexpr std::uint16_t kKvPort = 7;

const char* const kDocPaths[2] = {"/", "/index.html"};
const std::string_view kRequestHead[2] = {"GET / HTTP/1.1\r\nHost: c",
                                          "GET /index.html HTTP/1.1\r\nHost: c"};
const std::string kDocBodies[2] = {std::string(256, 'x'), std::string(512, 'y')};

// The response the HTTP/1.1 wire format prescribes for a 200 on a document.
std::string HttpOk(const std::string& body) {
  return "HTTP/1.1 200 OK\r\nServer: atmo-httpd/1.0\r\nContent-Type: text/html\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::uint32_t ClientIp(std::uint32_t c) { return 0x0b000000u + (c >> 16); }
std::uint16_t ClientPort(std::uint32_t c) { return static_cast<std::uint16_t>(c); }
MacAddr ClientMac(std::uint32_t c) {
  return MacAddr{0x02, 0, 0x0c, static_cast<std::uint8_t>(c >> 16),
                 static_cast<std::uint8_t>(c >> 8), static_cast<std::uint8_t>(c)};
}

// Writes "<prefix><decimal n>" into `out`; returns the length.
std::size_t Decimal(std::string_view prefix, std::uint32_t n, char* out) {
  std::memcpy(out, prefix.data(), prefix.size());
  char digits[10];
  std::size_t len = 0;
  do {
    digits[len++] = static_cast<char>('0' + n % 10);
    n /= 10;
  } while (n != 0);
  for (std::size_t i = 0; i < len; ++i) {
    out[prefix.size() + i] = digits[len - 1 - i];
  }
  return prefix.size() + len;
}

std::size_t KeyName(std::uint32_t key, char* out) { return Decimal("k", key, out); }

// Hex value of 8..24 characters drawn from `r`.
std::uint8_t MakeValue(std::uint64_t r, char* out) {
  std::uint8_t len = static_cast<std::uint8_t>(8 + r % 17);
  std::uint64_t bits = SplitMix64(r);
  for (std::uint8_t i = 0; i < len; ++i) {
    out[i] = "0123456789abcdef"[(bits >> ((i % 16) * 4)) & 0xf];
  }
  return len;
}

// The seeded client population and the egress check. Requests are made on
// demand as the NIC asks for frames; the response each one must get is
// recorded at the same time, from the benchmark's own model of the store,
// and the NIC's egress frames are compared against that queue in order.
class Traffic {
 public:
  enum Kind : std::uint8_t { kDocRoot, kDocIndex, kKvGet, kKvSetOk };

  explicit Traffic(std::uint64_t seed) : rng_{SplitMix64(seed) | 1} {
    for (int d = 0; d < 2; ++d) {
      http_resp_[d] = HttpOk(kDocBodies[d]);
    }
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      value_len_[k] = MakeValue(SplitMix64(seed ^ (0x5eed0000ull + k)), values_[k]);
    }
  }

  std::string_view Value(std::uint32_t key) const {
    return std::string_view(values_[key], value_len_[key]);
  }

  // PacketSource: the next request frame.
  std::size_t Next(std::uint8_t* frame) {
    Scope span(recorder, Layer::kGen);
    std::uint64_t r = rng_.Next();
    digest = (digest ^ r) * 0x100000001b3ull;
    std::uint32_t client = static_cast<std::uint32_t>(r & kClientsMask);
    bool http = ((r >> 20) & 1) == 0;
    Expected& e = ring_[head_++ % kRing];
    ATMO_CHECK(head_ - tail_ <= kRing, "perfbench: egress check queue overflow");
    e = Expected{client, kDocRoot, 0, false, {}};
    std::uint8_t payload[128];
    std::size_t len;
    if (http) {
      int doc = static_cast<int>((r >> 21) & 1);
      e.kind = doc == 0 ? kDocRoot : kDocIndex;
      // "GET <path> HTTP/1.1\r\nHost: c<client>\r\n\r\n"
      char* text = reinterpret_cast<char*>(payload);
      len = Decimal(kRequestHead[doc], client, text);
      std::memcpy(text + len, "\r\n\r\n", 4);
      len += 4;
    } else {
      std::uint32_t key = static_cast<std::uint32_t>((r >> 24) & (kKeys - 1));
      char name[16];
      std::size_t klen = KeyName(key, name);
      if (((r >> 22) & 1) == 0) {
        e.kind = kKvGet;
        e.vlen = value_len_[key];
        std::memcpy(e.value, values_[key], e.vlen);
        len = KvStore::BuildRequest(payload, atmo::kKvGet, std::string_view(name, klen), {});
      } else {
        e.kind = kKvSetOk;
        value_len_[key] = MakeValue(rng_.Next(), values_[key]);
        len = KvStore::BuildRequest(payload, atmo::kKvSet, std::string_view(name, klen),
                                    Value(key));
      }
    }
    FiveTuple flow{.src_ip = ClientIp(client), .dst_ip = kServerIp,
                   .src_port = ClientPort(client),
                   .dst_port = http ? kHttpPort : kKvPort};
    return BuildUdpFrame(frame, ClientMac(client), kServerMac, flow, payload, len);
  }

  // The server dropped request `seq` (0-based generation order): it gets no
  // response, and the check skips it.
  void MarkDropped(std::uint64_t seq) { ring_[seq % kRing].dropped = true; }

  // PacketSink: one egress frame.
  void Check(const std::uint8_t* frame, std::size_t len) {
    Scope span(recorder, Layer::kEgress);
    while (tail_ < head_ && ring_[tail_ % kRing].dropped) {
      ++tail_;
    }
    if (tail_ == head_) {
      ++mismatches;  // a frame nobody asked for
      return;
    }
    const Expected& e = ring_[tail_++ % kRing];
    std::optional<ParsedFrame> p = ParseUdpFrame(frame, len);
    bool http = e.kind == kDocRoot || e.kind == kDocIndex;
    bool ok = p.has_value() && p->flow.src_ip == kServerIp &&
              p->flow.dst_ip == ClientIp(e.client) &&
              p->flow.src_port == (http ? kHttpPort : kKvPort) &&
              p->flow.dst_port == ClientPort(e.client) && p->src_mac == kServerMac &&
              p->dst_mac == ClientMac(e.client);
    if (ok) {
      std::uint8_t kv[2 + kKvMaxValue] = {kKvOk, 0};
      std::string_view want;
      if (http) {
        want = http_resp_[e.kind == kDocRoot ? 0 : 1];
      } else {
        if (e.kind == kKvGet) {
          kv[1] = e.vlen;
          std::memcpy(kv + 2, e.value, e.vlen);
        }
        want = std::string_view(reinterpret_cast<const char*>(kv), 2 + kv[1]);
      }
      ok = p->payload_len == want.size() &&
           std::memcmp(p->payload, want.data(), want.size()) == 0;
    }
    mismatches += ok ? 0 : 1;
  }

  // Every generated request was either answered or dropped.
  std::uint64_t Unanswered() {
    while (tail_ < head_ && ring_[tail_ % kRing].dropped) {
      ++tail_;
    }
    return head_ - tail_;
  }

  SpanRecorder* recorder = nullptr;
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a over the request draws
  std::uint64_t mismatches = 0;

 private:
  struct Expected {
    std::uint32_t client;
    Kind kind;
    std::uint8_t vlen;
    bool dropped;
    char value[kKvMaxValue];
  };
  static constexpr std::uint64_t kRing = 256;

  Xorshift rng_;
  std::string http_resp_[2];
  char values_[kKeys][kKvMaxValue];
  std::uint8_t value_len_[kKeys];
  Expected ring_[kRing];
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
};

TraceFixture BootFixture(bool percall) {
  if (!percall) {
    TraceFixture f = TraceFixture::Boot();
    f.SetupIpcAndDma();  // endpoint slot 0 between thrds[0] and thrds[2]
    return f;
  }
  // TraceFixture::Boot's processes and threads on the default-size machine.
  TraceFixture f{std::move(*Kernel::Boot(BootConfig{}))};
  f.ctnr = f.kernel.BootCreateContainer(f.kernel.root_container(), 1200, ~0ull).value;
  f.procs[0] = f.kernel.BootCreateProcess(f.ctnr).value;
  f.procs[1] = f.kernel.BootCreateProcess(f.ctnr).value;
  f.thrds[0] = f.kernel.BootCreateThread(f.procs[0]).value;
  f.thrds[1] = f.kernel.BootCreateThread(f.procs[0]).value;
  f.thrds[2] = f.kernel.BootCreateThread(f.procs[1]).value;
  return f;
}

Syscall MapPage(VAddr va) {
  Syscall c;
  c.op = SysOp::kMmap;
  c.va_range = VaRange{va, 1, PageSize::k4K};
  c.map_perm = MapEntryPerm{.writable = true, .user = true, .no_execute = true};
  return c;
}

// serve_percall's i-th request syscall: map, then unmap, a page of the
// rotating window. Every one succeeds.
Syscall RequestSyscall(std::uint64_t i) {
  VAddr va = kReqWindow + ((i >> 1) % kReqWindowSlots) * kPageSize4K;
  if ((i & 1) == 0) {
    return MapPage(va);
  }
  Syscall c;
  c.op = SysOp::kMunmap;
  c.va_range = VaRange{va, 1, PageSize::k4K};
  return c;
}

// Everything a serving run needs, built in the order set-up is timed:
// kernel boot and fixture, checker, DMA machine and driver init, Maglev,
// splice slab pre-render, kv warm-up, and the checker's first step.
struct Rig {
  Rig(bool percall, std::uint64_t seed)
      : fixture(BootFixture(percall)),
        checker(&fixture.kernel,
                RefinementChecker::Options{
                    .check_wf_every = 64, .audit_every = 256, .incremental = true}),
        mem(kDataFrames),
        alloc(kDataFrames, 1),
        iommu(&mem),
        domain(iommu.CreateDomain(&alloc, kNullPtr)),
        arena(&mem, &alloc, &iommu, domain, 0x10000000ull),
        nic(&mem, &iommu, /*device_id=*/1),
        driver(&arena, &nic, kNicRing),
        store(1 << 14),
        traffic(seed) {
    ATMO_CHECK(iommu.AttachDevice(domain, 1), "perfbench: NIC attach failed");
    nic.SetPacketSource([this](std::uint8_t* buf) { return traffic.Next(buf); });
    nic.SetPacketSink(
        [this](const std::uint8_t* frame, std::size_t len) { traffic.Check(frame, len); });
    driver.Init();
    for (int i = 0; i < 8; ++i) {
      MaglevBackend b;
      b.name = "backend-" + std::to_string(i);
      b.mac = MacAddr{0x02, 0, 0, 0, 0x20, static_cast<std::uint8_t>(i)};
      b.ip = 0x0a020000u + static_cast<std::uint32_t>(i);
      lb.AddBackend(b);
    }
    lb.Populate();
    for (int d = 0; d < 2; ++d) {
      httpd.AddPage(kDocPaths[d], "text/html", kDocBodies[d]);
    }
    for (std::size_t p = 0; p < httpd.SplicePagesNeeded(); ++p) {
      VAddr iova = arena.Alloc(kPageSize4K);
      httpd.AddSplicePage(arena.BorrowWrite(iova, kPageSize4K), iova, kHeadersLen);
    }
    for (std::size_t p = 0; p < store.SplicePagesNeeded(); ++p) {
      VAddr iova = arena.Alloc(kPageSize4K);
      store.AddSplicePage(arena.BorrowWrite(iova, kPageSize4K), iova, kHeadersLen);
    }
    char name[16];
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      std::size_t klen = KeyName(k, name);
      ATMO_CHECK(store.Set(std::string_view(name, klen), traffic.Value(k)),
                 "perfbench: kv warm-up failed");
    }
    // serve_splice lends this page every burst; serve_percall maps it too
    // so both pay the same first (full-abstraction) checked step.
    ATMO_CHECK(checker.Step(fixture.thrds[0], MapPage(kGrantSlotVa)).ok(),
               "perfbench: first checked step failed");
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  TraceFixture fixture;
  RefinementChecker checker;
  PhysMem mem;
  PageAllocator alloc;
  IommuManager iommu;
  IommuDomainId domain;
  DmaArena arena;
  SimNic nic;
  IxgbeDriver driver;
  Maglev lb;
  Httpd httpd;
  KvStore store;
  Traffic traffic;
};

// Work counts of the serving loop; the exact counters are deltas of these.
struct Counts {
  std::uint64_t requests = 0;  // generated
  std::uint64_t served = 0;    // queued for TX
  std::uint64_t spliced = 0;
  std::uint64_t polls = 0;
  std::uint64_t views = 0;
  std::uint64_t tx_full = 0;
  std::uint64_t parse_fail = 0;
  std::uint64_t maglev_miss = 0;
  std::uint64_t step_fail = 0;
  std::uint64_t window_flushes = 0;
};

struct Snapshot {
  Counts counts;
  CheckStats stats;
  std::uint64_t heap_allocs = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t digest = 0;
};

class Server {
 public:
  Server(Rig* rig, bool percall) : rig_(rig), percall_(percall) {}

  // One closed-loop round: 32 requests in, their responses out.
  void Poll(SpanRecorder* rec) {
    Rig& r = *rig_;
    r.traffic.recorder = rec;
    Scope poll(rec, Layer::kPoll);
    {
      Scope s(rec, Layer::kNicRx);
      r.nic.DeliverRx(kBurst);
    }
    std::uint64_t t_burst = NowNs();
    std::uint32_t burst;
    {
      Scope s(rec, Layer::kDrvRx);
      burst = r.driver.RxPeekBurst(views_, kBurst);
    }
    ++counts.polls;
    counts.views += burst;
    ThrdPtr server = r.fixture.thrds[0];
    ThrdPtr app = r.fixture.thrds[2];
    if (!percall_ && burst > 0) {
      // Lend the burst's page to the app process: its Recv parks, the
      // server's Send carries the kBorrow grant.
      Scope s(rec, Layer::kGrant);
      Syscall recv;
      recv.op = SysOp::kRecv;
      recv.edpt_idx = 0;
      CheckedStep(app, recv, SysError::kBlocked);
      Syscall grant;
      grant.op = SysOp::kSend;
      grant.edpt_idx = 0;
      grant.payload.page =
          PageGrant{.page = kGrantSlotVa,
                    .size = PageSize::k4K,
                    .dest_va = kGrantDestVa,
                    .perm = MapEntryPerm{.writable = false, .user = true, .no_execute = true},
                    .mode = GrantMode::kBorrow};
      CheckedStep(server, grant, SysError::kOk);
    }
    std::uint32_t queued = 0;
    std::uint64_t served_before = counts.served;
    for (std::uint32_t v = 0; v < burst; ++v) {
      std::uint64_t seq = counts.requests++;
      std::uint64_t t_request = percall_ ? NowNs() : 0;
      Scope req(rec, Layer::kRequest, seq + 1);
      if (!Serve(views_[v], rec)) {
        r.traffic.MarkDropped(seq);
        continue;
      }
      ++queued;
      ++counts.served;
      if (percall_) {
        Scope s(rec, Layer::kStep);
        CheckedStep(server, RequestSyscall(step_seq_++), SysError::kOk);
        latency.emplace_back(NowNs() - t_request, 1);
      }
    }
    if (queued > 0) {
      Scope s(rec, Layer::kDrvTx);
      r.driver.TxFlush();
    }
    {
      Scope s(rec, Layer::kDrvRx);
      r.driver.RxReleaseBurst(burst);
    }
    if (!percall_ && burst > 0) {
      // Return the loan; this transition certifies the burst's requests.
      Scope s(rec, Layer::kGrant);
      Syscall gret;
      gret.op = SysOp::kGrantReturn;
      gret.va_range = VaRange{kGrantDestVa, 1, PageSize::k4K};
      CheckedStep(app, gret, SysError::kOk);
      std::uint64_t served = counts.served - served_before;
      if (served > 0) {
        latency.emplace_back(NowNs() - t_burst, served);
      }
    }
    TransmitWindow(rec);
  }

  Counts counts;
  // Request latency samples (ns, number of requests with that latency).
  // serve_splice: one per burst, from burst peek to the grant return that
  // certifies the whole burst. serve_percall: one per request, from the
  // moment the server picks it up to its own step's certification; the
  // steps of the requests ahead of it in the burst are not counted (their
  // sum would make p99.9 the slowest stretch of host speed, README.md).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> latency;
  std::vector<std::uint32_t> step_ns;  // wall time of every checked step
  std::uint64_t step_wall_ns = 0;

 private:
  // Parse, balance, answer and queue one frame; false = dropped.
  bool Serve(const RxView& view, SpanRecorder* rec) {
    Rig& r = *rig_;
    std::optional<ParsedFrame> parsed;
    {
      Scope s(rec, Layer::kNet);
      parsed = ParseUdpFrame(view.data, view.len);
    }
    if (!parsed.has_value()) {
      ++counts.parse_fail;
      return false;
    }
    int backend;
    {
      Scope s(rec, Layer::kMaglev);
      backend = r.lb.Lookup(parsed->flow);
    }
    if (backend < 0) {
      ++counts.maglev_miss;
      return false;
    }
    bool http = parsed->flow.dst_port == kHttpPort;
    std::uint64_t key = 0;
    if (!http) {
      // A kv slot's slice carries the headers of the GET it was handed to
      // until the NIC has sent it, so a request that touches a key already
      // spliced in this TX window first lets the window go out.
      const std::uint8_t* req = parsed->payload;
      std::size_t klen =
          parsed->payload_len >= 3 ? std::min<std::size_t>(req[1], parsed->payload_len - 3) : 0;
      key = Fnv1a(req + 3, klen);
      if (std::find(window_keys_, window_keys_ + window_len_, key) !=
          window_keys_ + window_len_) {
        ++counts.window_flushes;
        {
          Scope s(rec, Layer::kDrvTx);
          r.driver.TxFlush();
        }
        TransmitWindow(rec);
      }
    }
    FiveTuple reply{.src_ip = parsed->flow.dst_ip, .dst_ip = parsed->flow.src_ip,
                    .src_port = parsed->flow.dst_port, .dst_port = parsed->flow.src_port};
    Layer app_layer = http ? Layer::kHttpd : Layer::kKvstore;
    std::optional<SpliceSlice> slice;
    {
      Scope s(rec, app_layer);
      slice = http ? r.httpd.HandleRequestSpliced(parsed->payload, parsed->payload_len)
                   : r.store.HandleRequestSpliced(parsed->payload, parsed->payload_len);
    }
    if (slice.has_value()) {
      std::size_t flen;
      {
        Scope s(rec, Layer::kNet);
        flen = FinishUdpFrame(slice->frame, kServerMac, parsed->src_mac, reply,
                              slice->resp_len);
      }
      bool ok;
      {
        Scope s(rec, Layer::kDrvTx);
        ok = r.driver.TxInPlaceDeferred(slice->iova, static_cast<std::uint16_t>(flen));
      }
      if (!ok) {
        ++counts.tx_full;
        return false;
      }
      ++counts.spliced;
      if (!http) {
        window_keys_[window_len_++] = key;
      }
      return true;
    }
    // SETs (and anything the slabs cannot answer) take the claim path: the
    // response is written into a claimed TX buffer.
    std::uint8_t* tx;
    {
      Scope s(rec, Layer::kDrvTx);
      tx = r.driver.TxClaim();
    }
    if (tx == nullptr) {
      ++counts.tx_full;
      return false;
    }
    std::size_t rlen;
    {
      Scope s(rec, app_layer);
      rlen = http ? r.httpd.HandleRequest(parsed->payload, parsed->payload_len,
                                          tx + kHeadersLen, kIxgbeBufBytes - kHeadersLen)
                  : r.store.HandleRequest(parsed->payload, parsed->payload_len,
                                          tx + kHeadersLen);
    }
    std::size_t flen;
    {
      Scope s(rec, Layer::kNet);
      flen = FinishUdpFrame(tx, kServerMac, parsed->src_mac, reply, rlen);
    }
    Scope s(rec, Layer::kDrvTx);
    r.driver.TxCommitDeferred(static_cast<std::uint16_t>(flen));
    return true;
  }

  void TransmitWindow(SpanRecorder* rec) {
    Scope s(rec, Layer::kNicTx);
    rig_->nic.ProcessTx(kNicRing);
    window_len_ = 0;
  }

  void CheckedStep(ThrdPtr t, const Syscall& call, SysError expect) {
    std::uint64_t t0 = NowNs();
    SyscallRet ret = rig_->checker.Step(t, call);
    std::uint64_t dt = NowNs() - t0;
    step_ns.push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(dt, ~0u)));
    step_wall_ns += dt;
    if (ret.error != expect) {
      ++counts.step_fail;
    }
  }

  Rig* rig_;
  bool percall_;
  RxView views_[kBurst];
  std::uint64_t step_seq_ = 0;
  std::uint64_t window_keys_[kBurst];
  std::size_t window_len_ = 0;
};

Snapshot Take(const Server& server, const Rig& rig, const obs::CopyProbe& copies,
              const obs::AllocProbe& allocs) {
  return Snapshot{server.counts, rig.checker.stats(), allocs.allocs(), copies.bytes(),
                  rig.traffic.digest};
}

double PerUnit(double num, double den) { return den > 0 ? num / den : 0.0; }

// A 64-bit value as a quoted JSON string (a JSON number would lose bits).
std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

Report RunServe(const RunOptions& options, bool percall) {
  Report report;
  // A failed check must end the run with a verdict, not an abort.
  ScopedThrowOnCheckFailure throw_guard;
  try {
    // Set-up, repeated; the last rig serves.
    std::unique_ptr<Rig> rig;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupReps; ++i) {
      rig.reset();
      std::uint64_t t0 = NowNs();
      rig = std::make_unique<Rig>(percall, options.seed);
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }

    Server server(rig.get(), percall);
    server.latency.reserve(1u << 20);
    server.step_ns.reserve(1u << 20);
    std::optional<SpanRecorder> recorder;
    if (options.trace) {
      recorder.emplace(kKeptSpans);
    }

    // The counted window doubles as the first part of the warm-up: a fixed
    // amount of work (kCountedSteps checked steps in whole polls), so the
    // exact counters do not depend on how fast the host is.
    obs::CopyProbe copies;
    obs::AllocProbe allocs;
    Snapshot start = Take(server, *rig, copies, allocs);
    while (rig->checker.stats().steps - start.stats.steps < kCountedSteps) {
      server.Poll(nullptr);
    }
    Snapshot counted = Take(server, *rig, copies, allocs);
    for (std::uint64_t warm_end = NowNs() + kWarmupNs; NowNs() < warm_end;) {
      server.Poll(nullptr);
    }
    // Peak memory of set-up, counted window and warm-up: the program's
    // steady-state footprint, before the timed loop's latency samples (the
    // benchmark's own memory, growing with throughput) pile up.
    double peak_rss_mb = PeakRssMb();
    server.latency.clear();
    server.step_ns.clear();
    server.step_wall_ns = 0;
    Snapshot timed = Take(server, *rig, copies, allocs);

    // Timed loop in blocks; traced runs trace every other block.
    std::vector<double> req_rates[2];  // per untraced and traced block
    std::vector<double> step_rates;    // per untraced block
    std::uint64_t now = NowNs();
    std::uint64_t t_end = now + static_cast<std::uint64_t>(options.seconds * 1e9);
    for (std::uint64_t block = 0; now < t_end; ++block) {
      bool traced = options.trace && block % 2 == 1;
      SpanRecorder* rec = traced ? &*recorder : nullptr;
      std::uint64_t b0 = now;
      std::uint64_t r0 = server.counts.requests;
      std::uint64_t s0 = rig->checker.stats().steps;
      std::uint64_t b_end = std::min(t_end, b0 + kBlockNs);
      while (now < b_end) {
        server.Poll(rec);
        now = NowNs();
      }
      if (now - b0 < kBlockNs / 2) {
        continue;  // a short last block is left out
      }
      double dt = static_cast<double>(now - b0) / 1e9;
      req_rates[traced].push_back(static_cast<double>(server.counts.requests - r0) / dt);
      if (!traced) {
        step_rates.push_back(static_cast<double>(rig->checker.stats().steps - s0) / dt);
      }
    }
    Snapshot end = Take(server, *rig, copies, allocs);
    rig->traffic.recorder = nullptr;
    std::string rates_json;
    for (double r : req_rates[0]) {
      rates_json += rates_json.empty() ? "" : ",";
      rates_json += std::to_string(static_cast<std::uint64_t>(r));
    }
    report.Info("block_req_per_s", "[" + rates_json + "]");

    // Output check.
    const Counts& c = end.counts;
    std::uint64_t unanswered = rig->traffic.Unanswered();
    std::uint64_t dropped = c.tx_full + c.parse_fail + c.maglev_miss;
    report.attempted = c.requests;
    report.failed = dropped + c.step_fail + rig->traffic.mismatches + unanswered;
    if (rig->traffic.mismatches > 0) {
      report.Fail(std::to_string(rig->traffic.mismatches) + " egress mismatches");
    }
    if (unanswered > 0) {
      report.Fail(std::to_string(unanswered) + " requests never answered");
    }
    if (c.step_fail > 0) {
      report.Fail(std::to_string(c.step_fail) + " checked steps returned the wrong result");
    }
    if (dropped > 0) {
      report.Fail(std::to_string(dropped) + " requests dropped");
    }
    if (!rig->fixture.kernel.TotalWf().ok) {
      report.Fail("final TotalWf() does not hold");
    }

    // End-to-end metrics (meaningful on the untraced run).
    std::uint64_t steps = end.stats.steps - timed.stats.steps;
    Percentile p50 = ExactPercentile(server.latency, 0.50);
    Percentile p999 = ExactPercentile(server.latency, 0.999);
    report.Metric("req_per_s", Median(req_rates[0]));
    report.Metric("steps_per_s", Median(step_rates));
    report.Metric("lat_p50_us", p50.value / 1e3);
    report.Metric("lat_p999_us", p999.value / 1e3);
    ReportSetup(setup_s, &report);
    report.Metric("peak_rss_mb", peak_rss_mb);
    report.Info("lat_samples", std::to_string(p999.samples));
    report.Info("lat_p999_beyond", std::to_string(p999.beyond));
    if (!options.trace && p999.beyond < 10) {
      report.Fail("fewer than 10 latency samples beyond p99.9");
    }

    // Exact counters over the counted window.
    const Snapshot& w = counted;
    double w_steps = static_cast<double>(w.stats.steps - start.stats.steps);
    double w_req = static_cast<double>(w.counts.requests - start.counts.requests);
    double w_served = static_cast<double>(w.counts.served - start.counts.served);
    report.Metric("vstd.arena_allocs_per_step",
                  PerUnit(static_cast<double>(w.stats.arena_allocs - start.stats.arena_allocs),
                          w_steps));
    report.Metric("vstd.heap_allocs_per_step",
                  PerUnit(static_cast<double>(w.stats.heap_allocs - start.stats.heap_allocs),
                          w_steps));
    report.Metric("verif.dirty_entries_per_step",
                  PerUnit(static_cast<double>(w.stats.dirty_entries - start.stats.dirty_entries),
                          w_steps));
    report.Metric("verif.max_dirty_entries", static_cast<double>(w.stats.max_dirty_entries));
    report.Metric("verif.wf_checks", static_cast<double>(w.stats.wf_checks - start.stats.wf_checks));
    report.Metric("verif.audit_passes",
                  static_cast<double>(w.stats.audit_passes - start.stats.audit_passes));
    report.Metric("drivers.burst_fill",
                  PerUnit(static_cast<double>(w.counts.views - start.counts.views),
                          static_cast<double>(w.counts.polls - start.counts.polls) * kBurst));
    report.Metric("drivers.tx_full_drops",
                  static_cast<double>(w.counts.tx_full - start.counts.tx_full));
    report.Metric("net.parse_fail",
                  static_cast<double>(w.counts.parse_fail - start.counts.parse_fail));
    report.Metric("apps.splice_frac",
                  PerUnit(static_cast<double>(w.counts.spliced - start.counts.spliced), w_served));
    report.Metric("obs.bytes_copied_per_req",
                  PerUnit(static_cast<double>(w.bytes_copied - start.bytes_copied), w_req));
    report.Metric("obs.heap_allocs_per_req",
                  PerUnit(static_cast<double>(w.heap_allocs - start.heap_allocs), w_req));
    report.Metric("verif.sweep.batch_drains", 0);
    report.Metric("verif.sweep.coverage_cells", 0);
    report.Info("sequence_digest", Hex(w.digest));
    report.Info("counted_window",
                "{\"steps\":" + std::to_string(static_cast<std::uint64_t>(w_steps)) +
                    ",\"requests\":" + std::to_string(static_cast<std::uint64_t>(w_req)) +
                    ",\"window_flushes\":" +
                    std::to_string(w.counts.window_flushes - start.counts.window_flushes) + "}");

    // Checker phase times over the whole loop.
    const CheckStats& s0 = timed.stats;
    const CheckStats& s1 = end.stats;
    double d_steps = static_cast<double>(steps);
    double phases = static_cast<double>((s1.abstraction_ns - s0.abstraction_ns) +
                                        (s1.spec_ns - s0.spec_ns) + (s1.wf_ns - s0.wf_ns) +
                                        (s1.audit_ns - s0.audit_ns));
    report.Metric("verif.step_ns_p50", ExactPercentile(server.step_ns, 0.5).value);
    report.Metric("verif.abstraction_ns_per_step",
                  PerUnit(static_cast<double>(s1.abstraction_ns - s0.abstraction_ns), d_steps));
    report.Metric("verif.spec_ns_per_step",
                  PerUnit(static_cast<double>(s1.spec_ns - s0.spec_ns), d_steps));
    report.Metric("verif.wf_ns_per_step", PerUnit(static_cast<double>(s1.wf_ns - s0.wf_ns), d_steps));
    report.Metric("verif.audit_ns_per_step",
                  PerUnit(static_cast<double>(s1.audit_ns - s0.audit_ns), d_steps));
    report.Metric("verif.unattributed_ns_per_step",
                  PerUnit(static_cast<double>(server.step_wall_ns) - phases, d_steps));

    // Span self times (traced blocks only).
    if (recorder) {
      const SpanRecorder& rec = *recorder;
      double t_req = static_cast<double>(rec.totals(Layer::kRequest).count);
      auto self = [&](Layer l) { return static_cast<double>(rec.totals(l).self_ns); };
      report.Metric("hw.nic.rx_ns_per_req", PerUnit(self(Layer::kNicRx), t_req));
      report.Metric("hw.nic.tx_ns_per_req", PerUnit(self(Layer::kNicTx), t_req));
      report.Metric("drivers.rx_ns_per_req", PerUnit(self(Layer::kDrvRx), t_req));
      report.Metric("drivers.tx_ns_per_req", PerUnit(self(Layer::kDrvTx), t_req));
      report.Metric("net.ns_per_req", PerUnit(self(Layer::kNet), t_req));
      // Per request that went through the layer; each app sees only its
      // own requests, and every request passes Maglev and the generator
      // exactly once.
      auto per_call = [&](Layer l) {
        return PerUnit(self(l), static_cast<double>(rec.totals(l).count));
      };
      report.Metric("apps.maglev.ns_per_req", per_call(Layer::kMaglev));
      report.Metric("apps.httpd.ns_per_req", per_call(Layer::kHttpd));
      report.Metric("apps.kvstore.ns_per_req", per_call(Layer::kKvstore));
      report.Metric("gen.ns_per_req", per_call(Layer::kGen));
      report.Metric("core.ipc.grant_ns_per_burst",
                    PerUnit(self(Layer::kGrant), static_cast<double>(rec.totals(Layer::kPoll).count)));
      double untraced_rps = Median(req_rates[0]);
      double traced_rps = Median(req_rates[1]);
      report.Metric("obs.trace_overhead_pct",
                    untraced_rps > 0 ? 100.0 * (untraced_rps - traced_rps) / untraced_rps : 0.0);
      report.Info("self_time", SelfTimeJson(rec));
      if (!options.trace_out.empty() && !rec.WriteChromeTrace(options.trace_out)) {
        report.Fail("cannot write " + options.trace_out);
      }
    }
    report.Metric("verif.sweep.worker_busy_frac", 0);
    report.Metric("verif.sweep.shard_wall_s.p50", 0);
    report.Metric("verif.sweep.shard_wall_s.max", 0);
    report.Metric("verif.sweep.queue_wait_s.max", 0);
  } catch (const CheckViolation& violation) {
    report.Fail(std::string("check violation: ") + violation.what());
    report.failed += 1;
  }
  return report;
}

}  // namespace perfbench
