#include "spans.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kPoll: return "serve.poll";
    case Layer::kRequest: return "serve.request";
    case Layer::kGen: return "gen";
    case Layer::kEgress: return "check.egress";
    case Layer::kNicRx: return "hw.nic.rx";
    case Layer::kNicTx: return "hw.nic.tx";
    case Layer::kDrvRx: return "drivers.rx";
    case Layer::kDrvTx: return "drivers.tx";
    case Layer::kNet: return "net";
    case Layer::kMaglev: return "apps.maglev";
    case Layer::kHttpd: return "apps.httpd";
    case Layer::kKvstore: return "apps.kvstore";
    case Layer::kGrant: return "core.ipc.grant";
    case Layer::kStep: return "verif.step";
    case Layer::kShard: return "verif.sweep.shard";
    case Layer::kCount: break;
  }
  return "?";
}

SpanRecorder::SpanRecorder(std::size_t keep) : keep_(keep) { kept_.reserve(keep); }

void SpanRecorder::Begin(Layer layer, std::uint64_t request) {
  if (depth_ == kMaxDepth) {
    std::fprintf(stderr, "perfbench: span nesting deeper than %d\n", kMaxDepth);
    std::abort();
  }
  std::uint64_t parent = depth_ > 0 ? stack_[depth_ - 1].id : 0;
  if (request == 0 && depth_ > 0) {
    request = stack_[depth_ - 1].request;  // children inherit the request id
  }
  stack_[depth_++] = Open{layer, next_id_++, parent, NowNs(), 0, request};
}

void SpanRecorder::End() {
  std::uint64_t end = NowNs();
  const Open& open = stack_[--depth_];
  std::uint64_t duration = end - open.start_ns;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += duration;
  }
  LayerTotals& t = totals_[static_cast<std::size_t>(open.layer)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - open.child_ns;
  Keep(Span{open.id, open.parent, open.start_ns, end, open.request, 0, open.layer});
}

std::uint64_t SpanRecorder::Add(Layer layer, std::uint64_t start_ns, std::uint64_t end_ns,
                                std::uint64_t self_ns, std::uint64_t parent,
                                std::uint64_t request, std::uint32_t tid) {
  LayerTotals& t = totals_[static_cast<std::size_t>(layer)];
  ++t.count;
  t.total_ns += end_ns - start_ns;
  t.self_ns += self_ns;
  std::uint64_t id = next_id_++;
  Keep(Span{id, parent, start_ns, end_ns, request, tid, layer});
  return id;
}

void SpanRecorder::Keep(const Span& span) {
  if (kept_.size() < keep_) {
    kept_.push_back(span);
  } else {
    ++dropped_;
  }
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::uint64_t origin = ~0ull;
  for (const Span& s : kept_) {
    origin = s.start_ns < origin ? s.start_ns : origin;
  }
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(out,
               "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":\"perfbench\"}}");
  for (const Span& s : kept_) {
    std::fprintf(out,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"%s\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"req\":%llu}}",
                 s.tid, LayerName(s.layer), static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
