// Benchmark-side span tracing (README.md, "Traced run").
//
// The benchmark wraps every call it makes into a layer of the program in a
// span: layer name, start, end, parent span and request id. Self time (a
// span's duration minus the time its child spans cover) is aggregated per
// layer as spans close, so the per-layer report needs no post-processing.
// Closed spans are also kept in memory, up to a fixed budget, and written
// as Chrome-trace JSON at exit (loadable in Perfetto or chrome://tracing).
//
// A null recorder turns every Scope into one pointer test, which is how the
// untraced run measures end-to-end numbers without tracing cost.

#ifndef ATMO_PERFBENCH_SPANS_H_
#define ATMO_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// One entry per program layer the benchmark calls into, plus the
// benchmark's own work (gen, check.egress) and the enclosing request/poll
// spans whose self time is the unattributed remainder.
enum class Layer : std::uint8_t {
  kPoll,        // serve.poll: one closed-loop round of 32 frames
  kRequest,     // serve.request: one frame, parse to TX queue
  kGen,         // gen: the benchmark's request generator (inside hw.nic.rx)
  kEgress,      // check.egress: the benchmark's output check (inside hw.nic.tx)
  kNicRx,       // hw.nic.rx: SimNic::DeliverRx
  kNicTx,       // hw.nic.tx: SimNic::ProcessTx
  kDrvRx,       // drivers.rx: RxPeekBurst / RxReleaseBurst
  kDrvTx,       // drivers.tx: TxInPlaceDeferred / TxClaim / TxCommitDeferred / TxFlush
  kNet,         // net: ParseUdpFrame / FinishUdpFrame
  kMaglev,      // apps.maglev: Maglev::Lookup
  kHttpd,       // apps.httpd: HandleRequestSpliced / HandleRequest
  kKvstore,     // apps.kvstore: HandleRequestSpliced / HandleRequest
  kGrant,       // core.ipc.grant: the checked kBorrow rendezvous steps
  kStep,        // verif.step: one checked RefinementChecker::Step
  kShard,       // verif.sweep.shard: one SweepHarness shard
  kCount,
};

const char* LayerName(Layer layer);

struct LayerTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class SpanRecorder {
 public:
  // `keep` closed spans are stored for the trace file; later spans still
  // count in the totals.
  explicit SpanRecorder(std::size_t keep);

  void Begin(Layer layer, std::uint64_t request);
  void End();

  // A span measured elsewhere (the sweep's shards and steps): its times,
  // self time and parent are given. Returns its id for use as a parent.
  std::uint64_t Add(Layer layer, std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint64_t self_ns, std::uint64_t parent, std::uint64_t request,
                    std::uint32_t tid);

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  std::uint64_t spans_dropped() const { return dropped_; }

  // Chrome trace-event JSON ("X" complete events, timestamps in µs from the
  // first span). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t request;
    std::uint32_t tid;
    Layer layer;
  };
  struct Open {
    Layer layer;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint64_t request;
  };
  static constexpr int kMaxDepth = 16;

  void Keep(const Span& span);

  Open stack_[kMaxDepth];
  int depth_ = 0;
  std::uint64_t next_id_ = 1;
  std::vector<Span> kept_;
  std::size_t keep_;
  std::uint64_t dropped_ = 0;
  LayerTotals totals_[static_cast<std::size_t>(Layer::kCount)];
};

// RAII span; no-op when the recorder is null.
class Scope {
 public:
  Scope(SpanRecorder* recorder, Layer layer, std::uint64_t request = 0) : recorder_(recorder) {
    if (recorder_ != nullptr) {
      recorder_->Begin(layer, request);
    }
  }
  ~Scope() {
    if (recorder_ != nullptr) {
      recorder_->End();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace perfbench

#endif  // ATMO_PERFBENCH_SPANS_H_
