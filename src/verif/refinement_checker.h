// Refinement checker — the executable analog of Verus's refinement theorem.
//
// Wraps a Kernel and re-proves, after every step, that the concrete
// transition refines the abstract specification:
//
//   1. capture Ψ  = Abstract(kernel)          (abstraction function)
//   2. run the concrete Dispatch / Exec
//   3. capture Ψ' = Abstract(kernel)
//   4. check DispatchSpec / SyscallSpec(Ψ, Ψ', t, call, ret)
//   5. check total_wf(kernel)                  (well-formedness theorem)
//
// Incremental mode (the default) maintains Ψ across steps: each capture
// patches the cached snapshot at exactly the entries the subsystems logged
// as dirty (Kernel::AbstractDelta), so the per-step cost is O(|dirty|)
// instead of O(machine). Soundness of the dirty logs is defended in depth
// by a periodic audit: every `audit_every` steps the checker recomputes a
// full Abstract() and requires it to equal the incrementally maintained Ψ.
//
// A spec, invariant, or audit failure is routed through ATMO_CHECK — the
// same channel as permission violations — so tests can assert that
// deliberately broken kernels (or corrupted dirty sets) are caught.

#ifndef ATMO_SRC_VERIF_REFINEMENT_CHECKER_H_
#define ATMO_SRC_VERIF_REFINEMENT_CHECKER_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "src/core/kernel.h"
#include "src/spec/syscall_specs.h"
#include "src/vstd/arena.h"

namespace atmo {

// Per-phase cost counters, maintained by every checker regardless of mode.
// All times are wall-clock nanoseconds from std::chrono::steady_clock.
struct CheckStats {
  std::uint64_t steps = 0;
  std::uint64_t abstraction_ns = 0;  // time in Abstract()/AbstractDelta()
  std::uint64_t spec_ns = 0;         // time in DispatchSpec/SyscallSpec
  std::uint64_t wf_ns = 0;           // time in TotalWf()
  std::uint64_t audit_ns = 0;        // time in full-Abstract audit passes
  std::uint64_t wf_checks = 0;       // number of TotalWf() evaluations
  std::uint64_t audit_passes = 0;    // number of audits performed
  std::uint64_t full_abstractions = 0;   // full Abstract() captures
  std::uint64_t delta_abstractions = 0;  // AbstractDelta() captures
  std::uint64_t dirty_entries = 0;       // cumulative drained dirty entries
  std::uint64_t max_dirty_entries = 0;   // largest single drained dirty set
  std::uint64_t batch_drains = 0;        // successful kRingEnter transitions
  std::uint64_t batched_entries = 0;     // inner syscalls covered by them
  // Allocation telemetry (DESIGN.md §14). heap_allocs is the number of
  // ::operator new calls observed inside Step() — the numerator of the
  // allocations-per-checked-step number gated in CI. The arena_* counters
  // mirror the per-checker SpecArena stats (0 when use_arena is off).
  std::uint64_t heap_allocs = 0;
  std::uint64_t arena_allocs = 0;
  std::uint64_t arena_resets = 0;
  std::uint64_t arena_refused_resets = 0;
};

class RefinementChecker {
 public:
  struct Options {
    // total_wf is O(state), so large trace runs may check it every N steps
    // (specs are still checked on every step). 1 = always, 0 = never.
    std::uint64_t check_wf_every = 1;
    // Every N steps, recompute a full Abstract() and require it to equal
    // the incrementally maintained Ψ (defence in depth against a missing
    // dirty mark). 0 = never. Ignored in full-rebuild mode.
    std::uint64_t audit_every = 16;
    // false: rebuild Ψ from scratch at every capture (the pre-optimization
    // behaviour, kept as the differential-testing oracle).
    bool incremental = true;
    // Route the transient Ψ snapshots and spec-check temporaries through a
    // pair of per-checker SpecArenas that ping/pong at audit boundaries
    // (DESIGN.md §14). false = global heap, kept as the measurement
    // baseline for the allocations-per-step gate. Each arena reserves one
    // chunk at the first Step, before that Step's allocation probe starts.
    bool use_arena = true;
  };

  RefinementChecker(Kernel* kernel, const Options& options)
      : kernel_(kernel), options_(options) {}
  // Back-compatible constructor: incremental with default audit cadence.
  explicit RefinementChecker(Kernel* kernel, std::uint64_t check_wf_every = 1)
      : RefinementChecker(kernel, Options{.check_wf_every = check_wf_every}) {}

  // Runs one kernel step under full refinement checking.
  SyscallRet Step(ThrdPtr t, const Syscall& call);

  std::uint64_t steps_checked() const { return stats_.steps; }
  const CheckStats& stats() const { return stats_; }
  const Options& options() const { return options_; }
  // The cached Ψ (incremental mode, after at least one Step); tests use it
  // to cross-validate against a full Abstract().
  const AbstractKernel* cached() const { return cached_ ? &*cached_ : nullptr; }
  Kernel* kernel() { return kernel_; }

  // Arena introspection for tests and benches. Null when use_arena is off
  // or before the first Step. The active arena serves the current audit
  // window's captures; the retired one is awaiting its deferred reset.
  const SpecArena* active_arena() const { return arenas_[active_arena_].get(); }
  const SpecArena* retired_arena() const {
    return arenas_[1 - active_arena_].get();
  }

 private:
  // Drains the kernel's dirty logs and produces the current Ψ — by patching
  // the cached snapshot when incremental, by full rebuild otherwise.
  AbstractKernel Capture();
  void EnsureArenas();
  // The arena new allocations should target right now (null = heap).
  const std::shared_ptr<SpecArena>& ActiveArenaRef() const {
    return arenas_[active_arena_];
  }

  Kernel* kernel_;
  Options options_;
  CheckStats stats_;
  std::optional<AbstractKernel> cached_;
  // Ping/pong arena pair (see Step for the flip-and-deferred-reset dance).
  std::shared_ptr<SpecArena> arenas_[2];
  int active_arena_ = 0;
  bool arena_reset_pending_ = false;
};

}  // namespace atmo

#endif  // ATMO_SRC_VERIF_REFINEMENT_CHECKER_H_
