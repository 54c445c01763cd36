#include "src/verif/refinement_checker.h"

#include <chrono>
#include <string>
#include <utility>

#include "src/obs/alloc_hook.h"
#include "src/obs/flight_recorder.h"
#include "src/spec/frame_profile.h"
#include "src/vstd/check.h"
#include "src/vstd/thread_annotations.h"

namespace atmo {

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void RefinementChecker::EnsureArenas() {
  if (!options_.use_arena || arenas_[0] != nullptr) {
    return;
  }
  arenas_[0] = std::make_shared<SpecArena>(SpecArena::kDefaultChunkBytes);
  arenas_[1] = std::make_shared<SpecArena>(SpecArena::kDefaultChunkBytes);
}

AbstractKernel RefinementChecker::Capture() {
  // Drain in both modes: the logs are append-only and must not grow without
  // bound across a long full-rebuild run.
  DirtySet dirty = kernel_->DrainDirty();
  // Reps detached while building Ψ land in the checker's active arena (or
  // the heap when use_arena is off — ArenaScope(nullptr) is the heap).
  ArenaScope arena_scope(ActiveArenaRef());
  std::uint64_t t0 = NowNs();
  AbstractKernel psi;
  if (options_.incremental && cached_ && !dirty.overflow) {
    std::uint64_t entries = dirty.TotalEntries();
    stats_.dirty_entries += entries;
    if (entries > stats_.max_dirty_entries) {
      stats_.max_dirty_entries = entries;
    }
    ++stats_.delta_abstractions;
    ATMO_OBS_SPAN_ARG(obs::kCatCheck, "check.abstract_delta", "dirty_entries", entries);
    psi = kernel_->AbstractDelta(*cached_, dirty);
  } else {
    ++stats_.full_abstractions;
    ATMO_OBS_SPAN(obs::kCatCheck, "check.abstract_full");
    psi = kernel_->Abstract();
  }
  stats_.abstraction_ns += NowNs() - t0;
  return psi;
}

SyscallRet RefinementChecker::Step(ThrdPtr t, const Syscall& call)
    ATMO_HOT_PATH(hot-path-alloc) {
  EnsureArenas();
  if (arena_reset_pending_) {
    // Deferred from the last audit flip: the retired arena's last references
    // were this checker's own pre/mid/post locals, which died when that
    // Step returned — so the reset normally succeeds here. If a snapshot
    // escaped (a test holding Ψ, say) the reset is refused and retried at
    // the next flip; a refused reset only skips recycling, it is never
    // unsafe (src/vstd/arena.h).
    if (arenas_[1 - active_arena_]->Reset()) {
      arena_reset_pending_ = false;
    }
  }
  obs::AllocProbe heap_probe;
  // Flight-recorder span for the whole checked syscall; the trailing 'E'
  // event carries the error name (or closes bare on a check violation).
  const SysOpInfo op_info = SysOpInfoOf(call.op);
  obs::ObsSpan sys_span(obs::kCatSyscall, op_info.label);
  AbstractKernel pre = Capture();
  cached_ = pre;
  kernel_->Dispatch(t);
  AbstractKernel mid = Capture();
  cached_ = mid;

  std::uint64_t t0 = NowNs();
  SpecResult dispatch = [&] {
    ATMO_OBS_SPAN(obs::kCatCheck, "check.spec");
    // Spec checks build transient expected-Ψ values (functional insert /
    // remove copies); those belong in the arena with the snapshots.
    ArenaScope arena_scope(ActiveArenaRef());
    return DispatchSpec(pre, mid, t);
  }();
  stats_.spec_ns += NowNs() - t0;
  ATMO_CHECK(dispatch.ok, "dispatch refinement failed: " + dispatch.detail);

  SyscallRet ret = kernel_->Exec(t, call);
  AbstractKernel post = Capture();
  cached_ = std::move(post);

  t0 = NowNs();
  SpecResult spec = [&] {
    ATMO_OBS_SPAN(obs::kCatCheck, "check.spec");
    ArenaScope arena_scope(ActiveArenaRef());
    return SyscallSpec(mid, *cached_, t, call, ret);
  }();
  // The op's declarative frame profile (its SysOpInfo row) is checked in
  // the same pass: components outside the profile must be untouched.
  std::string frame = [&] {
    ATMO_OBS_SPAN(obs::kCatCheck, "check.frame");
    ArenaScope arena_scope(ActiveArenaRef());
    return FrameProfileViolation(mid, *cached_, op_info.frame);
  }();
  stats_.spec_ns += NowNs() - t0;
  ATMO_CHECK(spec.ok, std::string("syscall refinement failed (") + op_info.name() +
                          ", ret " + SysErrorName(ret.error) + "): " + spec.detail);
  ATMO_CHECK(frame.empty(), std::string("frame profile violated (") + op_info.name() +
                                ", ret " + SysErrorName(ret.error) +
                                "): out-of-frame component changed: " + frame);

  ++stats_.steps;
  if (call.op == SysOp::kRingEnter && ret.ok()) {
    // One checked transition just covered ret.value inner syscalls — the
    // batch amortization this pair of counters quantifies.
    ++stats_.batch_drains;
    stats_.batched_entries += ret.value;
  }
  if (options_.check_wf_every != 0 && stats_.steps % options_.check_wf_every == 0) {
    t0 = NowNs();
    InvResult wf = [&] {
      ATMO_OBS_SPAN(obs::kCatCheck, "check.wf");
      // Invariant evaluation builds transient spec views of every
      // subsystem (O(state) map/set temporaries, all dead by the time the
      // InvResult returns) — the largest per-step allocation source after
      // the snapshots themselves, so it belongs in the arena too.
      ArenaScope arena_scope(ActiveArenaRef());
      return kernel_->TotalWf();
    }();
    stats_.wf_ns += NowNs() - t0;
    ++stats_.wf_checks;
    ATMO_CHECK(wf.ok, std::string("total_wf failed after ") + op_info.name() + ": " +
                          wf.detail);
  }
  if (options_.incremental && options_.audit_every != 0 &&
      stats_.steps % options_.audit_every == 0) {
    t0 = NowNs();
    // No drain here: anything mutated since the post-capture belongs to the
    // next step's delta. The audit recomputes Ψ of the state as the cache
    // sees it and demands bit-for-bit agreement.
    bool agree = [&] {
      ATMO_OBS_SPAN(obs::kCatCheck, "check.audit");
      // The full rebuild happens in the PARTNER arena. On agreement the
      // rebuilt Ψ replaces cached_, so nothing durable references the
      // active arena any more; the roles flip and the old arena is reset
      // at the start of the next Step (this step's locals still hold reps
      // in it). This is the audit-aligned recycle point of DESIGN.md §14.
      const int partner = 1 - active_arena_;
      ArenaScope arena_scope(arenas_[partner]);
      AbstractKernel full = kernel_->Abstract();
      bool equal = full == *cached_;
      if (equal && arenas_[partner] != nullptr) {
        cached_ = std::move(full);
        active_arena_ = partner;
        arena_reset_pending_ = true;
      }
      return equal;
    }();
    stats_.audit_ns += NowNs() - t0;
    ++stats_.audit_passes;
    ATMO_CHECK(agree, std::string("incremental-abstraction audit failed after ") +
                          op_info.name() + ": cached Ψ diverged from Abstract()");
  }
  stats_.heap_allocs += heap_probe.allocs();
  if (arenas_[0] != nullptr) {
    stats_.arena_allocs = arenas_[0]->stats().allocs + arenas_[1]->stats().allocs;
    stats_.arena_resets = arenas_[0]->stats().resets + arenas_[1]->stats().resets;
    stats_.arena_refused_resets =
        arenas_[0]->stats().refused_resets + arenas_[1]->stats().refused_resets;
  }
  sys_span.SetResult("error", SysErrorName(ret.error));
  return ret;
}

}  // namespace atmo
