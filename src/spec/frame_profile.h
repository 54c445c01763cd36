// Frame-condition check: which components of Ψ a syscall may touch.
//
// The per-syscall specifications (syscall_specs.cc) state exact frame
// conditions, but they are spread across ~1200 lines of predicate code — a
// reviewer cannot see at a glance what kMmap is allowed to modify. Each op's
// SysOpInfo row (src/core/syscall.h) carries the coarse, declarative
// summary: a FrameProfile naming the abstract-state components the op may
// change on ANY outcome (success, blocked, or failure). It is enforced two
// ways:
//
//   * at runtime — RefinementChecker::Step evaluates
//     FrameProfileViolation(Ψ, Ψ', profile) after every Exec and fails
//     verification if a component outside the profile changed. Unchanged
//     components share their COW rep in incremental mode, so the check is
//     O(1) per untouched component;
//   * at compile time — the row table is a switch without `default:`, and
//     the project builds with -Werror=switch -Werror=switch-enum, so a new
//     syscall without a row (and so without a frame) does not compile.

#ifndef ATMO_SRC_SPEC_FRAME_PROFILE_H_
#define ATMO_SRC_SPEC_FRAME_PROFILE_H_

#include <string>

#include "src/core/syscall.h"
#include "src/spec/abstract_state.h"

namespace atmo {

// Checks that every component NOT in `profile` is identical between `pre`
// and `post`. Returns the empty string on success, else the name of the
// first out-of-frame component that changed. Component equality hits the
// COW SharesRepWith fast path whenever the abstraction left the rep alone,
// so a passing check on an untouched component is O(1).
inline std::string FrameProfileViolation(const AbstractKernel& pre, const AbstractKernel& post,
                                         const FrameProfile& profile) {
  if (!profile.threads && !(pre.threads == post.threads)) {
    return "threads";
  }
  if (!profile.containers &&
      (pre.root_container != post.root_container || !(pre.containers == post.containers))) {
    return "containers";
  }
  if (!profile.procs && !(pre.procs == post.procs)) {
    return "procs";
  }
  if (!profile.endpoints && !(pre.endpoints == post.endpoints)) {
    return "endpoints";
  }
  if (!profile.address_spaces && !(pre.address_spaces == post.address_spaces)) {
    return "address_spaces";
  }
  if (!profile.pages && !(pre.pages == post.pages)) {
    return "pages";
  }
  if (!profile.free_sets &&
      !(pre.free_pages_4k == post.free_pages_4k && pre.free_pages_2m == post.free_pages_2m &&
        pre.free_pages_1g == post.free_pages_1g)) {
    return "free_sets";
  }
  if (!profile.iommu && !(pre.iommu_domains == post.iommu_domains)) {
    return "iommu";
  }
  if (!profile.rings && !(pre.rings == post.rings)) {
    return "rings";
  }
  if (!profile.scheduler &&
      !(pre.run_queue == post.run_queue && pre.current == post.current)) {
    return "scheduler";
  }
  return std::string();
}

}  // namespace atmo

#endif  // ATMO_SRC_SPEC_FRAME_PROFILE_H_
