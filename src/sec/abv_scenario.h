// The A/B/V mixed-criticality scenario (§4.3, Figure 1).
//
// Three containers under the root: two untrusted, mutually isolated
// containers A and B, and a verified shared-service container V. A and B
// each run one process with two threads; V runs one process with one thread
// (the paper's simplification). Trusted init wires two endpoint channels:
// e_AV between every A thread (slot 0) and V (slot 0), and e_BV between
// every B thread (slot 0) and V (slot 1). A and B cannot name each other's
// objects — the only cross-container edges are the channels through V.

#ifndef ATMO_SRC_SEC_ABV_SCENARIO_H_
#define ATMO_SRC_SEC_ABV_SCENARIO_H_

#include <vector>

#include "src/core/kernel.h"

namespace atmo {

struct AbvScenario {
  Kernel kernel;

  CtnrPtr a = kNullPtr;
  CtnrPtr b = kNullPtr;
  CtnrPtr v = kNullPtr;
  ProcPtr a_proc = kNullPtr;
  ProcPtr b_proc = kNullPtr;
  ProcPtr v_proc = kNullPtr;
  std::vector<ThrdPtr> a_threads = {};
  std::vector<ThrdPtr> b_threads = {};
  ThrdPtr v_thread = kNullPtr;
  EdptPtr e_av = kNullPtr;
  EdptPtr e_bv = kNullPtr;

  // Descriptor slots: clients talk to V on slot 0; V listens on 0 (A) and
  // 1 (B).
  static constexpr EdptIdx kClientSlot = 0;
  static constexpr EdptIdx kVSlotA = 0;
  static constexpr EdptIdx kVSlotB = 1;

  static AbvScenario Build(const BootConfig& config, std::uint64_t quota_a,
                           std::uint64_t quota_b, std::uint64_t quota_v);
};

}  // namespace atmo

#endif  // ATMO_SRC_SEC_ABV_SCENARIO_H_
