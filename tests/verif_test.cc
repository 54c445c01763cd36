// Verification-harness tests: the invariant registry's execution model
// (ordering, timing, parallel equivalence, failure reporting) and the
// refinement checker's bookkeeping.

#include <gtest/gtest.h>

#include "src/verif/invariant_registry.h"
#include "src/verif/refinement_checker.h"

namespace atmo {
namespace {

Kernel SmallKernel() {
  BootConfig config;
  config.frames = 2048;
  config.reserved_frames = 16;
  return std::move(*Kernel::Boot(config));
}

TEST(InvariantRegistryTest, RunsChecksInRegistrationOrder) {
  Kernel kernel = SmallKernel();
  InvariantRegistry reg;
  reg.Register("first", [](const Kernel&) { return InvResult{}; });
  reg.Register("second", [](const Kernel&) { return InvResult::Fail("boom"); });
  reg.Register("third", [](const Kernel&) { return InvResult{}; });

  SuiteReport report = reg.RunAll(kernel, 1);
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_EQ(report.outcomes[0].name, "first");
  EXPECT_TRUE(report.outcomes[0].ok);
  EXPECT_EQ(report.outcomes[1].name, "second");
  EXPECT_FALSE(report.outcomes[1].ok);
  EXPECT_EQ(report.outcomes[1].detail, "boom");
  EXPECT_FALSE(report.AllOk());
}

TEST(InvariantRegistryTest, TimingIsPopulated) {
  Kernel kernel = SmallKernel();
  InvariantRegistry reg;
  reg.Register("busy", [](const Kernel&) {
    volatile std::uint64_t x = 0;
    for (int i = 0; i < 100000; ++i) {
      x = x + static_cast<std::uint64_t>(i);
    }
    return InvResult{};
  });
  SuiteReport report = reg.RunAll(kernel, 1);
  EXPECT_GT(report.outcomes[0].seconds, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GE(report.TotalCheckSeconds(), report.outcomes[0].seconds);
}

TEST(InvariantRegistryTest, ParallelRunCoversEveryCheckExactlyOnce) {
  Kernel kernel = SmallKernel();
  InvariantRegistry reg;
  std::array<std::atomic<int>, 24> hits{};
  for (int i = 0; i < 24; ++i) {
    reg.Register("check-" + std::to_string(i), [&hits, i](const Kernel&) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
      return InvResult{};
    });
  }
  SuiteReport report = reg.RunAll(kernel, 8);
  EXPECT_TRUE(report.AllOk());
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

TEST(InvariantRegistryTest, StandardSuiteDetectsEachCorruptionClass) {
  // One corruption per subsystem; the suite must flag each.
  struct Case {
    const char* expect_check;
    void (*corrupt)(Kernel*);
  };
  Case cases[] = {
      {"container_tree_wf",
       [](Kernel* k) { k->pm_mut().MutableContainer(k->root_container()).depth = 9; }},
      {"quota_wf",
       [](Kernel* k) { k->pm_mut().MutableContainer(k->root_container()).mem_used = 77; }},
  };
  for (const Case& c : cases) {
    Kernel kernel = SmallKernel();
    c.corrupt(&kernel);
    InvariantRegistry suite = InvariantRegistry::StandardSuite();
    SuiteReport report = suite.RunAll(kernel, 1);
    bool flagged = false;
    for (const CheckOutcome& outcome : report.outcomes) {
      if (outcome.name == c.expect_check) {
        flagged = !outcome.ok;
      }
    }
    EXPECT_TRUE(flagged) << c.expect_check << " did not flag its corruption";
  }
}

TEST(RefinementCheckerTest, CountsStepsAndHonoursWfSampling) {
  Kernel kernel = SmallKernel();
  auto ctnr = kernel.BootCreateContainer(kernel.root_container(), 256, ~0ull);
  auto proc = kernel.BootCreateProcess(ctnr.value);
  auto thrd = kernel.BootCreateThread(proc.value);

  RefinementChecker checker(&kernel, /*check_wf_every=*/0);  // specs only
  Syscall yield;
  yield.op = SysOp::kYield;
  for (int i = 0; i < 5; ++i) {
    checker.Step(thrd.value, yield);
  }
  EXPECT_EQ(checker.steps_checked(), 5u);
  EXPECT_EQ(checker.kernel(), &kernel);
}

}  // namespace
}  // namespace atmo
