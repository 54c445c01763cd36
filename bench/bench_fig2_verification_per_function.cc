// Figure 2 reproduction: verification time per function.
//
// The paper plots per-function Verus verification time; the analog here is
// per-obligation checking time — every named invariant of the standard
// suite plus every per-syscall specification evaluated over a trace replay
// — printed as a sorted distribution with an ASCII bar per entry.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/pipeline.h"
#include "src/spec/syscall_specs.h"
#include "src/verif/invariant_registry.h"

namespace atmo {
namespace bench {
namespace {

constexpr MapEntryPerm kRw{.writable = true, .user = true, .no_execute = false};

struct Timing {
  std::string name;
  double micros = 0.0;
};

void PrintDistribution(std::vector<Timing> timings) {
  std::sort(timings.begin(), timings.end(),
            [](const Timing& a, const Timing& b) { return a.micros > b.micros; });
  double max = timings.empty() ? 1.0 : timings.front().micros;
  std::printf("%-34s %12s  distribution\n", "obligation", "time (us)");
  std::printf("%-34s %12s  ------------\n", "----------", "---------");
  for (const Timing& t : timings) {
    int bars = max > 0 ? static_cast<int>(40.0 * t.micros / max) : 0;
    std::printf("%-34s %12.1f  %.*s\n", t.name.c_str(), t.micros, bars,
                "########################################");
  }
}

}  // namespace
}  // namespace bench
}  // namespace atmo

int main() {
  using namespace atmo;
  using namespace atmo::bench;

  std::printf("=== Figure 2: verification time per function (checking-time analog) ===\n\n");

  // A moderately populated kernel.
  BootConfig config;
  config.frames = 16384;
  config.reserved_frames = 16;
  Kernel kernel = std::move(*Kernel::Boot(config));
  auto ctnr = kernel.BootCreateContainer(kernel.root_container(), 8000, ~0ull);
  std::vector<ThrdPtr> threads;
  for (int i = 0; i < 4; ++i) {
    auto proc = kernel.BootCreateProcess(ctnr.value);
    auto thrd = kernel.BootCreateThread(proc.value);
    threads.push_back(thrd.value);
    for (int j = 0; j < 40; ++j) {
      Syscall mmap;
      mmap.op = SysOp::kMmap;
      mmap.va_range = VaRange{static_cast<VAddr>((j * 37 + 16) % 2048 + 16) * kPageSize4K *
                                  static_cast<VAddr>(i + 1),
                              4, PageSize::k4K};
      mmap.map_perm = kRw;
      kernel.Step(thrd.value, mmap);
    }
  }

  // Part 1: the invariant suite, per-check timing from the registry.
  std::vector<Timing> timings;
  InvariantRegistry suite = InvariantRegistry::StandardSuite(false);
  SuiteReport report = suite.RunAll(kernel, 1);
  for (const CheckOutcome& outcome : report.outcomes) {
    timings.push_back(Timing{outcome.name, outcome.seconds * 1e6});
  }

  // Part 2: per-syscall specification checks over a replay, aggregated by
  // operation (each op's spec is one "function").
  std::map<std::string, std::pair<double, int>> per_op;
  std::uint64_t rng = 7;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int step = 0; step < 200; ++step) {
    ThrdPtr t = threads[next() % threads.size()];
    ThreadState s = kernel.pm().GetThread(t).state;
    if (s != ThreadState::kRunnable && s != ThreadState::kRunning) {
      continue;
    }
    Syscall call;
    switch (next() % 4) {
      case 0:
        call.op = SysOp::kYield;
        break;
      case 1:
        call.op = SysOp::kMmap;
        call.va_range = VaRange{((next() % 2048) * 8 + 8) * kPageSize4K, 1 + next() % 4,
                                PageSize::k4K};
        call.map_perm = kRw;
        break;
      case 2:
        call.op = SysOp::kMunmap;
        call.va_range = VaRange{((next() % 2048) * 8 + 8) * kPageSize4K, 1, PageSize::k4K};
        break;
      case 3:
        call.op = SysOp::kNewEndpoint;
        call.edpt_idx = static_cast<EdptIdx>(next() % kMaxEdptDescriptors);
        break;
    }
    AbstractKernel pre = kernel.Abstract();
    kernel.Dispatch(t);
    AbstractKernel mid = kernel.Abstract();
    SyscallRet ret = kernel.Exec(t, call);
    AbstractKernel post = kernel.Abstract();

    auto start = std::chrono::steady_clock::now();
    SpecResult dispatch = DispatchSpec(pre, mid, t);
    SpecResult spec = SyscallSpec(mid, post, t, call, ret);
    double micros = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                        .count() *
                    1e6;
    if (!dispatch.ok || !spec.ok) {
      std::fprintf(stderr, "spec failed: %s %s\n", dispatch.detail.c_str(),
                   spec.detail.c_str());
      return 1;
    }
    auto& bucket = per_op[std::string("spec:") + SysOpInfoOf(call.op).name()];
    bucket.first += micros;
    bucket.second += 1;
  }
  for (const auto& [name, acc] : per_op) {
    timings.push_back(Timing{name, acc.first / acc.second});
  }

  PrintDistribution(timings);
  std::printf("\ntotal suite wall time: %.3f s (%zu obligations)\n", report.wall_seconds,
              report.outcomes.size());
  return 0;
}
