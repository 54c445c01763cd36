// sweep (README.md, "Workloads"): the developer's workload. SweepHarness
// runs a fixed set of randomized trace shards, with ring, grant and
// kObsQuery ops mixed in, each on its own kernel and refinement checker,
// across min(4, usable CPUs) workers. The same sweep repeats until the run
// time is used up; steps_per_s is the median over those rounds.
//
// Per-step latency comes from SweepHarness's public per-step hook: the
// benchmark stamps the time before every generated step, so step k's
// latency (generate + check + inbound drain) is stamp[k+1] - stamp[k].
// The same stamps give the set-up: a shard's set-up runs from its claim to
// the stamp of its second step, and setup_s is the median over rounds of
// the set-up summed over a round's shards.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "spans.h"
#include "src/verif/refinement_checker.h"
#include "src/verif/sweep_harness.h"
#include "src/verif/trace_gen.h"

namespace perfbench {
namespace {

using namespace atmo;

constexpr std::uint64_t kShards = 32;
constexpr std::uint64_t kStepsPerShard = 1500;
constexpr unsigned kMaxWorkers = 4;
// Steps shown per shard in the Chrome trace (the totals cover all).
constexpr std::uint64_t kTracedStepsPerShard = 200;

unsigned UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

SweepHarness::Options SweepOptions(std::uint64_t seed, unsigned workers) {
  SweepHarness::Options o;
  o.master_seed = seed;
  o.shards = kShards;
  o.steps_per_shard = kStepsPerShard;
  o.workers = workers;
  o.ring_ops = true;
  o.grant_ops = true;
  o.obs_ops = true;
  return o;
}

struct Round {
  SweepReport report;
  std::uint64_t start_ns = 0;
  std::vector<std::uint64_t> stamps;  // [shard * kStepsPerShard + step]
};

Round RunRound(SweepHarness::Options options) {
  Round round;
  round.stamps.assign(kShards * kStepsPerShard, 0);
  std::uint64_t* stamps = round.stamps.data();
  // Each shard runs on one worker, so each writes only its own slots.
  options.fault_hook = [stamps](TraceFixture*, std::uint64_t shard, std::uint64_t step) {
    stamps[shard * kStepsPerShard + step] = NowNs();
  };
  round.start_ns = NowNs();
  round.report = SweepHarness(std::move(options)).Run();
  return round;
}

// Shards and their steps as spans. A shard's span starts when a worker
// claims it; its self time is the boot, checker construction and the
// harness's own bookkeeping around the steps.
void AddSpans(const Round& round, SpanRecorder* rec) {
  for (const ShardResult& shard : round.report.shards) {
    std::uint64_t claim =
        round.start_ns + static_cast<std::uint64_t>(shard.queue_wait_seconds * 1e9);
    std::uint64_t finish = claim + static_cast<std::uint64_t>(shard.wall_seconds * 1e9);
    const std::uint64_t* st = &round.stamps[shard.shard * kStepsPerShard];
    std::uint64_t steps_ns = finish > st[0] ? finish - st[0] : 0;
    std::uint64_t shard_wall = finish - claim;
    std::uint64_t id = rec->Add(Layer::kShard, claim, finish,
                                shard_wall > steps_ns ? shard_wall - steps_ns : 0, 0,
                                shard.shard + 1, static_cast<std::uint32_t>(shard.shard));
    for (std::uint64_t k = 0; k < shard.steps; ++k) {
      std::uint64_t end = k + 1 < shard.steps ? st[k + 1] : std::max(finish, st[k]);
      if (k < kTracedStepsPerShard) {
        rec->Add(Layer::kStep, st[k], end, end - st[k], id, shard.shard + 1,
                 static_cast<std::uint32_t>(shard.shard));
      }
    }
  }
}

double PerUnit(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Report RunSweep(const RunOptions& options) {
  Report report;
  unsigned workers = std::min(kMaxWorkers, UsableCpus());
  SweepHarness::Options base = SweepOptions(options.seed, workers);

  std::optional<SpanRecorder> recorder;
  if (options.trace) {
    recorder.emplace(std::size_t{1} << 17);
  }
  std::vector<double> rates;           // steps/s of each round
  std::vector<double> setup_s;         // set-up time of each round
  std::vector<std::uint32_t> latency;  // ns, all rounds; a step is far below 4 s
  std::vector<double> round_p999;      // exact p99.9 of each round's steps
  std::uint64_t min_beyond = ~0ull;    // fewest samples beyond a round's p99.9
  std::vector<double> shard_wall;
  double queue_wait_max = 0;
  double busy_frac_sum = 0;
  std::optional<SweepReport> first;
  CheckStats stats;  // summed over rounds
  std::uint64_t step_wall_ns = 0;
  std::uint64_t rounds = 0;
  double peak_rss_mb = 0;

  std::uint64_t t_end = NowNs() + static_cast<std::uint64_t>(options.seconds * 1e9);
  do {
    Round round = RunRound(base);
    const SweepReport& r = round.report;
    ++rounds;
    report.attempted += kShards * kStepsPerShard;
    if (!r.AllOk() || r.total_steps != kShards * kStepsPerShard) {
      report.failed += kShards * kStepsPerShard - r.total_steps + r.Failures().size();
      report.Fail("sweep round " + std::to_string(rounds) + ": " +
                  std::to_string(r.Failures().size()) + " failed shards, " +
                  std::to_string(r.total_steps) + " steps");
    }
    if (!first) {
      first = r;
    } else if (!r.SameOutcome(*first)) {
      report.Fail("sweep round " + std::to_string(rounds) + " differs from round 1");
    }
    rates.push_back(PerUnit(static_cast<double>(r.total_steps), r.wall_seconds));
    double busy = 0;
    std::uint64_t round_setup_ns = 0;
    std::vector<std::uint32_t> round_latency;
    round_latency.reserve(kShards * kStepsPerShard);
    for (const ShardResult& s : r.shards) {
      const std::uint64_t* st = &round.stamps[s.shard * kStepsPerShard];
      // Step 0 carries the checker's first full abstraction (set-up) and
      // the last step has no following stamp; both are left out.
      for (std::uint64_t k = 1; k + 1 < s.steps; ++k) {
        round_latency.push_back(static_cast<std::uint32_t>(st[k + 1] - st[k]));
      }
      shard_wall.push_back(s.wall_seconds);
      queue_wait_max = std::max(queue_wait_max, s.queue_wait_seconds);
      busy += s.wall_seconds;
      std::uint64_t claim = round.start_ns + static_cast<std::uint64_t>(s.queue_wait_seconds * 1e9);
      step_wall_ns += claim + static_cast<std::uint64_t>(s.wall_seconds * 1e9) - st[0];
      // The shard's set-up: boot, checker, IPC/DMA set-up and generator up
      // to its first stamp, then the first (full-abstraction) checked step.
      round_setup_ns += s.steps > 1 ? st[1] - claim : 0;
    }
    setup_s.push_back(static_cast<double>(round_setup_ns) / 1e9);
    latency.insert(latency.end(), round_latency.begin(), round_latency.end());
    Percentile round_tail = ExactPercentile(round_latency, 0.999);
    round_p999.push_back(round_tail.value);
    min_beyond = std::min(min_beyond, round_tail.beyond);
    busy_frac_sum += PerUnit(busy, r.wall_seconds * r.workers);
    stats.steps += r.stats.steps;
    stats.abstraction_ns += r.stats.abstraction_ns;
    stats.spec_ns += r.stats.spec_ns;
    stats.wf_ns += r.stats.wf_ns;
    stats.audit_ns += r.stats.audit_ns;
    if (recorder) {
      AddSpans(round, &*recorder);
    }
    if (rounds == 1) {
      // Every round does the same work; later rounds only add latency
      // samples, which are the benchmark's memory, not the program's.
      peak_rss_mb = PeakRssMb();
    }
  } while (NowNs() < t_end);

  // p50 over every step of the run; p99.9 per round, median over rounds,
  // so a burst of host steal that hits a few rounds does not set the tail.
  Percentile p50 = ExactPercentile(latency, 0.50);
  double steps_per_s = Median(rates);
  // On sweep every generated syscall is both the request and the step.
  report.Metric("req_per_s", steps_per_s);
  report.Metric("steps_per_s", steps_per_s);
  report.Metric("lat_p50_us", p50.value / 1e3);
  report.Metric("lat_p999_us", Median(round_p999) / 1e3);
  ReportSetup(setup_s, &report);
  report.Metric("peak_rss_mb", peak_rss_mb);
  report.Info("lat_samples", std::to_string(p50.samples));
  report.Info("lat_p999_beyond", std::to_string(min_beyond));  // per round
  if (!options.trace && min_beyond < 10) {
    report.Fail("fewer than 10 latency samples beyond p99.9");
  }
  report.Info("rounds", std::to_string(rounds));
  report.Info("workers", std::to_string(workers));
  report.Info("shards", std::to_string(kShards));
  report.Info("steps_per_shard", std::to_string(kStepsPerShard));

  // Exact counters of one sweep (every round does identical work).
  const CheckStats& s1 = first->stats;
  double steps1 = static_cast<double>(s1.steps);
  report.Metric("vstd.arena_allocs_per_step", PerUnit(static_cast<double>(s1.arena_allocs), steps1));
  report.Metric("vstd.heap_allocs_per_step", PerUnit(static_cast<double>(s1.heap_allocs), steps1));
  report.Metric("verif.dirty_entries_per_step",
                PerUnit(static_cast<double>(s1.dirty_entries), steps1));
  report.Metric("verif.max_dirty_entries", static_cast<double>(s1.max_dirty_entries));
  report.Metric("verif.wf_checks", static_cast<double>(s1.wf_checks));
  report.Metric("verif.audit_passes", static_cast<double>(s1.audit_passes));
  report.Metric("verif.sweep.batch_drains", static_cast<double>(s1.batch_drains));
  report.Metric("verif.sweep.coverage_cells", static_cast<double>(first->coverage.NonZeroCells()));
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a over the shard trace seeds
  for (const ShardResult& s : first->shards) {
    digest = (digest ^ s.seed) * 0x100000001b3ull;
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "\"%016llx\"", static_cast<unsigned long long>(digest));
  report.Info("sequence_digest", hex);
  for (const char* name : {"drivers.burst_fill", "drivers.tx_full_drops", "net.parse_fail",
                           "apps.splice_frac", "obs.bytes_copied_per_req",
                           "obs.heap_allocs_per_req"}) {
    report.Metric(name, 0);  // no data path on this workload
  }

  // Checker phase times and scheduling over all rounds.
  double steps = static_cast<double>(stats.steps);
  double phases = static_cast<double>(stats.abstraction_ns + stats.spec_ns + stats.wf_ns +
                                      stats.audit_ns);
  report.Metric("verif.step_ns_p50", p50.value);
  report.Metric("verif.abstraction_ns_per_step",
                PerUnit(static_cast<double>(stats.abstraction_ns), steps));
  report.Metric("verif.spec_ns_per_step", PerUnit(static_cast<double>(stats.spec_ns), steps));
  report.Metric("verif.wf_ns_per_step", PerUnit(static_cast<double>(stats.wf_ns), steps));
  report.Metric("verif.audit_ns_per_step", PerUnit(static_cast<double>(stats.audit_ns), steps));
  report.Metric("verif.unattributed_ns_per_step",
                PerUnit(static_cast<double>(step_wall_ns) - phases, steps));
  std::vector<double> walls = shard_wall;
  report.Metric("verif.sweep.worker_busy_frac", busy_frac_sum / static_cast<double>(rounds));
  report.Metric("verif.sweep.shard_wall_s.p50", Median(walls));
  report.Metric("verif.sweep.shard_wall_s.max", *std::max_element(walls.begin(), walls.end()));
  report.Metric("verif.sweep.queue_wait_s.max", queue_wait_max);
  if (recorder) {
    // The step stamps are taken in every round and the spans are built
    // after a round's wall time is measured, so tracing adds nothing here.
    report.Metric("obs.trace_overhead_pct", 0);
    report.Metric("gen.ns_per_req", 0);  // the generator runs inside the step
    for (const char* name : {"hw.nic.rx_ns_per_req", "hw.nic.tx_ns_per_req",
                             "drivers.rx_ns_per_req", "drivers.tx_ns_per_req", "net.ns_per_req",
                             "apps.maglev.ns_per_req", "apps.httpd.ns_per_req",
                             "apps.kvstore.ns_per_req", "core.ipc.grant_ns_per_burst"}) {
      report.Metric(name, 0);
    }
    report.Info("self_time", SelfTimeJson(*recorder));
    if (!options.trace_out.empty() && !recorder->WriteChromeTrace(options.trace_out)) {
      report.Fail("cannot write " + options.trace_out);
    }
  }
  return report;
}

}  // namespace perfbench
