// What one benchmark run hands back to main(): the verdict, the operation
// counts and every metric it measured, in measurement order.

#ifndef ATMO_PERFBENCH_REPORT_H_
#define ATMO_PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome-trace JSON path (traced runs only)
};

// The serving workloads set up this often per run; setup_s is the median.
inline constexpr int kSetupReps = 51;

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  // Metrics by name. The end-to-end and exact-counter metrics are filled
  // by every run; span-based per-layer times only by traced runs.
  std::vector<std::pair<std::string, double>> metrics;
  // Extra facts for the report file (sample counts, self-time table, ...),
  // each a ready-made JSON value.
  std::vector<std::pair<std::string, std::string>> info;

  void Metric(const std::string& name, double value) { metrics.emplace_back(name, value); }
  void Info(const std::string& name, const std::string& json) { info.emplace_back(name, json); }
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

// Exact nearest-rank percentile over weighted samples (value, weight):
// the smallest value whose cumulative weight reaches ceil(p * total).
// `beyond` receives the total weight strictly after that rank.
struct Percentile {
  double value = 0;
  std::uint64_t samples = 0;
  std::uint64_t beyond = 0;
};
Percentile ExactPercentile(std::vector<std::pair<std::uint64_t, std::uint64_t>> samples,
                           double p);
// Unweighted samples; reorders `samples`.
Percentile ExactPercentile(std::vector<std::uint32_t>& samples, double p);

double Median(std::vector<double> values);
// Reports setup_s (the median) and every set-up time, in ms, as info.
void ReportSetup(const std::vector<double>& setup_s, Report* report);
double PeakRssMb();

// The self-time table of a traced run as a JSON object (see spans.h).
class SpanRecorder;
std::string SelfTimeJson(const SpanRecorder& recorder);

Report RunServe(const RunOptions& options, bool percall);
Report RunSweep(const RunOptions& options);

}  // namespace perfbench

#endif  // ATMO_PERFBENCH_REPORT_H_
