// perfbench: one benchmark run of one workload, printed as one JSON line.
//
//   perfbench --workload serve_splice|serve_percall|sweep --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// run.py builds this binary, runs it and turns its line into the result
// the benchmark contract asks for (README.md).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "report.h"
#include "spans.h"

namespace perfbench {

Percentile ExactPercentile(std::vector<std::pair<std::uint64_t, std::uint64_t>> samples,
                           double p) {
  Percentile out;
  for (const auto& s : samples) {
    out.samples += s.second;
  }
  if (out.samples == 0) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(out.samples)));
  rank = std::clamp<std::uint64_t>(rank, 1, out.samples);
  std::uint64_t cum = 0;
  for (const auto& s : samples) {
    cum += s.second;
    if (cum >= rank) {
      out.value = static_cast<double>(s.first);
      out.beyond = out.samples - cum;
      break;
    }
  }
  return out;
}

Percentile ExactPercentile(std::vector<std::uint32_t>& samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) {
    return out;
  }
  auto rank = static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(out.samples)));
  rank = std::clamp<std::uint64_t>(rank, 1, out.samples);
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  out.value = *nth;
  // Ties with the percentile value are not "beyond" it.
  out.beyond = static_cast<std::uint64_t>(
      std::count_if(nth + 1, samples.end(), [&](std::uint32_t v) { return v > *nth; }));
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void ReportSetup(const std::vector<double>& setup_s, Report* report) {
  report->Metric("setup_s", Median(setup_s));
  std::string ms;
  for (double s : setup_s) {
    ms += ms.empty() ? "" : ",";
    ms += std::to_string(s * 1e3);
  }
  report->Info("setup_ms", "[" + ms + "]");
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

std::string SelfTimeJson(const SpanRecorder& recorder) {
  std::string out = "{";
  char buf[256];
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    const LayerTotals& t = recorder.totals(static_cast<Layer>(i));
    if (t.count == 0) {
      continue;
    }
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"count\":%llu,\"total_ns\":%llu,\"self_ns\":%llu}",
                  out.size() > 1 ? "," : "", LayerName(static_cast<Layer>(i)),
                  static_cast<unsigned long long>(t.count),
                  static_cast<unsigned long long>(t.total_ns),
                  static_cast<unsigned long long>(t.self_ns));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "%s\"spans_not_kept\":%llu}", out.size() > 1 ? "," : "",
                static_cast<unsigned long long>(recorder.spans_dropped()));
  return out + buf;
}

namespace {

constexpr std::uint64_t kCpuWarmupNs = 300'000'000;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve_splice|serve_percall|sweep "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + arg).c_str());
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(options.seconds > 0)) {
    Usage("--seconds must be positive");
  }
  // Busy the CPU before anything is timed. Set-ups timed in a process's
  // first ~0.2 s were measured 2-3x slower than later ones on the KVM host
  // this was tuned on, on every workload.
  for (std::uint64_t t0 = NowNs(); NowNs() - t0 < kCpuWarmupNs;) {
  }
  Report report;
  if (workload == "serve_splice") {
    report = RunServe(options, /*percall=*/false);
  } else if (workload == "serve_percall") {
    report = RunServe(options, /*percall=*/true);
  } else if (workload == "sweep") {
    report = RunSweep(options);
  } else {
    Usage("unknown workload");
  }

  std::string out = "{\"workload\":" + JsonString(workload) +
                    ",\"seed\":" + std::to_string(options.seed) +
                    ",\"trace\":" + (options.trace ? "1" : "0") +
                    ",\"correct\":" + (report.correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(report.attempted) +
                    ",\"failed\":" + std::to_string(report.failed) + ",\"errors\":[";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    out += i ? "," : "";
    out += JsonString(report.errors[i]);
  }
  out += "],\"build\":{\"type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) + "},\"metrics\":{";
  char buf[64];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    double v = report.metrics[i].second;
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out += i ? "," : "";
    out += JsonString(report.metrics[i].first) + ":" + buf;
  }
  out += "},\"info\":{";
  for (std::size_t i = 0; i < report.info.size(); ++i) {
    out += i ? "," : "";
    out += JsonString(report.info[i].first) + ":" + report.info[i].second;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return report.correct ? 0 : 1;
}
