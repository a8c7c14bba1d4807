#pragma once

// The three benchmark workloads. Each is a closed loop driven by one client
// thread: the next operation starts when the previous one returned. All
// timing happens out here, around calls into the library's public API; the
// library itself is not instrumented.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Off: report the end-to-end metrics. On: record spans around every
  /// layer call and report the per-layer metrics instead.
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors; // first few failure messages
  std::vector<Metric> metrics;
  std::size_t latencySamples = 0; // single-replay latencies behind batch_us_*
  std::string configJson;  // JSON object: workload settings and host facts
  std::string samplesJson; // JSON object: raw per-pass samples
  std::string traceJson;   // JSON object: spans and counters (trace on)
};

const std::vector<std::string>& workloadNames();

/// Runs one workload. Throws std::invalid_argument for an unknown name.
RunResult runWorkload(const RunOptions& options);

} // namespace perfbench
