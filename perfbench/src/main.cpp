// perfbench: the PiPoly benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--report-dir DIR]
//
// Prints the configuration and host facts, then as its last stdout line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// With --report-dir it also writes the raw samples (and the spans of a
// traced run) to DIR/<workload>-seed<N>-trace<T>.json.

#include "bench.hpp"
#include "json.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

namespace {

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--report-dir DIR]\nworkloads:";
  for (const std::string& w : perfbench::workloadNames())
    std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

bool parseUnsigned(const std::string& s, unsigned long long& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    return false;
  try {
    out = std::stoull(s);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

} // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string reportDir;
  bool haveWorkload = false, haveSeed = false, haveSeconds = false,
       haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc)
      return usage("missing value for " + flag);
    const std::string value = argv[++i];
    unsigned long long n = 0;
    if (flag == "--workload") {
      options.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed" && parseUnsigned(value, n)) {
      options.seed = n;
      haveSeed = true;
    } else if (flag == "--seconds" && parseUnsigned(value, n) && n >= 1 &&
               n <= 3600) {
      options.seconds = static_cast<double>(n);
      haveSeconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
      haveTrace = true;
    } else if (flag == "--report-dir") {
      reportDir = value;
    } else {
      return usage("bad argument " + flag + " " + value);
    }
  }
  if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");

  perfbench::RunResult r;
  try {
    r = perfbench::runWorkload(options);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }

  for (const std::string& e : r.errors)
    std::cerr << "perfbench: FAILED " << e << '\n';
  std::cout << "config: " << r.configJson << '\n';
  if (!options.trace)
    std::cout << "latency samples behind batch_us_p50/p90: "
              << r.latencySamples << '\n';

  if (!reportDir.empty()) {
    const std::string path = reportDir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0") + ".json";
    std::ofstream out(path);
    out << "{\"config\": " << r.configJson << ",\n\"samples\": "
        << r.samplesJson << ",\n\"trace\": "
        << (r.traceJson.empty() ? "null" : r.traceJson) << "}\n";
    if (!out) {
      std::cerr << "perfbench: cannot write " << path << '\n';
      return 1;
    }
  }

  std::string metrics;
  for (const perfbench::Metric& m : r.metrics)
    metrics += (metrics.empty() ? "" : ", ") + perfbench::jsonString(m.name) +
               ": {\"value\": " + perfbench::jsonNumber(m.value) +
               ", \"unit\": " + perfbench::jsonString(m.unit) + "}";
  std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  return 0;
}
