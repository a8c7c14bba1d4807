#pragma once

// Host and build facts recorded in every report.

#include <string>

namespace perfbench {

struct HostFacts {
  unsigned nproc = 0;   // CPUs this process may run on
  int sockets = -1;     // distinct physical packages in sysfs; -1 unknown
  int numaNodes = -1;   // NUMA nodes in sysfs; -1 unknown
  std::string ompEnv;   // OMP_* variables, "NAME=value" joined by spaces
  std::string buildType;
  std::string compiler;
  bool openmp = false;  // the library's OpenMP backend exists
};

HostFacts hostFacts();

/// The facts as JSON object members (no braces).
std::string hostFactsJson(const HostFacts& facts);

/// Peak resident set size of this process, in MiB.
double peakRssMb();

} // namespace perfbench
