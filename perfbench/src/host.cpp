#include "host.hpp"

#include "json.hpp"
#include "tasking/tasking.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

namespace fs = std::filesystem;

unsigned allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

/// Number of entries of `dir` whose name is `prefix` followed by digits,
/// or -1 when the directory cannot be read.
int countNumbered(const fs::path& dir, const std::string& prefix) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec)
    return -1;
  int n = 0;
  for (const fs::directory_entry& e : it) {
    const std::string name = e.path().filename().string();
    if (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0 &&
        name.find_first_not_of("0123456789", prefix.size()) == std::string::npos)
      ++n;
  }
  return n;
}

int countSockets() {
  const fs::path cpus = "/sys/devices/system/cpu";
  std::error_code ec;
  fs::directory_iterator it(cpus, ec);
  if (ec)
    return -1;
  std::set<std::string> packages;
  for (const fs::directory_entry& e : it) {
    std::ifstream in(e.path() / "topology" / "physical_package_id");
    std::string id;
    if (in >> id)
      packages.insert(id);
  }
  return packages.empty() ? -1 : static_cast<int>(packages.size());
}

} // namespace

HostFacts hostFacts() {
  HostFacts f;
  f.nproc = allowedCpus();
  f.sockets = countSockets();
  f.numaNodes = countNumbered("/sys/devices/system/node", "node");
  for (char** env = environ; env != nullptr && *env != nullptr; ++env)
    if (std::string_view(*env).substr(0, 4) == "OMP_")
      f.ompEnv += (f.ompEnv.empty() ? "" : " ") + std::string(*env);
  f.buildType = PERFBENCH_BUILD_TYPE;
  f.compiler = PERFBENCH_COMPILER;
  f.openmp = pipoly::tasking::openMPAvailable();
  return f;
}

std::string hostFactsJson(const HostFacts& f) {
  return "\"nproc\": " + std::to_string(f.nproc) +
         ", \"sockets\": " + std::to_string(f.sockets) +
         ", \"numa_nodes\": " + std::to_string(f.numaNodes) +
         ", \"omp_env\": " + jsonString(f.ompEnv) +
         ", \"build_type\": " + jsonString(f.buildType) +
         ", \"compiler\": " + jsonString(f.compiler) +
         ", \"openmp\": " + (f.openmp ? "true" : "false");
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

} // namespace perfbench
