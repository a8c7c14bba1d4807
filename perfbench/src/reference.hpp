#pragma once

// Host-speed reference. The benchmark host may be a shared virtual machine
// whose speed drifts by tens of percent over tens of seconds. Next to every
// program operation the benchmark therefore times a fixed piece of work that
// does not depend on the library, and reports each pass at the speed the
// reference would have had on a quiet host (see README.md).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// The fixed work, in `parts` equal slices of which this runs slice
/// `part`: ordered-map inserts, lookups and teardown (allocation and
/// pointer chasing, like a compiler's), then a sort and integer division
/// over a cache-resident buffer. Returns a value that depends on every
/// step, so no step can be optimized away.
std::uint64_t referenceWork(std::uint64_t seed, unsigned part, unsigned parts);

/// Times referenceWork on the calling thread, or on `threads` threads that
/// share it in small slices, as an engine's workers share a task graph (a
/// stalled thread delays only the slice it holds). The threads persist and
/// are woken per sample.
class ReferenceProbe {
public:
  explicit ReferenceProbe(unsigned threads);
  ~ReferenceProbe();

  ReferenceProbe(const ReferenceProbe&) = delete;
  ReferenceProbe& operator=(const ReferenceProbe&) = delete;

  /// Seconds for the whole work on the calling thread.
  double serialSeconds();
  /// Seconds for `threads` times the work, shared by all threads.
  double parallelSeconds();

private:
  void work();
  std::uint64_t drainSlices();

  unsigned slices_;
  std::atomic<unsigned> nextSlice_{0};
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::uint64_t generation_ = 0; // guarded by mutex_
  unsigned pending_ = 0;         // guarded by mutex_
  bool stop_ = false;            // guarded by mutex_
  std::uint64_t sink_ = 0;       // guarded by mutex_
  std::vector<std::thread> threads_;
};

} // namespace perfbench
