#pragma once

// Detection result cache. Pipeline detection is a pure function of the
// instantiated SCoP and the detection options, so drivers that analyse
// the same program repeatedly — parameter sweeps, schedule re-runs, the
// REPL-style pipolyc invocations — can memoize it.
//
// The key is an exact byte-serialisation of everything detection reads:
// statement names/depths/domains, access relations (array id, affine
// subscripts, aux extents), array names/shapes, and every option. No
// hashing-with-collisions shortcut: equal keys mean equal inputs, so a hit returns a result bit-identical to recomputation.
// Cached PipelineInfo values share their presburger row buffers, so a hit
// copies a few shared_ptrs instead of re-running Algorithm 1.
//
// Bounded LRU, thread-safe; hit/miss/eviction counters are exposed via
// stats() and emitted as trace instants/counters when a trace session is
// active.

#include "pipeline/detect.hpp"

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

namespace pipoly::pipeline {

/// The exact cache key for one (scop, options) detection input.
std::string detectFingerprint(const scop::Scop& scop,
                              const DetectOptions& options);

class DetectCache {
public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
  };

  explicit DetectCache(std::size_t capacity = kDefaultCapacity);

  /// Returns the memoized PipelineInfo for (scop, options), running
  /// detectPipeline on a miss. Safe to call concurrently; a miss computes
  /// outside the lock, so concurrent misses on the same key may both
  /// compute (the results are identical and the first insert wins).
  PipelineInfo getOrCompute(const scop::Scop& scop,
                            const DetectOptions& options = {});

  Stats stats() const;
  std::size_t capacity() const { return capacity_; }
  void clear();

  static constexpr std::size_t kDefaultCapacity = 64;

private:
  struct Entry {
    std::string key;
    PipelineInfo info;
  };

  /// Returns the cached value, or nullptr. Caller must hold mutex_.
  const PipelineInfo* lookupLocked(const std::string& key);
  void insertLocked(std::string key, const PipelineInfo& info);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_; // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

} // namespace pipoly::pipeline
