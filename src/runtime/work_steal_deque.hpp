#pragma once

// A Chase–Lev work-stealing deque (Chase & Lev, SPAA'05) in the
// C11-memory-model formulation of Lê, Pop, Cohen & Zappa Nardelli
// (PPoPP'13). One owner thread pushes and pops at the bottom (LIFO, for
// cache locality on freshly-spawned dependents); any number of thieves
// steal from the top (FIFO, so stolen work is the oldest — typically the
// largest remaining subgraph).
//
// Deviations from the published pseudo-code, both deliberate:
//   * every top_/bottom_ access is seq_cst instead of relying on
//     standalone fences — ThreadSanitizer does not model
//     atomic_thread_fence, and the seq_cst total order is exactly the
//     property the owner/thief race on the last element needs;
//   * retired ring buffers are kept alive until the deque dies (a thief
//     may still hold the old buffer pointer across a grow), so no
//     hazard-pointer machinery is needed.
//
// Elements must be trivially copyable: the cells are std::atomic<T> and
// a racing thief may read a cell that is about to be overwritten; the
// top_ CAS decides after the fact whose copy is authoritative.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

namespace pipoly::rt {

template <typename T>
class WorkStealDeque {
  static_assert(std::is_trivially_copyable_v<T>,
                "cells race by design; T must be trivially copyable");

public:
  explicit WorkStealDeque(std::size_t initialCapacity = 256) {
    buffers_.push_back(std::make_unique<Buffer>(initialCapacity));
    buffer_.store(buffers_.back().get(), std::memory_order_release);
  }

  WorkStealDeque(const WorkStealDeque&) = delete;
  WorkStealDeque& operator=(const WorkStealDeque&) = delete;

  /// Owner only: pushes at the bottom, growing the ring if full.
  void push(T value) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(buf->capacity)) {
      grow(t, b);
      buf = buffer_.load(std::memory_order_relaxed);
    }
    buf->cell(b).store(value, std::memory_order_relaxed);
    // seq_cst (not just release) also closes the sleeper-wakeup Dekker
    // race with EventCount::notifyOne's sleeper check — see
    // event_count.hpp.
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }

  /// Owner only: pops the most recently pushed element.
  std::optional<T> pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    std::optional<T> result;
    if (t <= b) {
      result = buf->cell(b).load(std::memory_order_relaxed);
      if (t == b) {
        // Last element: race the thieves for it via top_.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed))
          result.reset();
        bottom_.store(b + 1, std::memory_order_seq_cst);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_seq_cst);
    }
    return result;
  }

  /// Any thread: steals the oldest element. May spuriously fail (lost a
  /// race); callers are expected to sweep victims in a retry loop.
  std::optional<T> steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b)
      return std::nullopt;
    Buffer* buf = buffer_.load(std::memory_order_acquire);
    // Read before the CAS: after winning, the owner may reuse the cell.
    const T value = buf->cell(t).load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return std::nullopt;
    return value;
  }

private:
  struct Buffer {
    explicit Buffer(std::size_t cap)
        : capacity(cap), mask(cap - 1),
          cells(std::make_unique<std::atomic<T>[]>(cap)) {}
    std::atomic<T>& cell(std::int64_t i) {
      return cells[static_cast<std::size_t>(i) & mask];
    }
    std::size_t capacity;
    std::size_t mask; // capacity is always a power of two
    std::unique_ptr<std::atomic<T>[]> cells;
  };

  void grow(std::int64_t t, std::int64_t b) {
    Buffer* old = buffer_.load(std::memory_order_relaxed);
    auto fresh = std::make_unique<Buffer>(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i)
      fresh->cell(i).store(old->cell(i).load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    buffer_.store(fresh.get(), std::memory_order_release);
    buffers_.push_back(std::move(fresh));
  }

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  alignas(64) std::atomic<Buffer*> buffer_{nullptr};
  // Owner only. All buffers ever used, retired ones included: thieves
  // may dereference a stale buffer pointer until the deque dies.
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

} // namespace pipoly::rt
