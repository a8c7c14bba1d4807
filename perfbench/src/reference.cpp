#include "reference.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>

namespace perfbench {

namespace {

constexpr unsigned kSlicesPerThread = 4;

double since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

} // namespace

std::uint64_t referenceWork(std::uint64_t seed, unsigned part,
                            unsigned parts) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + part + 1;
  std::uint64_t acc = 0;
  {
    const unsigned inserts = 2000 / parts;
    std::map<std::uint64_t, std::uint64_t> m;
    for (unsigned i = 0; i < inserts; ++i)
      m.emplace(xorshift(x) % 100003, i);
    for (unsigned i = 0; i < inserts; ++i) {
      const auto it = m.find(xorshift(x) % 100003);
      acc += it == m.end() ? 1 : it->second;
    }
  }
  std::array<std::uint64_t, 4096> a{};
  const std::size_t n = a.size() / parts;
  for (std::size_t i = 0; i < n; ++i)
    a[i] = xorshift(x);
  std::sort(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n));
  for (std::size_t round = 0; round < 10; ++round)
    for (std::size_t i = 0; i < n; ++i)
      acc += a[i] % (i + 3 + round);
  return acc;
}

ReferenceProbe::ReferenceProbe(unsigned threads)
    : slices_(std::max(threads, 1u) * kSlicesPerThread) {
  for (unsigned id = 1; id < threads; ++id)
    threads_.emplace_back([this] { work(); });
}

ReferenceProbe::~ReferenceProbe() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_)
    t.join();
}

double ReferenceProbe::serialSeconds() {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t v = referenceWork(1, 0, 1);
  const double seconds = since(start);
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ += v;
  return seconds;
}

std::uint64_t ReferenceProbe::drainSlices() {
  std::uint64_t acc = 0;
  for (unsigned s = nextSlice_.fetch_add(1); s < slices_;
       s = nextSlice_.fetch_add(1))
    acc += referenceWork(s / kSlicesPerThread + 1, s % kSlicesPerThread,
                         kSlicesPerThread);
  return acc;
}

double ReferenceProbe::parallelSeconds() {
  const auto start = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    nextSlice_.store(0);
    ++generation_;
    pending_ = static_cast<unsigned>(threads_.size());
  }
  wake_.notify_all();
  const std::uint64_t v = drainSlices();
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return pending_ == 0; });
  const double seconds = since(start);
  sink_ += v;
  return seconds;
}

void ReferenceProbe::work() {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_)
        return;
      seen = generation_;
    }
    const std::uint64_t v = drainSlices();
    std::lock_guard<std::mutex> lock(mutex_);
    sink_ += v;
    if (--pending_ == 0)
      done_.notify_one();
  }
}

} // namespace perfbench
