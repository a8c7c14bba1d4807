// Concurrency stress tests for the work-stealing DependencyThreadPool.
// These exercise exactly the races the executor's lock-free paths must
// win — deep chains that ping between deque pop and steal, wide fan-in
// and fan-out, randomized DAGs whose completion order is cross-checked
// against the declared dependencies, and many short runs on one pool.
// The whole file must pass under ThreadSanitizer (the CI
// `sanitize-thread` job runs it on every PR).

#include "runtime/thread_pool.hpp"

#include "support/rng.hpp"
#include "testing/closure_graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <vector>

namespace pipoly::rt {
namespace {

// Disable the wake throttle for the whole binary: the throttle parks
// workers beyond hardware_concurrency, but these tests exist to hammer
// the steal/injection races with every worker awake — including on the
// 1-core CI runners where the default cap would leave thieves asleep.
const bool kUncapWakes = [] {
  setenv("PIPOLY_POOL_WAKE_CAP", "1024", /*overwrite=*/1);
  return true;
}();

using testing::ClosureGraph;
using NodeId = ReplayGraph::NodeId;

TEST(ThreadPoolStressTest, DeepDependencyChainTenThousand) {
  DependencyThreadPool pool(8);
  constexpr int kDepth = 10000;
  std::atomic<int> next{0};
  ClosureGraph g;
  std::vector<NodeId> prev;
  for (int i = 0; i < kDepth; ++i)
    prev = {g.add(
        [&next, i] {
          // Strict chain: task i must be the i-th to run.
          int expected = i;
          EXPECT_TRUE(next.compare_exchange_strong(expected, i + 1));
        },
        prev)};
  g.run(pool);
  EXPECT_EQ(next.load(), kDepth);
}

TEST(ThreadPoolStressTest, LayeredDiamondFanInFanOut) {
  DependencyThreadPool pool(8);
  constexpr int kLayers = 50;
  constexpr int kWidth = 16;
  std::atomic<int> ran{0};
  ClosureGraph g;
  std::vector<NodeId> join;
  for (int layer = 0; layer < kLayers; ++layer) {
    std::vector<NodeId> mid;
    mid.reserve(kWidth);
    const int before = layer * (kWidth + 1);
    for (int w = 0; w < kWidth; ++w)
      mid.push_back(
          g.add([&ran, before] { EXPECT_GE(ran.fetch_add(1), before); }, join));
    // The join sees every task of its own layer (and, transitively, all
    // earlier layers) completed.
    const int expect = (layer + 1) * kWidth + layer;
    join = {g.add([&ran, expect] { EXPECT_EQ(ran.fetch_add(1), expect); },
                  mid)};
  }
  g.run(pool);
  EXPECT_EQ(ran.load(), kLayers * (kWidth + 1));
}

TEST(ThreadPoolStressTest, RandomizedDagSoakCrossChecksDependencies) {
  DependencyThreadPool pool(8);
  SplitMix64 rng(2026);
  constexpr std::size_t kTasks = 2000;
  // Per-task start/finish stamps from one global clock: a task may only
  // start after every declared dependency has finished.
  std::atomic<std::uint64_t> clock{1};
  std::vector<std::atomic<std::uint64_t>> started(kTasks);
  std::vector<std::atomic<std::uint64_t>> finished(kTasks);
  std::vector<std::vector<NodeId>> deps(kTasks);
  ClosureGraph g;
  for (std::size_t i = 0; i < kTasks; ++i) {
    if (i > 0)
      for (std::size_t k = rng.nextBelow(4); k > 0; --k)
        deps[i].push_back(static_cast<NodeId>(rng.nextBelow(i)));
    g.add(
        [&, i] {
          started[i].store(clock.fetch_add(1));
          for (NodeId d : deps[i])
            EXPECT_NE(finished[d].load(), 0u)
                << "task " << i << " started before dep " << d << " finished";
          finished[i].store(clock.fetch_add(1));
        },
        deps[i]);
  }
  g.run(pool);
  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_NE(started[i].load(), 0u) << "task " << i << " never ran";
    EXPECT_LT(started[i].load(), finished[i].load());
    for (NodeId d : deps[i])
      EXPECT_LT(finished[d].load(), started[i].load())
          << "task " << i << " overlapped its dep " << d;
  }
}

TEST(ThreadPoolStressTest, RepeatedWaitAllCyclesReuseThePool) {
  // Many runs on one pool: a fresh fan-out/fan-in graph per cycle, and
  // one frozen graph re-run every cycle (its counters re-armed each time).
  DependencyThreadPool pool(4);
  std::atomic<int> count{0};
  ClosureGraph frozen;
  const NodeId root[] = {frozen.add([&count] { ++count; })};
  for (int i = 0; i < 10; ++i)
    frozen.add([&count] { ++count; }, root);
  for (int cycle = 0; cycle < 50; ++cycle) {
    ClosureGraph g;
    const NodeId top[] = {g.add([&count] { ++count; })};
    std::vector<NodeId> mid;
    for (int i = 0; i < 100; ++i)
      mid.push_back(g.add([&count] { ++count; }, top));
    g.add([&count] { ++count; }, mid);
    g.run(pool);
    frozen.run(pool);
    EXPECT_EQ(count.load(), (cycle + 1) * (102 + 11));
  }
}

TEST(ThreadPoolStressTest, OversubscribedWorkersDrainSmallGraphs) {
  // More workers than hardware threads and barely any work: exercises
  // the park/unpark path (prepareWait/cancelWait/notify) heavily.
  DependencyThreadPool pool(16);
  std::atomic<int> count{0};
  for (int round = 0; round < 20; ++round) {
    ClosureGraph g;
    for (int i = 0; i < 8; ++i)
      g.add([&count] { ++count; });
    g.run(pool);
  }
  EXPECT_EQ(count.load(), 20 * 8);
}

} // namespace
} // namespace pipoly::rt
