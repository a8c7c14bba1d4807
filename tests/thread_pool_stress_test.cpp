// Concurrency stress tests for the work-stealing DependencyThreadPool.
// These exercise exactly the races the executor's lock-free paths must
// win — deep chains that ping between deque pop and steal, wide fan-in
// and fan-out, randomized DAGs whose completion order is cross-checked
// against the declared dependencies, many short runs on one pool, and
// streamed chains and fan-outs whose every (node, batch) is checked
// against the edge, self, anti and group constraints while the task
// bypass keeps released successors on their worker.
// The whole file must pass under ThreadSanitizer (the CI
// `sanitize-thread` job runs it on every PR).

#include "runtime/thread_pool.hpp"

#include "support/rng.hpp"
#include "testing/closure_graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
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

/// A streamed graph that checks, as each (node, batch) starts, every
/// constraint ReplayGraph documents: each predecessor finished batch b,
/// the node itself finished exactly b-1 (which also makes every
/// execution unique), and — from batch 1 on — each direct successor
/// (anti edge), each member of the node's batch group, and each member
/// of every reader group with an anti edge into that group finished
/// b-1. A node body may be given a failure hook that throws.
class CheckedStream {
public:
  NodeId add(std::vector<NodeId> deps) {
    const NodeId v = graph_.addBatched(
        [this, node = static_cast<NodeId>(size())](std::size_t b) {
          enter(node, b);
        },
        deps);
    for (NodeId d : deps)
      succs_[d].push_back(v);
    preds_.push_back(std::move(deps));
    succs_.emplace_back();
    groupOf_.push_back(ReplayGraph::kNoGroup);
    return v;
  }

  std::uint32_t group(const std::vector<NodeId>& members) {
    const std::uint32_t g = graph_.addBatchGroup(members);
    for (NodeId m : members)
      groupOf_[m] = g;
    members_.push_back(members);
    readersOf_.emplace_back();
    return g;
  }

  void antiEdge(std::uint32_t reader, std::uint32_t writer) {
    graph_.addGroupAntiEdge(reader, writer);
    readersOf_[writer].push_back(reader);
  }

  /// Node `v` throws in batch `b` (once per run).
  void failAt(NodeId v, std::size_t b) { fail_ = {v, b}; }
  void noFailure() { fail_ = {kNoFailure, 0}; }

  /// Runs the stream and checks that every node ran every batch.
  void run(DependencyThreadPool& pool, std::size_t batches) {
    finished_ = std::make_unique<std::atomic<std::size_t>[]>(size());
    violations_ = 0;
    graph_.run(pool, batches);
    check(batches);
  }

  void check(std::size_t batches) const {
    EXPECT_EQ(violations_.load(), 0u);
    for (NodeId v = 0; v < size(); ++v)
      ASSERT_EQ(finished_[v].load(), batches) << "node " << v;
  }

  std::size_t size() const { return preds_.size(); }

private:
  static constexpr NodeId kNoFailure = UINT32_MAX;

  bool done(NodeId v, std::size_t batches) const {
    return finished_[v].load() >= batches;
  }

  void enter(NodeId v, std::size_t b) {
    bool ok = finished_[v].load() == b;
    for (NodeId p : preds_[v])
      ok = ok && done(p, b + 1);
    if (b > 0) {
      for (NodeId s : succs_[v])
        ok = ok && done(s, b);
      if (const std::uint32_t g = groupOf_[v]; g != ReplayGraph::kNoGroup) {
        for (NodeId m : members_[g])
          ok = ok && done(m, b);
        for (std::uint32_t r : readersOf_[g])
          for (NodeId m : members_[r])
            ok = ok && done(m, b);
      }
    }
    if (!ok)
      violations_.fetch_add(1);
    finished_[v].fetch_add(1);
    if (v == fail_.node && b == fail_.batch)
      throw std::runtime_error("body failure at node " + std::to_string(v));
  }

  ClosureGraph graph_;
  std::vector<std::vector<NodeId>> preds_, succs_, members_;
  std::vector<std::uint32_t> groupOf_;
  std::vector<std::vector<std::uint32_t>> readersOf_; // by writer group
  struct {
    NodeId node = kNoFailure;
    std::size_t batch = 0;
  } fail_;
  std::unique_ptr<std::atomic<std::size_t>[]> finished_;
  std::atomic<std::size_t> violations_{0};
};

/// The dot_product_chain shape: a serial chain whose every link also
/// releases a one-node side block, the side blocks forming their own
/// reduction chain. `sideFirst` gives the side block the lower id, so
/// the bypass keeps it and the chain successor goes to the deque;
/// otherwise the chain successor is kept. `grouped` makes each chain a
/// batch group, the side stage reading the chain stage.
/// Returns the chain's node ids.
std::vector<NodeId> buildChainWithSides(CheckedStream& g, std::size_t links,
                                        bool sideFirst, bool grouped) {
  std::vector<NodeId> chain{g.add({})}, sides;
  for (std::size_t i = 0; i < links; ++i) {
    std::vector<NodeId> sideDeps{chain.back()};
    if (!sides.empty())
      sideDeps.push_back(sides.back());
    if (sideFirst) {
      sides.push_back(g.add(sideDeps));
      chain.push_back(g.add({chain.back()}));
    } else {
      chain.push_back(g.add({chain.back()}));
      sides.push_back(g.add(sideDeps));
    }
  }
  if (grouped)
    g.antiEdge(g.group(sides), g.group(chain));
  return chain;
}

/// A matmul-like stage: one root fanning out to `width` nodes, a second
/// layer reading two neighbours each, and a join; with `grouped`, each
/// layer is a batch group reading the one before it, and the join's
/// group also reads the root's, which no direct edge connects.
void buildFanOut(CheckedStream& g, std::size_t width, bool grouped) {
  const NodeId root = g.add({});
  std::vector<NodeId> first, second;
  for (std::size_t j = 0; j < width; ++j)
    first.push_back(g.add({root}));
  for (std::size_t j = 0; j < width; ++j)
    second.push_back(g.add({first[j], first[(j + 1) % width]}));
  const NodeId join = g.add(second);
  if (grouped) {
    const std::uint32_t r = g.group({root});
    const std::uint32_t a = g.group(first);
    const std::uint32_t b = g.group(second);
    const std::uint32_t j = g.group({join});
    g.antiEdge(a, r);
    g.antiEdge(b, a);
    g.antiEdge(j, b);
    g.antiEdge(j, r);
  }
}

constexpr unsigned kWorkerCounts[] = {1, 2, 4};
constexpr std::size_t kBatchCounts[] = {1, 8};

TEST(ThreadPoolStressTest, ChainWithSideBlocksRunsEveryBatchInOrder) {
  for (unsigned workers : kWorkerCounts) {
    DependencyThreadPool pool(workers);
    for (std::size_t batches : kBatchCounts)
      for (bool sideFirst : {false, true})
        for (bool grouped : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << workers << " workers, " << batches
                       << " batches, sideFirst " << sideFirst << ", grouped "
                       << grouped);
          CheckedStream g;
          buildChainWithSides(g, 500, sideFirst, grouped);
          g.run(pool, batches);
        }
  }
}

TEST(ThreadPoolStressTest, WideFanOutRunsEveryBatchInOrder) {
  for (unsigned workers : kWorkerCounts) {
    DependencyThreadPool pool(workers);
    for (std::size_t batches : kBatchCounts)
      for (bool grouped : {false, true}) {
        SCOPED_TRACE(::testing::Message() << workers << " workers, " << batches
                                        << " batches, grouped " << grouped);
        CheckedStream g;
        buildFanOut(g, 64, grouped);
        for (int rep = 0; rep < 5; ++rep)
          g.run(pool, batches);
      }
  }
}

TEST(ThreadPoolStressTest, ThrowMidChainIsRethrownAfterEveryNodeRan) {
  for (unsigned workers : kWorkerCounts) {
    DependencyThreadPool pool(workers);
    for (std::size_t batches : kBatchCounts) {
      SCOPED_TRACE(::testing::Message()
                   << workers << " workers, " << batches << " batches");
      CheckedStream g;
      const std::vector<NodeId> chain =
          buildChainWithSides(g, 200, /*sideFirst=*/false, /*grouped=*/true);
      g.failAt(chain[chain.size() / 2], batches / 2);
      EXPECT_THROW(g.run(pool, batches), std::runtime_error);
      g.check(batches); // a failed body still released its dependents
      g.noFailure();
      g.run(pool, batches); // the pool and the graph stay usable
    }
  }
}

} // namespace
} // namespace pipoly::rt
