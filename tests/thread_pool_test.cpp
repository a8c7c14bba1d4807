#include "runtime/thread_pool.hpp"

#include "support/assert.hpp"
#include "support/rng.hpp"
#include "testing/closure_graph.hpp"
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

namespace pipoly::rt {
namespace {

using testing::ClosureGraph;
using NodeId = ReplayGraph::NodeId;

TEST(ThreadPoolTest, RunsAllTasks) {
  DependencyThreadPool pool(4);
  std::atomic<int> count{0};
  ClosureGraph g;
  for (int i = 0; i < 100; ++i)
    g.add([&] { ++count; });
  g.run(pool);
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, HonorsDependencies) {
  DependencyThreadPool pool(4);
  std::atomic<int> stage{0};
  ClosureGraph g;
  auto step = [&](int from) {
    return [&stage, from] {
      int expected = from;
      EXPECT_TRUE(stage.compare_exchange_strong(expected, from + 1));
    };
  };
  const NodeId a[] = {g.add(step(0))};
  const NodeId b[] = {g.add(step(1), a)};
  g.add(step(2), b);
  g.run(pool);
  EXPECT_EQ(stage.load(), 3);
}

TEST(ThreadPoolTest, DiamondDependency) {
  DependencyThreadPool pool(4);
  std::atomic<int> leftDone{0}, rightDone{0}, sinkRan{0};
  ClosureGraph g;
  const NodeId top[] = {g.add([] {})};
  const NodeId both[] = {g.add([&] { leftDone = 1; }, top),
                         g.add([&] { rightDone = 1; }, top)};
  g.add(
      [&] {
        EXPECT_EQ(leftDone.load(), 1);
        EXPECT_EQ(rightDone.load(), 1);
        sinkRan = 1;
      },
      both);
  g.run(pool);
  EXPECT_EQ(sinkRan.load(), 1);
}

TEST(ThreadPoolTest, DependencyOnFinishedTask) {
  // A later run on the same pool sees everything an earlier run wrote.
  DependencyThreadPool pool(2);
  std::atomic<int> value{0};
  ClosureGraph first;
  first.add([&] { value = 42; });
  first.run(pool);
  ClosureGraph second;
  second.add([&] { EXPECT_EQ(value.load(), 42); });
  second.run(pool);
}

TEST(ThreadPoolTest, ForwardOnlyDependenciesEnforced) {
  DependencyThreadPool pool(1);
  ClosureGraph g;
  const NodeId bogus[] = {42};
  EXPECT_THROW(g.add([] {}, bogus), Error);
  // The graph stays usable.
  std::atomic<int> ok{0};
  g.add([&] { ok = 1; });
  g.run(pool);
  EXPECT_EQ(ok.load(), 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesFromWaitAll) {
  // runGraph is the pool's wait-for-everything: it rethrows a body's
  // exception once the run drained.
  DependencyThreadPool pool(2);
  ClosureGraph failing;
  failing.add([] { throw std::runtime_error("task failed"); });
  failing.add([] {});
  EXPECT_THROW(failing.run(pool), std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> ok{0};
  ClosureGraph next;
  next.add([&] { ok = 1; });
  next.run(pool);
  EXPECT_EQ(ok.load(), 1);
}

TEST(ThreadPoolTest, StressRandomDag) {
  DependencyThreadPool pool(8);
  SplitMix64 rng(7);
  const std::size_t n = 500;
  std::vector<std::atomic<bool>> done(n);
  std::vector<std::vector<NodeId>> allDeps(n);
  ClosureGraph g;
  for (std::size_t i = 0; i < n; ++i) {
    auto& deps = allDeps[i];
    for (std::size_t k = 0; k < rng.nextBelow(4) && i > 0; ++k)
      deps.push_back(static_cast<NodeId>(rng.nextBelow(i)));
    g.add(
        [&, i] {
          for (auto d : allDeps[i])
            EXPECT_TRUE(done[d].load()) << "task " << i << " ran before dep "
                                        << d;
          done[i].store(true);
        },
        deps);
  }
  g.run(pool);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_TRUE(done[i].load());
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  DependencyThreadPool pool(1);
  std::atomic<int> count{0};
  ClosureGraph g;
  std::vector<NodeId> prev;
  for (int i = 0; i < 50; ++i)
    prev = {g.add([&] { ++count; }, prev)};
  g.run(pool);
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, SelfDependencyRejected) {
  DependencyThreadPool pool(2);
  ClosureGraph g;
  // After three nodes the next one gets id 3, so a dependency on 3 is a
  // self-dependency.
  for (int i = 0; i < 3; ++i)
    g.add([] {});
  const NodeId self[] = {3};
  EXPECT_THROW(g.add([] {}, self), Error);
  // The rejected node leaves nothing half-added behind.
  std::atomic<int> ok{0};
  EXPECT_EQ(g.add([&] { ok = 1; }), 3u);
  g.run(pool);
  EXPECT_EQ(ok.load(), 1);
}

TEST(ThreadPoolTest, OutOfRangeDependencyRejected) {
  DependencyThreadPool pool(2);
  ClosureGraph g;
  g.add([] {});
  const NodeId bogus[] = {1000000000};
  EXPECT_THROW(g.add([] {}, bogus), Error);
  std::atomic<int> ok{0};
  g.add([&] { ok = 1; });
  g.run(pool);
  EXPECT_EQ(ok.load(), 1);
}

TEST(ThreadPoolTest, ExceptionMidGraphStillRunsDependentsFirstErrorWins) {
  // Documented policy: a failed task's dependents still run (errors are
  // reported, never used to cancel the graph), and runGraph rethrows
  // exactly the *first* recorded error.
  DependencyThreadPool pool(4);
  std::atomic<bool> bRan{false}, cRan{false};
  ClosureGraph g;
  const NodeId a[] = {g.add([] { throw std::runtime_error("first"); })};
  const NodeId b[] = {g.add(
      [&] {
        bRan = true;
        throw std::runtime_error("second");
      },
      a)};
  g.add([&] { cRan = true; }, b);
  try {
    g.run(pool);
    FAIL() << "runGraph must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_TRUE(bRan.load());
  EXPECT_TRUE(cRan.load());
  // The error was consumed: the next run is clean.
  ClosureGraph clean;
  clean.add([] {});
  clean.run(pool);
}

TEST(ThreadPoolTest, WakeCapParsingAcceptsOnlyPositiveIntegers) {
  EXPECT_EQ(parseWakeCap("1"), 1u);
  EXPECT_EQ(parseWakeCap("4"), 4u);
  EXPECT_EQ(parseWakeCap("128"), 128u);
  EXPECT_EQ(parseWakeCap("  8  "), 8u); // surrounding whitespace is fine
}

TEST(ThreadPoolTest, WakeCapParsingRejectsGarbage) {
  // The env var used to go straight through atoi-style parsing, silently
  // turning typos into a wake cap of 0 (no wakeups beyond the first).
  EXPECT_EQ(parseWakeCap(nullptr), std::nullopt);
  EXPECT_EQ(parseWakeCap(""), std::nullopt);
  EXPECT_EQ(parseWakeCap("   "), std::nullopt);
  EXPECT_EQ(parseWakeCap("abc"), std::nullopt);
  EXPECT_EQ(parseWakeCap("4x"), std::nullopt);   // trailing garbage
  EXPECT_EQ(parseWakeCap("3.5"), std::nullopt);  // not an integer
  EXPECT_EQ(parseWakeCap("0"), std::nullopt);    // zero disables wakeups
  EXPECT_EQ(parseWakeCap("-3"), std::nullopt);   // strtoul would wrap this
  EXPECT_EQ(parseWakeCap("+4"), std::nullopt);   // no signs accepted
  EXPECT_EQ(parseWakeCap("0x10"), std::nullopt); // decimal only
  EXPECT_EQ(parseWakeCap("99999999999999999999"), std::nullopt); // overflow
}

// ---- ReplayGraph: the frozen reusable task graph behind CompiledPipeline.

/// Shared observation state for graph bodies (plain function pointers).
/// The probe keeps its own copy of the edge list — the frozen graph's
/// adjacency is an implementation detail.
struct GraphProbe {
  // finished[node] = number of completed batches of that node.
  std::vector<std::atomic<std::size_t>> finished;
  std::vector<std::vector<ReplayGraph::NodeId>> preds;
  std::atomic<bool> violation{false};
  std::atomic<std::size_t> runs{0};

  explicit GraphProbe(std::size_t n) : finished(n), preds(n) {}
};

/// Asserts the streaming constraints at entry: this node finished batch
/// b-1 (write-after-write), and every predecessor finished batch b.
void probeBody(void* context, ReplayGraph::NodeId node, std::size_t batch) {
  auto* probe = static_cast<GraphProbe*>(context);
  if (probe->finished[node].load() != batch)
    probe->violation = true;
  probe->runs.fetch_add(1);
  probe->finished[node].fetch_add(1);
}

ReplayGraph diamondGraph() {
  // 0 -> {1, 2} -> 3
  ReplayGraph graph;
  graph.addNode({});
  const ReplayGraph::NodeId top[] = {0};
  graph.addNode(top);
  graph.addNode(top);
  const ReplayGraph::NodeId mid[] = {1, 2};
  graph.addNode(mid);
  graph.freeze();
  return graph;
}

TEST(ThreadPoolTest, ReplayGraphRunsDiamondRepeatedly) {
  ReplayGraph graph = diamondGraph();
  EXPECT_EQ(graph.size(), 4u);
  EXPECT_EQ(graph.numEdges(), 4u);
  DependencyThreadPool pool(4);
  GraphProbe probe(4);
  for (int run = 0; run < 50; ++run) {
    for (auto& f : probe.finished)
      f = 0;
    pool.runGraph(graph, 1, &probeBody, &probe);
    for (auto& f : probe.finished)
      EXPECT_EQ(f.load(), 1u) << "run " << run;
  }
  EXPECT_FALSE(probe.violation.load());
  EXPECT_EQ(probe.runs.load(), 200u);
}

/// Streaming body: additionally checks every predecessor finished this
/// batch before we start (the per-batch dependency constraint).
void streamBody(void* context, ReplayGraph::NodeId node, std::size_t batch) {
  auto* probe = static_cast<GraphProbe*>(context);
  if (probe->finished[node].load() != batch)
    probe->violation = true;
  for (ReplayGraph::NodeId pred : probe->preds[node])
    if (probe->finished[pred].load() < batch + 1)
      probe->violation = true;
  probe->runs.fetch_add(1);
  probe->finished[node].fetch_add(1);
}

TEST(ThreadPoolTest, ReplayGraphStreamsBatchesUnderTheDependencyOrder) {
  // A layered DAG: 2 roots, a shared middle layer, 2 sinks.
  ReplayGraph graph;
  graph.addNode({});
  graph.addNode({});
  const ReplayGraph::NodeId roots[] = {0, 1};
  graph.addNode(roots);
  graph.addNode(roots);
  const ReplayGraph::NodeId mids[] = {2, 3};
  graph.addNode(mids);
  graph.addNode(mids);
  graph.freeze();

  DependencyThreadPool pool(4);
  constexpr std::size_t kBatches = 200;
  GraphProbe probe(graph.size());
  probe.preds[2] = {0, 1};
  probe.preds[3] = {0, 1};
  probe.preds[4] = {2, 3};
  probe.preds[5] = {2, 3};
  pool.runGraph(graph, kBatches, &streamBody, &probe);
  EXPECT_FALSE(probe.violation.load());
  EXPECT_EQ(probe.runs.load(), graph.size() * kBatches);
  for (auto& f : probe.finished)
    EXPECT_EQ(f.load(), kBatches);
}

TEST(ThreadPoolTest, ReplayGraphSingleNodeStreamRunsEveryBatch) {
  ReplayGraph graph;
  graph.addNode({});
  graph.freeze();
  DependencyThreadPool pool(4);
  GraphProbe probe(1);
  pool.runGraph(graph, 1000, &probeBody, &probe);
  EXPECT_FALSE(probe.violation.load());
  EXPECT_EQ(probe.finished[0].load(), 1000u);
}

void throwingBody(void* context, ReplayGraph::NodeId node, std::size_t) {
  auto* probe = static_cast<GraphProbe*>(context);
  probe->runs.fetch_add(1);
  if (node == 1)
    throw Error("graph body failure");
}

TEST(ThreadPoolTest, ReplayGraphReportsBodyErrorsAfterDraining) {
  ReplayGraph graph = diamondGraph();
  DependencyThreadPool pool(4);
  GraphProbe probe(4);
  EXPECT_THROW(pool.runGraph(graph, 1, &throwingBody, &probe), Error);
  // A failed body still releases its dependents: everything ran.
  EXPECT_EQ(probe.runs.load(), 4u);

  // The pool and the graph must stay fully usable afterwards.
  probe.runs = 0;
  for (auto& f : probe.finished)
    f = 0;
  pool.runGraph(graph, 1, &probeBody, &probe);
  EXPECT_EQ(probe.runs.load(), 4u);
}

TEST(ThreadPoolTest, ReplayGraphBuildErrorsAreChecked) {
  ReplayGraph graph;
  graph.addNode({});
  const ReplayGraph::NodeId self[] = {1};
  EXPECT_THROW(graph.addNode(self), Error); // dep must be an earlier node

  ReplayGraph unfrozen;
  unfrozen.addNode({});
  DependencyThreadPool pool(2);
  GraphProbe probe(1);
  EXPECT_THROW(pool.runGraph(unfrozen, 1, &probeBody, &probe), Error);

  ReplayGraph frozen = diamondGraph();
  EXPECT_THROW(frozen.addNode({}), Error); // sealed

  // Empty graphs and zero batches are no-ops.
  ReplayGraph empty;
  empty.freeze();
  pool.runGraph(empty, 5, &probeBody, &probe);
  pool.runGraph(frozen, 0, &probeBody, &probe);
  EXPECT_EQ(probe.runs.load(), 0u);
}

TEST(ThreadPoolTest, SingleWorkerExecutesAnyDagInTopologicalOrder) {
  DependencyThreadPool pool(1);
  SplitMix64 rng(11);
  const std::size_t n = 200;
  std::vector<std::vector<NodeId>> deps(n);
  std::vector<std::size_t> position(n, 0);
  std::size_t clock = 0; // one worker: no synchronization needed
  ClosureGraph g;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0)
      for (std::size_t k = rng.nextBelow(3); k > 0; --k)
        deps[i].push_back(static_cast<NodeId>(rng.nextBelow(i)));
    g.add([&position, &clock, i] { position[i] = ++clock; }, deps[i]);
  }
  g.run(pool);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GT(position[i], 0u) << "task " << i << " never ran";
    for (auto d : deps[i])
      EXPECT_LT(position[d], position[i])
          << "task " << i << " ran before its dep " << d;
  }
}

/// The values of every `name` counter sample in a drained trace.
std::vector<double> counterSamples(const trace::Trace& t,
                                   const std::string& name) {
  std::vector<double> values;
  for (const trace::TraceEvent& e : t.events)
    if (e.kind == trace::EventKind::Counter && e.name == name)
      values.push_back(e.value);
  return values;
}

TEST(ThreadPoolTest, PureChainBypassesEverySuccessorAndStealsNothing) {
  // In a pure chain every finished node releases exactly its successor,
  // which the bypass keeps on the same worker: n-1 tasks run in place
  // per batch, and no task ever reaches a deque a thief could steal from
  // (the root goes through an injection shard). The counters are folded
  // once per runGraph.
  constexpr std::size_t kNodes = 100;
  constexpr int kRuns = 5;
  DependencyThreadPool pool(4);
  ClosureGraph g;
  std::atomic<std::size_t> ran{0};
  std::vector<NodeId> prev;
  for (std::size_t i = 0; i < kNodes; ++i)
    prev = {g.add([&ran] { ran.fetch_add(1); }, prev)};
  trace::Session session;
  session.start();
  for (int run = 0; run < kRuns; ++run)
    g.run(pool);
  session.stop();
  EXPECT_EQ(ran.load(), kNodes * kRuns);
  const trace::Trace& t = session.trace();
  EXPECT_EQ(counterSamples(t, "pool.bypassed"),
            std::vector<double>(kRuns, double(kNodes - 1)));
  EXPECT_EQ(counterSamples(t, "pool.steals"),
            std::vector<double>(kRuns, 0.0));
  EXPECT_EQ(counterSamples(t, "pool.parks").size(), std::size_t(kRuns));

  // Without a session the pool emits nothing.
  trace::Session quiet;
  quiet.start();
  quiet.stop();
  g.run(pool);
  EXPECT_TRUE(counterSamples(quiet.trace(), "pool.bypassed").empty());
}

} // namespace
} // namespace pipoly::rt
