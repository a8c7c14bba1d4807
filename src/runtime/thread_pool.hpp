#pragma once

// A work-stealing thread pool that executes frozen dependency graphs
// (ReplayGraph, below). It is the substrate of both the replay executor
// (tasking::CompiledPipeline) and the thread-pool tasking backend — the
// "other tasking platform" the paper's §7 anticipates plugging in beneath
// its language-agnostic CreateTask layer. There is one task model: a
// (node, batch) execution of a graph whose edges were fixed before the
// run started, released by per-node atomic join counters.
//
// The scheduler is lock-free on the hot path:
//
//   * Task bypass. When a finished task's token emission releases
//     nodes, the first released (node, batch) becomes the same worker's
//     next task: no deque push, no pop, no wake. In a serial chain the
//     critical successor therefore stays on its core instead of being
//     stolen behind a futex wake (Pipeflow's executor does the same).
//   * Per-worker Chase–Lev deques (work_steal_deque.hpp). Every further
//     task released by the same emission goes to the worker's own deque
//     bottom (LIFO, cache-warm) and, since the owner is busy with the
//     kept task, may wake a thief; idle workers steal from the top of
//     victims' deques in randomized sweep order, so the oldest —
//     typically largest — subgraphs migrate first.
//   * The graph's roots are released from the calling thread into
//     per-worker-indexed injection shards (small mutexed queues, sharded
//     by node), which workers drain alongside their deques.
//   * Idle workers park on an event count (event_count.hpp): producers
//     pay one atomic load when nobody sleeps, instead of a broadcast
//     over every worker on every finished task.
//
// Contracts:
//   * runGraph() runs one graph at a time per pool, and never from
//     inside a task body (that would deadlock; checked).
//   * The first exception thrown by a body is rethrown by runGraph()
//     after the run drained; a failed node's dependents still run —
//     errors are reported, never used to cancel the graph. The pool
//     stays usable.

#include "runtime/event_count.hpp"
#include "runtime/work_steal_deque.hpp"
#include "support/rng.hpp"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

namespace pipoly::rt {

/// Parses a PIPOLY_POOL_WAKE_CAP-style override. Accepts only a plain
/// positive decimal integer (optional leading/trailing whitespace) that
/// fits an unsigned; anything else — null, empty, garbage, trailing
/// junk, zero, negative, out of range — yields nullopt and the caller's
/// default stands.
std::optional<unsigned> parseWakeCap(const char* text);

/// A dependency graph frozen for repeated execution. Built once (addNode
/// with predecessor ids, then freeze()), it can be run any number of
/// times through DependencyThreadPool::runGraph: each run only resets the
/// per-node atomic ready counters — no node allocation, no dependency
/// registration, no closure churn. This is the pool-level substrate of
/// the tasking::CompiledPipeline replay executor.
///
/// Streaming runs (numBatches > 1) pipeline consecutive batches
/// Pipeflow-style. Batch b+1 of node n may start once
///   * n's in-batch predecessors finished batch b+1,
///   * n itself finished batch b (the write-after-write self edge),
///   * n's direct in-batch successors finished batch b (the
///     write-after-read anti edge: n's next batch overwrites data its
///     consumers may still be reading), and
///   * every member of n's batch group — if one was declared via
///     addBatchGroup — finished batch b. Groups close the hazard the
///     edge set alone cannot see: when a node reads data that a LATER
///     node of the same stage writes (forward self-neighbourhoods like
///     A[i+1][j+1]), the value crosses the batch boundary backwards, and
///     no RAW edge exists to order the reader's batch b+1 after the
///     writer's batch b. Grouping a stage's nodes keeps the stage
///     batch-serial (it cannot lap itself), exactly matching the channel
///     backend's in-order stage semantics.
///   * every member of every group with a declared anti edge INTO n's
///     group (addGroupAntiEdge) finished batch b. This is the
///     cross-stage write-after-read constraint at stage granularity: a
///     writer stage may overwrite its arrays for batch b+1 only after
///     every stage that reads them is done with batch b. The per-node
///     anti edges (third bullet) cover only DIRECT graph consumers —
///     after transitive reduction a reader whose block edges were all
///     implied by a longer path has no direct edge left, so the writer
///     would lap it. Group anti edges carry the readership relation
///     independently of which block edges survived optimization.
/// The anti edges bound the batch skew between adjacent stages to one,
/// which is exactly what makes the two-slot (batch-parity) counter
/// scheme race-free: a node's counter slot for batch b+2 is re-armed
/// when batch b fires, and every possible decrement of that slot
/// happens-after batch b finished (see runGraph's implementation notes).
/// Group counters follow the same parity discipline: the finisher that
/// drops a group's batch-b count to zero re-arms the slot for batch b+2
/// before releasing batch b+1, and every batch-b+2 decrement
/// happens-after that release.
class ReplayGraph {
public:
  using NodeId = std::uint32_t;
  /// The node body: invoked as body(context, node, batch). The context is
  /// the pointer passed to runGraph, so one frozen graph can execute
  /// different payloads across runs.
  using Body = void (*)(void* context, NodeId node, std::size_t batch);

  /// Group id returned by addBatchGroup for an empty member list; valid
  /// ids are dense and start at 0.
  static constexpr std::uint32_t kNoGroup = UINT32_MAX;

  /// Adds a node depending on the given earlier nodes (every id must come
  /// from a previous addNode — creation order is the topological order).
  /// The dependencies go straight into the flat predecessor arrays. Must
  /// be called before freeze().
  NodeId addNode(std::span<const NodeId> deps);

  /// Sizes the predecessor arrays for `nodes` more nodes with `edges` more
  /// dependencies in total, so the addNode calls that follow do not
  /// reallocate.
  void reserve(std::size_t nodes, std::size_t edges) {
    predOffsets_.reserve(predOffsets_.size() + nodes);
    preds_.reserve(preds_.size() + edges);
  }

  /// Declares a batch group and returns its id: in streaming runs, batch
  /// b+1 of any member may start only after every member finished batch b
  /// (the stage is batch-serial — see the class comment for why edges
  /// alone cannot express this). Nodes must already exist and each node
  /// may belong to at most one group. Singleton groups are kept — their
  /// batch-serial constraint is redundant with the self edge, but they
  /// still anchor addGroupAntiEdge constraints. An empty member list
  /// returns kNoGroup. Must be called before freeze().
  std::uint32_t addBatchGroup(std::span<const NodeId> members);

  /// Declares a cross-group anti edge: in streaming runs, batch b+1 of
  /// any member of `writerGroup` may start only after every member of
  /// `readerGroup` finished batch b (see the class comment's fifth
  /// bullet). Self edges are ignored (the batch group itself already
  /// serialises a stage); duplicates are deduplicated by freeze(). Must
  /// be called before freeze().
  void addGroupAntiEdge(std::uint32_t readerGroup, std::uint32_t writerGroup);

  /// Seals the graph: builds the flat successor/predecessor lists, the
  /// ready-count templates and the counter storage. Required before the
  /// first runGraph; addNode afterwards throws.
  void freeze();

  bool frozen() const { return frozen_; }
  std::size_t size() const { return predOffsets_.size() - 1; }
  std::size_t numEdges() const { return preds_.size(); }
  std::size_t numGroups() const {
    return groupOffsets_.empty() ? 0 : groupOffsets_.size() - 1;
  }

  /// Heap footprint of the frozen structures: ready counters, CSR
  /// adjacency, and batch-group tables (for retainedBytes accounting).
  std::size_t storageBytes() const;

private:
  friend class DependencyThreadPool;

  /// Two ready counters per node (batch parity), cacheline-separated so
  /// token traffic for different nodes never false-shares.
  struct alignas(64) Counters {
    std::atomic<std::uint32_t> slot[2];
  };

  // Build-time state (cleared by freeze()).
  std::vector<std::vector<NodeId>> buildGroups_;
  // Per reader group: the writer groups its completion releases.
  std::vector<std::vector<std::uint32_t>> buildGroupEdges_;

  // CSR adjacency (predecessors filled by addNode, successors by freeze)
  // + ready-count templates.
  std::vector<NodeId> preds_, succs_;
  std::vector<std::uint32_t> predOffsets_{0}, succOffsets_;
  std::vector<std::uint32_t> indegFirst_;  // batch 0: in-batch preds only
  std::vector<std::uint32_t> indegSteady_; // batch >= 1: preds+succs+self+group
  std::vector<NodeId> roots_;              // indegFirst == 0
  std::unique_ptr<Counters[]> counters_;
  // Batch groups: CSR member lists, per-node membership, and one parity
  // counter pair per group counting that batch's unfinished members.
  std::vector<NodeId> groupMembers_;
  std::vector<std::uint32_t> groupOffsets_;
  std::vector<std::uint32_t> groupOf_;
  std::unique_ptr<Counters[]> groupCounters_;
  // Cross-group anti edges, CSR keyed by reader group: completing batch b
  // hands every member of each target (writer) group a batch-b+1 token.
  std::vector<std::uint32_t> groupEdgeTargets_;
  std::vector<std::uint32_t> groupEdgeOffsets_;
  bool frozen_ = false;
};

class DependencyThreadPool {
public:
  /// Spawns `numThreads` workers (at least 1).
  explicit DependencyThreadPool(unsigned numThreads);
  ~DependencyThreadPool();

  DependencyThreadPool(const DependencyThreadPool&) = delete;
  DependencyThreadPool& operator=(const DependencyThreadPool&) = delete;

  /// Executes a frozen ReplayGraph `numBatches` times on the pool's
  /// workers and blocks until every (node, batch) execution finished.
  /// Per run the cost is one relaxed counter store per node plus the
  /// token traffic along the edges — no node allocation, no dependent
  /// registration. Batches are pipelined under the constraints
  /// documented on ReplayGraph. The first exception thrown by a body is
  /// rethrown after the run drains (a failed node's dependents still
  /// execute).
  ///
  /// Contract: one graph run at a time per pool, never from inside a
  /// task body.
  void runGraph(ReplayGraph& graph, std::size_t numBatches,
                ReplayGraph::Body body, void* context);

  unsigned numThreads() const { return static_cast<unsigned>(workers_.size()); }

private:
  /// A runnable (node, batch) execution: batch in the high 32 bits.
  using Task = std::uint64_t;

  struct Worker {
    explicit Worker(std::uint64_t seed) : rng(seed) {}
    WorkStealDeque<Task> deque;
    SplitMix64 rng; // victim-selection randomness, owner-thread only
    // The first task released by the running task's token emission: the
    // worker runs it next, ahead of its deque. Owner-thread only.
    std::optional<Task> next;
    // Cumulative tasks run through `next`, successful steals and parks.
    // Only the owner writes them (load + store, no read-modify-write);
    // runGraph() reads them to fold the per-run trace counters.
    std::atomic<std::uint64_t> bypassed{0}, steals{0}, parks{0};
  };

  /// Sums of the workers' cumulative counters.
  struct Counts {
    std::uint64_t bypassed = 0, steals = 0, parks = 0;
  };

  struct InjectionShard {
    std::mutex mutex;
    std::deque<Task> queue;
    // queue.size(), republished after every mutation; lets sweepers skip
    // empty shards without taking the lock (seq_cst on both sides so the
    // parking recheck cannot miss a push — see shouldWake()).
    std::atomic<std::size_t> count{0};
  };

  static constexpr std::size_t kMaxGraphBatches = std::size_t(1) << 30;

  static Task encodeTask(ReplayGraph::NodeId node, std::size_t batch) {
    return (static_cast<Task>(batch) << 32) | node;
  }

  bool shouldWake(std::size_t searchingAllowance = 0) const;
  void inject(Task task);
  void runTask(Worker& me, Task task);
  void sendGraphToken(Worker& me, ReplayGraph& graph, ReplayGraph::NodeId node,
                      std::size_t batch);
  Counts counts() const;
  bool tryFindWork(unsigned self, Task& out);
  bool tryDrainInjection(unsigned self, std::size_t shard, Task& out);
  void workerLoop(unsigned index);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<InjectionShard>> injection_;

  // Workers currently sweeping for work. Producers skip the wakeup when
  // a sweep is in flight: the sweeper's post-announcement recheck (see
  // workerLoop) is guaranteed to observe freshly published work, so the
  // gate only suppresses redundant futex traffic, never progress.
  std::atomic<std::size_t> searching_{0};
  // Wake throttle: producers stop waking sleepers once this many workers
  // are already awake. Defaults to hardware_concurrency (workers beyond
  // the core count only add context-switch pressure); override with the
  // PIPOLY_POOL_WAKE_CAP environment variable (clamped to numThreads).
  // Assumes task bodies run to completion without blocking on anything
  // other than their declared dependencies — waiting between tasks must
  // go through deps, which the contract already requires.
  unsigned wakeCap_ = 1;
  std::mutex doneMutex_; // runGraph() parking, cold
  std::condition_variable doneCv_;

  // Active runGraph() state. Written by the (single) runGraph caller
  // before the roots are published and read by workers only while they
  // hold one of its tasks, so the publication happens-before every
  // read (injection-shard mutex / deque seq_cst handoff).
  ReplayGraph* graph_ = nullptr;
  ReplayGraph::Body graphBody_ = nullptr;
  void* graphContext_ = nullptr;
  std::size_t graphBatches_ = 0;
  std::atomic<std::size_t> graphRemaining_{0};

  std::mutex errorMutex_;
  std::exception_ptr firstError_; // guarded by errorMutex_

  EventCount idle_;
  std::atomic<bool> shutdown_{false};
  std::vector<std::jthread> threads_;
};

} // namespace pipoly::rt
