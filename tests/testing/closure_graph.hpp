#pragma once

// A ReplayGraph whose node bodies are closures, for the pool tests: add()
// takes the body and its predecessor nodes, run() freezes the graph on
// first use and executes it on a pool, once or as a stream of batches.

#include "runtime/thread_pool.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

namespace pipoly::testing {

class ClosureGraph {
public:
  using NodeId = rt::ReplayGraph::NodeId;
  /// A node body; receives the batch it runs.
  using BatchBody = std::function<void(std::size_t batch)>;

  /// Adds a node running `body` after every node in `deps`. A rejected
  /// dependency throws and leaves the graph unchanged.
  NodeId add(std::function<void()> body, std::span<const NodeId> deps = {}) {
    return addBatched([body = std::move(body)](std::size_t) { body(); }, deps);
  }

  /// add() for a body that needs its batch index.
  NodeId addBatched(BatchBody body, std::span<const NodeId> deps = {}) {
    const NodeId id = graph_.addNode(deps);
    bodies_.push_back(std::move(body));
    return id;
  }

  /// See ReplayGraph::addBatchGroup / addGroupAntiEdge.
  std::uint32_t addBatchGroup(std::span<const NodeId> members) {
    return graph_.addBatchGroup(members);
  }
  void addGroupAntiEdge(std::uint32_t readerGroup, std::uint32_t writerGroup) {
    graph_.addGroupAntiEdge(readerGroup, writerGroup);
  }

  void run(rt::DependencyThreadPool& pool, std::size_t numBatches = 1) {
    if (!graph_.frozen())
      graph_.freeze();
    pool.runGraph(graph_, numBatches, &call, this);
  }

private:
  static void call(void* self, NodeId node, std::size_t batch) {
    static_cast<ClosureGraph*>(self)->bodies_[node](batch);
  }

  rt::ReplayGraph graph_;
  std::vector<BatchBody> bodies_;
};

} // namespace pipoly::testing
