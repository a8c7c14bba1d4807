#pragma once

// A ReplayGraph whose node bodies are closures, for the pool tests: add()
// takes the body and its predecessor nodes, run() freezes the graph on
// first use and executes it once on a pool.

#include "runtime/thread_pool.hpp"

#include <functional>
#include <span>
#include <utility>
#include <vector>

namespace pipoly::testing {

class ClosureGraph {
public:
  using NodeId = rt::ReplayGraph::NodeId;

  /// Adds a node running `body` after every node in `deps`. A rejected
  /// dependency throws and leaves the graph unchanged.
  NodeId add(std::function<void()> body, std::span<const NodeId> deps = {}) {
    const NodeId id = graph_.addNode(deps);
    bodies_.push_back(std::move(body));
    return id;
  }

  void run(rt::DependencyThreadPool& pool) {
    if (!graph_.frozen())
      graph_.freeze();
    pool.runGraph(graph_, 1, &call, this);
  }

private:
  static void call(void* self, NodeId node, std::size_t) {
    static_cast<ClosureGraph*>(self)->bodies_[node]();
  }

  rt::ReplayGraph graph_;
  std::vector<std::function<void()>> bodies_;
};

} // namespace pipoly::testing
