#pragma once

// A decorating tasking layer that emits one trace span per executed task
// into the active trace::Session (src/trace). It keeps no timing state of
// its own: when no session is active the per-task cost is a single
// relaxed atomic load, so the layer can stay installed permanently.
//
// The span is named "task" with the creation-order index as its argument,
// and is recorded on whichever thread the inner backend runs the body —
// so Chrome-trace export naturally yields one track per worker.

#include "tasking/tasking.hpp"

#include <vector>

namespace pipoly::tasking {

class TracingLayer final : public TaskingLayer {
public:
  explicit TracingLayer(std::unique_ptr<TaskingLayer> inner);
  ~TracingLayer() override;

  std::string_view name() const override { return "tracing"; }

  void createTask(TaskFunction f, const void* input, std::size_t inputSize,
                  std::int64_t outDepend, int outIdx,
                  const std::int64_t* inDepend, const int* inIdx,
                  std::size_t dependNum) override;

  void reserveDependencySlots(std::size_t numSlots) override;

  void run(const std::function<void()>& spawner) override;

  /// Implementation detail of the traced dispatch (public only because
  /// the C-style task function needs to name it).
  struct Trampoline;

private:
  std::unique_ptr<TaskingLayer> inner_;
  std::vector<std::unique_ptr<Trampoline>> trampolines_;
  std::size_t created_ = 0;
};

} // namespace pipoly::tasking
