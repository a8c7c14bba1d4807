// TracingLayer under concurrency: every executed task leaves exactly one
// "task" span, whichever worker ran it, and the spans of a dependency
// chain come out strictly ordered.

#include "tasking/tracing_layer.hpp"

#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>

namespace pipoly::tasking {
namespace {

/// (begin, end) timestamps of the "task" spans of `trace`, keyed by the
/// creation index the layer passes as the span argument. Fails the test
/// on a duplicated or unmatched span.
std::map<std::int64_t, std::pair<std::int64_t, std::int64_t>>
taskSpans(const trace::Trace& trace) {
  std::map<std::int64_t, std::pair<std::int64_t, std::int64_t>> spans;
  std::map<std::int64_t, int> begins, ends;
  for (const trace::TraceEvent& ev : trace.events) {
    if (ev.name != "task")
      continue;
    if (ev.kind == trace::EventKind::Begin) {
      ++begins[ev.arg];
      spans[ev.arg].first = ev.tsNanos;
    } else if (ev.kind == trace::EventKind::End) {
      ++ends[ev.arg];
      spans[ev.arg].second = ev.tsNanos;
    }
  }
  for (const auto& [index, count] : begins)
    EXPECT_EQ(count, 1) << "task " << index << " has " << count << " spans";
  EXPECT_EQ(begins, ends) << "unmatched task span";
  return spans;
}

TEST(TracingLayerTest, NoLostOrDuplicateSpansUnderConcurrency) {
  // With the work-stealing backend, spans are recorded from every worker
  // concurrently; none may be lost or double-counted, and the creation
  // indices must come out dense.
  TracingLayer layer(makeThreadPoolBackend(8));
  auto noop = +[](void*) {};
  int dummy = 0;
  constexpr std::size_t kTasks = 500;
  for (int repeat = 0; repeat < 3; ++repeat) {
    trace::Session session;
    session.start();
    layer.run([&] {
      for (std::size_t k = 0; k < kTasks; ++k)
        layer.createTask(noop, &dummy, sizeof(dummy),
                         static_cast<std::int64_t>(k), 0, nullptr, nullptr, 0);
    });
    session.stop();
    const auto spans = taskSpans(session.trace());
    ASSERT_EQ(spans.size(), kTasks) << "repeat " << repeat;
    std::int64_t expected = 0;
    for (const auto& [index, span] : spans)
      EXPECT_EQ(index, expected++) << "lost or duplicated span";
  }
}

TEST(TracingLayerTest, DependentChainSpansDoNotOverlap) {
  // A strict dependency chain must produce strictly ordered spans even
  // when recorded from different worker threads.
  TracingLayer layer(makeThreadPoolBackend(4));
  auto noop = +[](void*) {};
  int dummy = 0;
  constexpr int kDepth = 64;
  trace::Session session;
  session.start();
  layer.run([&] {
    for (int k = 0; k < kDepth; ++k) {
      std::int64_t dep = k - 1;
      int idx = 0;
      layer.createTask(noop, &dummy, sizeof(dummy), k, 0,
                       k > 0 ? &dep : nullptr, k > 0 ? &idx : nullptr,
                       k > 0 ? 1u : 0u);
    }
  });
  session.stop();
  const auto spans = taskSpans(session.trace());
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kDepth));
  for (int k = 1; k < kDepth; ++k)
    EXPECT_LE(spans.at(k - 1).second, spans.at(k).first)
        << "chained tasks " << k - 1 << " and " << k << " overlapped";
}

} // namespace
} // namespace pipoly::tasking
