#pragma once

// The benchmark's own span recorder. Spans are opened and closed by the
// benchmark around each call into a library layer, on the single client
// thread, and kept in memory until the run writes them out. Every span
// belongs to a pass (one closed-loop iteration of a workload phase) and
// optionally to a program operation: the spans of one program share its
// operation id. Counters are recorded at the same boundaries.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name;    // static string, a layer name such as "pipeline.detect"
  std::uint32_t pass;  // index into Tracer::passes()
  std::uint32_t op;    // index into Tracer::ops(); 0 = no program
  std::int32_t parent; // index of the enclosing span, -1 at the root
  std::int64_t startNs;
  std::int64_t endNs; // -1 while open
};

struct CounterRecord {
  const char* name;
  std::uint32_t pass;
  std::uint32_t op;
  double value;
};

struct PassRecord {
  const char* phase; // "setup", "main", "scaling", ...
};

class Tracer {
public:
  explicit Tracer(bool enabled = false);

  bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }

  /// Starts a pass of `phase`: later spans and counters belong to it.
  void beginPass(const char* phase);
  /// A new program operation id within the current pass (0 when off).
  std::uint32_t beginOp(const std::string& program);

  /// Opens a span and returns its index, or -1 when tracing is off.
  std::int32_t open(const char* name, std::uint32_t op);
  void close(std::int32_t span);
  void count(const char* name, std::uint32_t op, double value);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<CounterRecord>& counters() const { return counters_; }
  const std::vector<PassRecord>& passes() const { return passes_; }
  /// Program name of each operation id (entry 0 is the empty name).
  const std::vector<std::string>& ops() const { return ops_; }

private:
  std::int64_t now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<CounterRecord> counters_;
  std::vector<PassRecord> passes_;
  std::vector<std::string> ops_{""};
  std::vector<std::int32_t> open_; // stack of open span indices
};

/// RAII span; records nothing when the tracer is off.
class ScopedSpan {
public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint32_t op = 0)
      : tracer_(tracer), span_(tracer.open(name, op)) {}
  ~ScopedSpan() { tracer_.close(span_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  Tracer& tracer_;
  std::int32_t span_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (the union of their intervals, clipped
/// to the span). Spans must be closed.
std::vector<std::int64_t> selfTimesNs(const std::vector<SpanRecord>& spans);

/// Per-pass totals of one layer within `phase`, in milliseconds: for every
/// pass of that phase, the summed self time of the spans named `name`,
/// restricted to operations of `program` when it is non-empty.
std::vector<double> passTotalsMs(const Tracer& tracer,
                                 const std::vector<std::int64_t>& self,
                                 std::string_view phase, std::string_view name,
                                 std::string_view program = {});

/// Per-pass sums of the counter `name` within `phase`.
std::vector<double> passCounterSums(const Tracer& tracer,
                                    std::string_view phase,
                                    std::string_view name);

/// The spans, counters and passes as one JSON object.
std::string traceJson(const Tracer& tracer,
                      const std::vector<std::int64_t>& self);

} // namespace perfbench
