#pragma once

// Structured tracing & metrics — the observability substrate every layer
// of the stack emits into. The design goals, in priority order:
//
//  1. **Near-zero cost when off.** Every emit begins with one relaxed
//     atomic load of the active-session pointer; with no session active
//     nothing else happens — no allocation, no lock, no clock read. This
//     is what lets the compile passes and the runtime keep their probes
//     compiled in unconditionally (bench_micro's detect numbers budget
//     <=1% for the disabled probes).
//
//  2. **No cross-thread contention when on.** Each thread appends raw
//     events to its own thread-local buffer; buffers register themselves
//     with the session on a thread's first event (or setThreadName call)
//     and are drained only at Session::stop(). Threads never contend on
//     a shared event sink.
//
//  3. **Race-free teardown without a thread registry.** stop() retires
//     the global session pointer and then waits out a grace period on a
//     global in-flight counter (emitters bracket their work with
//     fetch_add/fetch_sub): any emit that saw the session completes
//     before the drain starts, and any emit that starts after the
//     retirement sees no session and backs off. This makes it safe to
//     trace threads the session does not own — pool workers that keep
//     running (and parking/unparking) after the traced region ended.
//
// Event model: Begin/End span pairs (thread-scoped, nestable), Instant
// markers, and Counter samples. Spans left open when the session stops
// are closed at the stop timestamp; stray End events (from a session
// started mid-span) are dropped — a drained Trace always has balanced,
// per-thread-monotone Begin/End pairs, which the exporters and the
// schema tests rely on.
//
// Concurrency contract: at most one Session is active at a time
// (start() enforces it); start()/stop() may be called from any one
// thread; emits may come from any thread at any moment.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pipoly::trace {

/// Sentinel for "no argument" on spans and instants.
inline constexpr std::int64_t kNoArg = -1;

enum class EventKind : std::uint8_t { Begin, End, Instant, Counter };

/// One drained event. `tid` is the dense per-session thread index (the
/// order threads first emitted or were named); `tsNanos` is steady-clock
/// time since Session::start().
struct TraceEvent {
  EventKind kind = EventKind::Instant;
  std::string name;
  std::int64_t arg = kNoArg; // optional payload (task index, unit index)
  std::int64_t tsNanos = 0;
  std::uint64_t tid = 0;
  double value = 0.0; // counters only

  bool operator==(const TraceEvent&) const = default;
};

/// A trace track: one per thread that emitted or was named during the
/// session, plus any synthetic tracks appended afterwards (the
/// simulator's predicted timeline). `pid` groups tracks into processes
/// in the Chrome viewer.
struct ThreadInfo {
  std::string name;
  int pid = 1;

  bool operator==(const ThreadInfo&) const = default;
};

/// The drained, post-session form of a trace: events grouped by tid (in
/// per-thread emission order, timestamps monotone within a tid).
struct Trace {
  std::vector<TraceEvent> events;
  std::vector<ThreadInfo> threads; // indexed by tid
};

class Session {
public:
  Session() = default;
  ~Session(); // stops the session if still active

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Installs this session as the process-wide active one and starts the
  /// clock. Throws pipoly::Error if another session is active.
  void start();

  /// Retires the session, waits for in-flight emits, drains every thread
  /// buffer and normalizes the result (balanced spans, dense tids).
  /// Idempotent; a session cannot be restarted after stop().
  void stop();

  bool isActive() const;

  /// The drained trace. Valid after stop().
  const Trace& trace() const { return trace_; }
  Trace& trace() { return trace_; }

private:
  friend void detail_record(Session* s, EventKind kind, const char* name,
                            std::int64_t arg, double value);
  friend void setThreadName(std::string name);

  struct RawEvent {
    EventKind kind;
    const char* name; // static string, always non-null
    std::int64_t arg;
    std::int64_t tsNanos;
    double value;
  };

  /// Single-writer append buffer; the owning thread is the only mutator
  /// while the session is active, the stopping thread the only reader
  /// after the grace period — the in-flight counter orders the two.
  struct ThreadBuffer {
    std::vector<RawEvent> events;
    std::string threadName;
  };

  void record(EventKind kind, const char* name, std::int64_t arg,
              double value);
  ThreadBuffer* thisThreadBuffer();
  ThreadBuffer* registerThisThread();

  std::chrono::steady_clock::time_point begin_{};
  std::uint64_t epoch_ = 0; // unique per start(), keys the TLS cache
  bool started_ = false;
  bool stopped_ = false;

  std::mutex registryMutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_; // guarded by mutex

  Trace trace_; // populated by stop()
};

/// True while a session is active. One relaxed atomic load — callers may
/// use it to skip argument construction, but every emit function below
/// performs the check itself.
bool enabled();

/// Names the calling thread for all traces it subsequently appears in
/// (sticky thread-local state, not tied to any session). Called while a
/// session is active, it also gives the thread its track in that session
/// at once, even if the thread then never emits. Threads that never call
/// this appear as "thread-<tid>".
void setThreadName(std::string name);

// Emit functions. All are no-ops (one relaxed load) without an active
// session and safe to call from any thread at any time.
void beginSpan(const char* name, std::int64_t arg = kNoArg);
void endSpan(const char* name, std::int64_t arg = kNoArg);
void instant(const char* name, std::int64_t arg = kNoArg);
void counter(const char* name, double value);

/// RAII Begin/End pair. The name must be a static string (it is stored
/// by pointer until the session drains).
class Span {
public:
  explicit Span(const char* name, std::int64_t arg = kNoArg)
      : name_(name), arg_(arg) {
    beginSpan(name_, arg_);
  }
  ~Span() { endSpan(name_, arg_); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  const char* name_;
  std::int64_t arg_;
};

} // namespace pipoly::trace
