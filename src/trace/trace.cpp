#include "trace/trace.hpp"

#include "support/assert.hpp"

#include <algorithm>
#include <thread>

namespace pipoly::trace {

namespace {

// The active session and the grace-period counter. The Dekker-style
// pairing: an emitter bumps gInFlight (seq_cst) and *then* re-reads
// gActive (seq_cst); stop() retires gActive (seq_cst) and *then* reads
// gInFlight (seq_cst). In the seq_cst total order either the emitter's
// re-read sees the retirement (it backs off without touching the
// session), or stop()'s read sees the bump (it waits for the matching
// fetch_sub, whose release pairs with the wait loop's seq_cst loads to
// publish the buffered events).
std::atomic<Session*> gActive{nullptr};
std::atomic<int> gInFlight{0};
std::atomic<std::uint64_t> gEpochCounter{0};

struct TlsCache {
  std::uint64_t epoch = 0; // matches Session::epoch_ when buffer is valid
  void* buffer = nullptr;  // Session::ThreadBuffer*, owned by the session
};
thread_local TlsCache tlsCache;
thread_local std::string tlsThreadName;

/// Runs f(session) inside the grace-period bracket when a session is
/// active; a no-op (one relaxed load) otherwise.
template <class F> void withActiveSession(F&& f) {
  if (gActive.load(std::memory_order_relaxed) == nullptr)
    return; // fast path: tracing off
  gInFlight.fetch_add(1, std::memory_order_seq_cst);
  if (Session* s = gActive.load(std::memory_order_seq_cst))
    f(s);
  gInFlight.fetch_sub(1, std::memory_order_release);
}

void emit(EventKind kind, const char* name, std::int64_t arg, double value) {
  withActiveSession(
      [&](Session* s) { detail_record(s, kind, name, arg, value); });
}

} // namespace

void detail_record(Session* s, EventKind kind, const char* name,
                   std::int64_t arg, double value) {
  s->record(kind, name, arg, value);
}

bool enabled() {
  return gActive.load(std::memory_order_relaxed) != nullptr;
}

void setThreadName(std::string name) {
  tlsThreadName = std::move(name);
  // Register with the active session now, so the thread gets its named
  // track even if it never emits (an idle pool worker).
  withActiveSession([](Session* s) {
    s->thisThreadBuffer()->threadName = tlsThreadName;
  });
}

void beginSpan(const char* name, std::int64_t arg) {
  emit(EventKind::Begin, name, arg, 0.0);
}
void endSpan(const char* name, std::int64_t arg) {
  emit(EventKind::End, name, arg, 0.0);
}
void instant(const char* name, std::int64_t arg) {
  emit(EventKind::Instant, name, arg, 0.0);
}
void counter(const char* name, double value) {
  emit(EventKind::Counter, name, kNoArg, value);
}

Session::~Session() {
  if (isActive())
    stop();
}

bool Session::isActive() const {
  return gActive.load(std::memory_order_relaxed) == this;
}

void Session::start() {
  PIPOLY_CHECK_MSG(!started_, "a trace::Session cannot be restarted");
  begin_ = std::chrono::steady_clock::now();
  epoch_ = gEpochCounter.fetch_add(1, std::memory_order_relaxed) + 1;
  started_ = true;
  Session* expected = nullptr;
  PIPOLY_CHECK_MSG(
      gActive.compare_exchange_strong(expected, this,
                                      std::memory_order_seq_cst),
      "another trace::Session is already active");
}

Session::ThreadBuffer* Session::registerThisThread() {
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->threadName = tlsThreadName;
  ThreadBuffer* raw = buffer.get();
  {
    std::lock_guard lock(registryMutex_);
    buffers_.push_back(std::move(buffer));
  }
  tlsCache = TlsCache{epoch_, raw};
  return raw;
}

Session::ThreadBuffer* Session::thisThreadBuffer() {
  // The grace period (the callers' in-flight bracket) guarantees this
  // session is not being drained, so the TLS-cached buffer pointer is safe.
  return tlsCache.epoch == epoch_ ? static_cast<ThreadBuffer*>(tlsCache.buffer)
                                  : registerThisThread();
}

void Session::record(EventKind kind, const char* name, std::int64_t arg,
                     double value) {
  ThreadBuffer* buffer = thisThreadBuffer();
  const std::int64_t ts =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin_)
          .count();
  buffer->events.push_back(RawEvent{kind, name, arg, ts, value});
}

void Session::stop() {
  if (!started_ || stopped_)
    return;
  stopped_ = true;
  Session* expected = this;
  const bool wasActive = gActive.compare_exchange_strong(
      expected, nullptr, std::memory_order_seq_cst);
  PIPOLY_CHECK_MSG(wasActive, "stopping a session that is not active");
  // Grace period: any emitter that observed this session finishes its
  // append before we read the buffers.
  while (gInFlight.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();

  const std::int64_t endTs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin_)
          .count();

  std::lock_guard lock(registryMutex_);
  trace_.events.clear();
  trace_.threads.clear();
  for (std::size_t tid = 0; tid < buffers_.size(); ++tid) {
    const ThreadBuffer& buffer = *buffers_[tid];
    trace_.threads.push_back(ThreadInfo{
        buffer.threadName.empty() ? "thread-" + std::to_string(tid)
                                  : buffer.threadName,
        /*pid=*/1});
    // Normalize this thread's span structure: a stray End (its Begin
    // predates the session) is dropped; Begins left open at stop are
    // closed at the stop timestamp. Timestamps are already monotone —
    // steady_clock reads from a single thread never go backwards and the
    // buffer preserves emission order.
    std::vector<const RawEvent*> open;
    for (const RawEvent& raw : buffer.events) {
      if (raw.kind == EventKind::End) {
        if (open.empty())
          continue; // unmatched End
        open.pop_back();
      } else if (raw.kind == EventKind::Begin) {
        open.push_back(&raw);
      }
      trace_.events.push_back(TraceEvent{raw.kind, raw.name, raw.arg,
                                         raw.tsNanos, tid, raw.value});
    }
    for (std::size_t k = open.size(); k-- > 0;)
      trace_.events.push_back(TraceEvent{EventKind::End, open[k]->name,
                                         open[k]->arg, endTs, tid, 0.0});
  }
}

} // namespace pipoly::trace
