#include "tracer.hpp"

#include "json.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::beginPass(const char* phase) {
  if (enabled_)
    passes_.push_back({phase});
}

std::uint32_t Tracer::beginOp(const std::string& program) {
  if (!enabled_)
    return 0;
  ops_.push_back(program);
  return static_cast<std::uint32_t>(ops_.size() - 1);
}

std::int32_t Tracer::open(const char* name, std::uint32_t op) {
  if (!enabled_)
    return -1;
  if (passes_.empty())
    throw std::logic_error("span opened before the first pass");
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, static_cast<std::uint32_t>(passes_.size() - 1), op,
                    parent, now(), -1});
  const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(idx);
  return idx;
}

void Tracer::close(std::int32_t span) {
  if (span < 0)
    return;
  if (open_.empty() || open_.back() != span)
    throw std::logic_error("spans must close innermost first");
  open_.pop_back();
  spans_[static_cast<std::size_t>(span)].endNs = now();
}

void Tracer::count(const char* name, std::uint32_t op, double value) {
  if (enabled_ && !passes_.empty())
    counters_.push_back(
        {name, static_cast<std::uint32_t>(passes_.size() - 1), op, value});
}

std::vector<std::int64_t> selfTimesNs(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.endNs < s.startNs)
      throw std::invalid_argument("self time of an open span");
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.startNs,
                                                                s.endNs);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.startNs; // end of the union covered so far
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, s.endNs);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = (s.endNs - s.startNs) - covered;
  }
  return self;
}

namespace {

/// Indices of the passes of `phase`, in order.
std::vector<std::uint32_t> passesOf(const Tracer& tracer,
                                    std::string_view phase) {
  std::vector<std::uint32_t> out;
  for (std::size_t p = 0; p < tracer.passes().size(); ++p)
    if (phase == tracer.passes()[p].phase)
      out.push_back(static_cast<std::uint32_t>(p));
  return out;
}

/// Maps the per-pass values of `phase` (indexed by global pass index) to
/// one entry per pass of the phase.
std::vector<double> collect(const Tracer& tracer, std::string_view phase,
                            const std::vector<double>& byPass) {
  std::vector<double> out;
  for (std::uint32_t p : passesOf(tracer, phase))
    out.push_back(byPass[p]);
  return out;
}

} // namespace

std::vector<double> passTotalsMs(const Tracer& tracer,
                                 const std::vector<std::int64_t>& self,
                                 std::string_view phase, std::string_view name,
                                 std::string_view program) {
  std::vector<double> byPass(tracer.passes().size(), 0.0);
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (name != s.name)
      continue;
    if (!program.empty() && tracer.ops()[s.op] != program)
      continue;
    byPass[s.pass] += static_cast<double>(self[i]) / 1e6;
  }
  return collect(tracer, phase, byPass);
}

std::vector<double> passCounterSums(const Tracer& tracer,
                                    std::string_view phase,
                                    std::string_view name) {
  std::vector<double> byPass(tracer.passes().size(), 0.0);
  for (const CounterRecord& c : tracer.counters())
    if (name == c.name)
      byPass[c.pass] += c.value;
  return collect(tracer, phase, byPass);
}

std::string traceJson(const Tracer& tracer,
                      const std::vector<std::int64_t>& self) {
  std::string out = "{\"passes\": [";
  for (std::size_t p = 0; p < tracer.passes().size(); ++p)
    out += (p ? ", " : "") + jsonString(tracer.passes()[p].phase);
  out += "],\n\"spans\": [";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out += std::string(i ? ",\n" : "\n") + "{\"id\": " + std::to_string(i) +
           ", \"name\": " + jsonString(s.name) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"pass\": " + std::to_string(s.pass) +
           ", \"op\": " + std::to_string(s.op) +
           ", \"program\": " + jsonString(tracer.ops()[s.op]) +
           ", \"start_ns\": " + std::to_string(s.startNs) +
           ", \"end_ns\": " + std::to_string(s.endNs) +
           ", \"self_ns\": " + std::to_string(self[i]) + "}";
  }
  out += "],\n\"counters\": [";
  const auto& counters = tracer.counters();
  for (std::size_t i = 0; i < counters.size(); ++i) {
    const CounterRecord& c = counters[i];
    out += std::string(i ? ",\n" : "\n") + "{\"name\": " + jsonString(c.name) +
           ", \"pass\": " + std::to_string(c.pass) +
           ", \"op\": " + std::to_string(c.op) +
           ", \"value\": " + jsonNumber(c.value) + "}";
  }
  out += "]}";
  return out;
}

} // namespace perfbench
