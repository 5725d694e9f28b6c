#include "minispark/trace.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

namespace rankjoin::minispark {
namespace {

thread_local TaskTrace* g_current_task_trace = nullptr;

std::atomic<int> g_next_trace_tid{0};
thread_local int g_trace_tid = -1;

}  // namespace

std::optional<TraceLevel> ParseTraceLevel(const std::string& text) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "off" || lower == "0") return TraceLevel::kOff;
  if (lower == "counters" || lower == "1") return TraceLevel::kCounters;
  if (lower == "timers" || lower == "2") return TraceLevel::kTimers;
  return std::nullopt;
}

const char* TraceLevelName(TraceLevel level) {
  switch (level) {
    case TraceLevel::kOff:
      return "off";
    case TraceLevel::kCounters:
      return "counters";
    case TraceLevel::kTimers:
      return "timers";
  }
  return "off";
}

TaskTrace* CurrentTaskTrace() { return g_current_task_trace; }

ScopedTaskTrace::ScopedTaskTrace(TaskTrace* trace)
    : previous_(g_current_task_trace) {
  g_current_task_trace = trace;
}

ScopedTaskTrace::~ScopedTaskTrace() { g_current_task_trace = previous_; }

int CurrentTraceTid() {
  if (g_trace_tid < 0) {
    g_trace_tid = g_next_trace_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return g_trace_tid;
}

void CounterRegistry::Add(const std::string& name, uint64_t delta) {
  if (!enabled_) return;
  std::atomic<uint64_t>* counter = nullptr;
  {
    MutexLock lock(mutex_);
    auto& slot = counters_[name];
    if (slot == nullptr) slot = std::make_unique<std::atomic<uint64_t>>(0);
    counter = slot.get();
  }
  // The increment deliberately runs outside the map lock; Clear() keeps
  // the atomic alive (retired_) so this pointer can never dangle.
  counter->fetch_add(delta, std::memory_order_relaxed);
}

uint64_t CounterRegistry::Value(const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) return 0;
  return it->second->load(std::memory_order_relaxed);
}

std::vector<std::pair<std::string, uint64_t>> CounterRegistry::Snapshot()
    const {
  MutexLock lock(mutex_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->load(std::memory_order_relaxed));
  }
  return out;  // std::map iterates sorted by name
}

void CounterRegistry::Clear() {
  MutexLock lock(mutex_);
  // Move (not destroy) the atomics: an Add() racing with this clear may
  // have escaped a counter pointer out of the lock and be about to
  // fetch_add through it. Parking the allocations in retired_ keeps that
  // store pointed at live memory; it simply no longer appears in
  // snapshots. The graveyard is bounded by the number of Clear() calls
  // times live counter names — Clear() is a between-runs operation, not
  // a hot path.
  retired_.reserve(retired_.size() + counters_.size());
  for (auto& [name, counter] : counters_) {
    retired_.push_back(std::move(counter));
  }
  counters_.clear();
}

TraceSink::TraceSink(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

int64_t TraceSink::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceSink::Record(TraceSpan span) {
  MutexLock lock(mutex_);
  spans_.push_back(std::move(span));
}

size_t TraceSink::NumSpans() const {
  MutexLock lock(mutex_);
  return spans_.size();
}

std::string TraceSink::ToChromeTraceJson(
    const std::vector<std::pair<std::string, uint64_t>>& counters) const {
  std::vector<TraceSpan> spans;
  {
    MutexLock lock(mutex_);
    spans = spans_;
  }
  // Stable presentation order: by start time, then track.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     if (a.start_us != b.start_us) {
                       return a.start_us < b.start_us;
                     }
                     return a.tid < b.tid;
                   });
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"minispark\"}}";
  for (const TraceSpan& span : spans) {
    os << ",\n{\"name\":\"" << internal::JsonEscape(span.name)
       << "\",\"cat\":\"" << internal::JsonEscape(span.category)
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << span.tid
       << ",\"ts\":" << span.start_us << ",\"dur\":" << span.dur_us;
    if (span.task_index >= 0 || span.attempt > 0) {
      os << ",\"args\":{\"task\":" << span.task_index;
      if (span.attempt > 0) os << ",\"attempt\":" << span.attempt;
      os << "}";
    }
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) os << ",";
    first = false;
    os << "\"" << internal::JsonEscape(name) << "\":" << value;
  }
  os << "}}}\n";
  return os.str();
}

namespace internal {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace internal

}  // namespace rankjoin::minispark
