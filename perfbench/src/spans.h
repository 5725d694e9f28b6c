// In-memory span recorder for the traced run. The benchmark records a
// span around each call it makes into a library module; spans are kept
// in memory and written once, at the end, in the Chrome-trace JSON
// format that minispark::Context::DumpTrace emits, so Perfetto opens
// both files the same way.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name;  // "<module>.<function>"; string literals only
    const char* category;
    int64_t start_us;
    int64_t end_us;
    int parent;  // index into spans(), -1 for a root
    int job;     // job id the span belongs to, -1 outside jobs
  };

  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_job(int job) { job_ = job; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when recording is off.
  int Begin(const char* name, const char* category) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, category, NowMicros(), 0, parent, job_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_us = NowMicros();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n"
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
           "\"args\":{\"name\":\"perfbench\"}}";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << s.category
          << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":" << s.start_us
          << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"id\":"
          << i << ",\"parent\":" << s.parent << ",\"job\":" << s.job << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
  }

 private:
  int64_t NowMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  int job_ = -1;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: records [construction, destruction) when the recorder is on.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, const char* category)
      : recorder_(recorder), index_(recorder->Begin(name, category)) {}
  ~ScopedSpan() { recorder_->End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
