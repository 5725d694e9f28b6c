#include "minispark/metrics.h"

#include <algorithm>
#include <queue>
#include <sstream>

#include "minispark/trace.h"

namespace rankjoin::minispark {

double StageMetrics::TotalTaskSeconds() const {
  double total = 0.0;
  for (double t : task_seconds) total += t;
  return total;
}

double StageMetrics::MaxTaskSeconds() const {
  double max = 0.0;
  for (double t : task_seconds) max = std::max(max, t);
  return max;
}

double StageMetrics::SimulatedMakespan(int workers) const {
  if (workers <= 0) workers = 1;
  if (task_seconds.empty()) return 0.0;
  std::vector<double> sorted = task_seconds;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  // Greedy LPT: assign each task to the currently least-loaded worker.
  std::priority_queue<double, std::vector<double>, std::greater<double>> load;
  for (int i = 0; i < workers; ++i) load.push(0.0);
  for (double t : sorted) {
    double least = load.top();
    load.pop();
    load.push(least + t);
  }
  double makespan = 0.0;
  while (!load.empty()) {
    makespan = std::max(makespan, load.top());
    load.pop();
  }
  return makespan;
}

void JobMetrics::AddStage(StageMetrics stage) {
  stages_.push_back(std::move(stage));
}

void JobMetrics::Clear() { stages_.clear(); }

double JobMetrics::TotalTaskSeconds() const {
  double total = 0.0;
  for (const auto& s : stages_) total += s.TotalTaskSeconds();
  return total;
}

double JobMetrics::SimulatedMakespan(int workers) const {
  double total = 0.0;
  for (const auto& s : stages_) total += s.SimulatedMakespan(workers);
  return total;
}

uint64_t JobMetrics::TotalShuffleRecords() const {
  uint64_t total = 0;
  for (const auto& s : stages_) total += s.shuffle_records;
  return total;
}

uint64_t JobMetrics::TotalShuffleBytes() const {
  uint64_t total = 0;
  for (const auto& s : stages_) total += s.shuffle_bytes;
  return total;
}

uint64_t JobMetrics::TotalMaterializedElements() const {
  uint64_t total = 0;
  for (const auto& s : stages_) total += s.materialized_elements;
  return total;
}

uint64_t JobMetrics::TotalMaterializedBytes() const {
  uint64_t total = 0;
  for (const auto& s : stages_) total += s.materialized_bytes;
  return total;
}

uint64_t JobMetrics::TotalSpilledBytes() const {
  uint64_t total = 0;
  for (const auto& s : stages_) total += s.spilled_bytes;
  return total;
}

uint64_t JobMetrics::TotalSpilledRuns() const {
  uint64_t total = 0;
  for (const auto& s : stages_) total += s.spilled_runs;
  return total;
}

uint64_t JobMetrics::TotalTaskRetries() const {
  uint64_t total = 0;
  for (const auto& s : stages_) total += s.task_retries;
  return total;
}

uint64_t JobMetrics::TotalRecoveredSpillRuns() const {
  uint64_t total = 0;
  for (const auto& s : stages_) total += s.recovered_spill_runs;
  return total;
}

Histogram JobMetrics::TaskDurationHistogram() const {
  Histogram merged;
  for (const auto& s : stages_) merged.Merge(s.task_duration_us);
  return merged;
}

Histogram JobMetrics::QueueWaitHistogram() const {
  Histogram merged;
  for (const auto& s : stages_) merged.Merge(s.queue_wait_us);
  return merged;
}

Histogram JobMetrics::ShuffleBucketHistogram() const {
  Histogram merged;
  for (const auto& s : stages_) merged.Merge(s.shuffle_bucket_bytes);
  return merged;
}

Histogram JobMetrics::SpillSegmentHistogram() const {
  Histogram merged;
  for (const auto& s : stages_) merged.Merge(s.spill_segment_bytes);
  return merged;
}

std::unordered_map<uint64_t, OpMetrics> JobMetrics::AggregatedOpMetrics()
    const {
  std::unordered_map<uint64_t, OpMetrics> agg;
  for (const auto& s : stages_) {
    for (const auto& m : s.op_metrics) {
      OpMetrics& slot = agg[m.op_id];
      if (slot.op.empty()) {
        slot.op_id = m.op_id;
        slot.op = m.op;
        slot.name = m.name;
      }
      slot.records_in += m.records_in;
      slot.records_out += m.records_out;
      slot.seconds += m.seconds;
    }
  }
  return agg;
}

std::string JobMetrics::ToString() const {
  std::ostringstream os;
  for (const auto& s : stages_) {
    os << s.name << ": tasks=" << s.task_seconds.size()
       << " cpu_s=" << s.TotalTaskSeconds()
       << " max_task_s=" << s.MaxTaskSeconds()
       << " shuffle_records=" << s.shuffle_records
       << " max_partition=" << s.max_partition_size
       << " materialized=" << s.materialized_elements;
    if (s.task_duration_us.Count() > 0) {
      os << " task_us_p50/p95/p99=" << s.task_duration_us.Quantile(0.5)
         << '/' << s.task_duration_us.Quantile(0.95) << '/'
         << s.task_duration_us.Quantile(0.99);
    }
    if (s.spilled_bytes > 0) {
      os << " spilled_bytes=" << s.spilled_bytes
         << " spilled_runs=" << s.spilled_runs;
    }
    if (s.task_retries > 0) os << " retries=" << s.task_retries;
    if (s.recovered_spill_runs > 0) {
      os << " recovered_runs=" << s.recovered_spill_runs;
    }
    if (!s.status.ok()) os << " status=[" << s.status.ToString() << ']';
    if (!s.fused_ops.empty()) os << " fused=[" << s.fused_ops << ']';
    os << '\n';
    for (const auto& m : s.op_metrics) {
      os << "    op " << m.op;
      if (!m.name.empty() && m.name != m.op) os << '[' << m.name << ']';
      os << ": in=" << m.records_in << " out=" << m.records_out;
      if (m.seconds > 0.0) os << " incl_s=" << m.seconds;
      os << '\n';
    }
  }
  return os.str();
}

std::string JobMetrics::ToJson() const {
  using internal::JsonEscape;
  std::ostringstream os;
  os << "{\"stages\":[";
  bool first_stage = true;
  for (const auto& s : stages_) {
    if (!first_stage) os << ",";
    first_stage = false;
    os << "\n{\"name\":\"" << JsonEscape(s.name)
       << "\",\"tasks\":" << s.task_seconds.size()
       << ",\"cpu_seconds\":" << s.TotalTaskSeconds()
       << ",\"max_task_seconds\":" << s.MaxTaskSeconds()
       << ",\"shuffle_records\":" << s.shuffle_records
       << ",\"shuffle_bytes\":" << s.shuffle_bytes
       << ",\"max_partition_size\":" << s.max_partition_size
       << ",\"materialized_elements\":" << s.materialized_elements
       << ",\"materialized_bytes\":" << s.materialized_bytes
       << ",\"spilled_bytes\":" << s.spilled_bytes
       << ",\"spilled_runs\":" << s.spilled_runs
       << ",\"task_retries\":" << s.task_retries
       << ",\"recovered_spill_runs\":" << s.recovered_spill_runs
       << ",\"task_duration_us\":" << s.task_duration_us.ToJson()
       << ",\"queue_wait_us\":" << s.queue_wait_us.ToJson()
       << ",\"shuffle_bucket_bytes\":" << s.shuffle_bucket_bytes.ToJson()
       << ",\"spill_segment_bytes\":" << s.spill_segment_bytes.ToJson()
       << ",\"status\":\"" << JsonEscape(s.status.ToString())
       << "\",\"fused_ops\":\"" << JsonEscape(s.fused_ops) << "\"";
    os << ",\"op_metrics\":[";
    bool first_op = true;
    for (const auto& m : s.op_metrics) {
      if (!first_op) os << ",";
      first_op = false;
      os << "{\"id\":" << m.op_id << ",\"op\":\"" << JsonEscape(m.op)
         << "\",\"name\":\"" << JsonEscape(m.name)
         << "\",\"records_in\":" << m.records_in
         << ",\"records_out\":" << m.records_out
         << ",\"inclusive_seconds\":" << m.seconds << "}";
    }
    os << "]}";
  }
  os << "\n],\"totals\":{\"stages\":" << stages_.size()
     << ",\"task_seconds\":" << TotalTaskSeconds()
     << ",\"shuffle_records\":" << TotalShuffleRecords()
     << ",\"shuffle_bytes\":" << TotalShuffleBytes()
     << ",\"materialized_elements\":" << TotalMaterializedElements()
     << ",\"materialized_bytes\":" << TotalMaterializedBytes()
     << ",\"spilled_bytes\":" << TotalSpilledBytes()
     << ",\"spilled_runs\":" << TotalSpilledRuns()
     << ",\"task_retries\":" << TotalTaskRetries()
     << ",\"recovered_spill_runs\":" << TotalRecoveredSpillRuns()
     << ",\"task_duration_us\":" << TaskDurationHistogram().ToJson()
     << ",\"queue_wait_us\":" << QueueWaitHistogram().ToJson()
     << ",\"shuffle_bucket_bytes\":" << ShuffleBucketHistogram().ToJson()
     << ",\"spill_segment_bytes\":" << SpillSegmentHistogram().ToJson()
     << "}}\n";
  return os.str();
}

}  // namespace rankjoin::minispark
