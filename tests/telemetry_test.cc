// Telemetry subsystem: histogram bucket math and quantile error bounds,
// exact/associative merging, Prometheus text rendering (golden lines),
// the background resource sampler's lifecycle, and the embedded stats
// server answering /metrics and /healthz over a real socket while a
// pipelined chaos join is running.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/similarity_join.h"
#include "minispark/context.h"
#include "minispark/stats_server.h"
#include "minispark/telemetry.h"
#include "tests/test_util.h"

namespace rankjoin::minispark {
namespace {

using rankjoin::testutil::ScopedEnv;
using rankjoin::testutil::SmallSkewedDataset;

TEST(HistogramTest, BucketBoundsArePartition) {
  // Every value maps to exactly one bucket whose [lb, ub) contains it.
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 5ull, 7ull, 8ull,
                     100ull, 1000ull, 123456789ull, (1ull << 31),
                     (3ull << 30) - 1}) {
    const int idx = Histogram::BucketIndex(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, Histogram::kNumBuckets);
    EXPECT_GE(v, Histogram::BucketLowerBound(idx)) << "v=" << v;
    EXPECT_LT(v, Histogram::BucketUpperBound(idx)) << "v=" << v;
  }
  // Boundaries grow by at most 1.5x — the quantile error guarantee.
  for (int i = 2; i + 1 < Histogram::kNumBuckets; ++i) {
    const double lo = static_cast<double>(Histogram::BucketLowerBound(i));
    const double hi = static_cast<double>(Histogram::BucketUpperBound(i));
    EXPECT_LE(hi / lo, 1.5 + 1e-9) << "bucket " << i;
  }
}

TEST(HistogramTest, ExactStatsAndSmallValues) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  for (uint64_t v : {0ull, 1ull, 1ull, 5ull, 1000ull}) h.Record(v);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 1007u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 1007.0 / 5);
  // Buckets 0 and 1 are exact singleton buckets.
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.4), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1000.0);
}

TEST(HistogramTest, QuantileErrorBound) {
  // Deterministic pseudo-random workload spanning several decades; the
  // bucket scheme promises < 50% relative error at any quantile (1.5x
  // boundary ratio), clamped to the exact min/max.
  std::vector<uint64_t> values;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  Histogram h;
  for (int i = 0; i < 10000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t v = (state >> 33) % 5000000;
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    const size_t rank = static_cast<size_t>(
        std::max<int64_t>(0, static_cast<int64_t>(p * values.size()) - 1));
    const double exact = static_cast<double>(values[rank]);
    const double approx = h.Quantile(p);
    EXPECT_GE(approx, static_cast<double>(values.front()));
    EXPECT_LE(approx, static_cast<double>(values.back()));
    if (exact > 0) {
      EXPECT_NEAR(approx / exact, 1.0, 0.5) << "p=" << p;
    }
  }
}

TEST(HistogramTest, MergeIsExactAndAssociative) {
  Histogram a, b, c;
  uint64_t state = 12345;
  auto fill = [&state](Histogram* h, int n) {
    for (int i = 0; i < n; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      h->Record((state >> 30) % 1000000);
    }
  };
  fill(&a, 100);
  fill(&b, 700);
  fill(&c, 13);

  Histogram left;  // (a + b) + c
  left.Merge(a);
  left.Merge(b);
  left.Merge(c);
  Histogram bc;  // a + (b + c)
  bc.Merge(b);
  bc.Merge(c);
  Histogram right;
  right.Merge(a);
  right.Merge(bc);

  EXPECT_EQ(left.Count(), 813u);
  EXPECT_EQ(left.Count(), right.Count());
  EXPECT_EQ(left.Sum(), right.Sum());
  EXPECT_EQ(left.Min(), right.Min());
  EXPECT_EQ(left.Max(), right.Max());
  EXPECT_EQ(left.ToJson(), right.ToJson());
  for (double p : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(left.Quantile(p), right.Quantile(p));
  }
}

TEST(HistogramTest, CopyTakesSnapshot) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  Histogram copy = h;
  h.Record(30);
  EXPECT_EQ(copy.Count(), 2u);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(copy.Sum(), 30u);
}

TEST(PrometheusTest, GoldenRendering) {
  TelemetryHub hub;
  hub.task_duration_us().Record(1000000);  // 1s
  hub.task_duration_us().Record(1000000);
  hub.task_duration_us().Record(1000000);
  hub.OnStageComplete();
  hub.AddSpilledBytes(4096);
  hub.MarkSinkDegraded();
  hub.OnCheckpointSaved();
  hub.OnCheckpointSaved();
  hub.OnCheckpointSkipped();
  hub.OnCheckpointRestoreFailed();
  hub.OnDiskPressure();
  hub.SetDeadlineRemainingMs(750);
  ResourceSample now;
  now.at_us = 2500000;
  now.rss_kb = 1024;
  now.max_rss_kb = 2048;
  now.user_cpu_seconds = 1.5;
  now.sys_cpu_seconds = 0.25;
  now.spill_dir_bytes = 4096;
  now.live_tasks = 2;
  std::vector<std::pair<std::string, uint64_t>> counters = {
      {"join.candidates", 42}};

  const std::string text = RenderPrometheusText(hub, counters, now);
  // Rendering is a pure function of its inputs — exact lines hold.
  auto has_line = [&text](const std::string& line) {
    return text.find(line + "\n") != std::string::npos;
  };
  EXPECT_TRUE(has_line("# TYPE rankjoin_task_duration_seconds summary"));
  EXPECT_TRUE(has_line(
      "rankjoin_task_duration_seconds{quantile=\"0.5\"} 1"));
  EXPECT_TRUE(has_line(
      "rankjoin_task_duration_seconds{quantile=\"0.99\"} 1"));
  EXPECT_TRUE(has_line("rankjoin_task_duration_seconds_count 3"));
  EXPECT_TRUE(has_line("rankjoin_task_duration_seconds_sum 3"));
  EXPECT_TRUE(has_line("rankjoin_live_tasks 2"));
  EXPECT_TRUE(has_line("rankjoin_rss_kilobytes 1024"));
  EXPECT_TRUE(has_line("rankjoin_max_rss_kilobytes 2048"));
  EXPECT_TRUE(has_line("rankjoin_spill_dir_bytes 4096"));
  EXPECT_TRUE(has_line("rankjoin_uptime_seconds 2.5"));
  EXPECT_TRUE(has_line("rankjoin_stages_total 1"));
  EXPECT_TRUE(has_line("rankjoin_spilled_bytes_total 4096"));
  EXPECT_TRUE(has_line("rankjoin_sink_degraded_total 1"));
  EXPECT_TRUE(has_line("rankjoin_checkpoint_stages_saved_total 2"));
  EXPECT_TRUE(has_line("rankjoin_checkpoint_stages_skipped_total 1"));
  EXPECT_TRUE(has_line("rankjoin_checkpoint_restore_failed_total 1"));
  EXPECT_TRUE(has_line("rankjoin_disk_pressure_events_total 1"));
  EXPECT_TRUE(has_line("rankjoin_deadline_remaining_ms 750"));
  EXPECT_TRUE(has_line("rankjoin_cpu_user_seconds_total 1.5"));
  EXPECT_TRUE(has_line("rankjoin_cpu_sys_seconds_total 0.25"));
  EXPECT_TRUE(has_line(
      "rankjoin_ctx_counter{name=\"join.candidates\"} 42"));
  // Same inputs, same bytes.
  EXPECT_EQ(text, RenderPrometheusText(hub, counters, now));

  const std::string health = RenderHealthzJson(hub, now, 7);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"live_tasks\":2"), std::string::npos);
  EXPECT_NE(health.find("\"samples\":7"), std::string::npos);
  EXPECT_NE(health.find("\"sink_degraded\":1"), std::string::npos);
}

TEST(ResourceSamplerTest, ReadSelfUsageIsPlausible) {
  const ResourceUsage usage = ReadSelfUsage();
  EXPECT_GT(usage.rss_kb, 0u);
  EXPECT_GE(usage.max_rss_kb, usage.rss_kb / 2);  // maxrss >= ~current
}

TEST(ResourceSamplerTest, StartStopIdempotent) {
  int64_t fake_live = 3;
  ResourceSampler::Sources sources;
  sources.live_tasks = [&fake_live] { return fake_live; };
  ResourceSampler sampler(sources, /*interval_ms=*/10);
  EXPECT_FALSE(sampler.running());

  // SampleNow works without Start.
  const ResourceSample direct = sampler.SampleNow();
  EXPECT_EQ(direct.live_tasks, 3);
  EXPECT_GT(direct.rss_kb, 0u);
  EXPECT_EQ(sampler.SampleCount(), 1u);

  sampler.Start();
  sampler.Start();  // second Start is a no-op
  EXPECT_TRUE(sampler.running());
  while (sampler.SampleCount() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  sampler.Stop();
  sampler.Stop();  // second Stop is a no-op
  EXPECT_FALSE(sampler.running());
  const uint64_t settled = sampler.SampleCount();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(sampler.SampleCount(), settled);  // thread really stopped

  EXPECT_FALSE(sampler.History().empty());
  EXPECT_EQ(sampler.Latest().live_tasks, 3);

  // Restart after Stop works.
  sampler.Start();
  EXPECT_TRUE(sampler.running());
  sampler.Stop();
}

/// Blocking HTTP/1.0-style GET against 127.0.0.1:port; returns the full
/// response (headers + body), or "" on connect failure.
std::string HttpGet(int port, const std::string& path) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

TEST(StatsServerTest, ServesRegisteredHandlersAnd404) {
  StatsServer server;
  server.Handle("/ping", [](std::string* content_type) {
    *content_type = "text/plain";
    return std::string("pong");
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  const std::string ok = HttpGet(server.port(), "/ping");
  EXPECT_NE(ok.find("200 OK"), std::string::npos);
  EXPECT_NE(ok.find("pong"), std::string::npos);
  // Query strings are stripped before dispatch.
  EXPECT_NE(HttpGet(server.port(), "/ping?x=1").find("pong"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/nope").find("404"), std::string::npos);

  server.Stop();
  server.Stop();  // idempotent
  EXPECT_EQ(server.port(), -1);
}

TEST(StatsServerTest, MetricsAndHealthzDuringPipelinedChaosJob) {
  // Pin the env so CI-level chaos/budget overrides don't fight the
  // explicit options below.
  ScopedEnv fault("RANKJOIN_FAULT_SPEC", nullptr);
  ScopedEnv budget("RANKJOIN_SHUFFLE_BUDGET_BYTES", nullptr);
  ScopedEnv pipelined_env("RANKJOIN_PIPELINED_STAGES", nullptr);
  ScopedEnv port_env("RANKJOIN_STATS_PORT", nullptr);

  Context::Options options = rankjoin::testutil::TestCluster();
  options.stats_port = 0;  // ephemeral
  options.stats_sample_ms = 20;
  options.pipelined_stages = true;
  options.shuffle_memory_budget_bytes = 4096;  // force spills
  options.fault_spec = "task_throw:p=0.05;seed=7";
  Context ctx(options);
  ASSERT_GT(ctx.stats_port(), 0);

  // Scrape continuously while the join runs on another thread.
  const RankingDataset dataset = SmallSkewedDataset(/*seed=*/3);
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kCL;
  config.theta = 0.25;
  std::thread join_thread([&] {
    auto result = RunSimilarityJoin(&ctx, dataset, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->pairs.size(), 0u);
  });
  int scrapes = 0;
  for (int i = 0; i < 50; ++i) {
    const std::string metrics = HttpGet(ctx.stats_port(), "/metrics");
    const std::string health = HttpGet(ctx.stats_port(), "/healthz");
    if (!metrics.empty() && !health.empty()) {
      EXPECT_NE(metrics.find("200 OK"), std::string::npos);
      EXPECT_NE(metrics.find("text/plain; version=0.0.4"),
                std::string::npos);
      EXPECT_NE(metrics.find("rankjoin_rss_kilobytes"), std::string::npos);
      EXPECT_NE(health.find("application/json"), std::string::npos);
      EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
      ++scrapes;
    }
  }
  join_thread.join();
  ASSERT_GT(scrapes, 0);

  // After the job, the always-on histograms have data and the quantiles
  // show up in the exposition.
  EXPECT_GT(ctx.telemetry().task_duration_us().Count(), 0u);
  EXPECT_GT(ctx.telemetry().stages_total(), 0u);
  EXPECT_GT(ctx.telemetry().spilled_bytes_total(), 0u);
  const std::string after = HttpGet(ctx.stats_port(), "/metrics");
  EXPECT_NE(
      after.find("rankjoin_task_duration_seconds{quantile=\"0.5\"}"),
      std::string::npos);
  EXPECT_NE(
      after.find("rankjoin_task_duration_seconds{quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(after.find("rankjoin_spilled_bytes_total"), std::string::npos);

  // The same distributions surface in the job's metrics JSON.
  const std::string json = ctx.metrics().ToJson();
  EXPECT_NE(json.find("task_duration_us"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(ContextTest, StatsPortEnvOverrideAndDisabledDefault) {
  {
    ScopedEnv port_env("RANKJOIN_STATS_PORT", nullptr);
    Context ctx(rankjoin::testutil::TestCluster());
    EXPECT_EQ(ctx.stats_port(), -1);  // default: exposition off
  }
  {
    ScopedEnv port_env("RANKJOIN_STATS_PORT", "0");
    Context ctx(rankjoin::testutil::TestCluster());
    EXPECT_GT(ctx.stats_port(), 0);
    EXPECT_NE(HttpGet(ctx.stats_port(), "/healthz").find("\"status\":\"ok\""),
              std::string::npos);
  }
}

}  // namespace
}  // namespace rankjoin::minispark
