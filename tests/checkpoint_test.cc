// Durable checkpoints and crash resume: blob encode/decode integrity,
// manifest commit/epoch protocol (including torn manifests), resume
// skipping verified stages with byte-identical results across all seven
// join pipelines, chaos corruption falling back to re-execution, and
// the disk-pressure policies.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/similarity_join.h"
#include "jaccard/jaccard_join.h"
#include "minispark/checkpoint.h"
#include "minispark/context.h"
#include "minispark/dataset.h"
#include "minispark/plan.h"
#include "tests/test_util.h"

namespace rankjoin::minispark {
namespace {

using rankjoin::testutil::PairSet;
using rankjoin::testutil::PinnedEnv;
using rankjoin::testutil::ScopedEnv;
using rankjoin::testutil::SmallSkewedDataset;
using rankjoin::testutil::TestCluster;

/// A fresh empty directory under the gtest temp root.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/rankjoin_ckpt_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::pair<int, int>> IntPairs(int n, int key_mod) {
  std::vector<std::pair<int, int>> data;
  data.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) data.push_back({i % key_mod, i});
  return data;
}

// ---------------------------------------------------------------------
// Portability gating (compile-time contract)
// ---------------------------------------------------------------------

struct HasNoSerde {
  int x = 0;
};

static_assert(checkpoint_portable_v<int>);
static_assert(checkpoint_portable_v<std::pair<uint32_t, uint32_t>>);
static_assert(checkpoint_portable_v<std::string>);
static_assert(checkpoint_portable_v<std::vector<std::pair<int, int>>>);
static_assert(checkpoint_portable_v<ResultPair>,
              "result pairs must stay resumable");
static_assert(!checkpoint_portable_v<HasNoSerde>,
              "no-serde types must be excluded");
static_assert(!checkpoint_portable_v<std::pair<int, HasNoSerde>>);
// Raw-pointer-bearing records round-trip through the in-process Serde
// but are poison across processes; the trait must keep them out.
static_assert(!CheckpointPortable<int*>::value);

// ---------------------------------------------------------------------
// Blob format
// ---------------------------------------------------------------------

TEST(CheckpointBlobTest, EncodeDecodeRoundtrip) {
  std::vector<std::vector<std::pair<int, int>>> parts = {
      {{1, 2}, {3, 4}}, {}, {{5, 6}}};
  const std::string blob =
      EncodeCheckpointPartitions(parts, /*fingerprint=*/7, /*occurrence=*/0,
                                 /*injector=*/nullptr);
  std::vector<std::vector<std::pair<int, int>>> decoded;
  ASSERT_TRUE(DecodeCheckpointPartitions(blob, &decoded));
  EXPECT_EQ(parts, decoded);
}

TEST(CheckpointBlobTest, RejectsBitFlipAndTruncation) {
  std::vector<std::vector<int>> parts = {{1, 2, 3}, {4, 5}};
  const std::string blob =
      EncodeCheckpointPartitions(parts, 7, 0, nullptr);
  std::vector<std::vector<int>> decoded;

  std::string flipped = blob;
  flipped[flipped.size() - 2] ^= 0x01;  // payload byte
  EXPECT_FALSE(DecodeCheckpointPartitions(flipped, &decoded));

  for (size_t cut : {blob.size() - 1, blob.size() / 2, size_t{3}, size_t{0}}) {
    EXPECT_FALSE(
        DecodeCheckpointPartitions(blob.substr(0, cut), &decoded))
        << "truncated at " << cut;
  }

  std::string wrong_magic = blob;
  wrong_magic[0] ^= 0xFF;
  EXPECT_FALSE(DecodeCheckpointPartitions(wrong_magic, &decoded));
}

TEST(CheckpointBlobTest, InjectedCorruptionIsDetected) {
  auto spec = ParseFaultSpec("checkpoint_corrupt:p=1;seed=5");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector(*spec, nullptr);
  std::vector<std::vector<int>> parts = {{1, 2, 3}};
  const std::string blob =
      EncodeCheckpointPartitions(parts, 7, 0, &injector);
  std::vector<std::vector<int>> decoded;
  EXPECT_FALSE(DecodeCheckpointPartitions(blob, &decoded));
}

// ---------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------

TEST(CheckpointFingerprintTest, StableAndStructureSensitive) {
  auto src = MakePlanNode(PlanNode::Kind::kSource, "parallelize", "",
                          nullptr, {.num_partitions = 8});
  auto map = MakePlanNode(PlanNode::Kind::kNarrow, "map", "m", src,
                          {.op_id = 17, .max_bucket_bytes = 5});
  // An identical rebuild (different op_id / bucket size — runtime noise)
  // must fingerprint the same: that is what keys resume across
  // processes.
  auto src2 = MakePlanNode(PlanNode::Kind::kSource, "parallelize", "",
                           nullptr, {.num_partitions = 8});
  auto map2 = MakePlanNode(PlanNode::Kind::kNarrow, "map", "m", src2,
                           {.op_id = 99});
  EXPECT_EQ(PlanFingerprint(map.get()), PlanFingerprint(map2.get()));

  auto renamed = MakePlanNode(PlanNode::Kind::kNarrow, "map", "other", src);
  EXPECT_NE(PlanFingerprint(map.get()), PlanFingerprint(renamed.get()));
  EXPECT_NE(PlanFingerprint(map.get()), PlanFingerprint(src.get()));
  EXPECT_NE(PlanFingerprint(nullptr), 0u);

  const uint64_t h = FingerprintMixString(1, "join");
  EXPECT_EQ(h, FingerprintMixString(1, "join"));
  EXPECT_NE(h, FingerprintMixString(1, "cogroup"));
  EXPECT_NE(FingerprintMix(h, 4), FingerprintMix(h, 8));
}

// ---------------------------------------------------------------------
// Manager: manifest commit, epochs, torn manifests
// ---------------------------------------------------------------------

TEST(CheckpointManagerTest, SaveLoadRoundtripAcrossManagers) {
  const std::string dir = FreshDir("roundtrip");
  const std::string blob = "hello checkpoint";
  {
    CheckpointManager writer(dir, /*resume=*/false,
                             DiskPressurePolicy::kDropCheckpoints, nullptr);
    ASSERT_TRUE(writer.enabled());
    uint64_t occ = 0;
    const std::string key = writer.NextKey(42, &occ);
    EXPECT_EQ(occ, 0u);
    ASSERT_TRUE(writer.SaveBlob(key, blob).ok());
    // Same fingerprint again: occurrence-qualified, distinct key.
    const std::string key2 = writer.NextKey(42, &occ);
    EXPECT_EQ(occ, 1u);
    EXPECT_NE(key, key2);
  }
  {
    CheckpointManager resumer(dir, /*resume=*/true,
                              DiskPressurePolicy::kDropCheckpoints, nullptr);
    ASSERT_TRUE(resumer.enabled());
    uint64_t occ = 0;
    const std::string key = resumer.NextKey(42, &occ);
    std::string loaded;
    ASSERT_TRUE(resumer.TryLoadBlob(key, &loaded));
    EXPECT_EQ(loaded, blob);
  }
}

TEST(CheckpointManagerTest, FreshStartBumpsEpochAndInvalidates) {
  const std::string dir = FreshDir("epoch");
  uint64_t first_epoch = 0;
  {
    CheckpointManager writer(dir, false,
                             DiskPressurePolicy::kDropCheckpoints, nullptr);
    uint64_t occ = 0;
    ASSERT_TRUE(writer.SaveBlob(writer.NextKey(7, &occ), "old data").ok());
    first_epoch = writer.epoch();
  }
  {
    // A resume start keeps the epoch (entries verify)...
    CheckpointManager resumer(dir, true,
                              DiskPressurePolicy::kDropCheckpoints, nullptr);
    EXPECT_EQ(resumer.epoch(), first_epoch);
    uint64_t occ = 0;
    std::string loaded;
    EXPECT_TRUE(resumer.TryLoadBlob(resumer.NextKey(7, &occ), &loaded));
  }
  {
    // ...while a fresh (non-resume) start bumps it and must not serve
    // the previous run's entries.
    CheckpointManager fresh(dir, false,
                            DiskPressurePolicy::kDropCheckpoints, nullptr);
    EXPECT_GT(fresh.epoch(), first_epoch);
    uint64_t occ = 0;
    std::string loaded;
    EXPECT_FALSE(fresh.TryLoadBlob(fresh.NextKey(7, &occ), &loaded));
  }
}

TEST(CheckpointManagerTest, TornManifestMeansCleanReexecutionNotCrash) {
  const std::string dir = FreshDir("torn");
  {
    CheckpointManager writer(dir, false,
                             DiskPressurePolicy::kDropCheckpoints, nullptr);
    uint64_t occ = 0;
    ASSERT_TRUE(writer.SaveBlob(writer.NextKey(1, &occ), "aaaa").ok());
    ASSERT_TRUE(writer.SaveBlob(writer.NextKey(2, &occ), "bbbb").ok());
  }
  const std::string manifest = dir + "/MANIFEST";
  const auto full_size = std::filesystem::file_size(manifest);
  ASSERT_GT(full_size, 10u);
  std::filesystem::resize_file(manifest, full_size - 5);  // torn tail

  CheckpointManager resumer(dir, true,
                            DiskPressurePolicy::kDropCheckpoints, nullptr);
  EXPECT_TRUE(resumer.enabled());  // degraded data, usable store
  uint64_t occ = 0;
  // The manifest rewrites entries in hash-map order, so the torn tail
  // drops ONE of the two entries (whichever was last). The intact one
  // must load its exact content; the torn one must read as absent — a
  // clean re-execution, never garbage.
  std::string loaded1;
  std::string loaded2;
  const bool ok1 = resumer.TryLoadBlob(resumer.NextKey(1, &occ), &loaded1);
  const bool ok2 = resumer.TryLoadBlob(resumer.NextKey(2, &occ), &loaded2);
  EXPECT_NE(ok1, ok2);
  if (ok1) {
    EXPECT_EQ(loaded1, "aaaa");
  }
  if (ok2) {
    EXPECT_EQ(loaded2, "bbbb");
  }

  // Garbage from the first byte: everything re-executes, still no crash.
  std::ofstream(manifest, std::ios::trunc) << "not a manifest at all";
  CheckpointManager garbage(dir, true,
                            DiskPressurePolicy::kDropCheckpoints, nullptr);
  EXPECT_TRUE(garbage.enabled());
  std::string loaded;
  EXPECT_FALSE(garbage.TryLoadBlob(garbage.NextKey(1, &occ), &loaded));
}

// ---------------------------------------------------------------------
// Engine integration: resume skips stages, results stay identical
// ---------------------------------------------------------------------

std::vector<std::pair<int, int>> RunReduceJob(Context* ctx) {
  auto ds = Parallelize(ctx, IntPairs(600, 11), 8)
                .Map([](std::pair<int, int> kv) {
                  kv.second *= 3;
                  return kv;
                });
  auto result = ReduceByKey(ds, [](int a, int b) { return a + b; }, 8)
                    .TryCollect();
  EXPECT_TRUE(result.ok()) << result.status();
  auto sorted = result.ok() ? *result : std::vector<std::pair<int, int>>{};
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

TEST(CheckpointResumeTest, SecondRunSkipsStagesWithIdenticalResult) {
  PinnedEnv env;
  const std::string dir = FreshDir("resume_reduce");

  Context::Options options = TestCluster();
  options.checkpoint_dir = dir;
  std::vector<std::pair<int, int>> first;
  {
    Context ctx(options);
    first = RunReduceJob(&ctx);
    EXPECT_GE(ctx.telemetry().checkpoint_stages_saved(), 1u);
    EXPECT_EQ(ctx.telemetry().checkpoint_stages_skipped(), 0u);
  }
  {
    options.resume = true;
    Context ctx(options);
    const auto second = RunReduceJob(&ctx);
    EXPECT_EQ(first, second);
    EXPECT_GE(ctx.telemetry().checkpoint_stages_skipped(), 1u);
    EXPECT_EQ(ctx.telemetry().checkpoint_restore_failed(), 0u);
  }
}

TEST(CheckpointResumeTest, WideOpsRestoreAcrossContexts) {
  PinnedEnv env;
  const std::string dir = FreshDir("resume_wide");
  Context::Options options = TestCluster();
  options.checkpoint_dir = dir;
  options.shuffle_memory_budget_bytes = 256;  // force spills too

  auto job = [](Context* ctx) {
    std::vector<std::pair<int, int>> both = IntPairs(200, 17);
    const std::vector<std::pair<int, int>> right = IntPairs(150, 17);
    both.insert(both.end(), right.begin(), right.end());
    auto reduced = *ReduceByKey(Parallelize(ctx, std::move(both), 12),
                                [](int a, int b) { return a + b; }, 8)
                        .TryCollect();
    auto grouped =
        *GroupByKey(Parallelize(ctx, IntPairs(300, 23), 8), 8).TryCollect();
    auto placed =
        *PartitionByKey(Parallelize(ctx, IntPairs(120, 5), 4), 2).TryCollect();
    return std::make_tuple(reduced, grouped, placed);
  };

  decltype(job(nullptr)) first;
  {
    Context ctx(options);
    first = job(&ctx);
    EXPECT_GE(ctx.telemetry().checkpoint_stages_saved(), 3u);
  }
  {
    options.resume = true;
    Context ctx(options);
    const auto second = job(&ctx);
    EXPECT_EQ(first, second);
    EXPECT_GE(ctx.telemetry().checkpoint_stages_skipped(), 3u);
  }
}

/// Runs the five footrule pipelines plus the two Jaccard joins in one
/// context (mirrors pipelined_test.cc) and returns the pair sets.
std::vector<std::set<ResultPair>> RunAllPipelines(
    const RankingDataset& ds, Context* ctx) {
  std::vector<std::set<ResultPair>> results;
  for (Algorithm algorithm : {Algorithm::kVJ, Algorithm::kVJNL,
                              Algorithm::kCL, Algorithm::kCLP,
                              Algorithm::kVSmart}) {
    SimilarityJoinConfig config;
    config.algorithm = algorithm;
    config.theta = 0.3;
    config.delta = 50;  // CL-P
    auto result = RunSimilarityJoin(ctx, ds, config);
    EXPECT_TRUE(result.ok()) << AlgorithmName(algorithm) << ": "
                             << result.status();
    results.push_back(result.ok() ? PairSet(result->pairs)
                                  : std::set<ResultPair>{});
  }
  JaccardJoinOptions jaccard;
  jaccard.theta = 0.4;
  auto jvj = RunJaccardVjJoin(ctx, ds, jaccard);
  EXPECT_TRUE(jvj.ok()) << jvj.status();
  results.push_back(jvj.ok() ? PairSet(jvj->pairs) : std::set<ResultPair>{});
  auto jcl = RunJaccardClusterJoin(ctx, ds, jaccard);
  EXPECT_TRUE(jcl.ok()) << jcl.status();
  results.push_back(jcl.ok() ? PairSet(jcl->pairs) : std::set<ResultPair>{});
  return results;
}

TEST(CheckpointResumeTest, AllSevenPipelinesResumeByteIdentical) {
  PinnedEnv env;
  const std::string dir = FreshDir("resume_pipelines");
  RankingDataset ds = SmallSkewedDataset(21, 300);

  Context::Options options = TestCluster();
  options.shuffle_memory_budget_bytes = 4096;  // exercise spilling
  options.retry_backoff_ms = 0;
  options.checkpoint_dir = dir;

  std::vector<std::set<ResultPair>> plain;
  {
    Context ctx(TestCluster());
    plain = RunAllPipelines(ds, &ctx);
  }
  std::vector<std::set<ResultPair>> first;
  {
    Context ctx(options);
    first = RunAllPipelines(ds, &ctx);
    EXPECT_GE(ctx.telemetry().checkpoint_stages_saved(), 1u);
  }
  std::vector<std::set<ResultPair>> resumed;
  uint64_t skipped = 0;
  {
    options.resume = true;
    Context ctx(options);
    resumed = RunAllPipelines(ds, &ctx);
    skipped = ctx.telemetry().checkpoint_stages_skipped();
  }
  ASSERT_EQ(first.size(), 7u);
  ASSERT_EQ(resumed.size(), 7u);
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(plain[i], first[i]) << "pipeline #" << i;
    EXPECT_EQ(first[i], resumed[i]) << "pipeline #" << i;
    EXPECT_FALSE(first[i].empty()) << "pipeline #" << i << " found nothing";
  }
  EXPECT_GE(skipped, 1u);
}

TEST(CheckpointResumeTest, CorruptCheckpointsFallBackToReexecution) {
  PinnedEnv env;
  const std::string dir = FreshDir("resume_corrupt");
  RankingDataset ds = SmallSkewedDataset(22, 250);

  std::set<ResultPair> clean;
  {
    Context ctx(TestCluster());
    SimilarityJoinConfig config;
    config.algorithm = Algorithm::kVJ;
    config.theta = 0.3;
    auto result = RunSimilarityJoin(&ctx, ds, config);
    ASSERT_TRUE(result.ok()) << result.status();
    clean = PairSet(result->pairs);
  }

  Context::Options options = TestCluster();
  options.checkpoint_dir = dir;
  options.retry_backoff_ms = 0;
  {
    // Every checkpoint payload is corrupted AFTER its checksum: the
    // writes succeed, the resume run must detect and re-execute.
    Context::Options writer = options;
    writer.fault_spec = "checkpoint_corrupt:p=1;seed=3";
    Context ctx(writer);
    SimilarityJoinConfig config;
    config.algorithm = Algorithm::kVJ;
    config.theta = 0.3;
    auto result = RunSimilarityJoin(&ctx, ds, config);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(clean, PairSet(result->pairs));
  }
  {
    options.resume = true;
    Context ctx(options);
    SimilarityJoinConfig config;
    config.algorithm = Algorithm::kVJ;
    config.theta = 0.3;
    auto result = RunSimilarityJoin(&ctx, ds, config);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(clean, PairSet(result->pairs));
    EXPECT_GE(ctx.telemetry().checkpoint_restore_failed(), 1u);
  }
}

// ---------------------------------------------------------------------
// Disk pressure
// ---------------------------------------------------------------------

TEST(DiskPressureTest, DefaultPolicyDegradesAndJobSucceeds) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.shuffle_memory_budget_bytes = 64;  // spill constantly
  options.fault_spec = "spill_enospc:p=1;seed=2";
  options.retry_backoff_ms = 0;
  Context ctx(options);
  auto result =
      GroupByKey(Parallelize(&ctx, IntPairs(400, 7), 8), 8).TryCollect();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(ctx.spill_degraded());
  EXPECT_GE(ctx.telemetry().disk_pressure_events(), 1u);

  // Same data through a clean context: degrading changed nothing.
  Context clean_ctx(TestCluster());
  auto clean =
      GroupByKey(Parallelize(&clean_ctx, IntPairs(400, 7), 8), 8)
          .TryCollect();
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(*clean, *result);
}

TEST(DiskPressureTest, FailPolicySurfacesIoError) {
  PinnedEnv env;
  Context::Options options = TestCluster();
  options.shuffle_memory_budget_bytes = 64;
  options.fault_spec = "spill_enospc:p=1;seed=2";
  options.disk_pressure_policy = DiskPressurePolicy::kFail;
  options.max_task_retries = 1;
  options.retry_backoff_ms = 0;
  Context ctx(options);
  auto result =
      GroupByKey(Parallelize(&ctx, IntPairs(400, 7), 8), 8).TryCollect();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(DiskPressureTest, CheckpointWriteFailureDropsCheckpointing) {
  PinnedEnv env;
  // An unusable checkpoint directory (a regular file sits where the
  // store should be) must disable checkpointing, not fail the job.
  const std::string dir = FreshDir("unusable");
  const std::string blocked = dir + "/blocked";
  std::ofstream(blocked) << "not a directory";
  Context::Options options = TestCluster();
  options.checkpoint_dir = blocked + "/store";
  Context ctx(options);
  const auto result = RunReduceJob(&ctx);
  EXPECT_FALSE(result.empty());
  EXPECT_EQ(ctx.telemetry().checkpoint_stages_saved(), 0u);
}

// ---------------------------------------------------------------------
// Options / env plumbing
// ---------------------------------------------------------------------

TEST(CheckpointOptionsTest, EnvOverridesConfigureManager) {
  PinnedEnv env;
  const std::string dir = FreshDir("env");
  ScopedEnv d{"RANKJOIN_CHECKPOINT_DIR", dir.c_str()};
  ScopedEnv r{"RANKJOIN_RESUME", "1"};
  Context ctx(TestCluster());
  ASSERT_NE(ctx.checkpoint_manager(), nullptr);
  EXPECT_TRUE(ctx.checkpoint_manager()->enabled());
  EXPECT_TRUE(ctx.checkpoint_manager()->resume());
  EXPECT_EQ(ctx.checkpoint_manager()->dir(), dir);
}

TEST(CheckpointOptionsTest, NoDirectoryMeansNoManager) {
  PinnedEnv env;
  Context ctx(TestCluster());
  EXPECT_EQ(ctx.checkpoint_manager(), nullptr);
}

}  // namespace
}  // namespace rankjoin::minispark
