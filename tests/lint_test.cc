// Plan-linter tests (minispark/lint.h): one fixture per diagnostic
// code MS002..MS005 (MS001, MS006 and MS007 are retired; each triggers
// exactly once, and the fixed variant of the same plan is clean), level
// parsing and the RANKJOIN_LINT_LEVEL env override, Collect()-time
// warn/error behavior including the error-mode abort, lint-clean
// assertions for every production join pipeline, and a regression test
// that ExplainDot() output with diagnostics embedded stays valid DOT.

#include "minispark/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/similarity_join.h"
#include "join/rs_join.h"
#include "minispark/dataset.h"
#include "minispark/serde.h"
#include "ranking/reorder.h"
#include "test_util.h"
#include "tests/test_util.h"

namespace rankjoin::minispark {
namespace {

using Kv = std::pair<uint32_t, uint32_t>;
using rankjoin::testutil::ScopedEnv;

std::vector<Kv> MakeKv(size_t n) {
  std::vector<Kv> data;
  data.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    data.push_back({static_cast<uint32_t>(i % 16),
                    static_cast<uint32_t>(i)});
  }
  return data;
}

Context::Options LintCluster(LintLevel level = LintLevel::kOff) {
  Context::Options options = testutil::TestCluster();
  options.lint_level = level;
  return options;
}

/// Filters diagnostics down to one code.
std::vector<LintDiagnostic> Only(const std::vector<LintDiagnostic>& diags,
                                 const std::string& code) {
  std::vector<LintDiagnostic> out;
  for (const auto& d : diags) {
    if (d.code == code) out.push_back(d);
  }
  return out;
}

/// A shuffle record type deliberately outside every Serde<T>
/// specialization: not trivially copyable (std::string member) and not
/// one of the covered composite shapes.
struct NoSerdeRecord {
  std::string payload;
};

static_assert(!has_serde_v<NoSerdeRecord>,
              "fixture type must not be serializable");
static_assert(has_serde_v<std::pair<uint32_t, std::string>>,
              "covered composites must stay serializable");

/// The canonical bad plan: a shuffle of `V` records followed by a
/// pending map, linted in a context with a spill budget. With a record
/// type that has no Serde (NoSerdeRecord) the shuffle cannot spill
/// (MS004, error severity); with a serializable one the plan is clean.
/// The map stays pending, so Collect() lints before it runs.
template <typename V>
Dataset<int> ShufflePlan(Context* ctx, V value) {
  std::vector<std::pair<int, V>> records;
  for (int i = 0; i < 64; ++i) records.push_back({i % 16, value});
  auto placed =
      PartitionByKey(Parallelize(ctx, std::move(records), 4), 8,
                     "fixture/place");
  return placed.Map([](const std::pair<int, V>& kv) { return kv.first; },
                    "fixture/key");
}

/// LintCluster() with a spill budget, which arms MS004.
Context::Options BudgetCluster(LintLevel level = LintLevel::kOff) {
  Context::Options options = LintCluster(level);
  options.shuffle_memory_budget_bytes = 1 << 20;
  return options;
}

TEST(LintLevelTest, ParsesNamesAndNumbers) {
  EXPECT_EQ(ParseLintLevel("off"), LintLevel::kOff);
  EXPECT_EQ(ParseLintLevel("0"), LintLevel::kOff);
  EXPECT_EQ(ParseLintLevel("warn"), LintLevel::kWarn);
  EXPECT_EQ(ParseLintLevel("WARNING"), LintLevel::kWarn);
  EXPECT_EQ(ParseLintLevel("1"), LintLevel::kWarn);
  EXPECT_EQ(ParseLintLevel("error"), LintLevel::kError);
  EXPECT_EQ(ParseLintLevel("Err"), LintLevel::kError);
  EXPECT_EQ(ParseLintLevel("2"), LintLevel::kError);
  EXPECT_FALSE(ParseLintLevel("bogus").has_value());
  EXPECT_FALSE(ParseLintLevel("").has_value());
  EXPECT_STREQ(LintLevelName(LintLevel::kWarn), "warn");
  EXPECT_STREQ(LintSeverityName(LintSeverity::kError), "error");
}

TEST(LintLevelTest, EnvOverridesOptions) {
  {
    ScopedEnv env("RANKJOIN_LINT_LEVEL", "error");
    Context ctx(LintCluster(LintLevel::kOff));
    EXPECT_EQ(ctx.lint_level(), LintLevel::kError);
  }
  {
    ScopedEnv env("RANKJOIN_LINT_LEVEL", "warn");
    Context ctx(LintCluster(LintLevel::kError));
    EXPECT_EQ(ctx.lint_level(), LintLevel::kWarn);
  }
  {
    ScopedEnv env("RANKJOIN_LINT_LEVEL", nullptr);
    Context ctx(LintCluster(LintLevel::kWarn));
    EXPECT_EQ(ctx.lint_level(), LintLevel::kWarn);
  }
}

TEST(LintCheckTest, Ms002RedundantBackToBackShuffles) {
  Context ctx(LintCluster());
  auto ds = Parallelize(&ctx, MakeKv(64), 4);
  auto placed = PartitionByKey(ds, 8, "fixture/place");
  auto grouped = GroupByKey(placed, 16, "fixture/group");
  std::vector<LintDiagnostic> diags = grouped.Lint();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "MS002");
  EXPECT_EQ(diags[0].severity, LintSeverity::kWarning);
  EXPECT_NE(diags[0].location.find("fixture/place"), std::string::npos);
  EXPECT_NE(diags[0].message.find("incompatible partition counts"),
            std::string::npos);

  // Same partition count is still redundant placement, different text.
  auto same = GroupByKey(PartitionByKey(ds, 8, "fixture/place8"), 8,
                         "fixture/group8");
  std::vector<LintDiagnostic> same_diags = Only(same.Lint(), "MS002");
  ASSERT_EQ(same_diags.size(), 1u);
  EXPECT_NE(same_diags[0].message.find("redundant repartition"),
            std::string::npos);

  // Fixed: shuffle straight into the group — clean.
  EXPECT_TRUE(GroupByKey(ds, 16, "fixture/group").Lint().empty());
}

TEST(LintCheckTest, Ms003OversizedBroadcast) {
  Context::Options options = LintCluster();
  options.lint_broadcast_max_bytes = 64;
  Context ctx(options);
  ctx.MakeBroadcast(std::vector<uint64_t>(64), "fixture/bigBroadcast");
  ctx.MakeBroadcast(uint64_t{7}, "fixture/smallBroadcast");
  auto ds = Parallelize(&ctx, MakeKv(16), 2);
  std::vector<LintDiagnostic> diags = ds.Lint();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "MS003");
  EXPECT_EQ(diags[0].severity, LintSeverity::kWarning);
  EXPECT_EQ(diags[0].node, nullptr);
  EXPECT_NE(diags[0].location.find("fixture/bigBroadcast"),
            std::string::npos);

  // A null root lints only the broadcast registry.
  LintSettings settings;
  settings.broadcast_max_bytes = 8;
  settings.broadcasts = {{"loose", 16}, {"tight", 4}};
  std::vector<LintDiagnostic> direct = LintPlan(nullptr, settings);
  ASSERT_EQ(direct.size(), 1u);
  EXPECT_EQ(direct[0].code, "MS003");
  EXPECT_NE(direct[0].location.find("loose"), std::string::npos);
}

TEST(LintCheckTest, Ms003SeesTheClusterIndex) {
  // CL broadcasts R_c as an index of 4 bytes per ranking plus 8 per
  // member, so a limit below its offsets alone flags it.
  ScopedEnv env("RANKJOIN_LINT_LEVEL", nullptr);
  Context::Options options = LintCluster(LintLevel::kWarn);
  options.lint_broadcast_max_bytes = 4 * 200;
  Context ctx(options);
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kCL;
  config.theta = 0.3;
  ASSERT_TRUE(
      RunSimilarityJoin(&ctx, testutil::SmallSkewedDataset(1, 200), config)
          .ok());
  bool flagged = false;
  for (const LintDiagnostic& d : ctx.lint_report()) {
    flagged |= d.code == "MS003" &&
               d.location.find("cl/clusterIndex") != std::string::npos;
  }
  EXPECT_TRUE(flagged) << FormatLintDiagnostics(ctx.lint_report());
}

TEST(LintCheckTest, Ms003SeesTheItemOrder) {
  // VJ broadcasts the item order as a flat table of at least 4 bytes per
  // item, so a limit above sizeof(ItemOrder) but below the table of a
  // few hundred items flags it.
  ScopedEnv env("RANKJOIN_LINT_LEVEL", nullptr);
  Context::Options options = LintCluster(LintLevel::kWarn);
  options.lint_broadcast_max_bytes = 256;
  ASSERT_GT(options.lint_broadcast_max_bytes, sizeof(rankjoin::ItemOrder));
  Context ctx(options);
  SimilarityJoinConfig config;
  config.algorithm = Algorithm::kVJ;
  config.theta = 0.3;
  ASSERT_TRUE(
      RunSimilarityJoin(&ctx, testutil::SmallSkewedDataset(1, 200), config)
          .ok());
  bool flagged = false;
  for (const LintDiagnostic& d : ctx.lint_report()) {
    flagged |= d.code == "MS003" &&
               d.location.find("vj/itemOrder") != std::string::npos;
  }
  EXPECT_TRUE(flagged) << FormatLintDiagnostics(ctx.lint_report());
}

TEST(LintCheckTest, Ms004SerdelessShuffleUnderSpillBudget) {
  Context ctx(BudgetCluster());
  auto bad = ShufflePlan(&ctx, NoSerdeRecord{"x"});
  std::vector<LintDiagnostic> diags = bad.Lint();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "MS004");
  EXPECT_EQ(diags[0].severity, LintSeverity::kError);
  EXPECT_NE(diags[0].location.find("fixture/place"), std::string::npos);
  // The shuffle itself still works — resident-only.
  EXPECT_EQ(bad.Count(), 64u);

  // Without a spill budget the same plan is harmless. Probed through
  // LintPlan directly so a RANKJOIN_SHUFFLE_BUDGET_BYTES env override
  // (CI's forced-spill job) cannot re-arm the check.
  LintSettings no_budget = ctx.lint_settings();
  no_budget.shuffle_memory_budget_bytes = 0;
  EXPECT_TRUE(LintPlan(bad.plan_node().get(), no_budget).empty());

  // Fixed: serializable records can spill — clean.
  EXPECT_TRUE(ShufflePlan(&ctx, uint32_t{7}).Lint().empty());
}

/// `iterations` rounds of per-iteration work (a narrow op) followed by
/// the same re-keying barrier — the shape of a driver-side loop that
/// rebuilds its shuffle every pass. The narrow op between barriers
/// keeps the fixture out of MS002 territory (the shuffles are not
/// back-to-back) so only the loop check can fire.
Dataset<Kv> LoopedBarrierPlan(Context* ctx, int iterations) {
  auto ds = Parallelize(ctx, MakeKv(64), 4);
  for (int i = 0; i < iterations; ++i) {
    auto stepped = ds.Map(
        [](const Kv& kv) { return Kv(kv.first, kv.second + 1); },
        "fixture/loopStep");
    ds = PartitionByKey(stepped, 8, "fixture/loopShuffle");
  }
  return ds;
}

TEST(LintCheckTest, Ms005BarrierRebuiltInLoop) {
  Context ctx(LintCluster());
  std::vector<LintDiagnostic> diags = LoopedBarrierPlan(&ctx, 3).Lint();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "MS005");
  EXPECT_EQ(diags[0].severity, LintSeverity::kWarning);
  EXPECT_NE(diags[0].message.find("3 times"), std::string::npos);

  // One iteration fewer stays under the default threshold.
  Context shallow_ctx(LintCluster());
  EXPECT_TRUE(LoopedBarrierPlan(&shallow_ctx, 2).Lint().empty());

  // The threshold is configurable.
  Context strict_ctx(LintCluster());
  auto strict = LoopedBarrierPlan(&strict_ctx, 2);
  LintSettings settings = strict_ctx.lint_settings();
  settings.loop_repeat_threshold = 2;
  EXPECT_EQ(Only(LintPlan(strict.plan_node().get(), settings), "MS005")
                .size(),
            1u);
}

TEST(LintCollectTest, WarnModeRecordsAndDeduplicates) {
  ScopedEnv env("RANKJOIN_LINT_LEVEL", "warn");
  Context ctx(BudgetCluster(LintLevel::kWarn));
  auto bad = ShufflePlan(&ctx, NoSerdeRecord{"x"});
  EXPECT_EQ(bad.Collect().size(), 64u);
  ASSERT_EQ(ctx.lint_report().size(), 1u);
  EXPECT_EQ(ctx.lint_report()[0].code, "MS004");
  // Archived diagnostics must not point into a plan that may die.
  EXPECT_EQ(ctx.lint_report()[0].node, nullptr);
  // A second Collect() of the same plan lints again but dedups.
  bad.Collect();
  EXPECT_EQ(ctx.lint_report().size(), 1u);
}

TEST(LintCollectDeathTest, ErrorModeRejectsBadPlanBeforeRunning) {
  // Error level must hold in the forked death-test child too: at a
  // lower level the child would proceed past the lint gate and try to
  // run the pending map on thread-pool threads fork() did not duplicate.
  ScopedEnv env("RANKJOIN_LINT_LEVEL", "error");
  Context ctx(BudgetCluster(LintLevel::kError));
  auto bad = ShufflePlan(&ctx, NoSerdeRecord{"x"});
  EXPECT_DEATH(bad.Collect(), "plan rejected by lint");
}

TEST(LintCollectTest, ErrorModeAllowsWarningSeverity) {
  ScopedEnv env("RANKJOIN_LINT_LEVEL", "error");
  Context ctx(LintCluster(LintLevel::kError));
  auto ds = Parallelize(&ctx, MakeKv(64), 4);
  // MS002 is warning severity: recorded, but the job still runs.
  auto grouped =
      GroupByKey(PartitionByKey(ds, 8, "fixture/place"), 16, "fixture/group");
  EXPECT_EQ(grouped.Collect().size(), 16u);
  ASSERT_EQ(ctx.lint_report().size(), 1u);
  EXPECT_EQ(ctx.lint_report()[0].code, "MS002");
}

TEST(LintCollectTest, OffModeNeverRecords) {
  ScopedEnv env("RANKJOIN_LINT_LEVEL", nullptr);
  Context ctx(BudgetCluster(LintLevel::kOff));
  auto bad = ShufflePlan(&ctx, NoSerdeRecord{"x"});
  bad.Collect();
  EXPECT_TRUE(ctx.lint_report().empty());
  // Explicit Lint() still works at off level.
  EXPECT_EQ(Only(bad.Lint(), "MS004").size(), 1u);
}

TEST(LintFormatTest, FormatsCodeSeverityMessageLocation) {
  LintDiagnostic d;
  d.code = "MS004";
  d.severity = LintSeverity::kError;
  d.message = "shuffle cannot spill";
  d.location = "partitionBy (x)";
  const std::string line = FormatLintDiagnostics({d});
  EXPECT_NE(line.find("MS004 [error] "), std::string::npos);
  EXPECT_NE(line.find("shuffle cannot spill"), std::string::npos);
  EXPECT_NE(line.find("(at partitionBy (x))"), std::string::npos);
}

TEST(LintExplainTest, ExplainDotEmbedsDiagnosticsAndStaysValidDot) {
  ScopedEnv env("RANKJOIN_LINT_LEVEL", "warn");
  Context ctx(BudgetCluster(LintLevel::kWarn));
  auto bad = ShufflePlan(&ctx, NoSerdeRecord{"x"});
  auto keyed = bad.Map([](const int& key) { return Kv(key, 1); },
                       "fixture/rekey");
  auto grouped = GroupByKey(PartitionByKey(keyed, 8, "fixture/replace"), 16,
                            "fixture/group");
  const std::string dot = grouped.ExplainDot();
  EXPECT_EQ(dot.rfind("digraph plan {", 0), 0u);
  EXPECT_EQ(dot.substr(dot.size() - 2), "}\n");
  // Diagnostic codes are rendered into the offending nodes' labels and
  // the nodes are drawn in red.
  EXPECT_NE(dot.find("MS004"), std::string::npos);
  EXPECT_NE(dot.find("MS002"), std::string::npos);
  EXPECT_NE(dot.find("color=red, fontcolor=red"), std::string::npos);
  // Structurally valid DOT: balanced braces/brackets, even quote count.
  for (const auto& [open, close] : {std::pair{'{', '}'}, {'[', ']'}}) {
    EXPECT_EQ(std::count(dot.begin(), dot.end(), open),
              std::count(dot.begin(), dot.end(), close));
  }
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '"') % 2, 0);
  // Without lint findings the rendering is unchanged: no red nodes.
  Context clean_ctx(BudgetCluster(LintLevel::kWarn));
  const std::string clean_dot =
      ShufflePlan(&clean_ctx, uint32_t{7}).ExplainDot();
  EXPECT_EQ(clean_dot.find("color=red"), std::string::npos);
}

// Every production pipeline must be lint-clean in error mode: the whole
// join runs with Collect()-time linting armed to abort, and afterwards
// the report must not contain even warning-severity diagnostics.
class PipelineLintTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(PipelineLintTest, LintCleanInErrorMode) {
  RankingDataset dataset = testutil::SmallSkewedDataset(/*seed=*/1,
                                                        /*n=*/200);
  Context ctx(LintCluster(LintLevel::kError));
  SimilarityJoinConfig config;
  config.algorithm = GetParam();
  config.theta = 0.3;
  config.delta = 500;
  auto result = RunSimilarityJoin(&ctx, dataset, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ctx.lint_report().empty())
      << FormatLintDiagnostics(ctx.lint_report());
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, PipelineLintTest,
    ::testing::Values(Algorithm::kBruteForce, Algorithm::kVJ,
                      Algorithm::kVJNL, Algorithm::kCL, Algorithm::kCLP,
                      Algorithm::kVSmart),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      std::string name = AlgorithmName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(PipelineLintTest, RsJoinLintCleanInErrorMode) {
  RankingDataset r = testutil::SmallSkewedDataset(/*seed=*/1, /*n=*/150);
  RankingDataset s = testutil::SmallSkewedDataset(/*seed=*/2, /*n=*/150);
  Context ctx(LintCluster(LintLevel::kError));
  RsJoinOptions options;
  options.theta = 0.25;
  auto result = RunRsJoin(&ctx, r, s, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ctx.lint_report().empty())
      << FormatLintDiagnostics(ctx.lint_report());
}

}  // namespace
}  // namespace rankjoin::minispark
