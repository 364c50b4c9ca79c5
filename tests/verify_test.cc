// Tests for the statistical-guarantee verification harness (src/verify):
// clean-crowd contracts pass, a deliberately broken crowd is caught with a
// decisive FAIL, reports are bit-identical across worker counts, and
// the telemetry serialisation follows the documented schema.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "verify/guarantee.h"

namespace crowdtopk::verify {
namespace {

VerifyOptions SmallOptions() {
  VerifyOptions options;
  options.max_trials = 60;
  options.block_trials = 20;
  return options;
}

TEST(VerifyComparisonTest, CleanCrowdHoldsTheContract) {
  CompCheckSpec spec;
  spec.label = "student_clean";
  spec.alpha = 0.1;
  const GuaranteeReport report =
      VerifyComparisonGuarantee(spec, SmallOptions(), /*jobs=*/1, 7);
  EXPECT_EQ(report.kind, "comp");
  EXPECT_EQ(report.contract, spec.alpha);
  EXPECT_GT(report.trials, 0);
  EXPECT_LE(report.trials, 60);
  EXPECT_EQ(report.verdict, Verdict::kPass);
  EXPECT_LE(report.wilson_lo, report.error_rate);
  EXPECT_GE(report.wilson_hi, report.error_rate);
  // COMP pays at least the cold-start workload I per comparison.
  EXPECT_GE(report.mean_workload, 30.0);
}

// A fully adversarial crowd flips every judgment: the empirical error rate
// goes to ~1, the Wilson lower bound clears the contract fast, and the
// sequential rule stops with a decisive FAIL before max_trials.
TEST(VerifyComparisonTest, AdversarialCrowdFailsDecisively) {
  CompCheckSpec spec;
  spec.label = "student_adversary";
  spec.alpha = 0.05;
  spec.faults.adversary_fraction = 1.0;
  VerifyOptions options = SmallOptions();
  options.max_trials = 200;
  const GuaranteeReport report =
      VerifyComparisonGuarantee(spec, options, /*jobs=*/1, 7);
  EXPECT_EQ(report.verdict, Verdict::kFail);
  EXPECT_TRUE(report.decisive);
  EXPECT_LT(report.trials, 200);  // early stop fired
  EXPECT_GT(report.wilson_lo, spec.alpha);
  EXPECT_GT(report.error_rate, 0.5);
}

TEST(VerifySprTest, SeparableLadderHoldsTheBound) {
  SprCheckSpec spec;
  spec.label = "spr_clean";
  spec.n = 12;
  spec.k = 3;
  const GuaranteeReport report =
      VerifySprGuarantee(spec, SmallOptions(), /*jobs=*/1, 9);
  EXPECT_EQ(report.kind, "spr");
  // Contract: error <= 1 - (1 - alpha) / c.
  EXPECT_NEAR(report.contract, 1.0 - (1.0 - spec.alpha) / spec.sweet_spot_c,
              1e-12);
  // Each run contributes k Bernoulli slots.
  EXPECT_EQ(report.trials % spec.k, 0);
  EXPECT_EQ(report.verdict, Verdict::kPass);
}

// The harness's own determinism contract: the full report — counts, band,
// stopping point, verdict — is bit-identical for jobs=1 and jobs=8, faults
// included.
TEST(VerifyHarnessTest, ReportBitIdenticalAcrossJobs) {
  CompCheckSpec spec;
  spec.label = "student_spam";
  spec.alpha = 0.1;
  spec.faults.spammer_fraction = 0.3;
  spec.faults.duplicate_fraction = 0.1;
  GuaranteeReport reports[2];
  const int64_t jobs[] = {1, 8};
  for (int v = 0; v < 2; ++v) {
    reports[v] = VerifyComparisonGuarantee(spec, SmallOptions(), jobs[v], 41);
  }
  EXPECT_EQ(reports[0].trials, reports[1].trials);
  EXPECT_EQ(reports[0].errors, reports[1].errors);
  EXPECT_EQ(reports[0].ties, reports[1].ties);
  EXPECT_EQ(reports[0].error_rate, reports[1].error_rate);
  EXPECT_EQ(reports[0].wilson_lo, reports[1].wilson_lo);
  EXPECT_EQ(reports[0].wilson_hi, reports[1].wilson_hi);
  EXPECT_EQ(reports[0].mean_workload, reports[1].mean_workload);
  EXPECT_EQ(reports[0].decisive, reports[1].decisive);
  EXPECT_EQ(reports[0].verdict, reports[1].verdict);
}

TEST(VerifyReportTest, EventsFollowTheDocumentedSchema) {
  GuaranteeReport report;
  report.label = "stein/a0.05";  // '/' must be sanitised in phase names
  report.kind = "comp";
  report.alpha = 0.05;
  report.contract = 0.05;
  report.trials = 100;
  report.errors = 3;
  const std::vector<telemetry::TraceEvent> events = ReportEvents({report});
  ASSERT_FALSE(events.empty());
  int counters = 0;
  for (const telemetry::TraceEvent& event : events) {
    if (event.kind != telemetry::EventKind::kCounter) continue;
    ++counters;
    EXPECT_EQ(event.phase, "verify/comp_stein_a0.05");
    if (event.name == "trials") {
      EXPECT_EQ(event.value, 100.0);
    } else if (event.name == "errors") {
      EXPECT_EQ(event.value, 3.0);
    } else if (event.name == "pass") {
      EXPECT_EQ(event.value, 1.0);
    }
  }
  EXPECT_EQ(counters, 11);  // one counter per report field
}

TEST(VerifyReportTest, JsonlRoundTripsThroughTheExporter) {
  GuaranteeReport report;
  report.label = "hoeffding_a0.1";
  report.kind = "comp";
  report.alpha = 0.1;
  report.contract = 0.1;
  report.trials = 50;
  const std::string path = ::testing::TempDir() + "/verify_report.jsonl";
  ASSERT_TRUE(WriteReportJsonl({report}, path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  bool saw_trials = false;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    saw_trials |= line.find("\"name\":\"trials\"") != std::string::npos &&
                  line.find("verify/comp_hoeffding_a0.1") != std::string::npos;
  }
  EXPECT_GT(lines, 0);
  EXPECT_TRUE(saw_trials);
  std::remove(path.c_str());
}

TEST(VerdictTest, Names) {
  EXPECT_STREQ(VerdictName(Verdict::kPass), "PASS");
  EXPECT_STREQ(VerdictName(Verdict::kFail), "FAIL");
}

}  // namespace
}  // namespace crowdtopk::verify
