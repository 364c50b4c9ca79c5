// Tests for the fault-injection layer: seed-pure worker profiles, the
// documented composition order, pass-through byte-identity at zero rates,
// and bit-identical faulty sweeps for any worker count.

#include <cstdint>
#include <vector>

#include "data/gaussian_dataset.h"
#include "exec/parallel_for.h"
#include "fault/injector.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace crowdtopk::fault {
namespace {

// Deterministic rng-free base: preference +0.5 iff i < j (crowd_test idiom).
class FixedOracle : public crowd::JudgmentOracle {
 public:
  int64_t num_items() const override { return 8; }
  double PreferenceJudgment(crowd::ItemId i, crowd::ItemId j,
                            util::Rng*) const override {
    return i < j ? 0.5 : -0.5;
  }
  double GradedJudgment(crowd::ItemId i, util::Rng*) const override {
    return static_cast<double>(i) / 8.0;
  }
};

FaultInjectionOracle SingleWorker(const crowd::JudgmentOracle* base,
                                  WorkerFaultProfile profile,
                                  uint64_t seed = 11) {
  return FaultInjectionOracle(base, {profile}, seed);
}

TEST(FaultPlanTest, AnyValueFaultsIgnoresNoShow) {
  FaultPlan plan;
  EXPECT_FALSE(AnyValueFaults(plan));
  plan.no_show_fraction = 0.5;
  EXPECT_FALSE(AnyValueFaults(plan));  // delivery fault, not a value fault
  EXPECT_DOUBLE_EQ(NoShowProbability(plan), 0.5);
  plan.spammer_fraction = 0.01;
  EXPECT_TRUE(AnyValueFaults(plan));
}

TEST(WorkerProfilesTest, PureFunctionOfSeedWithMatchingRates) {
  FaultPlan plan;
  plan.num_workers = 4000;
  plan.spammer_fraction = 0.25;
  plan.adversary_fraction = 0.1;
  plan.lazy_fraction = 0.05;
  const std::vector<WorkerFaultProfile> a = MakeWorkerProfiles(plan, 123);
  const std::vector<WorkerFaultProfile> b = MakeWorkerProfiles(plan, 123);
  ASSERT_EQ(a.size(), 4000u);
  int64_t spam = 0, adversary = 0, lazy = 0, duplicate = 0, differs = 0;
  for (size_t w = 0; w < a.size(); ++w) {
    EXPECT_EQ(a[w].spammer, b[w].spammer);
    EXPECT_EQ(a[w].adversary, b[w].adversary);
    EXPECT_EQ(a[w].lazy, b[w].lazy);
    EXPECT_EQ(a[w].duplicate, b[w].duplicate);
    spam += a[w].spammer;
    adversary += a[w].adversary;
    lazy += a[w].lazy;
    duplicate += a[w].duplicate;
  }
  EXPECT_NEAR(static_cast<double>(spam) / 4000.0, 0.25, 0.03);
  EXPECT_NEAR(static_cast<double>(adversary) / 4000.0, 0.1, 0.02);
  EXPECT_NEAR(static_cast<double>(lazy) / 4000.0, 0.05, 0.02);
  EXPECT_EQ(duplicate, 0);
  const std::vector<WorkerFaultProfile> c = MakeWorkerProfiles(plan, 124);
  for (size_t w = 0; w < a.size(); ++w) {
    differs += a[w].spammer != c[w].spammer;
  }
  EXPECT_GT(differs, 0);
}

// The zero-rate injector must consume nothing from the platform stream:
// identical judgments AND an identical downstream rng state.
TEST(FaultInjectionOracleTest, ZeroRatePlanIsByteIdenticalPassThrough) {
  data::GaussianDataset base("pair", {0.0, 1.0}, 2.0, 10.0);
  FaultInjectionOracle injector(&base, FaultPlan{}, 99);
  EXPECT_FALSE(injector.active());
  util::Rng direct(7), wrapped(7);
  for (int t = 0; t < 200; ++t) {
    EXPECT_EQ(base.PreferenceJudgment(0, 1, &direct),
              injector.PreferenceJudgment(0, 1, &wrapped));
    EXPECT_EQ(base.GradedJudgment(1, &direct),
              injector.GradedJudgment(1, &wrapped));
  }
  EXPECT_EQ(direct.NextUint64(), wrapped.NextUint64());
}

TEST(FaultInjectionOracleTest, AdversaryFlipsPreferenceAndReflectsGrade) {
  FixedOracle base;
  const FaultInjectionOracle injector =
      SingleWorker(&base, {.adversary = true});
  EXPECT_TRUE(injector.active());
  util::Rng rng(3);
  for (int t = 0; t < 50; ++t) {
    EXPECT_DOUBLE_EQ(injector.PreferenceJudgment(0, 1, &rng), -0.5);
    EXPECT_DOUBLE_EQ(injector.PreferenceJudgment(1, 0, &rng), 0.5);
    EXPECT_DOUBLE_EQ(injector.GradedJudgment(2, &rng), 1.0 - 2.0 / 8.0);
  }
}

TEST(FaultInjectionOracleTest, LazyCollapsesTowardNeutral) {
  FixedOracle base;
  const FaultInjectionOracle injector = SingleWorker(&base, {.lazy = true});
  util::Rng rng(4);
  for (int t = 0; t < 200; ++t) {
    EXPECT_LE(std::abs(injector.PreferenceJudgment(0, 1, &rng)), 0.02);
    EXPECT_NEAR(injector.GradedJudgment(0, &rng), 0.5, 0.01);
  }
}

TEST(FaultInjectionOracleTest, SpammerIsUniformNoise) {
  FixedOracle base;
  const FaultInjectionOracle injector =
      SingleWorker(&base, {.spammer = true});
  util::Rng rng(5);
  double sum = 0.0;
  bool varies = false;
  double first = injector.PreferenceJudgment(0, 1, &rng);
  for (int t = 0; t < 2000; ++t) {
    const double v = injector.PreferenceJudgment(0, 1, &rng);
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
    varies |= v != first;
    sum += v;
  }
  EXPECT_TRUE(varies);
  EXPECT_NEAR(sum / 2000.0, 0.0, 0.1);  // nothing like the honest +0.5
}

// Duplicate workers freeze the first answer per pair, even over a noisy
// base whose honest answers vary draw to draw.
TEST(FaultInjectionOracleTest, DuplicateWorkerResubmitsFrozenAnswer) {
  data::GaussianDataset base("pair", {0.0, 1.0, 2.0}, 2.0, 10.0);
  const FaultInjectionOracle injector =
      SingleWorker(&base, {.duplicate = true});
  util::Rng rng(6);
  const double frozen01 = injector.PreferenceJudgment(0, 1, &rng);
  const double frozen02 = injector.PreferenceJudgment(0, 2, &rng);
  for (int t = 0; t < 50; ++t) {
    EXPECT_DOUBLE_EQ(injector.PreferenceJudgment(0, 1, &rng), frozen01);
    EXPECT_DOUBLE_EQ(injector.PreferenceJudgment(0, 2, &rng), frozen02);
  }
  EXPECT_NE(frozen01, frozen02);
  util::Rng honest(6);
  const double h1 = base.PreferenceJudgment(0, 1, &honest);
  const double h2 = base.PreferenceJudgment(0, 1, &honest);
  EXPECT_NE(h1, h2);  // the base really is noisy; freezing is the injector
}

// Composition order: duplicate -> spammer -> adversary -> lazy, later
// stages win.
TEST(FaultInjectionOracleTest, CompositionOrderLaterStagesWin) {
  FixedOracle base;
  // An adversarial duplicate flips the frozen answer (+0.5 -> -0.5).
  const FaultInjectionOracle dup_adv =
      SingleWorker(&base, {.adversary = true, .duplicate = true});
  // A lazy spammer-adversary still answers near neutral: lazy is last.
  const FaultInjectionOracle all = SingleWorker(
      &base,
      {.spammer = true, .adversary = true, .lazy = true, .duplicate = true});
  util::Rng rng(8);
  for (int t = 0; t < 100; ++t) {
    EXPECT_DOUBLE_EQ(dup_adv.PreferenceJudgment(0, 1, &rng), -0.5);
    EXPECT_LE(std::abs(all.PreferenceJudgment(0, 1, &rng)), 0.02);
  }
}

// The flagship contract: a faulty sweep fanned out with exec::RunAll is
// bit-identical for jobs=1 and jobs=8, sharing one injector across runs.
TEST(FaultInjectionOracleTest, FaultySweepIsBitIdenticalAcrossJobs) {
  data::GaussianDataset base("pair", {0.0, 1.0}, 2.0, 10.0);
  FaultPlan plan;
  plan.num_workers = 50;
  plan.spammer_fraction = 0.3;
  plan.adversary_fraction = 0.1;
  plan.duplicate_fraction = 0.2;
  const FaultInjectionOracle injector(&base, plan, 77);

  const auto sweep = [&](int64_t jobs) {
    return exec::RunAll(
        /*runs=*/16, /*seed=*/2024, jobs, [&](int64_t, uint64_t run_seed) {
          util::Rng rng(run_seed);
          std::vector<double> values;
          for (int t = 0; t < 64; ++t) {
            values.push_back(injector.PreferenceJudgment(0, 1, &rng));
          }
          return values;
        });
  };
  const std::vector<std::vector<double>> serial = sweep(1);
  const std::vector<std::vector<double>> parallel = sweep(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t run = 0; run < serial.size(); ++run) {
    ASSERT_EQ(serial[run].size(), parallel[run].size());
    for (size_t t = 0; t < serial[run].size(); ++t) {
      EXPECT_EQ(serial[run][t], parallel[run][t])
          << "run " << run << " draw " << t;
    }
  }
}

}  // namespace
}  // namespace crowdtopk::fault
