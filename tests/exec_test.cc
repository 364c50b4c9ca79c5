// Tests for the parallel repetition fan-out (src/exec): exactly-once
// ParallelFor with smallest-index rethrow, RunAll's per-run seeds, run-order
// ColumnMeans, and — the property all three exist to guarantee —
// bit-identical bench results for any worker count.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/heap_sort.h"
#include "baselines/tournament_tree.h"
#include "bench/harness.h"
#include "core/spr.h"
#include "data/generators.h"
#include "exec/parallel_for.h"
#include "util/random.h"

namespace crowdtopk {
namespace {

// ---------------------------------------------------------------- SplitSeed

TEST(SplitSeedTest, IsPureFunctionOfSeedAndStream) {
  EXPECT_EQ(util::SplitSeed(1, 0), util::SplitSeed(1, 0));
  EXPECT_NE(util::SplitSeed(1, 0), util::SplitSeed(1, 1));
  EXPECT_NE(util::SplitSeed(1, 0), util::SplitSeed(2, 0));
  // Nearby seeds and streams must not collide (a weak mixing function
  // would map (seed, stream) and (seed + 1, stream - 1) together).
  EXPECT_NE(util::SplitSeed(1, 1), util::SplitSeed(2, 0));
}

TEST(SplitSeedTest, RngSplitIsOrderIndependent) {
  util::Rng fresh(42);
  util::Rng advanced(42);
  for (int i = 0; i < 100; ++i) advanced.NextUint64();
  // Fork() depends on draw position; Split() must not.
  for (uint64_t stream : {0ULL, 1ULL, 7ULL}) {
    EXPECT_EQ(fresh.Split(stream).NextUint64(),
              advanced.Split(stream).NextUint64());
    EXPECT_EQ(fresh.Split(stream).NextUint64(),
              util::Rng(util::SplitSeed(42, stream)).NextUint64());
  }
}

TEST(SplitSeedTest, StreamsAreStatisticallyDistinct) {
  // First draws of 1000 sibling streams should be essentially unique.
  std::vector<uint64_t> first_draws;
  for (uint64_t s = 0; s < 1000; ++s) {
    first_draws.push_back(util::Rng(util::SplitSeed(7, s)).NextUint64());
  }
  std::sort(first_draws.begin(), first_draws.end());
  EXPECT_EQ(std::unique(first_draws.begin(), first_draws.end()),
            first_draws.end());
}

// -------------------------------------------------------------- ParallelFor

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr int64_t kN = 20000;
  std::vector<std::atomic<int32_t>> hits(kN);
  for (auto& h : hits) h.store(0);
  // Tiny body => maximal contention on the index cursor.
  exec::ParallelFor(8, kN, [&hits](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, SerialPathMatchesContract) {
  std::vector<int> hits(100, 0);
  exec::ParallelFor(1, 100, [&hits](int64_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
  exec::ParallelFor(0, 100, [&hits](int64_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 2);
  exec::ParallelFor(8, 0, [](int64_t) { FAIL(); });  // empty range
}

TEST(ParallelForTest, PropagatesSmallestFailingIndex) {
  for (int repeat = 0; repeat < 3; ++repeat) {
    try {
      exec::ParallelFor(4, 1000, [](int64_t i) {
        if (i % 250 == 37) {  // fails at 37, 287, 537, 787
          throw std::runtime_error("boom " + std::to_string(i));
        }
      });
      FAIL() << "expected ParallelFor to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 37");
    }
  }
  // Every index still runs when some of them throw.
  std::atomic<int64_t> count{0};
  try {
    exec::ParallelFor(4, 64, [&count](int64_t i) {
      count.fetch_add(1);
      if (i == 3) throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(count.load(), 64);
}

// ------------------------------------------------------------------- RunAll

TEST(RunEngineTest, SeedsAreIndependentOfWorkerCount) {
  const auto task = [](int64_t r, uint64_t run_seed) -> std::vector<double> {
    EXPECT_EQ(run_seed, util::SplitSeed(2024, static_cast<uint64_t>(r)));
    // A nontrivial function of the run's own stream.
    util::Rng rng(run_seed);
    return {rng.Uniform(), static_cast<double>(rng.UniformInt(1000))};
  };
  const auto a = exec::RunAll(64, 2024, /*jobs=*/1, task);
  const auto b = exec::RunAll(64, 2024, /*jobs=*/8, task);
  EXPECT_EQ(a, b);
  // jobs = 0 means hardware concurrency.
  EXPECT_EQ(exec::RunAll(64, 2024, /*jobs=*/0, task), a);
  EXPECT_GE(exec::ResolveJobs(0), 1);
  EXPECT_EQ(exec::ResolveJobs(3), 3);
  // ColumnMeans performs the serial loop's additions, in run order.
  std::vector<double> sums(2, 0.0);
  for (const std::vector<double>& record : b) {
    sums[0] += record[0];
    sums[1] += record[1];
  }
  const std::vector<double> means = exec::ColumnMeans(b);
  ASSERT_EQ(means.size(), 2u);
  EXPECT_EQ(means[0], sums[0] / 64.0);
  EXPECT_EQ(means[1], sums[1] / 64.0);
  EXPECT_TRUE(exec::ColumnMeans({}).empty());
}

// ------------------------------------ the property the fan-out exists for:
// AverageRuns is bit-identical for 1 and 8 jobs, on SPR plus two
// confidence-aware baselines.

TEST(AverageRunsDeterminismTest, EightJobsBitIdenticalToSerial) {
  // Small instance so the three algorithms stay fast: 24 items, k = 4.
  const auto dataset = data::MakeUniformLadder(24, 1.0, 2.0);
  judgment::ComparisonOptions options = bench::DefaultComparisonOptions();
  options.budget = 200;  // keep per-pair spend small
  core::SprOptions spr_options;
  spr_options.comparison = options;
  std::vector<std::unique_ptr<core::TopKAlgorithm>> algorithms;
  algorithms.push_back(std::make_unique<core::Spr>(spr_options));
  algorithms.push_back(std::make_unique<baselines::TournamentTree>(options));
  algorithms.push_back(std::make_unique<baselines::HeapSortTopK>(options));
  for (const auto& algorithm : algorithms) {
    const bench::Averages serial = bench::AverageRunsWithJobs(
        *dataset, algorithm.get(), 4, 12, 20170514, /*jobs=*/1);
    const bench::Averages parallel = bench::AverageRunsWithJobs(
        *dataset, algorithm.get(), 4, 12, 20170514, /*jobs=*/8);
    // EXPECT_EQ, not EXPECT_NEAR: the contract is bit-identical.
    EXPECT_EQ(serial.tmc, parallel.tmc) << algorithm->name();
    EXPECT_EQ(serial.rounds, parallel.rounds) << algorithm->name();
    EXPECT_EQ(serial.ndcg, parallel.ndcg) << algorithm->name();
    EXPECT_EQ(serial.precision, parallel.precision) << algorithm->name();
    EXPECT_GT(serial.tmc, 0.0) << algorithm->name();
  }
}

}  // namespace
}  // namespace crowdtopk
