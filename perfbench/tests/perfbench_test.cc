// Unit tests of the benchmark's own machinery: the forwarding decorators,
// the tail-percentile helper, failure accounting, setup-only runs and span
// self time.
// Build and run with: python3 perfbench/run.py --self-test

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crowd/platform.h"
#include "data/generators.h"
#include "judgment/comparison.h"
#include "measure.h"
#include "net/server.h"
#include "serve/arrival.h"
#include "serve/query_service.h"
#include "spans.h"
#include "util/random.h"
#include "workloads.h"

namespace crowdtopk::perfbench {
namespace {

std::vector<std::unique_ptr<core::TopKAlgorithm>> Algorithms() {
  judgment::ComparisonOptions comparison;
  comparison.alpha = 0.02;
  const net::AlgorithmFactory factory = net::DefaultAlgorithmFactory();
  std::vector<std::unique_ptr<core::TopKAlgorithm>> out;
  for (const char* name : {"spr", "tourtree", "heapsort", "quickselect"}) {
    out.push_back(factory(name, comparison));
  }
  return out;
}

TEST(DecoratorTest, PrivateRunsForwardBitExactly) {
  const auto plain = data::MakeByName("peopleage", 7);
  CountingDataset counting(data::MakeByName("peopleage", 7));
  SpanLog log;
  for (auto& algorithm : Algorithms()) {
    crowd::CrowdPlatform a(plain.get(), util::SplitSeed(7, 1));
    crowd::CrowdPlatform b(&counting, util::SplitSeed(7, 1));
    TimedAlgorithm timed(algorithm.get(), &log, 1, -1);
    const int64_t calls_before = counting.calls();
    const core::TopKResult x = algorithm->Run(&a, 5);
    const core::TopKResult y = timed.Run(&b, 5);
    EXPECT_EQ(x.items, y.items) << algorithm->name();
    EXPECT_EQ(x.total_microtasks, y.total_microtasks);
    EXPECT_EQ(x.rounds, y.rounds);
    EXPECT_EQ(timed.name(), algorithm->name());
    // One oracle call per purchased microtask.
    EXPECT_EQ(counting.calls() - calls_before, y.total_microtasks);
  }
  EXPECT_GT(counting.nanos(), 0);
  EXPECT_EQ(log.Named("serve.query").size(), 4u);
}

// The traced replay's per-query outcomes equal the untraced ones.
TEST(DecoratorTest, ServeReplayOutcomesMatchUntraced) {
  constexpr int64_t kQueries = 12;
  auto replay = [](bool traced, SpanLog* log) {
    std::unique_ptr<data::Dataset> dataset = data::MakeByName("peopleage", 3);
    if (traced) {
      dataset = std::make_unique<CountingDataset>(std::move(dataset));
    }
    auto algorithms = Algorithms();
    std::vector<std::unique_ptr<TimedAlgorithm>> timed;
    std::vector<serve::QueryRequest> requests(kQueries);
    for (int64_t q = 0; q < kQueries; ++q) {
      core::TopKAlgorithm* algorithm = algorithms[q % 4].get();
      if (traced) {
        timed.push_back(
            std::make_unique<TimedAlgorithm>(algorithm, log, q, -1));
        algorithm = timed.back().get();
      }
      requests[q].algorithm = algorithm;
      requests[q].dataset = dataset.get();
      requests[q].k = 5;
    }
    serve::ServeOptions options;
    options.max_inflight = 6;
    options.seed = 3;
    serve::QueryService service(options);
    return service.Replay(requests, serve::PoissonArrivals(kQueries, 1.0, 3));
  };
  SpanLog log;
  const auto plain = replay(false, nullptr);
  const auto traced = replay(true, &log);
  ASSERT_EQ(plain.size(), traced.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].status.code(), traced[i].status.code());
    EXPECT_EQ(plain[i].items, traced[i].items);
    EXPECT_EQ(plain[i].total_microtasks, traced[i].total_microtasks);
    EXPECT_EQ(plain[i].rounds_observed, traced[i].rounds_observed);
    EXPECT_EQ(plain[i].rounds_private, traced[i].rounds_private);
    EXPECT_EQ(plain[i].finish_seconds, traced[i].finish_seconds);
  }
  const auto spans = log.Named("serve.query");
  ASSERT_EQ(static_cast<int64_t>(spans.size()), kQueries);
  for (const Span& s : spans) {
    EXPECT_GE(s.query_id, 0);
    EXPECT_LE(s.start_ns, s.end_ns);
  }
}

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentileTest, PicksHighestPercentileWithTenBeyond) {
  // 200 samples: p99 would leave 2 beyond, so the p95 is reported.
  Tail t = TailPercentile(Ramp(200));
  EXPECT_EQ(t.samples, 200);
  EXPECT_DOUBLE_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.beyond, 10);
  EXPECT_DOUBLE_EQ(t.value, 190.0);

  // 1000 samples support the p99 exactly.
  t = TailPercentile(Ramp(1000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.beyond, 10);
  EXPECT_DOUBLE_EQ(t.value, 990.0);

  // More samples never push past the requested percentile.
  t = TailPercentile(Ramp(2000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.beyond, 20);
  EXPECT_DOUBLE_EQ(t.value, 1980.0);

  // Ten samples or fewer: nothing qualifies; the maximum, zero beyond.
  t = TailPercentile(Ramp(10));
  EXPECT_EQ(t.samples, 10);
  EXPECT_EQ(t.beyond, 0);
  EXPECT_DOUBLE_EQ(t.value, 10.0);

  t = TailPercentile({});
  EXPECT_EQ(t.samples, 0);
}

TEST(MedianTest, OddEvenEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(FailureTallyTest, CountsEachCauseAgainstAttempts) {
  FailureTally tally;
  for (int i = 0; i < 90; ++i) tally.Count(Cause::kOk);
  for (int i = 0; i < 4; ++i) tally.Count(Cause::kExhausted);
  for (int i = 0; i < 3; ++i) tally.Count(Cause::kRejected);
  tally.Count(Cause::kTransport);
  tally.Count(Cause::kMissing);
  tally.Count(Cause::kMalformed);
  EXPECT_EQ(tally.attempted, 100);
  EXPECT_EQ(tally.ok(), 90);
  EXPECT_EQ(tally.not_ok(), 10);
  EXPECT_DOUBLE_EQ(tally.failed_ratio(), 0.10);
  EXPECT_DOUBLE_EQ(tally.ok_ratio(), 0.90);
  // The crowd model's exhaustion is an answer, not a system failure.
  EXPECT_EQ(tally.system_failures(), 6);
  EXPECT_EQ(tally.Breakdown(),
            "rejected=3 exhausted=4 transport=1 missing=1 malformed=1 "
            "other=0");

  FailureTally merged;
  merged.Merge(tally);
  merged.Merge(tally);
  EXPECT_EQ(merged.attempted, 200);
  EXPECT_EQ(merged.count(Cause::kExhausted), 8);
  EXPECT_DOUBLE_EQ(FailureTally().failed_ratio(), 0.0);
}

TEST(SetupOnlyTest, ReportsMedianAndStopsAtFirstFailure) {
  int built = 0;
  RunResult ok = SetupOnly(5, [&](std::string*) { return ++built; });
  EXPECT_EQ(built, 5);
  EXPECT_TRUE(ok.errors.empty());
  EXPECT_EQ(ok.tally.attempted, 5);
  ASSERT_EQ(ok.metrics.size(), 1u);
  EXPECT_EQ(ok.metrics[0].name, "setup_s");
  EXPECT_EQ(ok.metrics[0].unit, "s");
  EXPECT_GE(ok.metrics[0].value, 0.0);
  EXPECT_EQ(ok.metrics[0].note, "median, n=5");

  built = 0;
  RunResult failed = SetupOnly(5, [&](std::string* error) {
    if (++built == 2) *error = "refused";
    return built;
  });
  EXPECT_EQ(built, 2);
  EXPECT_EQ(failed.tally.attempted, 2);
  EXPECT_EQ(failed.tally.system_failures(), 1);
  ASSERT_EQ(failed.errors.size(), 1u);
  EXPECT_EQ(failed.errors[0], "setup: refused");
}

TEST(IsValidTopKTest, RequiresKDistinctIdsInRange) {
  EXPECT_TRUE(IsValidTopK({3, 1, 2}, 3, 10));
  EXPECT_FALSE(IsValidTopK({3, 3, 2}, 3, 10));
  EXPECT_FALSE(IsValidTopK({3, 1}, 3, 10));
  EXPECT_FALSE(IsValidTopK({3, 1, 10}, 3, 10));
  EXPECT_FALSE(IsValidTopK({3, 1, -1}, 3, 10));
  EXPECT_TRUE(IsValidTopK({1, 0}, 5, 2));  // k > n: all n items
}

TEST(SpanLogTest, SelfTimeSubtractsUnionOfChildren) {
  SpanLog log;
  auto add = [&](int64_t id, int64_t parent, int64_t start, int64_t end) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.start_ns = start;
    s.end_ns = end;
    log.Add(s);
  };
  add(0, -1, 0, 1000);
  add(1, 0, 100, 400);   // overlapping children: union [100, 500]
  add(2, 0, 300, 500);
  add(3, 0, 900, 1200);  // clipped to the parent: [900, 1000]
  add(4, 1, 150, 160);   // grandchild: not subtracted from span 0
  EXPECT_NEAR(log.SelfSeconds(0), 500e-9, 1e-15);
  EXPECT_NEAR(log.SelfSeconds(1), 290e-9, 1e-15);
  EXPECT_DOUBLE_EQ(log.SelfSeconds(99), 0.0);
}

}  // namespace
}  // namespace crowdtopk::perfbench
