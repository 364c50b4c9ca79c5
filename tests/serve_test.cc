// Tests for the multi-query serving layer (src/serve): the fibers queries
// run on, the AssignmentTracker's wave order, sync-algorithm equivalence
// through the AsyncPlatform bridge, scheduler fairness under saturation,
// straggler requeueing and bounded-retry failure, admission overflow, a
// replay with thousands of queries in flight, and bit-identity of the serve
// report across repeated replays.

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/heap_sort.h"
#include "baselines/quick_select.h"
#include "core/spr.h"
#include "core/topk_algorithm.h"
#include "crowd/platform.h"
#include "data/generators.h"
#include "fault/injector.h"
#include "gtest/gtest.h"
#include "judgment/comparison.h"
#include "serve/arrival.h"
#include "serve/assignment_tracker.h"
#include "serve/async_platform.h"
#include "serve/batch_scheduler.h"
#include "serve/fiber.h"
#include "serve/query_service.h"
#include "serve/report.h"
#include "util/env.h"
#include "util/file_io.h"
#include "util/status.h"

namespace crowdtopk::serve {
namespace {

// A deterministic workload with a known shape: `rounds` batch rounds, each
// buying `per_round` preference microtasks on one pair, cycling through the
// dataset's pairs so the per-pair cap stays exercised. Stateless across
// Run() calls (concurrent_runs_safe).
class ScriptedAlgorithm : public core::TopKAlgorithm {
 public:
  ScriptedAlgorithm(int64_t rounds, int64_t per_round)
      : rounds_(rounds), per_round_(per_round) {}

  std::string name() const override { return "Scripted"; }

  core::TopKResult Run(crowd::CrowdPlatform* platform, int64_t k) override {
    std::vector<double> out;
    for (int64_t r = 0; r < rounds_; ++r) {
      platform->CollectPreferences(r % 3, r % 3 + 1, per_round_, &out);
      platform->NextRound();
    }
    core::TopKResult result;
    for (int64_t i = 0; i < k; ++i) result.items.push_back(i);
    result.total_microtasks = platform->total_microtasks();
    result.rounds = platform->rounds();
    return result;
  }

 private:
  int64_t rounds_;
  int64_t per_round_;
};

// Runs the minimal serve loop for a standalone scheduler until every query
// in `ids` (ascending) has finished: step each query in id order, then
// close a global round for the ones left waiting.
void PumpScheduler(BatchScheduler* scheduler, std::vector<int64_t> ids) {
  while (!ids.empty()) {
    std::vector<int64_t> waiting;
    for (const int64_t id : ids) {
      if (!scheduler->Step(id)) waiting.push_back(id);
    }
    ids.swap(waiting);
    if (!ids.empty()) scheduler->ExecuteRound();
  }
}

ScheduleOptions ReliableCrowd() {
  ScheduleOptions options;
  options.abandon_probability = 0.0;  // no stragglers unless a test asks
  return options;
}

// ----- fibers ----------------------------------------------------------------

// Fibers resumed round-robin interleave exactly in resume order: each runs
// from one Yield() to the next and nothing else runs meanwhile.
TEST(FiberTest, InterleaveInResumeOrder) {
  std::vector<int> log;
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int f = 0; f < 4; ++f) {
    fibers.push_back(std::make_unique<Fiber>([&log, &fibers, f] {
      for (int step = 0; step < 3; ++step) {
        log.push_back(10 * step + f);
        fibers[f]->Yield();
      }
    }));
  }
  for (int pass = 0; pass < 3; ++pass) {
    for (const auto& fiber : fibers) EXPECT_FALSE(fiber->Resume());
  }
  for (const auto& fiber : fibers) EXPECT_TRUE(fiber->Resume());
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22,
                                   23}));
}

// Locals on a fiber's own stack (here a 64 KiB array, deep enough to span
// many pages) keep their values across yields.
TEST(FiberTest, StackLocalsSurviveYields) {
  int64_t checksum = -1;
  Fiber* self = nullptr;
  Fiber fiber([&] {
    int64_t local[8192];
    for (int64_t i = 0; i < 8192; ++i) local[i] = i * i;
    for (int y = 0; y < 5; ++y) {
      self->Yield();
      for (int64_t i = 0; i < 8192; i += 97) local[i] += y;
    }
    checksum = 0;
    for (int64_t i = 0; i < 8192; ++i) checksum += local[i];
  });
  self = &fiber;
  while (!fiber.Resume()) {
  }
  int64_t want = 0;
  for (int64_t i = 0; i < 8192; ++i) want += i * i + (i % 97 == 0 ? 10 : 0);
  EXPECT_EQ(checksum, want);
}

// Resume() reports false while the body yields and true once it returned.
TEST(FiberTest, ResumeReportsCompletion) {
  int steps = 0;
  Fiber* self = nullptr;
  Fiber fiber([&] {
    ++steps;
    self->Yield();
    ++steps;
    self->Yield();
    ++steps;
  });
  self = &fiber;
  EXPECT_EQ(steps, 0);  // the body waits for the first Resume()
  EXPECT_FALSE(fiber.Resume());
  EXPECT_EQ(steps, 1);
  EXPECT_FALSE(fiber.Resume());
  EXPECT_EQ(steps, 2);
  EXPECT_TRUE(fiber.Resume());
  EXPECT_EQ(steps, 3);
}

// The shard-router case: independent OS threads each step their own fibers
// at the same time. There is no process-global current fiber, so neither
// thread's switches can land in the other's fibers.
TEST(FiberTest, ThreadsStepTheirOwnFibersConcurrently) {
  constexpr int kThreads = 2;
  constexpr int kFibers = 8;
  constexpr int kSteps = 200;
  std::vector<int64_t> sums(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &sums] {
      std::vector<int64_t> counters(kFibers, 0);
      std::vector<std::unique_ptr<Fiber>> fibers;
      for (int f = 0; f < kFibers; ++f) {
        fibers.push_back(std::make_unique<Fiber>([&counters, &fibers, t, f] {
          for (int step = 0; step < kSteps; ++step) {
            counters[f] += t + 1;
            fibers[f]->Yield();
          }
        }));
      }
      bool running = true;
      while (running) {
        running = false;
        for (const auto& fiber : fibers) running |= !fiber->Resume();
      }
      for (const int64_t c : counters) sums[t] += c;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sums[t], int64_t{kFibers} * kSteps * (t + 1));
  }
}

// ----- assignment tracker ------------------------------------------------------

// Registers purchase `request_seq` of query `query`: `count` microtasks on
// pair (i, j), task indices 0..count-1.
void EnqueuePurchase(AssignmentTracker* tracker, int64_t query,
                     int64_t request_seq, crowd::ItemId i, crowd::ItemId j,
                     int64_t count) {
  tracker->Enqueue({.query_id = query,
                    .seed_stream = query,
                    .request_seq = request_seq,
                    .task_index = 0,
                    .item_i = i,
                    .item_j = j},
                   count);
}

// "q<query> r<request_seq> t<task_index> a<attempt>" per wave entry.
std::vector<std::string> Tags(const std::vector<Assignment>& wave) {
  std::vector<std::string> tags;
  for (const Assignment& a : wave) {
    tags.push_back("q" + std::to_string(a.query_id) + " r" +
                   std::to_string(a.request_seq) + " t" +
                   std::to_string(a.task_index) + " a" +
                   std::to_string(a.attempt));
  }
  return tags;
}

void ExpectStats(const AssignmentStats& stats, int64_t scheduled,
                 int64_t completed, int64_t expired, int64_t requeued,
                 int64_t failed) {
  EXPECT_EQ(stats.scheduled, scheduled);
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.expired, expired);
  EXPECT_EQ(stats.requeued, requeued);
  EXPECT_EQ(stats.failed, failed);
}

using Tagged = std::vector<std::string>;

// The eta cap is per (query, pair): once a query's head pair has
// per_pair_cap tasks in the wave, that query sits out the remaining passes
// — even with other work queued behind the head — and resumes from exactly
// that head in the next wave. Another query on the same pair is not capped
// by it.
TEST(AssignmentTrackerTest, EtaCapBenchesQueryAndKeepsFifoOrder) {
  AssignmentTracker tracker(/*max_attempts=*/4);
  EnqueuePurchase(&tracker, /*query=*/1, /*request_seq=*/0, 0, 1, 3);
  EnqueuePurchase(&tracker, /*query=*/1, /*request_seq=*/1, 2, 3, 2);
  EnqueuePurchase(&tracker, /*query=*/2, /*request_seq=*/0, 0, 1, 4);

  EXPECT_EQ(Tags(tracker.TakeWave(/*rotation=*/0, /*capacity=*/100,
                                  /*per_pair_cap=*/2)),
            (Tagged{"q1 r0 t0 a0", "q2 r0 t0 a0", "q1 r0 t1 a0",
                    "q2 r0 t1 a0"}));
  // Rotation 1 over two active queries starts at query 2.
  EXPECT_EQ(Tags(tracker.TakeWave(1, 100, 2)),
            (Tagged{"q2 r0 t2 a0", "q1 r0 t2 a0", "q2 r0 t3 a0",
                    "q1 r1 t0 a0", "q1 r1 t1 a0"}));
  EXPECT_TRUE(tracker.TakeWave(2, 100, 2).empty());
  ExpectStats(tracker.stats(), /*scheduled=*/9, 0, 0, 0, 0);
}

// The first query served is `rotation % active queries`, counting only
// queries with pending work, in ascending id order; the capacity can cut a
// pass short.
TEST(AssignmentTrackerTest, RotationPicksTheStartingQuery) {
  AssignmentTracker tracker(/*max_attempts=*/4);
  for (const int64_t query : {30, 10, 20}) {
    EnqueuePurchase(&tracker, query, /*request_seq=*/0, 0, 1, 2);
  }
  // 7 % 3 == 1: query 20 first.
  EXPECT_EQ(Tags(tracker.TakeWave(/*rotation=*/7, /*capacity=*/4,
                                  /*per_pair_cap=*/30)),
            (Tagged{"q20 r0 t0 a0", "q30 r0 t0 a0", "q10 r0 t0 a0",
                    "q20 r0 t1 a0"}));
  // Query 20 has nothing left: 9 % 2 == 1 picks query 30 of {10, 30}.
  EXPECT_EQ(Tags(tracker.TakeWave(9, 4, 30)),
            (Tagged{"q30 r0 t1 a0", "q10 r0 t1 a0"}));
  ExpectStats(tracker.stats(), /*scheduled=*/6, 0, 0, 0, 0);
}

// Each expired assignment goes back to the front of its query's FIFO as it
// is resolved, so the last one resolved is dispatched first, and every
// retry precedes the purchase's untouched tasks.
TEST(AssignmentTrackerTest, RetriesJumpTheQueueInResolveOrder) {
  AssignmentTracker tracker(/*max_attempts=*/4);
  EnqueuePurchase(&tracker, /*query=*/1, /*request_seq=*/0, 0, 1, 4);
  const std::vector<Assignment> wave =
      tracker.TakeWave(/*rotation=*/0, /*capacity=*/3, /*per_pair_cap=*/30);
  ASSERT_EQ(Tags(wave),
            (Tagged{"q1 r0 t0 a0", "q1 r0 t1 a0", "q1 r0 t2 a0"}));
  EXPECT_EQ(tracker.Resolve(wave[0], /*expired=*/true),
            AssignmentTracker::Resolution::kRequeued);
  EXPECT_EQ(tracker.Resolve(wave[1], /*expired=*/false),
            AssignmentTracker::Resolution::kCompleted);
  EXPECT_EQ(tracker.Resolve(wave[2], /*expired=*/true),
            AssignmentTracker::Resolution::kRequeued);

  EXPECT_EQ(Tags(tracker.TakeWave(1, 10, 30)),
            (Tagged{"q1 r0 t2 a1", "q1 r0 t0 a1", "q1 r0 t3 a0"}));
  ExpectStats(tracker.stats(), /*scheduled=*/6, /*completed=*/1,
              /*expired=*/2, /*requeued=*/2, /*failed=*/0);
}

// An assignment that expires max_attempts times is dropped for good.
TEST(AssignmentTrackerTest, FailsAfterMaxAttempts) {
  AssignmentTracker tracker(/*max_attempts=*/2);
  EnqueuePurchase(&tracker, /*query=*/7, /*request_seq=*/3, 4, -1, 1);
  std::vector<Assignment> wave =
      tracker.TakeWave(/*rotation=*/0, /*capacity=*/10, /*per_pair_cap=*/30);
  ASSERT_EQ(Tags(wave), (Tagged{"q7 r3 t0 a0"}));
  EXPECT_EQ(tracker.Resolve(wave[0], /*expired=*/true),
            AssignmentTracker::Resolution::kRequeued);
  wave = tracker.TakeWave(1, 10, 30);
  ASSERT_EQ(Tags(wave), (Tagged{"q7 r3 t0 a1"}));
  EXPECT_EQ(wave[0].item_j, -1);
  EXPECT_EQ(tracker.Resolve(wave[0], /*expired=*/true),
            AssignmentTracker::Resolution::kFailed);
  EXPECT_TRUE(tracker.TakeWave(2, 10, 30).empty());
  ExpectStats(tracker.stats(), /*scheduled=*/2, /*completed=*/0,
              /*expired=*/2, /*requeued=*/1, /*failed=*/1);
}

// A purchase larger than the crowd is worked off over several waves, with
// consecutive task indices and the purchase's identity on every task.
TEST(AssignmentTrackerTest, PurchaseLargerThanCapacitySpansWaves) {
  AssignmentTracker tracker(/*max_attempts=*/4);
  EnqueuePurchase(&tracker, /*query=*/5, /*request_seq=*/2, 6, 9, 7);
  std::vector<std::string> tags;
  for (int64_t round = 0; round < 3; ++round) {
    const std::vector<Assignment> wave =
        tracker.TakeWave(round, /*capacity=*/3, /*per_pair_cap=*/30);
    EXPECT_EQ(wave.size(), round < 2 ? 3u : 1u);
    for (const Assignment& a : wave) {
      EXPECT_EQ(a.seed_stream, 5);
      EXPECT_EQ(a.item_i, 6);
      EXPECT_EQ(a.item_j, 9);
      EXPECT_EQ(tracker.Resolve(a, /*expired=*/false),
                AssignmentTracker::Resolution::kCompleted);
    }
    const std::vector<std::string> wave_tags = Tags(wave);
    tags.insert(tags.end(), wave_tags.begin(), wave_tags.end());
  }
  EXPECT_EQ(tags, (Tagged{"q5 r2 t0 a0", "q5 r2 t1 a0", "q5 r2 t2 a0",
                          "q5 r2 t3 a0", "q5 r2 t4 a0", "q5 r2 t5 a0",
                          "q5 r2 t6 a0"}));
  EXPECT_TRUE(tracker.TakeWave(3, 3, 30).empty());
  ExpectStats(tracker.stats(), /*scheduled=*/7, /*completed=*/7, 0, 0, 0);
}

// ----- scheduler and service ---------------------------------------------------

// The core serving invariant: a query served through AsyncPlatform buys the
// exact answer, TMC, and private round count it would buy on a private
// CrowdPlatform with the same seed — sharing the crowd never changes what
// a query pays, only when its work gets scheduled.
TEST(AsyncPlatformTest, ServedQueryMatchesPrivateRun) {
  const auto dataset = data::MakeUniformLadder(20, 1.0, 0.6);
  judgment::ComparisonOptions comparison;
  baselines::HeapSortTopK algorithm(comparison);

  crowd::CrowdPlatform direct(dataset.get(), /*seed=*/123);
  const core::TopKResult expected = algorithm.Run(&direct, 5);

  BatchScheduler scheduler(ReliableCrowd(), /*seed=*/999);
  core::TopKResult served;
  int64_t served_microtasks = 0;
  int64_t served_rounds = 0;
  scheduler.AdmitQuery(0, /*seed_stream=*/0, [&] {
    AsyncPlatform platform(dataset.get(), /*seed=*/123, &scheduler, 0);
    served = algorithm.Run(&platform, 5);
    platform.Drain();
    served_microtasks = platform.total_microtasks();
    served_rounds = platform.rounds();
  });
  PumpScheduler(&scheduler, {0});

  EXPECT_EQ(served.items, expected.items);
  EXPECT_EQ(served_microtasks, direct.total_microtasks());
  EXPECT_EQ(served_rounds, direct.rounds());
}

// Round-robin wave selection must not starve anyone: four identical
// saturating queries (combined demand = 2x the crowd's W slots) have to
// finish within a couple of global rounds of each other.
TEST(SchedulerTest, FairnessUnderSaturation) {
  const auto dataset = data::MakeUniformLadder(8, 1.0, 0.5);
  ScriptedAlgorithm algorithm(/*rounds=*/6, /*per_round=*/10);

  ServeOptions options;
  options.schedule = ReliableCrowd();
  options.schedule.crowd_workers = 20;   // demand: 4 queries x 10 = 40
  options.schedule.per_pair_batch = 10;
  options.max_inflight = 4;

  std::vector<QueryRequest> requests(4);
  for (QueryRequest& request : requests) {
    request.algorithm = &algorithm;
    request.dataset = dataset.get();
    request.k = 3;
  }
  QueryService service(options);
  const std::vector<QueryOutcome> outcomes =
      service.Replay(requests, std::vector<double>(4, 0.0));

  int64_t min_rounds = outcomes[0].rounds_observed;
  int64_t max_rounds = outcomes[0].rounds_observed;
  for (const QueryOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    min_rounds = std::min(min_rounds, outcome.rounds_observed);
    max_rounds = std::max(max_rounds, outcome.rounds_observed);
  }
  // Everyone needed >= 2 global rounds per script round (demand 2x W), and
  // the round-robin keeps the finish spread within one extra round.
  EXPECT_GE(min_rounds, 12);
  EXPECT_LE(max_rounds - min_rounds, 1);
}

// Thousands of queries in flight at once, each on its own fiber: all 4096
// are admitted together and must finish OK, the crowd must have worked off
// exactly the microtasks they bought, and — with enough workers for every
// query every round and no straggler past the deadline — each observes
// exactly its private round count.
TEST(QueryServiceTest, ThousandsOfQueriesInFlight) {
  constexpr int64_t kQueries = 4096;
  const auto dataset = data::MakeUniformLadder(8, 1.0, 0.5);
  ScriptedAlgorithm algorithm(/*rounds=*/3, /*per_round=*/2);

  ServeOptions options;
  options.schedule = ReliableCrowd();
  options.schedule.crowd_workers = 2 * kQueries;
  options.schedule.deadline_seconds = 3600.0;
  options.max_inflight = kQueries;

  std::vector<QueryRequest> requests(kQueries);
  for (QueryRequest& request : requests) {
    request.algorithm = &algorithm;
    request.dataset = dataset.get();
    request.k = 3;
  }
  QueryService service(options);
  const std::vector<QueryOutcome> outcomes =
      service.Replay(requests, std::vector<double>(kQueries, 0.0));

  int64_t bought = 0;
  for (const QueryOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.rounds_observed, outcome.rounds_private);
    bought += outcome.total_microtasks;
  }
  EXPECT_EQ(bought, kQueries * 3 * 2);
  EXPECT_EQ(service.assignment_stats().completed, bought);
  EXPECT_EQ(service.total_rounds(), 3);
}

// Stragglers: with a high abandonment rate, assignments must observably
// expire and be requeued, yet every query still completes successfully as
// long as retries remain.
TEST(SchedulerTest, ExpiredAssignmentsAreRequeued) {
  const auto dataset = data::MakeUniformLadder(8, 1.0, 0.5);
  ScriptedAlgorithm algorithm(/*rounds=*/4, /*per_round=*/15);

  ServeOptions options;
  options.schedule.abandon_probability = 0.5;
  options.schedule.max_attempts = 16;

  std::vector<QueryRequest> requests(2);
  for (QueryRequest& request : requests) {
    request.algorithm = &algorithm;
    request.dataset = dataset.get();
    request.k = 3;
  }
  QueryService service(options);
  const std::vector<QueryOutcome> outcomes =
      service.Replay(requests, {0.0, 0.0});

  for (const QueryOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  }
  const AssignmentStats stats = service.assignment_stats();
  EXPECT_GT(stats.expired, 0);
  EXPECT_GT(stats.requeued, 0);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.completed, outcomes[0].total_microtasks +
                                 outcomes[1].total_microtasks);
  // The per-query telemetry sees the same retries.
  EXPECT_GT(outcomes[0].requeued_assignments + outcomes[1].requeued_assignments,
            0);
}

// Bounded retries: when every attempt is abandoned, each assignment fails
// after max_attempts and the query is reported kResourceExhausted — but the
// replay still terminates and returns an outcome (no deadlock on the
// barrier).
TEST(SchedulerTest, BoundedRetriesFailTheQuery) {
  const auto dataset = data::MakeUniformLadder(8, 1.0, 0.5);
  ScriptedAlgorithm algorithm(/*rounds=*/2, /*per_round=*/5);

  ServeOptions options;
  options.schedule.abandon_probability = 1.0;
  options.schedule.max_attempts = 2;

  std::vector<QueryRequest> requests(1);
  requests[0].algorithm = &algorithm;
  requests[0].dataset = dataset.get();
  requests[0].k = 3;
  QueryService service(options);
  const std::vector<QueryOutcome> outcomes = service.Replay(requests, {0.0});

  EXPECT_FALSE(outcomes[0].rejected);
  EXPECT_EQ(outcomes[0].status.code(), util::StatusCode::kResourceExhausted);
  const AssignmentStats stats = service.assignment_stats();
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.failed, 10);              // 2 rounds x 5 microtasks
  EXPECT_EQ(stats.scheduled, 2 * stats.failed);  // max_attempts each
}

// No-show faults (fault::FaultPlan::no_show_fraction routed through
// ScheduleOptions::no_show_probability): assignments that never return must
// expire at the round deadline, surface in the serve/* retry counters of
// the query outcome, and — with retries left — still let every query
// complete.
TEST(SchedulerTest, NoShowFaultsExpireRequeueAndRecover) {
  const auto dataset = data::MakeUniformLadder(8, 1.0, 0.5);
  ScriptedAlgorithm algorithm(/*rounds=*/4, /*per_round=*/15);

  fault::FaultPlan plan;
  plan.no_show_fraction = 0.4;

  ServeOptions options;
  options.schedule = ReliableCrowd();  // isolate the no-show fault
  options.schedule.no_show_probability = fault::NoShowProbability(plan);
  options.schedule.max_attempts = 16;

  std::vector<QueryRequest> requests(2);
  for (QueryRequest& request : requests) {
    request.algorithm = &algorithm;
    request.dataset = dataset.get();
    request.k = 3;
  }
  QueryService service(options);
  const std::vector<QueryOutcome> outcomes = service.Replay(requests, {0.0, 0.0});

  int64_t expired = 0, requeued = 0;
  for (const QueryOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    expired += outcome.expired_assignments;
    requeued += outcome.requeued_assignments;
  }
  // ~40% of attempts are no-shows, so retries must be visible per query.
  EXPECT_GT(expired, 0);
  EXPECT_GT(requeued, 0);
  const AssignmentStats stats = service.assignment_stats();
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.expired, expired);
  EXPECT_EQ(stats.completed, outcomes[0].total_microtasks +
                                 outcomes[1].total_microtasks);
}

// An all-no-show crowd: every attempt waits out the full deadline, bounded
// retries kick in, and the query ends kResourceExhausted without stalling
// the replay loop.
TEST(SchedulerTest, AllNoShowCrowdFailsBoundedWithoutStalling) {
  const auto dataset = data::MakeUniformLadder(8, 1.0, 0.5);
  ScriptedAlgorithm algorithm(/*rounds=*/2, /*per_round=*/5);

  ServeOptions options;
  options.schedule = ReliableCrowd();
  options.schedule.no_show_probability = 1.0;
  options.schedule.max_attempts = 3;
  options.schedule.deadline_seconds = 60.0;

  std::vector<QueryRequest> requests(1);
  requests[0].algorithm = &algorithm;
  requests[0].dataset = dataset.get();
  requests[0].k = 3;
  QueryService service(options);
  const std::vector<QueryOutcome> outcomes = service.Replay(requests, {0.0});

  EXPECT_FALSE(outcomes[0].rejected);
  EXPECT_EQ(outcomes[0].status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(outcomes[0].expired_assignments, outcomes[0].requeued_assignments +
                                                 10);  // 10 permanent failures
  const AssignmentStats stats = service.assignment_stats();
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.failed, 10);              // 2 rounds x 5 microtasks
  EXPECT_EQ(stats.scheduled, 3 * stats.failed);  // max_attempts each
  // Every expiring round waited out the deadline on the simulated clock.
  EXPECT_GE(service.makespan_seconds(), 3 * options.schedule.deadline_seconds);
}

// A bounded admission queue rejects arrivals that find both the in-flight
// window and the queue full.
TEST(QueryServiceTest, AdmissionQueueOverflowRejects) {
  const auto dataset = data::MakeUniformLadder(8, 1.0, 0.5);
  ScriptedAlgorithm algorithm(/*rounds=*/4, /*per_round=*/5);

  ServeOptions options;
  options.schedule = ReliableCrowd();
  options.max_inflight = 1;
  options.max_queue = 0;

  std::vector<QueryRequest> requests(2);
  for (QueryRequest& request : requests) {
    request.algorithm = &algorithm;
    request.dataset = dataset.get();
    request.k = 3;
  }
  // Query 1 arrives while query 0 is still in flight (rounds take ~15 s
  // each) and there is no queue to wait in.
  QueryService service(options);
  const std::vector<QueryOutcome> outcomes =
      service.Replay(requests, {0.0, 10.0});

  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_EQ(outcomes[0].reject_reason, RejectReason::kNone);
  EXPECT_TRUE(outcomes[1].rejected);
  EXPECT_EQ(outcomes[1].status.code(), util::StatusCode::kResourceExhausted);
  // The machine-readable reason the network front-end maps to an error
  // frame (no string-matching on the status message).
  EXPECT_EQ(outcomes[1].reject_reason, RejectReason::kQueueFull);
}

// The determinism contract of the whole layer: same options + seed + trace
// => bit-identical rendered report and per-query table on two fresh
// services, stragglers included — no state leaks from one replay into the
// next, and nothing depends on pointer or heap order.
TEST(QueryServiceTest, ReportBitIdenticalAcrossRepeatedReplays) {
  const auto dataset = data::MakeUniformLadder(16, 1.0, 0.8);
  judgment::ComparisonOptions comparison;
  baselines::HeapSortTopK heap(comparison);
  baselines::QuickSelectTopK quick(comparison);
  core::TopKAlgorithm* algorithms[] = {&heap, &quick};

  const std::vector<double> arrivals = PoissonArrivals(10, 0.01, 77);
  std::vector<QueryRequest> requests(10);
  for (int64_t q = 0; q < 10; ++q) {
    requests[q].algorithm = algorithms[q % 2];
    requests[q].dataset = dataset.get();
    requests[q].k = 4;
  }

  std::string rendered[2];
  std::string tables[2];
  for (int v = 0; v < 2; ++v) {
    ServeOptions options;
    options.schedule.abandon_probability = 0.1;  // exercise requeues too
    options.max_inflight = 4;
    options.seed = 77;
    QueryService service(options);
    const std::vector<QueryOutcome> outcomes =
        service.Replay(requests, arrivals);
    rendered[v] = RenderServeReport(
        BuildServeReport(outcomes, service.assignment_stats(),
                         service.makespan_seconds(), service.total_rounds()));
    tables[v] = RenderQueryTable(outcomes);
  }
  EXPECT_EQ(rendered[0], rendered[1]);
  EXPECT_EQ(tables[0], tables[1]);
}

// Pins the machine-readable report schema and the per-query table to
// golden files. The JSONL output is what the crash-recovery CI job
// byte-diffs and what external dashboards parse, so schema drift must be a
// deliberate, reviewed act: regenerate with CROWDTOPK_UPDATE_GOLDEN=1
// (writes the goldens in the source tree) and commit the diff.
//
// Two configurations: a narrow one (in-flight 2, bounded queue, no cache)
// that exercises queueing and rejection, and a wide one where every query
// is in flight at once over a shared cache with transitivity, which pins
// the per-round stepping order of many concurrent queries.
TEST(ReportTest, JsonlMatchesGoldenFile) {
  struct GoldenConfig {
    const char* name;  // golden file stem under tests/golden
    int64_t items;
    int64_t queries;
    int64_t k;
    double rate;
    int64_t max_inflight;
    int64_t max_queue;
    bool cache;
  };
  const GoldenConfig configs[] = {
      {"serve_report", 12, 6, 3, 0.01, 2, 2, false},
      {"serve_report_wide_cached", 16, 12, 4, 0.05, 12, -1, true},
  };
  judgment::ComparisonOptions comparison;
  baselines::HeapSortTopK heap(comparison);
  baselines::QuickSelectTopK quick(comparison);
  core::SprOptions spr_options;
  spr_options.comparison = comparison;
  core::Spr spr(spr_options);
  core::TopKAlgorithm* algorithms[] = {&heap, &quick, &spr};

  for (const GoldenConfig& config : configs) {
    SCOPED_TRACE(config.name);
    const auto dataset = data::MakeUniformLadder(config.items, 1.0, 0.8);
    const std::vector<double> arrivals =
        PoissonArrivals(config.queries, config.rate, 2017);
    std::vector<QueryRequest> requests(config.queries);
    // The narrow configuration predates SPR in the golden; keep its
    // heap/quick alternation so the committed bytes stay put.
    const int64_t algorithm_count = config.cache ? 3 : 2;
    for (int64_t q = 0; q < config.queries; ++q) {
      requests[q].algorithm = algorithms[q % algorithm_count];
      requests[q].dataset = dataset.get();
      requests[q].k = config.k;
    }

    ServeOptions options;
    options.schedule.abandon_probability = 0.1;  // exercise requeue columns
    options.max_inflight = config.max_inflight;
    options.max_queue = config.max_queue;  // narrow: force REJECTED rows
    options.cache.enabled = config.cache;
    options.cache.transitivity = config.cache;
    options.seed = 2017;
    QueryService service(options);
    const std::vector<QueryOutcome> outcomes =
        service.Replay(requests, arrivals);
    const std::string rendered[] = {
        RenderServeReportJsonl(
            BuildServeReport(outcomes, service.assignment_stats(),
                             service.makespan_seconds(),
                             service.total_rounds()),
            outcomes),
        RenderQueryTable(outcomes)};
    const std::string paths[] = {
        std::string(CROWDTOPK_GOLDEN_DIR) + "/" + config.name + ".jsonl",
        std::string(CROWDTOPK_GOLDEN_DIR) + "/" + config.name + ".table"};

    for (int f = 0; f < 2; ++f) {
      if (util::GetEnvBool("CROWDTOPK_UPDATE_GOLDEN", false)) {
        ASSERT_TRUE(util::WriteFileAtomic(paths[f], rendered[f]).ok());
        continue;
      }
      std::string golden;
      ASSERT_TRUE(util::ReadFileToString(paths[f], &golden).ok())
          << "missing " << paths[f]
          << " — run once with CROWDTOPK_UPDATE_GOLDEN=1";
      EXPECT_EQ(rendered[f], golden)
          << paths[f] << " drifted; if intentional, regenerate the golden "
          << "with CROWDTOPK_UPDATE_GOLDEN=1 and commit it";
    }
  }
  if (util::GetEnvBool("CROWDTOPK_UPDATE_GOLDEN", false)) {
    GTEST_SKIP() << "goldens updated in " << CROWDTOPK_GOLDEN_DIR;
  }
}

// ----- golden JSONL round trip ---------------------------------------------

// Raw value text of `"key":` in one fixed-schema JSONL line: the quoted
// body for strings, the bracketed body for arrays, the token up to the
// next delimiter otherwise. The schema is printf-generated with a fixed
// key order, so plain substring extraction is exact.
std::string JsonValue(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << "no \"" << key << "\" in: " << line;
  if (pos == std::string::npos) return "";
  const size_t begin = pos + needle.size();
  if (line[begin] == '"') {
    const size_t end = line.find('"', begin + 1);
    return line.substr(begin + 1, end - begin - 1);
  }
  if (line[begin] == '[') {
    const size_t end = line.find(']', begin);
    return line.substr(begin, end - begin + 1);
  }
  return line.substr(begin, line.find_first_of(",}", begin) - begin);
}

int64_t JsonInt(const std::string& line, const std::string& key) {
  return std::strtoll(JsonValue(line, key).c_str(), nullptr, 10);
}

double JsonDouble(const std::string& line, const std::string& key) {
  return std::strtod(JsonValue(line, key).c_str(), nullptr);
}

// Round trip through the pinned report: parse the golden JSONL back into
// ServeReport + QueryOutcome structs, re-render, and byte-diff against the
// golden. JsonlMatchesGoldenFile pins render(fresh replay); this pins
// render(parse(x)) == x, so the schema stays faithfully parseable — a
// consumer can reconstruct every rendered field, including the %.6f
// doubles, with no information lost to formatting.
TEST(ReportTest, GoldenJsonlReparsesAndRerendersByteIdentically) {
  if (util::GetEnvBool("CROWDTOPK_UPDATE_GOLDEN", false)) {
    GTEST_SKIP() << "goldens being regenerated; see JsonlMatchesGoldenFile";
  }
  const std::string golden_path =
      std::string(CROWDTOPK_GOLDEN_DIR) + "/serve_report.jsonl";
  std::string golden;
  ASSERT_TRUE(util::ReadFileToString(golden_path, &golden).ok())
      << "missing " << golden_path
      << " — run once with CROWDTOPK_UPDATE_GOLDEN=1";

  ServeReport report;
  std::vector<QueryOutcome> outcomes;
  size_t pos = 0;
  while (pos < golden.size()) {
    const size_t eol = golden.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "golden must end with a newline";
    const std::string line = golden.substr(pos, eol - pos);
    pos = eol + 1;
    const std::string record = JsonValue(line, "record");
    if (record == "summary") {
      report.queries = JsonInt(line, "queries");
      report.completed = JsonInt(line, "completed");
      report.failed = JsonInt(line, "failed");
      report.rejected = JsonInt(line, "rejected");
      report.makespan_seconds = JsonDouble(line, "makespan_seconds");
      report.total_rounds = JsonInt(line, "total_rounds");
      report.throughput_per_hour = JsonDouble(line, "throughput_per_hour");
      report.total_microtasks = JsonInt(line, "total_microtasks");
      report.mean_queue_wait_seconds =
          JsonDouble(line, "mean_queue_wait_seconds");
      report.mean_precision = JsonDouble(line, "mean_precision");
      report.p50_rounds = JsonDouble(line, "p50_rounds");
      report.p95_rounds = JsonDouble(line, "p95_rounds");
      report.p99_rounds = JsonDouble(line, "p99_rounds");
      report.p50_seconds = JsonDouble(line, "p50_seconds");
      report.p95_seconds = JsonDouble(line, "p95_seconds");
      report.p99_seconds = JsonDouble(line, "p99_seconds");
      report.assignments.scheduled = JsonInt(line, "assignments_scheduled");
      report.assignments.completed = JsonInt(line, "assignments_completed");
      report.assignments.expired = JsonInt(line, "assignments_expired");
      report.assignments.requeued = JsonInt(line, "assignments_requeued");
      report.assignments.failed = JsonInt(line, "assignments_failed");
      continue;
    }
    ASSERT_EQ(record, "query") << line;
    QueryOutcome o;
    o.query_id = JsonInt(line, "query_id");
    o.algorithm = JsonValue(line, "algorithm");
    const std::string status = JsonValue(line, "status");
    o.rejected = status == "REJECTED";
    if (status == "FAILED") o.status = util::Status::Internal("parsed");
    o.arrival_seconds = JsonDouble(line, "arrival_seconds");
    o.start_seconds = JsonDouble(line, "start_seconds");
    o.finish_seconds = JsonDouble(line, "finish_seconds");
    o.latency_seconds = JsonDouble(line, "latency_seconds");
    o.rounds_observed = JsonInt(line, "rounds_observed");
    o.rounds_private = JsonInt(line, "rounds_private");
    o.total_microtasks = JsonInt(line, "total_microtasks");
    o.expired_assignments = JsonInt(line, "expired_assignments");
    o.requeued_assignments = JsonInt(line, "requeued_assignments");
    o.precision_at_k = JsonDouble(line, "precision_at_k");
    o.cache_hits = JsonInt(line, "cache_hits");
    o.cache_topups = JsonInt(line, "cache_topups");
    o.cache_inferred = JsonInt(line, "cache_inferred");
    o.cache_misses = JsonInt(line, "cache_misses");
    std::string items = JsonValue(line, "items");
    ASSERT_GE(items.size(), 2u) << line;
    items = items.substr(1, items.size() - 2);  // strip [ ]
    for (size_t start = 0; start < items.size();) {
      size_t comma = items.find(',', start);
      if (comma == std::string::npos) comma = items.size();
      o.items.push_back(static_cast<crowd::ItemId>(
          std::strtoll(items.substr(start, comma - start).c_str(), nullptr,
                       10)));
      start = comma + 1;
    }
    outcomes.push_back(std::move(o));
  }
  ASSERT_GT(outcomes.size(), 0u);
  EXPECT_EQ(RenderServeReportJsonl(report, outcomes), golden)
      << "parse -> render is not the identity on the pinned report";
}

// Nearest-rank percentile sanity.
TEST(ReportTest, PercentileNearestRank) {
  const std::vector<double> values = {5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(PercentileNearestRank(values, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(values, 95.0), 5.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(values, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank({}, 50.0), 0.0);
}

}  // namespace
}  // namespace crowdtopk::serve
