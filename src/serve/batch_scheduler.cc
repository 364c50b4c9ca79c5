#include "serve/batch_scheduler.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/random.h"

namespace crowdtopk::serve {
namespace {

// Salt separating the worker-latency seed stream from the per-query
// judgment streams derived elsewhere from the same master seed.
constexpr uint64_t kLatencyStream = 0x6c61746e63790001ULL;

}  // namespace

BatchScheduler::BatchScheduler(const ScheduleOptions& options, uint64_t seed)
    : options_(options),
      seed_(util::SplitSeed(seed, kLatencyStream)),
      tracker_(options.max_attempts) {
  CROWDTOPK_CHECK_GE(options.crowd_workers, 1);
  CROWDTOPK_CHECK_GE(options.per_pair_batch, 1);
  CROWDTOPK_CHECK(options.mean_task_seconds > 0.0);
  CROWDTOPK_CHECK(options.task_time_sigma >= 0.0);
  CROWDTOPK_CHECK(options.mean_pickup_seconds >= 0.0);
  CROWDTOPK_CHECK(options.abandon_probability >= 0.0 &&
                  options.abandon_probability <= 1.0);
  CROWDTOPK_CHECK(options.no_show_probability >= 0.0 &&
                  options.no_show_probability <= 1.0);
  CROWDTOPK_CHECK(options.deadline_seconds > 0.0);
  // Lognormal with mean m and sigma s has mu = ln(m) - s^2/2.
  lognormal_mu_ = std::log(options.mean_task_seconds) -
                  0.5 * options.task_time_sigma * options.task_time_sigma;
}

void BatchScheduler::AdmitQuery(int64_t query_id, int64_t seed_stream,
                                std::function<void()> driver) {
  CROWDTOPK_CHECK(queries_.find(query_id) == queries_.end());
  QueryState& q = queries_[query_id];
  q.seed_stream = seed_stream;
  q.fiber = std::make_unique<Fiber>(std::move(driver));
  q.barrier_round = round_;
  q.stats.admitted_round = round_;
  q.stats.admitted_seconds = now_seconds_;
}

bool BatchScheduler::Step(int64_t query_id) {
  QueryState& q = queries_.at(query_id);
  if (q.fiber == nullptr || !BarrierSatisfied(q) || !q.fiber->Resume()) {
    return false;
  }
  q.fiber.reset();
  // Queries drain before returning (AsyncPlatform::Drain), so no pending
  // work of this query can be left behind to stall the tracker.
  CROWDTOPK_CHECK_GE(q.resolved, q.posted);
  q.stats.finished_round = round_;
  q.stats.finished_seconds = now_seconds_;
  return true;
}

void BatchScheduler::PostPurchase(int64_t query_id, crowd::ItemId i,
                                  crowd::ItemId j, int64_t count) {
  if (count <= 0) return;
  QueryState& q = queries_.at(query_id);
  CROWDTOPK_CHECK(q.fiber != nullptr);
  const int64_t request_seq = q.next_request_seq++;
  tracker_.Enqueue({.query_id = query_id,
                    .seed_stream = q.seed_stream,
                    .request_seq = request_seq,
                    .task_index = 0,
                    .item_i = i,
                    .item_j = j},
                   count);
  q.posted += count;
}

void BatchScheduler::Barrier(int64_t query_id, int64_t rounds) {
  CROWDTOPK_CHECK_GE(rounds, 0);
  QueryState& q = queries_.at(query_id);
  q.barrier_round = round_ + rounds;
  while (!BarrierSatisfied(q)) q.fiber->Yield();
}

BatchScheduler::AttemptOutcome BatchScheduler::SimulateAttempt(
    const Assignment& assignment) const {
  // Pure function of (scheduler seed, assignment identity, attempt): the
  // same microtask retried later always draws the same worker. The stream
  // key is the query's seed_stream (== query_id unless a router overrode
  // it), so a re-dispatched query meets the same workers on its new shard.
  uint64_t seed = util::SplitSeed(seed_, assignment.seed_stream);
  seed = util::SplitSeed(seed, assignment.request_seq);
  seed = util::SplitSeed(seed, assignment.task_index);
  seed = util::SplitSeed(seed, assignment.attempt);
  util::Rng rng(seed);

  double pickup = 0.0;
  if (options_.mean_pickup_seconds > 0.0) {
    double u = rng.Uniform();
    while (u <= 0.0) u = rng.Uniform();
    pickup = -options_.mean_pickup_seconds * std::log(u);
  }
  double work = options_.mean_task_seconds;
  if (options_.task_time_sigma > 0.0) {
    work = std::exp(rng.Gaussian(lognormal_mu_, options_.task_time_sigma));
  }
  const bool abandoned = rng.Bernoulli(options_.abandon_probability);
  // Drawn after the honest-path coins so a zero rate leaves every existing
  // (seed, assignment) outcome untouched.
  const bool no_show = options_.no_show_probability > 0.0 &&
                       rng.Bernoulli(options_.no_show_probability);

  AttemptOutcome outcome;
  outcome.latency_seconds = pickup + work;
  outcome.expired = abandoned || no_show ||
                    outcome.latency_seconds > options_.deadline_seconds;
  // A no-show never returns: the round waits out the full deadline for it.
  if (no_show) outcome.latency_seconds = options_.deadline_seconds;
  return outcome;
}

void BatchScheduler::ExecuteRound() {
  const std::vector<Assignment> wave = tracker_.TakeWave(
      round_, options_.crowd_workers, options_.per_pair_batch);
  double duration = 0.0;
  bool any_expired = false;
  for (const Assignment& assignment : wave) {
    const AttemptOutcome outcome = SimulateAttempt(assignment);
    QueryState& q = queries_.at(assignment.query_id);
    switch (tracker_.Resolve(assignment, outcome.expired)) {
      case AssignmentTracker::Resolution::kCompleted:
        ++q.resolved;
        duration = std::max(duration, outcome.latency_seconds);
        break;
      case AssignmentTracker::Resolution::kRequeued:
        ++q.stats.expired_assignments;
        ++q.stats.requeued_assignments;
        any_expired = true;
        break;
      case AssignmentTracker::Resolution::kFailed:
        // Give up on the microtask so the barrier can release; the query
        // is marked failed and the service reports the status instead of
        // the (already computed) answer.
        ++q.resolved;
        ++q.stats.expired_assignments;
        ++q.stats.failed_assignments;
        any_expired = true;
        if (q.stats.status.ok()) {
          q.stats.status = util::Status::ResourceExhausted(
              "assignment for pair (" + std::to_string(assignment.item_i) +
              ", " + std::to_string(assignment.item_j) + ") of query " +
              std::to_string(assignment.query_id) + " expired " +
              std::to_string(tracker_.max_attempts()) + " times");
        }
        break;
    }
  }
  // The round is a barrier: if anything expired, the platform waited out
  // the full deadline before requeueing.
  if (any_expired) duration = options_.deadline_seconds;
  ++round_;
  now_seconds_ += duration;
}

}  // namespace crowdtopk::serve
