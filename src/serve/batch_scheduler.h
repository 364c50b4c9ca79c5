// BatchScheduler: shared-capacity round execution for concurrent queries.
//
// The paper's latency model runs one query against a private crowd: each
// batch round, every undecided pair advances by up to eta microtasks in
// parallel (Section 5.5). The serving layer generalises this to many
// queries competing for one crowd of W worker slots per round. Each
// admitted query runs on its own Fiber, posting purchases (PostPurchase)
// and yielding at round boundaries (Barrier); QueryService steps the
// fibers between rounds. ExecuteRound then runs one *global* round: a wave
// of at most W assignments from the AssignmentTracker (eta per pair,
// round-robin across queries), each worker's simulated pickup/work latency
// and abandonment, requeues, and the simulated clock.
//
// Worker latencies are derived per (query, request, task, attempt) via
// chained util::SplitSeed — never from a shared draw-order-dependent
// stream — so an assignment meets the same worker however the wave around
// it is composed: a requeued microtask, or a query a shard router
// re-dispatched to another engine, draws the identical latency.
//
// An assignment that expires max_attempts times is dropped and the owning
// query is marked failed (util::Status kResourceExhausted); the query still
// runs to completion — its judgments were delivered at purchase time — but
// the service reports the failure instead of the result.

#ifndef CROWDTOPK_SERVE_BATCH_SCHEDULER_H_
#define CROWDTOPK_SERVE_BATCH_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "crowd/types.h"
#include "serve/assignment_tracker.h"
#include "serve/fiber.h"
#include "util/status.h"

namespace crowdtopk::serve {

struct ScheduleOptions {
  // W: shared crowd worker slots per global round.
  int64_t crowd_workers = 100;
  // eta: per-(query, pair) microtask cap per round (Section 5.5).
  int64_t per_pair_batch = 30;
  // Worker latency model, mirroring crowd::SimulatorOptions (Appendix B:
  // ~11 s of work per question).
  double mean_pickup_seconds = 4.0;
  double mean_task_seconds = 11.0;
  double task_time_sigma = 0.35;
  // Probability a worker silently abandons an assignment.
  double abandon_probability = 0.03;
  // Probability an assignment lands on a no-show worker (fault-injection
  // layer, src/fault: fault::NoShowProbability): the worker accepts but
  // never submits, so the assignment always expires at the round deadline.
  // Distinct from abandonment, which still draws pickup/work latency and
  // may beat the deadline.
  double no_show_probability = 0.0;
  // Assignment deadline within a round: an assignment whose worker has not
  // submitted by then is declared expired and requeued. Also the round's
  // duration whenever at least one assignment expired (the barrier waits
  // out the deadline before giving up on stragglers).
  double deadline_seconds = 60.0;
  // Dispatch attempts per microtask before permanent failure.
  int64_t max_attempts = 4;
};

// Per-query serving statistics, readable once the query finished.
struct QueryServeStats {
  int64_t admitted_round = 0;
  double admitted_seconds = 0.0;
  int64_t finished_round = 0;
  double finished_seconds = 0.0;
  int64_t expired_assignments = 0;
  int64_t requeued_assignments = 0;
  int64_t failed_assignments = 0;
  util::Status status;  // first permanent assignment failure, if any
};

class BatchScheduler {
 public:
  // `seed` drives worker latencies only — judgment values belong to the
  // queries' own platforms.
  BatchScheduler(const ScheduleOptions& options, uint64_t seed);

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  // ----- serve-loop interface ------------------------------------------

  // Registers query `query_id` and maps its fiber, which will run `driver`
  // on the first Step(). `driver` runs the query to completion and must
  // Drain its AsyncPlatform before returning. `seed_stream` keys the
  // query's worker-latency stream (the query id, or the global id a shard
  // router stamped into QueryRequest::seed_stream).
  void AdmitQuery(int64_t query_id, int64_t seed_stream,
                  std::function<void()> driver);

  // Resumes the query's fiber if it is runnable — unfinished, and just
  // admitted or with its barrier condition met — until it yields at an
  // unsatisfied Barrier or its driver returns. Returns true when the driver
  // returned: the query is then finished (completion round/time stamped)
  // and its stack unmapped.
  bool Step(int64_t query_id);

  // Executes one global round. Call between Step() passes.
  void ExecuteRound();

  // Fast-forwards the simulated clock to `seconds` (only forward; used to
  // idle until the next arrival).
  void AdvanceTimeTo(double seconds) {
    now_seconds_ = std::max(now_seconds_, seconds);
  }

  double now_seconds() const { return now_seconds_; }
  int64_t round() const { return round_; }
  const QueryServeStats& QueryStats(int64_t query_id) const {
    return queries_.at(query_id).stats;
  }
  const AssignmentStats& assignment_stats() const { return tracker_.stats(); }

  // ----- query interface (inside the fiber, via AsyncPlatform) ---------

  // Registers `count` purchased microtasks for pair (i, j) of `query_id`
  // (j = -1 for graded tasks). Does not yield.
  void PostPurchase(int64_t query_id, crowd::ItemId i, crowd::ItemId j,
                    int64_t count);

  // Yields the query's fiber until all of its posted microtasks have been
  // worked off AND at least `rounds` further global rounds have closed.
  // `rounds` = 1 for NextRound, n for AccountRounds(n), 0 to drain pending
  // work without charging a round. Returns immediately when the condition
  // already holds.
  void Barrier(int64_t query_id, int64_t rounds);

 private:
  struct QueryState {
    int64_t seed_stream = 0;  // latency-stream key (global id under a router)
    std::unique_ptr<Fiber> fiber;  // null once finished
    int64_t posted = 0;     // microtasks registered via PostPurchase
    int64_t resolved = 0;   // microtasks completed or permanently failed
    int64_t barrier_round = 0;  // runnable no earlier than this global round
    int64_t next_request_seq = 0;
    QueryServeStats stats;
  };

  // One simulated worker attempt; pure function of the assignment identity.
  struct AttemptOutcome {
    bool expired = false;
    double latency_seconds = 0.0;
  };
  AttemptOutcome SimulateAttempt(const Assignment& assignment) const;

  bool BarrierSatisfied(const QueryState& q) const {
    return q.resolved >= q.posted && round_ >= q.barrier_round;
  }

  ScheduleOptions options_;
  uint64_t seed_;
  double lognormal_mu_;

  std::map<int64_t, QueryState> queries_;
  AssignmentTracker tracker_;
  int64_t round_ = 0;
  double now_seconds_ = 0.0;
};

}  // namespace crowdtopk::serve

#endif  // CROWDTOPK_SERVE_BATCH_SCHEDULER_H_
