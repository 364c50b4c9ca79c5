// AssignmentTracker: straggler-tolerant bookkeeping of outsourced microtasks.
//
// Each microtask a query purchases through the serving layer must be worked
// off by the shared simulated crowd as one *assignment*. The tracker keeps
// a purchase of n microtasks as a single pending *run* (the next assignment
// plus a remaining count), so its memory scales with purchases, not with
// microtasks; TakeWave expands a run one assignment at a time, in task
// order. Crowd workers are slow and unreliable (Hui & Berberich, PAPERS.md:
// highly variable completion times and abandonment), so an assignment
// handed to a worker may expire — the worker abandons it or blows the round
// deadline — in which case the tracker requeues it, alone, as a run of one
// at the front of its query's FIFO with a bumped attempt counter. Retries
// are bounded: an assignment that expires `max_attempts` times is declared
// permanently failed, which the scheduler surfaces to the owning query as
// util::Status (kResourceExhausted).
//
// The tracker keeps one FIFO of pending runs per query that has work and
// selects each round's wave with a rotating round-robin over those queries,
// so no query starves while another floods the platform. Selection is a
// pure function of the tracker state and the rotation index — no clocks, no
// thread identity — which is what keeps the whole serving layer bit-
// deterministic. Not thread-safe; the BatchScheduler owns it.

#ifndef CROWDTOPK_SERVE_ASSIGNMENT_TRACKER_H_
#define CROWDTOPK_SERVE_ASSIGNMENT_TRACKER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "crowd/types.h"

namespace crowdtopk::serve {

// Identity and state of one outsourced microtask.
struct Assignment {
  int64_t query_id = 0;
  int64_t seed_stream = 0;  // latency-stream key (defaults to query_id)
  int64_t request_seq = 0;  // per-query purchase sequence number
  int64_t task_index = 0;   // unit index within that purchase
  crowd::ItemId item_i = 0;
  crowd::ItemId item_j = -1;  // -1 for graded single-item tasks
  int64_t attempt = 0;        // 0 on first dispatch, +1 per requeue
};

// Lifetime counters over all assignments the tracker has seen.
struct AssignmentStats {
  int64_t scheduled = 0;  // dispatch attempts handed to the crowd
  int64_t completed = 0;  // attempts that came back with a judgment
  int64_t expired = 0;    // attempts abandoned or past the deadline
  int64_t requeued = 0;   // expired attempts put back for retry
  int64_t failed = 0;     // microtasks dropped after max_attempts expiries
};

class AssignmentTracker {
 public:
  // An assignment is dispatched at most `max_attempts` times (>= 1).
  explicit AssignmentTracker(int64_t max_attempts);

  // Registers a purchase of `count` (>= 1) fresh microtasks (attempt 0) as
  // one run at the back of its query's FIFO: `first` and its successors
  // with task_index + 1, ..., + count - 1.
  void Enqueue(const Assignment& first, int64_t count);

  // Selects the next round's wave: at most `capacity` assignments in total
  // and at most `per_pair_cap` for any one (query, pair) — the paper's
  // per-pair batch bound eta (Section 5.5). Queries are served one
  // assignment at a time in ascending-id order starting from `rotation`
  // (pass the global round number), so saturating queries interleave
  // fairly; a query whose head pair is at the cap sits out the rest of the
  // wave. Selected assignments leave the pending FIFOs; the caller must
  // Resolve() each of them afterwards.
  std::vector<Assignment> TakeWave(int64_t rotation, int64_t capacity,
                                   int64_t per_pair_cap);

  enum class Resolution {
    kCompleted,  // judgment arrived in time
    kRequeued,   // expired; a run of one at the front of its query's FIFO
    kFailed,     // expired with retries exhausted; dropped for good
  };

  // Reports the simulated outcome of one assignment taken by TakeWave.
  Resolution Resolve(const Assignment& assignment, bool expired);

  const AssignmentStats& stats() const { return stats_; }
  int64_t max_attempts() const { return max_attempts_; }

 private:
  // Assignments `next`, `next` with task_index + 1, ..., `remaining` in all.
  struct Run {
    Assignment next;
    int64_t remaining = 0;
  };

  int64_t max_attempts_;
  // query id -> FIFO of pending runs, erased once empty (an empty deque
  // still holds a node buffer). Ordered map: wave selection iterates
  // queries in ascending id, independent of insertion order.
  std::map<int64_t, std::deque<Run>> pending_;
  AssignmentStats stats_;
};

}  // namespace crowdtopk::serve

#endif  // CROWDTOPK_SERVE_ASSIGNMENT_TRACKER_H_
