#include "serve/assignment_tracker.h"

#include <map>
#include <tuple>

#include "util/check.h"

namespace crowdtopk::serve {

AssignmentTracker::AssignmentTracker(int64_t max_attempts)
    : max_attempts_(max_attempts) {
  CROWDTOPK_CHECK_GE(max_attempts, 1);
}

void AssignmentTracker::Enqueue(const Assignment& first, int64_t count) {
  CROWDTOPK_CHECK_EQ(first.attempt, 0);
  CROWDTOPK_CHECK_GE(count, 1);
  pending_[first.query_id].push_back({first, count});
}

std::vector<Assignment> AssignmentTracker::TakeWave(int64_t rotation,
                                                    int64_t capacity,
                                                    int64_t per_pair_cap) {
  CROWDTOPK_CHECK_GE(per_pair_cap, 1);
  std::vector<Assignment> wave;
  if (capacity <= 0 || pending_.empty()) return wave;

  // Every FIFO in pending_ has work; node pointers stay valid until the
  // emptied ones are erased below.
  std::vector<std::deque<Run>*> fifos;
  fifos.reserve(pending_.size());
  for (auto& [query, fifo] : pending_) fifos.push_back(&fifo);

  // (query, i, j) -> assignments taken this wave; enforces the eta cap.
  std::map<std::tuple<int64_t, crowd::ItemId, crowd::ItemId>, int64_t> taken;
  const size_t start = static_cast<size_t>(
      rotation % static_cast<int64_t>(fifos.size()));
  bool progress = true;
  while (static_cast<int64_t>(wave.size()) < capacity && progress) {
    progress = false;
    for (size_t s = 0;
         s < fifos.size() && static_cast<int64_t>(wave.size()) < capacity;
         ++s) {
      std::deque<Run>& fifo = *fifos[(start + s) % fifos.size()];
      if (fifo.empty()) continue;
      Run& head = fifo.front();
      auto& pair_count =
          taken[{head.next.query_id, head.next.item_i, head.next.item_j}];
      // The head's pair already has eta tasks in flight this round; the
      // query sits out this pass (its FIFO order must be preserved).
      if (pair_count >= per_pair_cap) continue;
      ++pair_count;
      wave.push_back(head.next);
      if (--head.remaining == 0) {
        fifo.pop_front();
      } else {
        ++head.next.task_index;
      }
      progress = true;
    }
  }
  std::erase_if(pending_,
                [](const auto& entry) { return entry.second.empty(); });
  stats_.scheduled += static_cast<int64_t>(wave.size());
  return wave;
}

AssignmentTracker::Resolution AssignmentTracker::Resolve(
    const Assignment& assignment, bool expired) {
  if (!expired) {
    ++stats_.completed;
    return Resolution::kCompleted;
  }
  ++stats_.expired;
  if (assignment.attempt + 1 >= max_attempts_) {
    ++stats_.failed;
    return Resolution::kFailed;
  }
  Assignment retry = assignment;
  ++retry.attempt;
  // Retries jump the queue so a straggling microtask cannot be pushed back
  // indefinitely by fresh purchases from its own query.
  pending_[retry.query_id].push_front({retry, 1});
  ++stats_.requeued;
  return Resolution::kRequeued;
}

}  // namespace crowdtopk::serve
