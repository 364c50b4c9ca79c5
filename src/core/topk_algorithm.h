// Common interface for crowdsourced top-k algorithms.
//
// Every algorithm (SPR and all baselines) consumes a CrowdPlatform and
// returns the ranked top-k plus the cost/latency it incurred, so the
// benchmark harnesses can treat them uniformly.

#ifndef CROWDTOPK_CORE_TOPK_ALGORITHM_H_
#define CROWDTOPK_CORE_TOPK_ALGORITHM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "crowd/platform.h"
#include "crowd/types.h"

namespace crowdtopk::core {

using crowd::ItemId;

struct TopKResult {
  // The answer, best item first; size min(k, N).
  std::vector<ItemId> items;
  // Total monetary cost: microtasks purchased during the run.
  int64_t total_microtasks = 0;
  // Query latency: batch rounds elapsed during the run (Section 5.5).
  int64_t rounds = 0;
};

class TopKAlgorithm {
 public:
  virtual ~TopKAlgorithm() = default;

  // Display name used in benchmark tables ("SPR", "TourTree", ...).
  virtual std::string name() const = 0;

  // Answers the top-k query over all of the platform's items. The platform
  // should be freshly constructed (counters at zero); the result copies the
  // platform's final counters.
  virtual TopKResult Run(crowd::CrowdPlatform* platform, int64_t k) = 0;

  // Whether concurrent Run() calls on this *same object* (each with its own
  // platform) are safe, i.e. Run never writes to algorithm state. The
  // parallel repetition fan-out (exec/parallel_for.h) serialises
  // repetitions of algorithms that return false. Default true: most algorithms here
  // treat their options as read-only.
  virtual bool concurrent_runs_safe() const { return true; }
};

}  // namespace crowdtopk::core

#endif  // CROWDTOPK_CORE_TOPK_ALGORITHM_H_
