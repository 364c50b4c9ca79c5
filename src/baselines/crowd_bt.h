// CrowdBT baseline (Section 6.5, after Chen et al. [9]).
//
// A non-confidence-aware heuristic: spend a *fixed* budget on binary votes
// over randomly chosen pairs, fit Bradley-Terry-Luce scores by maximum
// likelihood (L-BFGS, as the paper optimises with BFGS [31]), and return the
// top-k by fitted score. Our simulated workers are homogeneous, so the
// per-worker reliability term of the original CrowdBT reduces to the plain
// BTL likelihood.

#ifndef CROWDTOPK_BASELINES_CROWD_BT_H_
#define CROWDTOPK_BASELINES_CROWD_BT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/topk_algorithm.h"

namespace crowdtopk::baselines {

class CrowdBt : public core::TopKAlgorithm {
 public:
  struct Options {
    // Total microtask budget (the harness sets this to SPR's measured TMC
    // for fairness, as in Fig. 14).
    int64_t total_budget = 100000;
    // Microtasks distributed per batch round.
    int64_t batch_size = 30;
    // L-BFGS iterations (the paper runs BFGS for 100 iterations).
    int max_iterations = 100;
    // L2 regularisation of the BTL scores (keeps the likelihood bounded for
    // items with one-sided records).
    double l2_penalty = 0.05;
  };

  explicit CrowdBt(Options options) : options_(options) {}

  std::string name() const override { return "CrowdBT"; }

  core::TopKResult Run(crowd::CrowdPlatform* platform, int64_t k) override;

  // Run() publishes the fitted scores below, so concurrent repetitions on
  // one CrowdBt object would race; the bench harness serialises them.
  bool concurrent_runs_safe() const override { return false; }

  // Fitted BTL scores of the last Run (index = item id); for analyses.
  const std::vector<double>& fitted_scores() const { return fitted_scores_; }

 private:
  Options options_;
  std::vector<double> fitted_scores_;
};

}  // namespace crowdtopk::baselines

#endif  // CROWDTOPK_BASELINES_CROWD_BT_H_
