// The benchmark's workloads (README.md explains why each exists).
//
// Each workload builds its inputs from the seed alone, repeats its unit of
// work for about `seconds` (at least kMinRepetitions times; see
// StartAnotherRepetition), checks every output, and reports:
//   untraced (trace = false): the end-to-end metrics, medians over
//     repetitions, with decorators and spans off;
//   traced (trace = true): a shorter untraced pass for reference, one
//     repetition with the decorators and spans on, and the per-layer
//     probes of the layers the workload exercises;
//   setup-only (setup_samples > 0): nothing but `setup_samples` timed
//     setups, reported as setup_s (their median). run.py runs this mode in
//     several fresh processes (see README.md, "setup_s").

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/topk_algorithm.h"
#include "data/dataset.h"
#include "measure.h"

namespace crowdtopk::perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 20170514;
  double seconds = 10.0;
  bool trace = false;
  int setup_samples = 0;  // > 0: setup-only mode
  // Scratch directory for persist/trace/span output; must exist.
  std::string work_dir;
};

struct RunResult {
  // Every failed correctness check, in detection order; empty = correct.
  std::vector<std::string> errors;
  FailureTally tally;  // over every query the measured phase attempted
  std::vector<Metric> metrics;
  // Free-form lines printed before the metrics (env, breakdowns, spans).
  std::vector<std::string> info;

  void Fail(std::string message) { errors.push_back(std::move(message)); }
  void Add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(note)});
  }
};

// The request mix of every workload, assigned round-robin.
inline constexpr const char* kAlgorithms[] = {"spr", "tourtree", "heapsort",
                                              "quickselect"};

inline constexpr int kMinRepetitions = 3;

// What every workload's repetition measures.
struct RepBase {
  double wall_s = 0.0;  // the measured phase
  double cpu_s = 0.0;   // user + sys over the measured phase
  FailureTally tally;
};

// OK queries of one repetition per wall second.
double QueriesPerSecond(const RepBase& rep);

// Repeats `run_one()` for about `seconds` (at least `min_reps` times),
// merging each repetition's tally into `result`. Stops once a check failed.
template <typename Rep, typename F>
std::vector<Rep> RunReps(double seconds, int min_reps, RunResult* result,
                         F run_one) {
  std::vector<Rep> reps;
  const double start = NowSeconds();
  while (StartAnotherRepetition(start, static_cast<int>(reps.size()),
                                min_reps, seconds)) {
    reps.push_back(run_one());
    result->tally.Merge(reps.back().tally);
    if (!result->errors.empty()) break;
  }
  return reps;
}

// Setup-only mode: `build(&error)` timed `samples` times, each object it
// returns destroyed untimed; setup_s is their median. `build` sets `error`
// when setup failed.
template <typename F>
RunResult SetupOnly(int samples, F build) {
  RunResult result;
  std::vector<double> seconds;
  for (int i = 0; i < samples; ++i) {
    std::string error;
    const double s0 = NowSeconds();
    {
      auto built = build(&error);
      seconds.push_back(NowSeconds() - s0);
    }
    result.tally.Count(error.empty() ? Cause::kOk : Cause::kOther);
    if (!error.empty()) {
      result.Fail("setup: " + error);
      break;
    }
  }
  result.Add("setup_s", Median(seconds), "s",
             "median, n=" + std::to_string(seconds.size()));
  return result;
}

// Runs `algorithms[q]` for every q, one query at a time, each on a private
// crowd::CrowdPlatform seeded SplitSeed(seed, q): the same queries with no
// serving layer, the compute floor under them. Wall seconds.
double PrivateRunSeconds(const data::Dataset* dataset,
                         const std::vector<core::TopKAlgorithm*>& algorithms,
                         int64_t k, uint64_t seed);

RunResult RunServeWide(const RunConfig& config);
RunResult RunServeCachedDurable(const RunConfig& config);
RunResult RunRouterLoopback(const RunConfig& config);

}  // namespace crowdtopk::perfbench

#endif  // PERFBENCH_WORKLOADS_H_
