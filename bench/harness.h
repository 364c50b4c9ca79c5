// Shared scaffolding for the paper-reproduction benchmark harnesses.
//
// Every bench binary prints the rows of one paper table/figure. Common knobs
// come from the environment so the binaries run argument-free:
//   CROWDTOPK_RUNS      repetitions per experiment point (paper: 100; the
//                       default here is smaller so a full `for b in bench/*`
//                       sweep finishes quickly)
//   CROWDTOPK_SEED      master seed (default 20170514)
//   CROWDTOPK_JOBS      worker threads for the repetitions of one experiment
//                       point (exec/parallel_for.h). 1 = serial loop,
//                       0/unset = hardware concurrency. Output tables are
//                       bit-identical for every value: run r's seed is
//                       util::SplitSeed(seed, r) regardless of which thread
//                       executes it, and per-run records are reduced in run
//                       order.
//   CROWDTOPK_TRACE     =1 attaches a telemetry recorder to traced runs and
//                       writes a JSONL trace + per-phase CSV per experiment
//                       point into CROWDTOPK_TRACE_DIR (default "."); set
//                       CROWDTOPK_TRACE_ALL_RUNS=1 to trace every repetition
//                       instead of just the first. Before dumping, the
//                       harness CHECKs that the trace's per-phase TMC/round
//                       totals equal the platform's aggregate counters.
//                       Schema and reduction recipes: docs/OBSERVABILITY.md.

#ifndef CROWDTOPK_BENCH_HARNESS_H_
#define CROWDTOPK_BENCH_HARNESS_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/heap_sort.h"
#include "baselines/pbr.h"
#include "baselines/quick_select.h"
#include "baselines/tournament_tree.h"
#include "core/spr.h"
#include "core/topk_algorithm.h"
#include "crowd/platform.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "exec/parallel_for.h"
#include "metrics/ranking_metrics.h"
#include "metrics/trace_aggregate.h"
#include "telemetry/recorder.h"
#include "util/check.h"
#include "util/env.h"
#include "util/random.h"
#include "util/table.h"

namespace crowdtopk::bench {

// Table 6 defaults (bold entries).
inline judgment::ComparisonOptions DefaultComparisonOptions() {
  judgment::ComparisonOptions options;
  options.alpha = 0.02;       // 1 - alpha = 0.98
  options.budget = 1000;      // B
  options.min_workload = 30;  // I
  options.batch_size = 30;    // eta
  options.estimator = judgment::Estimator::kStudent;
  return options;
}

inline int64_t DefaultK() { return 10; }

struct Averages {
  double tmc = 0.0;
  double rounds = 0.0;
  double ndcg = 0.0;
  double precision = 0.0;
};

// Monotone id distinguishing the experiment points of one bench binary
// (each AverageRuns/AverageOver call is one point). Bench binaries execute
// their points in a fixed order, so the id, and with it every trace file
// name, is stable across invocations.
inline int64_t NextTracePointId() {
  static int64_t next = 0;
  return next++;
}

// Runs `fn(run, run_seed)` for each repetition on CROWDTOPK_JOBS workers and
// reduces the returned records to run-order column means. The generic
// entry point for benches whose per-run record is not the standard
// Averages quadruple (wall-clock simulations, partition ablations, ...).
// `fn` must confine its side effects to its own run; run_seed is
// util::SplitSeed(seed, run).
inline std::vector<double> AverageOver(
    int64_t runs, uint64_t seed,
    const std::function<std::vector<double>(int64_t, uint64_t)>& fn) {
  NextTracePointId();  // keeps later points' trace file names stable
  return exec::ColumnMeans(exec::RunAll(runs, seed, util::BenchJobs(), fn));
}

// Verifies the trace agrees with the platform's own accounting, then dumps
// `<dir>/<bench>_<algo>_p<point>_r<run>.trace.jsonl` plus a sibling
// `.phases.csv` with the rolled-up per-phase TMC/latency decomposition.
inline void DumpTrace(const telemetry::TraceRecorder& recorder,
                      const crowd::CrowdPlatform& platform,
                      const std::string& algorithm_name, int64_t point,
                      int64_t run) {
  const metrics::PhaseStat totals =
      metrics::TraceTotals(recorder.events());
  CROWDTOPK_CHECK_EQ(totals.microtasks, platform.total_microtasks());
  CROWDTOPK_CHECK_EQ(totals.rounds, platform.rounds());

  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), "_p%lld_r%lld",
                static_cast<long long>(point), static_cast<long long>(run));
  const std::string stem = util::TraceDir() + "/" + util::ProgramName() +
                           "_" + metrics::TraceFileToken(algorithm_name) +
                           suffix;
  const util::Status status =
      metrics::WriteTraceFiles(recorder.events(), stem, algorithm_name);
  if (!status.ok()) {
    std::fprintf(stderr, "trace: %s\n", status.ToString().c_str());
    return;
  }
  std::fprintf(stderr, "trace: wrote %s.trace.jsonl\n", stem.c_str());
}

// Runs `algorithm` `runs` times on fresh platforms and averages cost,
// latency, and quality. Repetitions are fanned out on `jobs` workers (0 =
// hardware concurrency); run r is seeded with util::SplitSeed(seed, r) —
// a pure function of (seed, r), unlike the sequential seeder the serial
// loop used to draw from, whose r-th value depended on draw order and so
// would not survive parallel dispatch — and the per-run records are reduced
// in run order, so the result is bit-identical for every worker count.
// With CROWDTOPK_TRACE=1 each traced run additionally dumps a telemetry
// trace (see DumpTrace); the recorder is created inside the run's task, so
// it is owned by exactly one thread.
inline Averages AverageRunsWithJobs(const data::Dataset& dataset,
                                    core::TopKAlgorithm* algorithm, int64_t k,
                                    int64_t runs, uint64_t seed,
                                    int64_t jobs) {
  const bool trace = util::TraceEnabled();
  const bool trace_all = trace && util::TraceAllRuns();
  const int64_t point = NextTracePointId();
  // Algorithms whose Run mutates the algorithm object cannot share it
  // across concurrent repetitions; fall back to the serial path for them.
  if (!algorithm->concurrent_runs_safe()) jobs = 1;
  const std::vector<double> means = exec::ColumnMeans(exec::RunAll(
      runs, seed, jobs,
      [&](int64_t r, uint64_t run_seed) -> std::vector<double> {
        crowd::CrowdPlatform platform(&dataset, run_seed);
        telemetry::TraceRecorder recorder;
        if (trace && (trace_all || r == 0)) platform.SetRecorder(&recorder);
        const core::TopKResult result = algorithm->Run(&platform, k);
        if (platform.recorder() != nullptr) {
          DumpTrace(recorder, platform, algorithm->name(), point, r);
        }
        return {static_cast<double>(result.total_microtasks),
                static_cast<double>(result.rounds),
                metrics::Ndcg(dataset, result.items, k),
                metrics::PrecisionAtK(dataset, result.items, k)};
      }));
  Averages averages;
  if (means.empty()) return averages;  // runs == 0
  averages.tmc = means[0];
  averages.rounds = means[1];
  averages.ndcg = means[2];
  averages.precision = means[3];
  return averages;
}

inline Averages AverageRuns(const data::Dataset& dataset,
                            core::TopKAlgorithm* algorithm, int64_t k,
                            int64_t runs, uint64_t seed) {
  return AverageRunsWithJobs(dataset, algorithm, k, runs, seed,
                             util::BenchJobs());
}

// The four confidence-aware contenders of Sections 6.3/6.4 (SPR + the three
// traditional baselines), built for one comparison-options setting.
inline std::vector<std::unique_ptr<core::TopKAlgorithm>>
ConfidenceAwareMethods(const judgment::ComparisonOptions& options) {
  std::vector<std::unique_ptr<core::TopKAlgorithm>> methods;
  core::SprOptions spr_options;
  spr_options.comparison = options;
  methods.push_back(std::make_unique<core::Spr>(spr_options));
  methods.push_back(std::make_unique<baselines::TournamentTree>(options));
  methods.push_back(std::make_unique<baselines::HeapSortTopK>(options));
  methods.push_back(std::make_unique<baselines::QuickSelectTopK>(options));
  return methods;
}

inline void PrintPreamble(const std::string& what, int64_t runs,
                          uint64_t seed) {
  std::printf("%s\n", what.c_str());
  std::printf(
      "runs/point=%lld seed=%llu (override: CROWDTOPK_RUNS, "
      "CROWDTOPK_SEED)\n\n",
      static_cast<long long>(runs), static_cast<unsigned long long>(seed));
}

}  // namespace crowdtopk::bench

#endif  // CROWDTOPK_BENCH_HARNESS_H_
