// Deterministic fan-out of repeated simulation runs.
//
// The paper's evaluation averages ~100 repetitions per experiment point;
// repetitions are embarrassingly parallel by construction (each run owns a
// fresh CrowdPlatform, oracle view, and RNG stream). ParallelFor spreads an
// index range over a few short-lived threads; RunAll hands run r the seed
// util::SplitSeed(seed, r) (a pure function of the index, never a draw from
// a shared seeder) and stores its record in slot r; ColumnMeans reduces the
// records in run order. Together they make every aggregate bit-identical to
// the serial loop, for any worker count.
//
// A task must confine its side effects to its own run: no writes to shared
// state, randomness only from the provided seed. Algorithms whose Run()
// method mutates the algorithm object (core::TopKAlgorithm::
// concurrent_runs_safe() == false) are dispatched with jobs = 1.

#ifndef CROWDTOPK_EXEC_PARALLEL_FOR_H_
#define CROWDTOPK_EXEC_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace crowdtopk::exec {

// Calls body(i) exactly once for every i in [0, n) on at most min(jobs, n)
// threads, the caller included, and returns when all calls have finished.
// Indices are claimed from an atomic cursor, so which thread runs an index
// depends on scheduling; reproducible callers make body(i) a pure function
// of i that writes only slot i of a pre-sized output. jobs <= 1 is a plain
// serial loop.
//
// If some calls throw, every index still runs, and then the exception of
// the smallest failing index is rethrown on the caller. (The serial loop
// stops at the first throwing index, which is the same smallest index.)
void ParallelFor(int64_t jobs, int64_t n,
                 const std::function<void(int64_t)>& body);

// `jobs` with 0 (or less) expanded to the hardware concurrency; at least 1.
int64_t ResolveJobs(int64_t jobs);

// Runs task(r, util::SplitSeed(seed, r)) for r in [0, runs) on
// ResolveJobs(jobs) workers and returns the records in run order.
std::vector<std::vector<double>> RunAll(
    int64_t runs, uint64_t seed, int64_t jobs,
    const std::function<std::vector<double>(int64_t, uint64_t)>& task);

// Column means of equal-width records, summed in record order: the exact
// additions a serial loop performs. Empty input gives an empty result.
std::vector<double> ColumnMeans(
    const std::vector<std::vector<double>>& records);

}  // namespace crowdtopk::exec

#endif  // CROWDTOPK_EXEC_PARALLEL_FOR_H_
