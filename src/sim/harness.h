// The simulation harness: runs one chaos episode against the full serving
// stack and checks every invariant family, sweeps seeds, and shrinks a
// failing episode to a minimal replayable spec.
//
// One episode performs up to ~9 full replays of the same seeded trace —
// cold at two worker counts, cache ablations, a persisted run, an injected
// crash plus resume, and warm restarts — and cross-checks their artifacts
// (src/sim/invariants.h). Everything is a pure function of the episode, so
// the only state a failure report needs is the episode spec itself
// (chaos.h, ToSpec); tools/crowdtopk_sim prints it as a replay command.

#ifndef CROWDTOPK_SIM_HARNESS_H_
#define CROWDTOPK_SIM_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/chaos.h"
#include "sim/invariants.h"

namespace crowdtopk::sim {

// Clamps an episode (possibly hand-edited via --episode) into the ranges
// the stack accepts: items >= 4, 1 <= k < items, queries >= 1, and so on.
// DeriveEpisode output is already in range; Normalize never changes it.
Episode NormalizeEpisode(const Episode& episode);

// Runs one episode. `scratch_dir` is created if needed; persist chaos uses
// subdirectories under it and clears them first. Returns every violation
// found (empty = the episode upholds all invariants).
std::vector<Violation> RunEpisode(const Episode& episode,
                                  const std::string& scratch_dir);

struct SweepFailure {
  int64_t index = 0;      // position in the sweep
  Episode episode;        // the failing episode (pre-shrink)
  std::vector<Violation> violations;
};

struct SweepResult {
  int64_t episodes_run = 0;
  std::vector<SweepFailure> failures;
};

// Runs `count` episodes: episode i is DeriveEpisode(SplitSeed(master_seed,
// i)), so any slice of the sweep is reproducible independently.
SweepResult SweepSeeds(uint64_t master_seed, int64_t count,
                       const std::string& scratch_dir);

// Greedy shrink: disables chaos dimensions and halves the workload while
// the episode keeps failing, in a fixed order (wire -> verify -> shard
// kill -> shards -> torn tail -> halt -> persist -> transitivity ->
// capacity -> cache -> faults -> abandonment -> queue -> algorithms, then
// halving queries and items).
// Deterministic; returns the minimal still-failing episode and
// (optionally) its violations.
Episode ShrinkEpisode(const Episode& failing, const std::string& scratch_dir,
                      std::vector<Violation>* violations = nullptr);

// The copy-pasteable repro line for an episode.
std::string ReplayCommand(const Episode& episode);

}  // namespace crowdtopk::sim

#endif  // CROWDTOPK_SIM_HARNESS_H_
