// Cross-layer invariant checkers of the simulation harness.
//
// Each checker inspects the artifacts of one or two full-stack replays (or
// drives a subsystem directly, for the wire and verify families) and
// appends a Violation per broken property. The families, mapped to the
// layers they guard (docs/SIMULATION.md has the triage table):
//
//   repeat-bit-identity        serve: report + table bytes equal across
//                              two replays on fresh services
//   cache-capacity0-identity   cache: an attached capacity-0 cache is
//                              byte-identical to no cache at all
//   cache-export-soundness     cache: alpha gate, capacity bound, counter
//                              coherence of the exported image
//   persist-transparency       persist: durability on/off/halted never
//                              changes the replay's bytes
//   resume-identity            persist: crash + resume reproduces the cold
//                              run with zero digest divergence
//   wal-frontier-monotonic     persist: durable barrier records advance
//                              monotonically on disk
//   warm-restart-determinism   cache+persist: a warm restart is itself
//                              bit-identical when repeated
//   wire-reassembly-identity   net: split points never change reassembly;
//                              corruption is classified, never delivered
//   verify-preservation        verify: guarantee checks are engine-width
//                              independent and the clean crowd passes
//   shard-scatter-identity     shard: the merged pure-column table of a
//                              K-shard router replay equals the 1-shard one
//   shard-failover-completes   shard: a shard killed mid-batch loses no
//                              admitted query; re-purchased crowd work
//                              stays within the re-dispatch budget

#ifndef CROWDTOPK_SIM_INVARIANTS_H_
#define CROWDTOPK_SIM_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cache/judgment_cache.h"
#include "persist/manager.h"
#include "serve/query_service.h"
#include "sim/chaos.h"
#include "util/status.h"

namespace crowdtopk::sim {

struct Violation {
  std::string invariant;  // family name from the table above
  std::string detail;     // what diverged, with enough context to triage
};

// Everything one full-stack replay leaves behind.
struct RunArtifacts {
  std::string report_jsonl;  // serve::RenderServeReportJsonl
  std::string query_table;   // serve::RenderQueryTable
  std::vector<serve::QueryOutcome> outcomes;
  std::vector<cache::ExportedEntry> cache_export;
  cache::CacheStats cache_stats;
  persist::PersistCounters persist;
  util::Status persist_status;
  int64_t replayed_microtasks = 0;
};

// Report + table bytes of `a` and `b` must be identical.
void CheckBitIdentity(const std::string& invariant, const std::string& label,
                      const RunArtifacts& a, const RunArtifacts& b,
                      std::vector<Violation>* out);

// Table bytes only — for pairs whose JSONL legitimately differs in cache
// counters (a capacity-0 cache records misses; a disabled one records
// nothing).
void CheckTableIdentity(const std::string& invariant, const std::string& label,
                        const RunArtifacts& a, const RunArtifacts& b,
                        std::vector<Violation>* out);

// Exported-cache soundness of a cached run: every entry's alpha in (0, 1],
// finite bag moments, the capacity bound respected, and the lookup counters
// summing up.
void CheckCacheExport(const Episode& episode, const RunArtifacts& run,
                      std::vector<Violation>* out);

// Crash + resume reproduced the cold run: bytes equal, recovery actually
// ran, and catch-up re-execution never diverged from the durable records.
void CheckResume(const Episode& episode, const RunArtifacts& cold,
                 const RunArtifacts& resumed, std::vector<Violation>* out);

// Reads the WAL left in `dir` and checks the durable frontier only ever
// advances: barriers strictly increasing; round, simulated time, arrivals
// consumed, and completions all non-decreasing.
void CheckWalFrontier(const std::string& dir, std::vector<Violation>* out);

// Wire family: `episode.wire_trials` clean split-point trials (reassembly
// and decode must be exact) plus one corrupted trial per
// episode.wire_corruption (classification must match the mangling). The
// "wire-flip" mutation flips an undeclared bit in clean trial 0.
void CheckWireTrials(const Episode& episode, std::vector<Violation>* out);

// Verify family: one clean COMP guarantee check run on a 1-worker and a
// 2-worker engine — reports must match field-for-field and pass.
void CheckVerifyPreservation(const Episode& episode,
                             std::vector<Violation>* out);

// Shard family (episode.shards >= 2, cache forced off — cache visibility
// depends on co-placement): replays the episode's trace through a
// shard::ShardRouter over K local shards and over one, and compares the
// merged pure-column tables byte-for-byte (shard-scatter-identity). With
// episode.shard_kill, a third replay kills the first query's primary
// shard on its first sub-batch: every query must still complete with the
// same table bytes, no query may land on the dead shard, and the
// re-dispatch / re-purchase counters must stay within budget
// (shard-failover-completes).
void CheckShardScatter(const Episode& episode, std::vector<Violation>* out);

}  // namespace crowdtopk::sim

#endif  // CROWDTOPK_SIM_INVARIANTS_H_
