// Reductions from a telemetry trace to the paper's accounting tables.
//
// The evaluation of Section 6 reports, per algorithm, total monetary cost
// (TMC = microtasks purchased) and query latency (batch rounds, eta = 30).
// These helpers reduce a flat TraceEvent stream (telemetry/events.h) to
// exactly those quantities, split by the algorithm phase that incurred them
// — e.g. SPR's select vs. partition vs. rank share of a Table 7 TMC cell.
// docs/OBSERVABILITY.md walks through a worked example.

#ifndef CROWDTOPK_METRICS_TRACE_AGGREGATE_H_
#define CROWDTOPK_METRICS_TRACE_AGGREGATE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/events.h"
#include "util/status.h"
#include "util/table.h"

namespace crowdtopk::metrics {

// Per-phase accounting. `microtasks` is the phase's TMC contribution;
// `rounds` its batch-round latency contribution; `purchases` the number of
// purchase events (not microtasks) recorded in it.
struct PhaseStat {
  int64_t microtasks = 0;
  int64_t rounds = 0;
  int64_t purchases = 0;
};

// Leaf attribution: every purchase/round event counts toward exactly the
// phase path it was emitted under ("" for events outside any phase). The
// values over all keys therefore sum to the whole-trace totals.
std::map<std::string, PhaseStat> AggregateByPhase(
    const std::vector<telemetry::TraceEvent>& events);

// Rollup attribution: every event additionally counts toward each ancestor
// of its phase path, including the root "" — so result[""] holds the
// whole-trace totals and result["spr"] includes "spr/partition" etc.
std::map<std::string, PhaseStat> AggregateByPhaseRollup(
    const std::vector<telemetry::TraceEvent>& events);

// Whole-trace totals. When the trace covers one full query these equal the
// CrowdPlatform aggregate counters (total_microtasks(), rounds()).
PhaseStat TraceTotals(const std::vector<telemetry::TraceEvent>& events);

// Last recorded value of counter `name` anywhere in the trace; `fallback`
// if the counter never fired.
double LastCounter(const std::vector<telemetry::TraceEvent>& events,
                   const std::string& name, double fallback = 0.0);

// Renders per-phase stats as a printable/CSV-able table with columns
// phase | microtasks | rounds | purchases, sorted by phase path.
util::TablePrinter PhaseTable(const std::map<std::string, PhaseStat>& stats,
                              const std::string& title);

// Sanitises a display name ("SPR", "TourTree") into a file-name token.
std::string TraceFileToken(const std::string& name);

// Writes `events` to <stem>.trace.jsonl and their rolled-up PhaseTable
// (titled `title`) to <stem>.phases.csv. Returns the JSONL write's status;
// the CSV is skipped when that write fails.
util::Status WriteTraceFiles(const std::vector<telemetry::TraceEvent>& events,
                             const std::string& stem,
                             const std::string& title);

}  // namespace crowdtopk::metrics

#endif  // CROWDTOPK_METRICS_TRACE_AGGREGATE_H_
