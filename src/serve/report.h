// ServeReport: deterministic aggregation of one serving replay.
//
// Throughput plus latency percentiles in both batch rounds and simulated
// seconds, over the successfully completed queries. Rendering is fully
// deterministic — fixed formats, no clocks, no locale — so two replays
// with equal (options, seed, trace) produce byte-identical reports; the
// serve tests and the CI's repeated-replay diff rely on that.

#ifndef CROWDTOPK_SERVE_REPORT_H_
#define CROWDTOPK_SERVE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/assignment_tracker.h"
#include "serve/query_service.h"

namespace crowdtopk::serve {

struct ServeReport {
  int64_t queries = 0;
  int64_t completed = 0;  // finished with Ok status
  int64_t failed = 0;     // finished, but an assignment failed permanently
  int64_t rejected = 0;   // bounced at admission

  double makespan_seconds = 0.0;
  int64_t total_rounds = 0;
  // Completed queries per simulated hour of makespan.
  double throughput_per_hour = 0.0;

  int64_t total_microtasks = 0;  // over all queries that ran
  double mean_queue_wait_seconds = 0.0;
  double mean_precision = 0.0;

  // Nearest-rank percentiles over completed queries.
  double p50_rounds = 0.0, p95_rounds = 0.0, p99_rounds = 0.0;
  double p50_seconds = 0.0, p95_seconds = 0.0, p99_seconds = 0.0;

  AssignmentStats assignments;
};

// Nearest-rank percentile (pct in (0, 100]) of `values`; 0 when empty.
double PercentileNearestRank(std::vector<double> values, double pct);

ServeReport BuildServeReport(const std::vector<QueryOutcome>& outcomes,
                             const AssignmentStats& assignments,
                             double makespan_seconds, int64_t total_rounds);

// Multi-line human-readable report; byte-deterministic.
std::string RenderServeReport(const ServeReport& report);

// One CSV-ish line per query (id, algo, status, timings, rounds, tmc,
// requeues, precision); byte-deterministic. Used by the CLI's per-query
// dump and by the bit-identity tests.
std::string RenderQueryTable(const std::vector<QueryOutcome>& outcomes);

// Machine-readable report: one {"record":"summary",...} line followed by
// one {"record":"query",...} line per outcome in trace order. Fixed key
// order, %.6f doubles, no locale — byte-deterministic, which is what the
// crash-recovery CI job byte-diffs and the golden-file test pins. Schema
// changes must update tests/golden/serve_report.jsonl deliberately.
std::string RenderServeReportJsonl(const ServeReport& report,
                                   const std::vector<QueryOutcome>& outcomes);

}  // namespace crowdtopk::serve

#endif  // CROWDTOPK_SERVE_REPORT_H_
