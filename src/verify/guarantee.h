// Statistical-guarantee verification harness.
//
// The paper's core claim is probabilistic: COMP returns the correct
// preference with probability >= 1 - alpha (Section 3, Algorithms 1/5), and
// SPR's expected precision is >= (1 - alpha) / c (Section 5.4). This module
// turns those contracts into executable checks: Monte-Carlo sweeps estimate
// the empirical error rate on a ground-truth oracle — clean or wrapped in a
// fault::FaultInjectionOracle — and judge it against the contract with a
// shared Wilson pass/fail band (stats::WilsonScoreInterval). Trials are
// fanned out in fixed-size blocks with exec::RunAll and per-trial
// SplitSeed streams, and the sequential early-stop rule only looks at
// block-boundary integer counts, so a check's full trajectory — trial
// results, stopping point, verdict — is bit-identical for any worker count.
// Reports serialise through the telemetry layer as JSONL counter events
// (docs/OBSERVABILITY.md). Driven by tools/crowdtopk_verify and the verify
// unit/property tests.

#ifndef CROWDTOPK_VERIFY_GUARANTEE_H_
#define CROWDTOPK_VERIFY_GUARANTEE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "judgment/comparison.h"
#include "telemetry/events.h"
#include "util/status.h"

namespace crowdtopk::verify {

// Sequential sampling policy shared by every check.
struct VerifyOptions {
  // Upper bound on Monte-Carlo trials per check.
  int64_t max_trials = 400;
  // Trials per sequential block; the early-stop rule is evaluated at block
  // boundaries only (what keeps the trajectory independent of the worker
  // count).
  int64_t block_trials = 50;
  // Significance of the Wilson pass/fail band. Deliberately much stricter
  // than the contracts under test: a check only fails when the violation is
  // overwhelming, not on Monte-Carlo noise.
  double band_alpha = 0.002;
};

// One COMP error-rate check: a two-item ground-truth pair whose single
// judgment has mean/sd = effect, compared at significance alpha.
struct CompCheckSpec {
  // Report label; '/' is replaced by '_' in telemetry phase names.
  std::string label;
  judgment::Estimator estimator = judgment::Estimator::kStudent;
  double alpha = 0.05;
  // Effect size: mean / stddev of one preference judgment.
  double effect = 0.6;
  // Per-pair budget; large by default so ties cannot mask errors.
  int64_t budget = int64_t{1} << 20;
  int64_t min_workload = 30;
  int64_t batch_size = 30;
  // All-zero rates = clean crowd.
  fault::FaultPlan faults;
};

// One end-to-end SPR check on a separable ladder (data::MakeUniformLadder):
// each of the k returned slots is one Bernoulli trial (item in the true
// top-k or not), so the mean success rate is exactly the expected precision
// the Section 5.4 bound constrains.
struct SprCheckSpec {
  std::string label;
  double alpha = 0.05;
  double sweet_spot_c = 1.5;
  int64_t n = 30;
  int64_t k = 5;
  double gap = 1.0;
  double noise = 1.5;
  int64_t budget = 1000;
  fault::FaultPlan faults;
};

enum class Verdict {
  // The contract is consistent with the data: the Wilson band for the true
  // error rate still contains (or lies below) the contracted bound.
  kPass,
  // Guarantee violation: even the Wilson lower bound exceeds the contract.
  kFail,
};

const char* VerdictName(Verdict verdict);

struct GuaranteeReport {
  std::string label;
  std::string kind;       // "comp" | "spr"
  double alpha = 0.0;     // contract significance level
  double contract = 0.0;  // contracted max error rate being tested
  int64_t trials = 0;     // Bernoulli trials counted (runs, or k x runs)
  int64_t errors = 0;
  int64_t ties = 0;  // comp only: budget-exhausted undecided outcomes
  double error_rate = 0.0;
  double wilson_lo = 0.0;  // Wilson band at 1 - band_alpha
  double wilson_hi = 0.0;
  double mean_workload = 0.0;  // microtasks per comparison / TMC per query
  bool decisive = false;       // sequential early stop fired
  Verdict verdict = Verdict::kPass;
};

// Estimates COMP's empirical error rate against its 1 - alpha contract,
// running each block's trials on `jobs` workers (0 = hardware concurrency).
// Trial t draws everything from SplitSeed(seed, t) — independent of block
// size, dispatch order, and worker count.
GuaranteeReport VerifyComparisonGuarantee(const CompCheckSpec& spec,
                                          const VerifyOptions& options,
                                          int64_t jobs, uint64_t seed);

// Estimates SPR's per-slot top-k error rate against the Section 5.4 bound
// (contract: error <= 1 - (1 - alpha) / c).
GuaranteeReport VerifySprGuarantee(const SprCheckSpec& spec,
                                   const VerifyOptions& options, int64_t jobs,
                                   uint64_t seed);

// Serialises reports as telemetry counter events — one phase per check
// ("verify/<kind>_<label>"), one counter per field — ready for the JSONL
// exporter; schema in docs/OBSERVABILITY.md.
std::vector<telemetry::TraceEvent> ReportEvents(
    const std::vector<GuaranteeReport>& reports);

// Writes ReportEvents(reports) as JSONL to `path` (telemetry::WriteJsonlFile).
util::Status WriteReportJsonl(const std::vector<GuaranteeReport>& reports,
                              const std::string& path);

}  // namespace crowdtopk::verify

#endif  // CROWDTOPK_VERIFY_GUARANTEE_H_
