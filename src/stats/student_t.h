// Student's t-distribution: pdf, CDF, quantile, and a cached critical value.
//
// Algorithm 1 (StudentComp) evaluates t_{alpha/2, n-1} after every purchased
// judgment, so the two-sided critical value is on the hot path. It depends
// only on (alpha, df), so TCriticalCache is a cheap handle onto one
// process-wide table per alpha: every query (and every thread) with the same
// confidence level reads the quantiles the first of them computed.

#ifndef CROWDTOPK_STATS_STUDENT_T_H_
#define CROWDTOPK_STATS_STUDENT_T_H_

#include <cstdint>
#include <vector>

namespace crowdtopk::stats {

// Density of the t-distribution with `df` degrees of freedom at t.
double StudentTPdf(double t, double df);

// P(T <= t) for T ~ t(df). Requires df > 0.
double StudentTCdf(double t, double df);

// Quantile: returns t such that P(T <= t) = p, for p in (0, 1), df > 0.
// For df > 1e6 the normal quantile is used (the distributions agree to well
// below the accuracy the comparison process needs).
double StudentTQuantile(double p, double df);

// Two-sided critical value t_{alpha/2, df}: the value exceeded with
// right-tail probability alpha/2. Requires alpha in (0, 1).
double StudentTCritical(double alpha, double df);

// Memoized StudentTCritical for one fixed alpha, indexed by integer df.
//
// df below kSharedDfBound is served from a process-wide table for this alpha,
// filled lazily and shared by every handle with the same alpha (compared bit
// for bit). Its entries are relaxed atomics: threads that race on an entry
// write the same bits, because StudentTCritical is a pure function. The
// first kMaxSharedAlphas distinct alphas get a table; later ones, and df at
// or above the bound, fall back to a private vector that grows on demand.
// Values are identical either way. A table is never freed, so a process that
// takes alphas from clients should construct a handle for its default alpha
// at startup (net::Engine does): otherwise 16 distinct client alphas could
// take every table and leave later queries on private vectors.
class TCriticalCache {
 public:
  static constexpr int64_t kSharedDfBound = 4096;
  // alpha arrives from clients over the wire, so the tables are capped.
  static constexpr int kMaxSharedAlphas = 16;

  explicit TCriticalCache(double alpha);

  double alpha() const { return alpha_; }

  // Returns t_{alpha/2, df}. Requires df >= 1. A handle is not thread-safe
  // (its private vector grows on demand); give each thread its own.
  double Get(int64_t df);

 private:
  struct SharedTable;

  // Above this many degrees of freedom, the normal quantile is used and no
  // cache entry is stored.
  static constexpr int64_t kMaxCachedDf = 1 << 20;

  double alpha_;
  SharedTable* shared_;  // process-wide, never freed; nullptr above the cap
  // df >= kSharedDfBound (every df without a shared table), offset by the
  // first df it holds. NaN = not yet computed.
  std::vector<double> private_;
};

}  // namespace crowdtopk::stats

#endif  // CROWDTOPK_STATS_STUDENT_T_H_
