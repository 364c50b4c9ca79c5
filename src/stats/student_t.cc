#include "stats/student_t.h"

#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>

#include "stats/normal.h"
#include "stats/special_functions.h"
#include "util/check.h"

namespace crowdtopk::stats {

double StudentTPdf(double t, double df) {
  CROWDTOPK_CHECK(df > 0.0);
  const double log_norm = LogGamma(0.5 * (df + 1.0)) - LogGamma(0.5 * df) -
                          0.5 * std::log(df * M_PI);
  return std::exp(log_norm -
                  0.5 * (df + 1.0) * std::log1p(t * t / df));
}

double StudentTCdf(double t, double df) {
  CROWDTOPK_CHECK(df > 0.0);
  if (t == 0.0) return 0.5;
  const double x = df / (df + t * t);
  const double tail = 0.5 * RegularizedIncompleteBeta(0.5 * df, 0.5, x);
  return t > 0.0 ? 1.0 - tail : tail;
}

double StudentTQuantile(double p, double df) {
  CROWDTOPK_CHECK(p > 0.0 && p < 1.0);
  CROWDTOPK_CHECK(df > 0.0);
  if (df > 1e6) return NormalQuantile(p);
  if (p == 0.5) return 0.0;
  // Symmetric: solve for the upper half and mirror.
  const bool upper = p > 0.5;
  const double tail2 = upper ? 2.0 * (1.0 - p) : 2.0 * p;  // I_x(df/2, 1/2)
  const double x = InverseRegularizedIncompleteBeta(0.5 * df, 0.5, tail2);
  // x = df / (df + t^2)  =>  t = sqrt(df (1 - x) / x).
  double t;
  if (x <= 0.0) {
    t = std::numeric_limits<double>::infinity();
  } else {
    t = std::sqrt(df * (1.0 - x) / x);
  }
  return upper ? t : -t;
}

double StudentTCritical(double alpha, double df) {
  CROWDTOPK_CHECK(alpha > 0.0 && alpha < 1.0);
  return StudentTQuantile(1.0 - 0.5 * alpha, df);
}

struct TCriticalCache::SharedTable {
  explicit SharedTable(double a) : alpha(a) {
    for (std::atomic<double>& entry : entries) {
      entry.store(std::numeric_limits<double>::quiet_NaN(),
                  std::memory_order_relaxed);
    }
  }

  const double alpha;
  std::array<std::atomic<double>, kSharedDfBound> entries;  // NaN = not yet
};

TCriticalCache::TCriticalCache(double alpha)
    : alpha_(alpha), shared_(nullptr) {
  CROWDTOPK_CHECK(alpha > 0.0 && alpha < 1.0);
  // Tables live until the process exits; the mutex guards only this lookup.
  static std::mutex mu;
  static SharedTable* tables[kMaxSharedAlphas] = {};
  static int num_tables = 0;
  std::lock_guard<std::mutex> lock(mu);
  for (int i = 0; i < num_tables; ++i) {
    if (tables[i]->alpha == alpha) {
      shared_ = tables[i];
      return;
    }
  }
  if (num_tables < kMaxSharedAlphas) {
    shared_ = tables[num_tables++] = new SharedTable(alpha);
  }
}

double TCriticalCache::Get(int64_t df) {
  CROWDTOPK_CHECK_GE(df, 1);
  if (shared_ != nullptr && df < kSharedDfBound) {
    std::atomic<double>& entry = shared_->entries[static_cast<size_t>(df)];
    double t = entry.load(std::memory_order_relaxed);
    if (std::isnan(t)) {
      t = StudentTCritical(alpha_, static_cast<double>(df));
      entry.store(t, std::memory_order_relaxed);
    }
    return t;
  }
  // Beyond 1e6 degrees of freedom StudentTCritical is the normal quantile.
  if (df > kMaxCachedDf) {
    return StudentTCritical(alpha_, static_cast<double>(df));
  }
  const int64_t first = shared_ != nullptr ? kSharedDfBound : 0;
  const size_t index = static_cast<size_t>(df - first);
  if (index >= private_.size()) {
    private_.resize(index + 1, std::numeric_limits<double>::quiet_NaN());
  }
  if (std::isnan(private_[index])) {
    private_[index] = StudentTCritical(alpha_, static_cast<double>(df));
  }
  return private_[index];
}

}  // namespace crowdtopk::stats
