// Tracing for the benchmark's traced run: an in-memory span log and two
// forwarding decorators that time calls into the library from outside.
//
// Spans are recorded only around calls the benchmark itself makes or
// forwards (Replay, a query's TopKAlgorithm::Run, Client::Submit, ...);
// nothing inside the library is instrumented. The decorators forward every
// call unchanged, so a traced replay must produce the same per-query
// outcomes as an untraced one — the benchmark checks exactly that.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/topk_algorithm.h"
#include "data/dataset.h"

namespace crowdtopk::perfbench {

struct Span {
  int64_t id = 0;
  int64_t parent = -1;    // -1 = root
  int64_t query_id = -1;  // shared by all spans of one query; -1 = none
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Counters recorded at the span's boundaries.
  std::vector<std::pair<std::string, int64_t>> counters;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

// Thread-safe append-only span store, written out once the run ends.
class SpanLog {
 public:
  // Reserves an id for a span whose fields are filled in later.
  int64_t NewId() { return next_id_.fetch_add(1); }
  void Add(Span span);

  std::vector<Span> spans() const;
  // Spans named `name`.
  std::vector<Span> Named(const std::string& name) const;
  // Seconds of span `id` not covered by the union of its children.
  double SelfSeconds(int64_t id) const;
  // One JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Records [start, end] of a scope as one span on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int64_t parent,
             int64_t query_id = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return span_.id; }
  void AddCounter(std::string name, int64_t value) {
    span_.counters.emplace_back(std::move(name), value);
  }

 private:
  SpanLog* log_;
  Span span_;
};

// Forwards to `inner` and records one "serve.query" span per Run, tagged
// with the query id it was built for. One instance per request.
class TimedAlgorithm : public core::TopKAlgorithm {
 public:
  TimedAlgorithm(core::TopKAlgorithm* inner, SpanLog* log, int64_t query_id,
                 int64_t parent_span)
      : inner_(inner), log_(log), query_id_(query_id), parent_(parent_span) {}

  std::string name() const override { return inner_->name(); }
  core::TopKResult Run(crowd::CrowdPlatform* platform, int64_t k) override;
  bool concurrent_runs_safe() const override {
    return inner_->concurrent_runs_safe();
  }

  // Re-parents later spans (the resume phase reuses the decorators).
  void set_parent(int64_t parent_span) { parent_ = parent_span; }

 private:
  core::TopKAlgorithm* inner_;
  SpanLog* log_;
  int64_t query_id_;
  int64_t parent_;
};

// Forwards every judgment to an owned dataset and counts the calls and
// the nanoseconds spent inside them (totals, not per-call spans).
class CountingDataset : public data::Dataset {
 public:
  explicit CountingDataset(std::unique_ptr<data::Dataset> inner);

  double PreferenceJudgment(crowd::ItemId i, crowd::ItemId j,
                            util::Rng* rng) const override;
  double BinaryJudgment(crowd::ItemId i, crowd::ItemId j,
                        util::Rng* rng) const override;
  double GradedJudgment(crowd::ItemId i, util::Rng* rng) const override;

  int64_t calls() const { return calls_.load(); }
  int64_t nanos() const { return nanos_.load(); }

 private:
  void Account(int64_t start_ns) const;

  std::unique_ptr<data::Dataset> inner_;
  mutable std::atomic<int64_t> calls_{0};
  mutable std::atomic<int64_t> nanos_{0};
};

}  // namespace crowdtopk::perfbench

#endif  // PERFBENCH_SPANS_H_
