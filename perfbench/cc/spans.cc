#include "spans.h"

#include <algorithm>
#include <cstdio>

#include "measure.h"

namespace crowdtopk::perfbench {

void SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<Span> SpanLog::Named(const std::string& name) const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

double SpanLog::SelfSeconds(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span* self = nullptr;
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const Span& s : spans_) {
    if (s.id == id) self = &s;
    if (s.parent == id) children.emplace_back(s.start_ns, s.end_ns);
  }
  if (self == nullptr) return 0.0;
  // Children run concurrently (one per in-flight query), so subtract the
  // union of their intervals, clipped to the parent.
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cur_start = 0;
  int64_t cur_end = -1;
  for (auto [start, end] : children) {
    start = std::max(start, self->start_ns);
    end = std::min(end, self->end_ns);
    if (end <= start) continue;
    if (start > cur_end) {
      if (cur_end > cur_start) covered += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (cur_end > cur_start) covered += cur_end - cur_start;
  return static_cast<double>(self->end_ns - self->start_ns - covered) * 1e-9;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::string line = "{\"id\":" + std::to_string(s.id) +
                       ",\"parent\":" + std::to_string(s.parent) +
                       ",\"query_id\":" + std::to_string(s.query_id) +
                       ",\"name\":" + JsonString(s.name) +
                       ",\"start_ns\":" + std::to_string(s.start_ns) +
                       ",\"end_ns\":" + std::to_string(s.end_ns) +
                       ",\"counters\":{";
    for (size_t i = 0; i < s.counters.size(); ++i) {
      if (i > 0) line += ',';
      line += JsonString(s.counters[i].first) + ":" +
              std::to_string(s.counters[i].second);
    }
    line += "}}\n";
    std::fputs(line.c_str(), f);
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, int64_t parent,
                       int64_t query_id)
    : log_(log) {
  span_.id = log_->NewId();
  span_.parent = parent;
  span_.query_id = query_id;
  span_.name = std::move(name);
  span_.start_ns = NowNanos();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = NowNanos();
  log_->Add(std::move(span_));
}

core::TopKResult TimedAlgorithm::Run(crowd::CrowdPlatform* platform,
                                     int64_t k) {
  ScopedSpan span(log_, "serve.query", parent_, query_id_);
  core::TopKResult result = inner_->Run(platform, k);
  span.AddCounter("microtasks", result.total_microtasks);
  span.AddCounter("rounds", result.rounds);
  return result;
}

namespace {

std::vector<double> CopyScores(const data::Dataset& d) {
  std::vector<double> scores(static_cast<size_t>(d.num_items()));
  for (int64_t i = 0; i < d.num_items(); ++i) {
    scores[static_cast<size_t>(i)] = d.TrueScore(static_cast<crowd::ItemId>(i));
  }
  return scores;
}

}  // namespace

CountingDataset::CountingDataset(std::unique_ptr<data::Dataset> inner)
    : data::Dataset(inner->name(), CopyScores(*inner)),
      inner_(std::move(inner)) {}

void CountingDataset::Account(int64_t start_ns) const {
  const int64_t elapsed = NowNanos() - start_ns;
  calls_.fetch_add(1, std::memory_order_relaxed);
  nanos_.fetch_add(elapsed, std::memory_order_relaxed);
}

double CountingDataset::PreferenceJudgment(crowd::ItemId i, crowd::ItemId j,
                                           util::Rng* rng) const {
  const int64_t start = NowNanos();
  const double v = inner_->PreferenceJudgment(i, j, rng);
  Account(start);
  return v;
}

double CountingDataset::BinaryJudgment(crowd::ItemId i, crowd::ItemId j,
                                       util::Rng* rng) const {
  const int64_t start = NowNanos();
  const double v = inner_->BinaryJudgment(i, j, rng);
  Account(start);
  return v;
}

double CountingDataset::GradedJudgment(crowd::ItemId i, util::Rng* rng) const {
  const int64_t start = NowNanos();
  const double v = inner_->GradedJudgment(i, rng);
  Account(start);
  return v;
}

}  // namespace crowdtopk::perfbench
