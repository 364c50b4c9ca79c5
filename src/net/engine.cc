#include "net/engine.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "baselines/heap_sort.h"
#include "baselines/quick_select.h"
#include "baselines/tournament_tree.h"
#include "core/spr.h"
#include "data/generators.h"
#include "serve/query_service.h"
#include "stats/student_t.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/random.h"

namespace crowdtopk::net {
namespace {

// Salt separating per-batch seeds from every other stream split off the
// server's master seed.
constexpr uint64_t kBatchStream = 0x6e657462ULL;  // "netb"

// Submission sanity bounds; a request outside them gets INVALID_ARGUMENT.
constexpr int64_t kMaxK = 10000;
constexpr int64_t kMaxBudget = int64_t{1} << 30;

// State/Cancel remember this many finished query ids as kDone.
constexpr size_t kDoneMemory = 4096;

}  // namespace

DatasetFactory DefaultDatasetFactory() {
  return [](const std::string& name,
            uint64_t seed) -> std::unique_ptr<data::Dataset> {
    // MakeByName CHECK-fails on unknown names; gate it so a bad request is
    // a client error, not a server crash.
    if (name != "imdb" && name != "book" && name != "jester" &&
        name != "photo" && name != "peopleage") {
      return nullptr;
    }
    return data::MakeByName(name, seed);
  };
}

AlgorithmFactory DefaultAlgorithmFactory() {
  return [](const std::string& name, const judgment::ComparisonOptions&
                options) -> std::unique_ptr<core::TopKAlgorithm> {
    if (name == "spr") {
      core::SprOptions spr_options;
      spr_options.comparison = options;
      return std::make_unique<core::Spr>(spr_options);
    }
    if (name == "tourtree") {
      return std::make_unique<baselines::TournamentTree>(options);
    }
    if (name == "heapsort") {
      return std::make_unique<baselines::HeapSortTopK>(options);
    }
    if (name == "quickselect") {
      return std::make_unique<baselines::QuickSelectTopK>(options);
    }
    return nullptr;
  };
}

Engine::Engine(const ServerOptions& options, std::function<void()> wake)
    : Engine(options, std::move(wake), /*resolve_locally=*/true) {}

Engine::Engine(const ServerOptions& options, std::function<void()> wake,
               bool resolve_locally)
    : options_(options),
      resolve_locally_(resolve_locally),
      dataset_factory_(options.dataset_factory ? options.dataset_factory
                                               : DefaultDatasetFactory()),
      algorithm_factory_(options.algorithm_factory
                             ? options.algorithm_factory
                             : DefaultAlgorithmFactory()),
      wake_(std::move(wake)) {
  // Shared t-tables are never freed and capped in number, and alpha comes
  // from clients; registering the protocol's default alpha first keeps its
  // table shared however many other alphas clients send.
  stats::TCriticalCache default_alpha_table(SubmitQuery{}.alpha);
}

Engine::~Engine() { Stop(); }

void Engine::Start() {
  CROWDTOPK_CHECK(!thread_.joinable());
  thread_ = std::thread([this] { ThreadMain(); });
}

void Engine::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

util::StatusOr<int64_t> Engine::Submit(int64_t conn_id,
                                       const SubmitQuery& spec) {
  if (spec.k < 1 || spec.k > kMaxK) {
    return util::Status::InvalidArgument("k out of range");
  }
  if (!(spec.alpha > 0.0 && spec.alpha < 1.0)) {
    return util::Status::InvalidArgument("alpha must be in (0, 1)");
  }
  if (spec.budget < 0 || spec.budget > kMaxBudget) {
    return util::Status::InvalidArgument("budget out of range");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    return util::Status::Unavailable("server is draining");
  }
  if (options_.max_queue >= 0 &&
      static_cast<int64_t>(queue_.size()) >= options_.max_queue) {
    return util::Status::ResourceExhausted("admission queue full");
  }
  const DatasetEntry* dataset = ResolveDatasetLocked(spec.dataset);
  if (dataset == nullptr) {
    return util::Status::InvalidArgument("unknown dataset '" + spec.dataset +
                                         "'");
  }
  core::TopKAlgorithm* algorithm = nullptr;
  if (resolve_locally_) {
    algorithm = ResolveAlgorithmLocked(spec);
    if (algorithm == nullptr) {
      return util::Status::InvalidArgument("unknown algorithm '" + spec.algo +
                                           "'");
    }
  }
  const int64_t id = next_query_id_++;
  Record& record = records_[id];
  record.conn_id = conn_id;
  record.query.id = id;
  record.query.spec = spec;
  record.query.universe = dataset->universe;
  record.query.dataset = dataset->dataset.get();
  record.query.algorithm = algorithm;
  queue_.push_back(id);
  cv_.notify_all();
  return id;
}

QueryState Engine::State(int64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(query_id);
  if (it != records_.end()) return it->second.state;
  return done_.count(query_id) ? QueryState::kDone : QueryState::kUnknown;
}

bool Engine::Cancel(int64_t query_id, int64_t* submitter_conn) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(query_id);
  if (it == records_.end() || it->second.state != QueryState::kQueued) {
    return false;
  }
  *submitter_conn = it->second.conn_id;
  queue_.erase(std::find(queue_.begin(), queue_.end(), query_id));
  records_.erase(it);
  return true;
}

void Engine::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  cv_.notify_all();
}

void Engine::AbortQueued() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const int64_t id : queue_) {
    Completion c;
    c.conn_id = records_[id].conn_id;
    c.query_id = id;
    c.send_error = true;
    c.error_code = ErrorCode::kUnavailable;
    c.error_message = "drain timeout";
    completions_.push_back(std::move(c));
    records_.erase(id);
  }
  queue_.clear();
  cv_.notify_all();
}

std::vector<Completion> Engine::TakeCompletions() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Completion> taken = std::move(completions_);
  completions_.clear();
  return taken;
}

bool Engine::Drained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_ && queue_.empty() && !running_ && completions_.empty();
}

int64_t Engine::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

int64_t Engine::batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

const Engine::DatasetEntry* Engine::ResolveDatasetLocked(
    const std::string& name) {
  const auto it = datasets_.find(name);
  if (it != datasets_.end()) return &it->second;
  DatasetEntry entry;
  if (resolve_locally_) {
    // Per-name seed stream: dataset content is a pure function of the
    // master seed and the name, never of request order — and therefore
    // the same on a router and on a plain server with the same seed.
    entry.dataset = dataset_factory_(
        name, util::SplitSeed(options_.seed, util::Fnv1a64(name)));
    if (entry.dataset == nullptr) return nullptr;
  }
  entry.universe = static_cast<int64_t>(datasets_.size());
  return &datasets_.emplace(name, std::move(entry)).first->second;
}

core::TopKAlgorithm* Engine::ResolveAlgorithmLocked(const SubmitQuery& spec) {
  judgment::ComparisonOptions comparison;
  comparison.alpha = spec.alpha;
  if (spec.budget > 0) comparison.budget = spec.budget;
  uint64_t alpha_bits;
  std::memcpy(&alpha_bits, &comparison.alpha, sizeof(alpha_bits));
  const std::string key = spec.algo + "|" + std::to_string(alpha_bits) + "|" +
                          std::to_string(comparison.budget);
  const auto it = algorithms_.find(key);
  if (it != algorithms_.end()) return it->second.get();
  std::unique_ptr<core::TopKAlgorithm> algorithm =
      algorithm_factory_(spec.algo, comparison);
  if (algorithm == nullptr) return nullptr;
  // One instance serves every query of a batch (and every shard) at once.
  CROWDTOPK_CHECK(algorithm->concurrent_runs_safe());
  return algorithms_.emplace(key, std::move(algorithm)).first->second.get();
}

void Engine::RememberDoneLocked(int64_t id) {
  done_.insert(id);
  done_order_.push_back(id);
  while (done_order_.size() > kDoneMemory) {
    done_.erase(done_order_.front());
    done_order_.pop_front();
  }
}

void Engine::ThreadMain() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || draining_ || !queue_.empty(); });
    if (stop_) return;
    if (queue_.empty()) {
      if (draining_) {
        // Nothing left to run; tell the network thread to re-check its
        // drain-completion condition.
        lock.unlock();
        wake_();
        lock.lock();
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (stop_) return;
      }
      continue;
    }

    // Drain the queue into one batch, submission order preserved.
    std::vector<Query> batch;
    batch.reserve(queue_.size());
    for (const int64_t id : queue_) {
      Record& record = records_[id];
      record.state = QueryState::kRunning;
      batch.push_back(record.query);
    }
    queue_.clear();
    running_ = true;
    const int64_t batch_index = batches_;
    lock.unlock();

    std::vector<Completion> done = RunBatch(batch_index, batch);
    CROWDTOPK_CHECK(done.size() == batch.size());

    lock.lock();
    running_ = false;
    ++batches_;
    for (size_t i = 0; i < batch.size(); ++i) {
      const int64_t id = batch[i].id;
      done[i].conn_id = records_[id].conn_id;
      done[i].query_id = id;
      done[i].result.query_id = id;
      completions_.push_back(std::move(done[i]));
      records_.erase(id);
      RememberDoneLocked(id);
    }
    lock.unlock();
    wake_();
    lock.lock();
  }
}

std::vector<Completion> Engine::RunBatch(int64_t batch_index,
                                         const std::vector<Query>& batch) {
  std::vector<serve::QueryRequest> requests(batch.size());
  bool all_stamped = true;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Query& q = batch[i];
    requests[i].algorithm = q.algorithm;
    requests[i].dataset = q.dataset;
    requests[i].k = q.spec.k;
    requests[i].cache_universe = q.universe;
    requests[i].seed_stream = q.spec.seed_stream;
    if (q.spec.seed_stream < 0) all_stamped = false;
  }

  // Everything in the batch arrives "now": queueing delay inside the
  // batch is pure shared-capacity contention, and the whole replay is a
  // deterministic function of (options, batch seed, requests).
  serve::ServeOptions serve_options;
  serve_options.schedule = options_.schedule;
  serve_options.max_inflight = options_.max_inflight;
  // Unbounded: admission control already happened in Submit, and with
  // every arrival at t=0 a serve-level bound could never fire anyway.
  serve_options.max_queue = -1;
  // Router-stamped batches run under the constant master seed: every
  // stream is then keyed by the stamped global id, so the outcome does not
  // depend on which batch (or shard) the query landed in. Unstamped
  // batches keep the classic per-batch split.
  serve_options.seed =
      all_stamped ? options_.seed
                  : util::SplitSeed(options_.seed, kBatchStream + batch_index);
  serve_options.cache = options_.cache;
  serve_options.warm_cache = std::move(warm_cache_);
  warm_cache_.clear();
  serve::QueryService service(serve_options);
  const std::vector<double> arrivals(requests.size(), 0.0);
  const std::vector<serve::QueryOutcome> outcomes =
      service.Replay(requests, arrivals);
  warm_cache_ = service.ExportCache();

  std::vector<Completion> done(outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const serve::QueryOutcome& o = outcomes[i];
    CROWDTOPK_CHECK(!o.rejected);
    Result& r = done[i].result;
    r.status_code = static_cast<uint32_t>(o.status.code());
    r.message = o.status.ok() ? "" : o.status.message();
    r.items.assign(o.items.begin(), o.items.end());
    r.precision_at_k = o.precision_at_k;
    r.total_microtasks = o.total_microtasks;
    r.rounds = o.rounds_observed;
    r.latency_seconds = o.latency_seconds;
    r.queue_wait_seconds = o.start_seconds - o.arrival_seconds;
  }
  return done;
}

}  // namespace crowdtopk::net
