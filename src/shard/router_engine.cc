#include "shard/router_engine.h"

#include <cstdio>
#include <iterator>
#include <utility>

#include "shard/local_backend.h"
#include "shard/remote_backend.h"
#include "telemetry/export.h"
#include "telemetry/recorder.h"

namespace crowdtopk::shard {

RouterEngine::RouterEngine(const net::ServerOptions& options,
                           const RouterEngineConfig& config,
                           std::function<void()> wake)
    : net::Engine(options, std::move(wake),
                  /*resolve_locally=*/config.ports.empty()) {
  std::vector<std::unique_ptr<ShardBackend>> backends;
  if (!config.ports.empty()) {
    for (const int64_t port : config.ports) {
      net::ClientOptions client_options;
      client_options.port = port;
      client_options.clock = options.clock;
      auto backend = std::make_unique<RemoteShardBackend>(client_options);
      remote_backends_.push_back(backend.get());
      backends.push_back(std::move(backend));
    }
  } else {
    const int64_t shards = config.shards < 1 ? 1 : config.shards;
    for (int64_t s = 0; s < shards; ++s) {
      LocalShardBackend::Options backend_options;
      backend_options.seed = options.seed;
      backend_options.schedule = options.schedule;
      backend_options.max_inflight = options.max_inflight;
      backend_options.cache = options.cache;
      if (s == config.fail_shard) {
        backend_options.fail_at_batch = config.fail_at_batch;
      }
      backends.push_back(
          std::make_unique<LocalShardBackend>(backend_options));
    }
  }
  RouterOptions router_options;
  router_options.policy = config.policy;
  router_options.max_redispatch = config.max_redispatch;
  router_options.cache_sync = config.cache_sync;
  router_options.cache = options.cache;
  router_ =
      std::make_unique<ShardRouter>(router_options, std::move(backends));
}

// The engine thread calls RunBatch, which uses router_: join it while
// this object is still whole.
RouterEngine::~RouterEngine() { Stop(); }

int64_t RouterEngine::upstream_retries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retries_;
}

int64_t RouterEngine::upstream_redials() const {
  std::lock_guard<std::mutex> lock(mu_);
  return redials_;
}

std::string RouterEngine::MergedReport() const {
  std::lock_guard<std::mutex> lock(mu_);
  return RenderMergedReport(*router_, outcomes_);
}

RouterCounters RouterEngine::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void RouterEngine::DumpTrace() const {
  if (options().trace_dir.empty()) return;
  telemetry::TraceRecorder recorder;
  const RouterCounters c = counters();
  const auto record = [&recorder](const std::string& name, int64_t value) {
    recorder.RecordCounter(name, static_cast<double>(value));
  };
  record("shard/shards", router_->num_shards());
  record("shard/healthy", router_->healthy_shards());
  record("shard/routed_queries", c.routed_queries);
  record("shard/waves", c.waves);
  record("shard/batches", c.shard_batches);
  record("shard/failures", c.shard_failures);
  record("shard/redispatched_queries", c.redispatched_queries);
  record("shard/repurchased_microtasks", c.repurchased_microtasks);
  record("shard/exhausted_queries", c.exhausted_queries);
  record("shard/cache_sync_rounds", c.cache_sync_rounds);
  record("shard/cache_entries_gossiped", c.cache_entries_gossiped);
  record("shard/upstream_retries", upstream_retries());
  record("shard/upstream_redials", upstream_redials());
  const util::Status status = telemetry::WriteJsonlFile(
      recorder.events(), options().trace_dir + "/shard_router.trace.jsonl");
  if (!status.ok()) {
    std::fprintf(stderr, "shard trace: %s\n", status.ToString().c_str());
  }
}

std::vector<net::Completion> RouterEngine::RunBatch(
    int64_t /*batch_index*/, const std::vector<Query>& batch) {
  std::vector<RoutedQuery> queries(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const Query& q = batch[i];
    RoutedQuery& routed = queries[i];
    // The engine's query id doubles as the seed-stream stamp: the id the
    // client sees is the id that keys the outcome.
    routed.global_id = q.id;
    routed.dataset = q.spec.dataset;
    routed.algo = q.spec.algo;
    routed.k = q.spec.k;
    routed.alpha = q.spec.alpha;
    routed.budget = q.spec.budget;
    routed.universe = q.universe;
    routed.dataset_ptr = q.dataset;
    routed.algorithm = q.algorithm;
  }
  std::vector<RoutedOutcome> routed = router_->RouteBatch(std::move(queries));

  std::vector<net::Completion> done(routed.size());
  for (size_t i = 0; i < routed.size(); ++i) {
    const ShardQueryResult& o = routed[i].result;
    net::Result& r = done[i].result;
    r.status_code = static_cast<uint32_t>(o.status.code());
    r.message = o.status.ok() ? "" : o.status.message();
    r.items.assign(o.items.begin(), o.items.end());
    r.precision_at_k = o.precision_at_k;
    r.total_microtasks = o.total_microtasks;
    r.rounds = o.rounds_observed;
    r.latency_seconds = o.latency_seconds;
    r.queue_wait_seconds = o.queue_wait_seconds;
    r.shard_id = routed[i].shard_id;
  }

  int64_t retries = 0;
  int64_t redials = 0;
  for (const RemoteShardBackend* backend : remote_backends_) {
    retries += backend->client_retries();
    redials += backend->client_redials();
  }
  std::lock_guard<std::mutex> lock(mu_);
  counters_ = router_->counters();
  retries_ = retries;
  redials_ = redials;
  outcomes_.insert(outcomes_.end(), std::make_move_iterator(routed.begin()),
                   std::make_move_iterator(routed.end()));
  return done;
}

}  // namespace crowdtopk::shard
