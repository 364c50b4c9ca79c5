#include "serve/query_service.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <unordered_map>
#include <utility>

#include "cache/cache_client.h"
#include "persist/format.h"
#include "metrics/ranking_metrics.h"
#include "metrics/trace_aggregate.h"
#include "serve/async_platform.h"
#include "telemetry/export.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/random.h"

namespace crowdtopk::serve {
namespace {

// Salt separating the per-query judgment streams from the latency and
// arrival streams derived from the same master seed.
constexpr uint64_t kJudgmentStream = 0x6a7564676d656e74ULL;

// Everything that shapes the replay's outcomes goes into the persist
// manifest fingerprint: resuming under a different configuration would
// re-execute a *different* deterministic function and silently diverge
// from the durable records. trace_dir is excluded on purpose: it never
// changes results.
uint64_t ConfigFingerprint(const ServeOptions& options,
                           const std::vector<QueryRequest>& requests,
                           const std::vector<double>& arrivals) {
  persist::Encoder enc;
  enc.PutU64(options.seed);
  enc.PutI64(options.schedule.crowd_workers);
  enc.PutI64(options.schedule.per_pair_batch);
  enc.PutDouble(options.schedule.mean_pickup_seconds);
  enc.PutDouble(options.schedule.mean_task_seconds);
  enc.PutDouble(options.schedule.task_time_sigma);
  enc.PutDouble(options.schedule.abandon_probability);
  enc.PutDouble(options.schedule.no_show_probability);
  enc.PutDouble(options.schedule.deadline_seconds);
  enc.PutI64(options.schedule.max_attempts);
  enc.PutI64(options.max_inflight);
  enc.PutI64(options.max_queue);
  enc.PutU8(options.cache.enabled ? 1 : 0);
  enc.PutI64(options.cache.capacity);
  enc.PutU8(options.cache.transitivity ? 1 : 0);
  enc.PutU32(static_cast<uint32_t>(options.warm_cache.size()));
  for (const cache::ExportedEntry& entry : options.warm_cache) {
    persist::EncodeCacheEntry(entry, &enc);
  }
  enc.PutU32(static_cast<uint32_t>(requests.size()));
  for (size_t i = 0; i < requests.size(); ++i) {
    enc.PutI64(requests[i].k);
    enc.PutI64(requests[i].cache_universe);
    enc.PutI64(requests[i].seed_stream);
    enc.PutString(requests[i].algorithm->name());
    enc.PutU32(static_cast<uint32_t>(requests[i].cache_item_ids.size()));
    for (const crowd::ItemId id : requests[i].cache_item_ids) enc.PutI32(id);
    enc.PutDouble(arrivals[i]);
  }
  return util::Fnv1a64(enc.buffer());
}

}  // namespace

QueryService::QueryService(const ServeOptions& options)
    : options_(options),
      judgment_seed_(util::SplitSeed(options.seed, kJudgmentStream)) {
  CROWDTOPK_CHECK_GE(options.max_inflight, 1);
}

std::vector<QueryOutcome> QueryService::Replay(
    const std::vector<QueryRequest>& requests,
    const std::vector<double>& arrivals) {
  CROWDTOPK_CHECK(scheduler_ == nullptr);  // one replay per service
  const int64_t n = static_cast<int64_t>(requests.size());
  CROWDTOPK_CHECK_EQ(n, static_cast<int64_t>(arrivals.size()));
  outcomes_.assign(n, QueryOutcome());
  for (int64_t i = 0; i < n; ++i) {
    CROWDTOPK_CHECK(requests[i].algorithm != nullptr);
    CROWDTOPK_CHECK(requests[i].dataset != nullptr);
    CROWDTOPK_CHECK_GE(requests[i].k, 1);
    // One algorithm instance serves many concurrent queries.
    CROWDTOPK_CHECK(requests[i].algorithm->concurrent_runs_safe());
    if (i > 0) CROWDTOPK_CHECK(arrivals[i - 1] <= arrivals[i]);
    outcomes_[i].query_id = i;
    outcomes_[i].algorithm = requests[i].algorithm->name();
    outcomes_[i].arrival_seconds = arrivals[i];
  }

  scheduler_ = std::make_unique<BatchScheduler>(options_.schedule,
                                                options_.seed);
  if (options_.cache.enabled) {
    // Inserts apply only between stepping passes (CommitPending below), in
    // query-id order, so every query in a pass sees the same committed
    // cache whatever its position.
    cache_ = std::make_unique<cache::JudgmentCache>(options_.cache);
    // Resolve cache universes: explicit request values win; otherwise one
    // universe per distinct dataset pointer, numbered past the largest
    // explicit id in first-seen request order.
    universes_.assign(n, -1);
    int64_t next_universe = 0;
    for (const QueryRequest& request : requests) {
      next_universe = std::max(next_universe, request.cache_universe + 1);
    }
    std::unordered_map<const data::Dataset*, int64_t> by_dataset;
    for (int64_t i = 0; i < n; ++i) {
      if (requests[i].cache_universe >= 0) {
        universes_[i] = requests[i].cache_universe;
        continue;
      }
      const auto [it, inserted] =
          by_dataset.try_emplace(requests[i].dataset, next_universe);
      if (inserted) ++next_universe;
      universes_[i] = it->second;
    }
    cache_->RestoreEntries(options_.warm_cache);
  }

  // Durable state: open (or recover) the persist directory. Failures are
  // availability-first — the replay still runs and completes, the error is
  // surfaced through persist_status() so callers can refuse to trust the
  // directory afterwards.
  if (!options_.persist.dir.empty()) {
    persist_ = std::make_unique<persist::PersistenceManager>(
        options_.persist, ConfigFingerprint(options_, requests, arrivals));
    persist_status_ = persist_->Open();
    if (!persist_status_.ok()) {
      std::fprintf(stderr,
                   "crowdtopk persist: %s; replaying without persistence\n",
                   persist_status_.ToString().c_str());
      persist_.reset();
    }
  }

  std::deque<int64_t> admission;
  int64_t next_arrival = 0;
  int64_t done = 0;

  // Ascending: admission is FIFO over ascending arrival ids.
  std::vector<int64_t> inflight_ids;
  std::vector<bool> completed(n, false);

  // The durable record of a finished query.
  const auto complete_record = [&](int64_t id) {
    const QueryOutcome& o = outcomes_[id];
    persist::CompleteRecord record;
    record.query_id = id;
    record.status_code = static_cast<uint32_t>(o.status.code());
    record.total_microtasks = o.total_microtasks;
    record.rounds_private = o.rounds_private;
    record.precision_at_k = o.precision_at_k;
    record.items.assign(o.items.begin(), o.items.end());
    return record;
  };

  // Builds the durable image at the current barrier; the manager fills in
  // position, fingerprint, and segment fields.
  const auto snapshot_source = [&]() {
    persist::SnapshotData data;
    data.queued.assign(admission.begin(), admission.end());
    for (const int64_t id : inflight_ids) {
      const QueryServeStats& stats = scheduler_->QueryStats(id);
      data.inflight.push_back({id, stats.admitted_round,
                               stats.expired_assignments,
                               stats.requeued_assignments});
    }
    for (int64_t id = 0; id < next_arrival; ++id) {
      if (completed[id]) data.completed.push_back(complete_record(id));
      if (outcomes_[id].rejected) data.rejected.push_back(id);
    }
    if (cache_ != nullptr) data.cache_entries = cache_->Export();
    return data;
  };

  // Seals the events since the previous barrier. During catch-up this
  // verifies the re-derived digest against the durable record; live, it
  // appends one WAL batch (and maybe a snapshot).
  const auto seal_barrier = [&]() {
    const bool was_catchup = persist_->in_catchup();
    const util::Status status =
        persist_->OnBarrier(scheduler_->round(), scheduler_->now_seconds(),
                            next_arrival, done, snapshot_source);
    if (was_catchup && !persist_->in_catchup()) {
      replayed_microtasks_ = scheduler_->assignment_stats().completed;
    }
    return status;
  };
  // Availability-first: keep and report the first persist error, but let
  // the replay run on.
  const auto note_persist_error = [this](const util::Status& status) {
    if (status.ok() || !persist_status_.ok()) return;
    persist_status_ = status;
    std::fprintf(stderr, "crowdtopk persist: %s\n", status.ToString().c_str());
  };

  while (done < n) {
    // Move due arrivals into the admission queue (or reject on overflow).
    const double now = scheduler_->now_seconds();
    while (next_arrival < n && arrivals[next_arrival] <= now) {
      const int64_t id = next_arrival++;
      if (options_.max_queue >= 0 &&
          static_cast<int64_t>(inflight_ids.size()) >= options_.max_inflight &&
          static_cast<int64_t>(admission.size()) >= options_.max_queue) {
        QueryOutcome& o = outcomes_[id];
        o.rejected = true;
        o.start_seconds = o.finish_seconds = o.arrival_seconds;
        o.reject_reason = RejectReason::kQueueFull;
        o.status = util::Status::ResourceExhausted(
            "admission queue full (max_queue=" +
            std::to_string(options_.max_queue) + ")");
        ++done;
        if (persist_ != nullptr) persist_->OnReject(id);
        continue;
      }
      admission.push_back(id);
    }
    // Admit FIFO into free in-flight slots; each admitted query gets its
    // own fiber running the unmodified synchronous algorithm.
    while (!admission.empty() &&
           static_cast<int64_t>(inflight_ids.size()) < options_.max_inflight) {
      const int64_t id = admission.front();
      admission.pop_front();
      const int64_t stream = requests[id].seed_stream >= 0
                                 ? requests[id].seed_stream
                                 : id;
      scheduler_->AdmitQuery(id, stream, [this, &requests, id, stream] {
        RunQuery(requests[id], id, stream);
      });
      inflight_ids.push_back(id);
      if (persist_ != nullptr) persist_->OnAdmit(id);
    }

    // Step every in-flight query, in ascending id, until it yields at a
    // round boundary or finishes. Nothing else runs meanwhile.
    std::vector<int64_t> finished, waiting;
    for (const int64_t id : inflight_ids) {
      (scheduler_->Step(id) ? finished : waiting).push_back(id);
    }
    inflight_ids.swap(waiting);
    // Commit this pass's staged cache inserts for the next round's lookups;
    // the applied list (query-id order) is the WAL's cache-insert sequence.
    if (cache_ != nullptr) {
      std::vector<cache::ExportedEntry> applied;
      cache_->CommitPending(persist_ != nullptr ? &applied : nullptr);
      for (const cache::ExportedEntry& entry : applied) {
        persist_->OnCacheInsert(entry);
      }
    }
    done += static_cast<int64_t>(finished.size());
    for (const int64_t id : finished) {
      completed[id] = true;
      const QueryServeStats& stats = scheduler_->QueryStats(id);
      QueryOutcome& o = outcomes_[id];
      o.status = stats.status;
      o.start_seconds = stats.admitted_seconds;
      o.finish_seconds = stats.finished_seconds;
      o.latency_seconds = stats.finished_seconds - o.arrival_seconds;
      o.rounds_observed = stats.finished_round - stats.admitted_round;
      o.expired_assignments = stats.expired_assignments;
      o.requeued_assignments = stats.requeued_assignments;
      if (persist_ != nullptr) persist_->OnComplete(complete_record(id));
    }
    if (persist_ != nullptr) note_persist_error(seal_barrier());
    // Freed slots admit waiting queries before the next round.
    if (!finished.empty()) continue;
    if (!inflight_ids.empty()) {
      // Every in-flight query is waiting at its barrier.
      scheduler_->ExecuteRound();
    } else if (next_arrival < n) {
      // Nothing in flight: idle forward to the next arrival.
      scheduler_->AdvanceTimeTo(arrivals[next_arrival]);
    } else {
      CROWDTOPK_CHECK_EQ(done, n);
    }
  }
  // Final barrier: seal the last events durably and write the complete
  // snapshot. Every stepping pass already committed its cache inserts.
  if (persist_ != nullptr) {
    util::Status status = seal_barrier();
    if (status.ok()) status = persist_->Finalize(snapshot_source);
    note_persist_error(status);
    WritePersistTrace();
  }

  // A service replays once, so nothing reads outcomes_ after this.
  return std::move(outcomes_);
}

cache::CacheStats QueryService::cache_stats() const {
  return cache_ == nullptr ? cache::CacheStats() : cache_->stats();
}

std::vector<cache::ExportedEntry> QueryService::ExportCache() const {
  return cache_ == nullptr ? std::vector<cache::ExportedEntry>()
                           : cache_->Export();
}

persist::PersistCounters QueryService::persist_counters() const {
  return persist_ == nullptr ? persist::PersistCounters()
                             : persist_->counters();
}

void QueryService::WritePersistTrace() const {
  telemetry::TraceRecorder recorder;
  const persist::PersistCounters& c = persist_->counters();
  const auto record = [&recorder](const char* name, int64_t value) {
    recorder.RecordCounter(name, static_cast<double>(value));
  };
  record("persist/wal_records", c.wal_records);
  record("persist/wal_bytes", c.wal_bytes);
  record("persist/wal_segments", c.wal_segments);
  record("persist/snapshots", c.snapshots);
  record("persist/snapshot_bytes", c.snapshot_bytes);
  record("persist/resumed", c.resumed);
  record("persist/snapshot_loaded", c.snapshot_loaded);
  record("persist/snapshots_skipped", c.snapshots_skipped);
  record("persist/durable_barrier", c.durable_barrier);
  record("persist/replayed_barriers", c.replayed_barriers);
  record("persist/verified_barriers", c.verified_barriers);
  record("persist/divergent_barriers", c.divergent_barriers);
  record("persist/cache_image_verified", c.cache_image_verified);
  record("persist/cache_image_divergent", c.cache_image_divergent);
  record("persist/wal_records_recovered", c.wal_records_recovered);
  record("persist/wal_records_dropped", c.wal_records_dropped);
  record("persist/wal_bytes_dropped", c.wal_bytes_dropped);
  record("persist/wal_truncated", c.wal_truncated);
  record("persist/replayed_microtasks", replayed_microtasks_);
  if (cache_ != nullptr) {
    const cache::CacheStats cs = cache_->stats();
    record("cache/restored", cs.restored);
    for (const auto& [universe, dropped] : cs.dropped_by_universe) {
      record(("cache/universe" + std::to_string(universe) + "/dropped")
                 .c_str(),
             dropped);
    }
  }
  const util::Status status = telemetry::WriteJsonlFile(
      recorder.events(), options_.persist.dir + "/persist.trace.jsonl");
  if (!status.ok()) {
    std::fprintf(stderr, "persist trace: %s\n", status.ToString().c_str());
  }
}

void QueryService::RunQuery(const QueryRequest& request, int64_t query_id,
                            int64_t seed_stream) {
  AsyncPlatform platform(request.dataset,
                         util::SplitSeed(judgment_seed_, seed_stream),
                         scheduler_.get(), query_id);
  telemetry::TraceRecorder recorder;
  const bool tracing = !options_.trace_dir.empty();
  if (tracing) platform.SetRecorder(&recorder);
  std::unique_ptr<cache::CacheClient> cache_client;
  if (cache_ != nullptr) {
    cache_client = std::make_unique<cache::CacheClient>(
        cache_.get(), query_id, universes_[query_id], request.cache_item_ids);
    platform.SetCacheClient(cache_client.get());
  }

  const core::TopKResult result = request.algorithm->Run(&platform, request.k);
  // Flush trailing purchases so the query never finishes with microtasks
  // still queued at the crowd.
  platform.Drain();

  QueryOutcome& o = outcomes_[query_id];
  o.items = result.items;
  o.total_microtasks = platform.total_microtasks();
  o.rounds_private = platform.rounds();
  o.precision_at_k =
      metrics::PrecisionAtK(*request.dataset, result.items, request.k);
  const auto counter = [&recorder](const char* name, int64_t value) {
    recorder.RecordCounter(name, static_cast<double>(value));
  };
  if (cache_client != nullptr) {
    const cache::ClientStats& cs = cache_client->stats();
    o.cache_hits = cs.hits;
    o.cache_topups = cs.topups;
    o.cache_inferred = cs.inferred;
    o.cache_misses = cs.misses;
    if (tracing) {
      counter("cache/hits", cs.hits);
      counter("cache/topups", cs.topups);
      counter("cache/inferred", cs.inferred);
      counter("cache/misses", cs.misses);
      counter("cache/seeded_samples", cs.seeded_samples);
    }
  }

  if (tracing) {
    // The serve counters are stable here: the clock is frozen while this
    // query runs, and a drained query has no assignments left in flight.
    const QueryServeStats& stats = scheduler_->QueryStats(query_id);
    counter("serve/expired_assignments", stats.expired_assignments);
    counter("serve/requeued_assignments", stats.requeued_assignments);
    counter("serve/failed_assignments", stats.failed_assignments);
    char prefix[32];
    std::snprintf(prefix, sizeof(prefix), "/serve_q%05lld_",
                  static_cast<long long>(query_id));
    const std::string& name = request.algorithm->name();
    const util::Status status = metrics::WriteTraceFiles(
        recorder.events(),
        options_.trace_dir + prefix + metrics::TraceFileToken(name), name);
    if (!status.ok()) {
      std::fprintf(stderr, "serve trace: %s\n", status.ToString().c_str());
    }
  }
}

}  // namespace crowdtopk::serve
