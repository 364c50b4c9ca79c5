// LocalShardBackend: an in-process engine shard.
//
// Executes each sub-batch through a fresh serve::QueryService — the same
// engine-per-batch construction net::Engine's default RunBatch uses —
// under the *constant* master seed, with every request stamped with its
// global query id (backend.h). The shard's judgment cache chains batch-to-batch
// through warm_cache exports, exactly like a single server's; under
// router cache_sync the router replaces that warm set with the merged
// cross-shard export between batches.
//
// Deterministic failure injection: with fail_at_batch >= 1 the shard
// "dies" at the start of its fail_at_batch-th RunBatch (1-based), loses
// that sub-batch, and stays dead — the hook behind CROWDTOPK_SHARD_FAIL
// and the simulation's shard-kill chaos episodes.

#ifndef CROWDTOPK_SHARD_LOCAL_BACKEND_H_
#define CROWDTOPK_SHARD_LOCAL_BACKEND_H_

#include <cstdint>
#include <vector>

#include "serve/query_service.h"
#include "shard/backend.h"

namespace crowdtopk::shard {

class LocalShardBackend : public ShardBackend {
 public:
  struct Options {
    uint64_t seed = 20170514;  // master seed, shared by every shard
    serve::ScheduleOptions schedule;
    int64_t max_inflight = 16;
    cache::CacheOptions cache;
    // Fault injection: die while executing the N-th batch (1-based);
    // <= 0 disables.
    int64_t fail_at_batch = -1;
  };

  explicit LocalShardBackend(const Options& options) : options_(options) {}

  util::StatusOr<ShardBatchResult> RunBatch(
      const std::vector<RoutedQuery>& batch) override;

  bool dead() const override { return dead_; }

  bool SupportsCacheSync() const override { return options_.cache.enabled; }
  std::vector<cache::ExportedEntry> ExportCache() override { return warm_; }
  void SetWarmCache(std::vector<cache::ExportedEntry> entries) override {
    warm_ = std::move(entries);
  }

  int64_t batches_run() const override { return batches_run_; }
  int64_t queries_run() const override { return queries_run_; }
  int64_t microtasks() const override { return microtasks_; }

 private:
  const Options options_;
  bool dead_ = false;
  int64_t batches_run_ = 0;
  int64_t queries_run_ = 0;
  int64_t microtasks_ = 0;
  // Committed cache entries after the last batch; the warm-start set for
  // the next one (possibly overwritten by the router's merged export).
  std::vector<cache::ExportedEntry> warm_;
};

}  // namespace crowdtopk::shard

#endif  // CROWDTOPK_SHARD_LOCAL_BACKEND_H_
