// CacheClient: one query's handle onto the shared JudgmentCache.
//
// A client binds three things the shared cache cannot know by itself:
//
//   * the query id, which orders this query's deferred-commit inserts at
//     the serving layer's barriers between rounds;
//   * the universe id, namespacing entries per underlying oracle so that
//     queries over different datasets never share verdicts;
//   * an optional local-to-universe item-id translation, so a query running
//     over a data::SubsetDataset (dense local ids) still shares judgments
//     with every other query over the same parent items.
//
// The client also keeps this query's own hit/top-up/miss counters, which the
// serving layer exports as cache/* telemetry counters per query
// (docs/OBSERVABILITY.md).
//
// A client is owned by exactly one query (like the platform it is attached
// to via crowd::CrowdPlatform::SetCacheClient); the shared cache it
// forwards to is thread-safe.

#ifndef CROWDTOPK_CACHE_CACHE_CLIENT_H_
#define CROWDTOPK_CACHE_CACHE_CLIENT_H_

#include <cstdint>
#include <vector>

#include "cache/judgment_cache.h"
#include "crowd/types.h"

namespace crowdtopk::cache {

// Per-query cache traffic counters.
struct ClientStats {
  int64_t hits = 0;
  int64_t topups = 0;
  int64_t inferred = 0;
  int64_t misses = 0;
  int64_t seeded_samples = 0;  // cached samples restored into this query
};

class CacheClient {
 public:
  // `cache` must outlive the client. `universe_ids` maps this query's local
  // item ids onto the shared universe's ids (empty = identity); it is
  // copied, so a caller-side vector need not outlive the client.
  CacheClient(JudgmentCache* cache, int64_t query_id, int64_t universe,
              std::vector<crowd::ItemId> universe_ids = {});

  CacheClient(const CacheClient&) = delete;
  CacheClient& operator=(const CacheClient&) = delete;

  // Lookup/Record in this query's LOCAL id space; translation and
  // canonical-pair orientation happen inside. Returned entries are oriented
  // for (i, j) as passed.
  LookupResult Lookup(crowd::ItemId i, crowd::ItemId j, double alpha,
                      int64_t budget, JudgmentKind kind);
  void Record(crowd::ItemId i, crowd::ItemId j, JudgmentKind kind,
              const CachedComparison& entry);

  int64_t query_id() const { return query_id_; }
  int64_t universe() const { return universe_; }
  const ClientStats& stats() const { return stats_; }
  JudgmentCache* cache() const { return cache_; }

 private:
  crowd::ItemId Translate(crowd::ItemId local) const;

  JudgmentCache* cache_;
  int64_t query_id_;
  int64_t universe_;
  std::vector<crowd::ItemId> universe_ids_;
  ClientStats stats_;
};

}  // namespace crowdtopk::cache

#endif  // CROWDTOPK_CACHE_CACHE_CLIENT_H_
