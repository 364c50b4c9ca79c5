#include "cache/judgment_cache.h"

#include <algorithm>

#include "util/check.h"
#include "util/random.h"

namespace crowdtopk::cache {
namespace {

using crowd::ComparisonOutcome;
using crowd::ItemId;

uint64_t CanonicalPair(ItemId lo, ItemId hi) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(lo)) << 32) |
         static_cast<uint32_t>(hi);
}

// Flips an entry's orientation (operands swapped).
CachedComparison Flip(CachedComparison entry) {
  entry.outcome = crowd::Reverse(entry.outcome);
  entry.mean = -entry.mean;
  return entry;
}

uint64_t MixHash(uint64_t x) {
  // splitmix64 finalizer — same mixer the seeding layer uses.
  uint64_t state = x;
  return util::SplitMix64(&state);
}

}  // namespace

size_t JudgmentCache::KeyHash::operator()(const Key& key) const {
  return static_cast<size_t>(
      MixHash(MixHash(static_cast<uint64_t>(key.universe)) ^ key.pair ^
              (static_cast<uint64_t>(key.kind) << 62)));
}

size_t JudgmentCache::AdjKeyHash::operator()(const AdjKey& key) const {
  return static_cast<size_t>(
      MixHash((static_cast<uint64_t>(key.universe) << 34) ^
              (static_cast<uint64_t>(static_cast<uint32_t>(key.item)) << 2) ^
              static_cast<uint64_t>(key.kind)));
}

JudgmentCache::JudgmentCache(const CacheOptions& options) : options_(options) {}

JudgmentCache::Shard* JudgmentCache::ShardFor(const Key& key) {
  return &shards_[KeyHash{}(key) % kNumShards];
}

const JudgmentCache::Shard* JudgmentCache::ShardFor(const Key& key) const {
  return &shards_[KeyHash{}(key) % kNumShards];
}

bool JudgmentCache::Better(const CachedComparison& incoming,
                           const CachedComparison& existing) {
  if (incoming.decisive != existing.decisive) return incoming.decisive;
  if (incoming.alpha != existing.alpha) return incoming.alpha < existing.alpha;
  return incoming.count > existing.count;
}

LookupResult JudgmentCache::Lookup(int64_t universe, ItemId i, ItemId j,
                                   double alpha, int64_t budget,
                                   JudgmentKind kind) {
  CROWDTOPK_CHECK_NE(i, j);
  lookups_.fetch_add(1, std::memory_order_relaxed);
  LookupResult result;
  if (options_.capacity == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return result;
  }
  const ItemId lo = std::min(i, j);
  const ItemId hi = std::max(i, j);
  const Key key{universe, CanonicalPair(lo, hi),
                static_cast<int32_t>(kind)};
  bool found = false;
  CachedComparison canonical;
  {
    Shard* shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard->mu);
    const auto it = shard->entries.find(key);
    if (it != shard->entries.end()) {
      found = true;
      canonical = it->second;
    }
  }
  if (found) {
    result.entry = i == lo ? canonical : Flip(canonical);
    const bool confidence_covered =
        canonical.decisive && canonical.alpha <= alpha;
    // A budget-exhausted tie answers queries whose own budget the cached
    // funding already covers: they too would have run out undecided.
    const bool tie_covered = !canonical.decisive && canonical.count >= budget;
    if (confidence_covered || tie_covered) {
      result.status = LookupStatus::kHit;
      hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      result.status = LookupStatus::kTopUp;
      topups_.fetch_add(1, std::memory_order_relaxed);
    }
    seeded_samples_.fetch_add(canonical.count, std::memory_order_relaxed);
    return result;
  }
  if (options_.transitivity) {
    CachedComparison inferred;
    if (TryInfer(universe, lo, hi, alpha, kind, &inferred)) {
      result.status = LookupStatus::kInferred;
      result.entry = i == lo ? inferred : Flip(inferred);
      inferred_.fetch_add(1, std::memory_order_relaxed);
      return result;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

bool JudgmentCache::FindOriented(int64_t universe, ItemId a, ItemId b,
                                 JudgmentKind kind,
                                 CachedComparison* out) const {
  const ItemId lo = std::min(a, b);
  const ItemId hi = std::max(a, b);
  const Key key{universe, CanonicalPair(lo, hi), static_cast<int32_t>(kind)};
  const Shard* shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard->mu);
  const auto it = shard->entries.find(key);
  if (it == shard->entries.end()) return false;
  *out = a == lo ? it->second : Flip(it->second);
  return true;
}

bool JudgmentCache::TryInfer(int64_t universe, ItemId lo, ItemId hi,
                             double alpha, JudgmentKind kind,
                             CachedComparison* out) {
  // Candidate middles: items with decisive cached verdicts against BOTH
  // endpoints. Neighbour lists are sorted, so the intersection — and with it
  // the chosen chain — is deterministic.
  std::vector<ItemId> middles;
  {
    std::lock_guard<std::mutex> lock(adjacency_mu_);
    const auto it_lo = adjacency_.find(
        AdjKey{universe, lo, static_cast<int32_t>(kind)});
    const auto it_hi = adjacency_.find(
        AdjKey{universe, hi, static_cast<int32_t>(kind)});
    if (it_lo == adjacency_.end() || it_hi == adjacency_.end()) return false;
    std::set_intersection(it_lo->second.begin(), it_lo->second.end(),
                          it_hi->second.begin(), it_hi->second.end(),
                          std::back_inserter(middles));
  }
  bool found = false;
  double best_alpha = 0.0;
  ComparisonOutcome best_outcome = ComparisonOutcome::kTie;
  for (const ItemId r : middles) {
    if (r == lo || r == hi) continue;
    CachedComparison first;   // oriented (lo, r)
    CachedComparison second;  // oriented (r, hi)
    if (!FindOriented(universe, lo, r, kind, &first)) continue;
    if (!FindOriented(universe, r, hi, kind, &second)) continue;
    if (!first.decisive || !second.decisive) continue;
    // The verdicts only chain when they point the same way through r:
    // lo > r > hi infers lo > hi; lo < r < hi infers lo < hi.
    if (first.outcome != second.outcome) continue;
    // Union bound: both links hold with probability >= 1 - (a1 + a2).
    const double combined = first.alpha + second.alpha;
    if (combined > alpha) continue;
    // Keep the tightest chain; middles ascend, so ties keep the smallest r.
    if (!found || combined < best_alpha) {
      found = true;
      best_alpha = combined;
      best_outcome = first.outcome;
    }
  }
  if (!found) return false;
  *out = CachedComparison{};
  out->outcome = best_outcome;
  out->decisive = true;
  out->alpha = best_alpha;
  // count stays 0: an inferred verdict carries no samples to seed and no
  // strength estimate, and is never re-published (comparison-cache side
  // publishes only sessions that bought real samples).
  return true;
}

void JudgmentCache::Record(int64_t query_id, int64_t universe, ItemId i,
                           ItemId j, JudgmentKind kind,
                           const CachedComparison& entry) {
  CROWDTOPK_CHECK_NE(i, j);
  CROWDTOPK_CHECK_GE(entry.count, 1);
  if (options_.capacity == 0) return;
  const ItemId lo = std::min(i, j);
  const ItemId hi = std::max(i, j);
  const Key key{universe, CanonicalPair(lo, hi), static_cast<int32_t>(kind)};
  const CachedComparison canonical = i == lo ? entry : Flip(entry);
  std::lock_guard<std::mutex> lock(staged_mu_);
  staged_[query_id].push_back(Staged{key, canonical});
}

void JudgmentCache::Commit(const Key& key, const CachedComparison& entry,
                           bool restored) {
  bool adjacency_dirty = false;
  {
    Shard* shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard->mu);
    const auto it = shard->entries.find(key);
    if (it == shard->entries.end()) {
      if (options_.capacity >= 0 &&
          pairs_.load(std::memory_order_relaxed) >= options_.capacity) {
        dropped_capacity_.fetch_add(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> dropped_lock(dropped_mu_);
          ++dropped_by_universe_[key.universe];
        }
        return;
      }
      shard->entries.emplace(key, entry);
      pairs_.fetch_add(1, std::memory_order_relaxed);
      (restored ? restored_ : inserts_)
          .fetch_add(1, std::memory_order_relaxed);
      adjacency_dirty = entry.decisive;
    } else if (Better(entry, it->second)) {
      adjacency_dirty = entry.decisive && !it->second.decisive;
      it->second = entry;
      upgrades_.fetch_add(1, std::memory_order_relaxed);
    } else {
      return;
    }
  }
  if (adjacency_dirty && options_.transitivity) {
    const ItemId lo = static_cast<ItemId>(key.pair >> 32);
    const ItemId hi = static_cast<ItemId>(key.pair & 0xffffffffu);
    std::lock_guard<std::mutex> lock(adjacency_mu_);
    for (const auto& [item, other] : {std::pair(lo, hi), std::pair(hi, lo)}) {
      std::vector<ItemId>& neighbours =
          adjacency_[AdjKey{key.universe, item, key.kind}];
      const auto pos =
          std::lower_bound(neighbours.begin(), neighbours.end(), other);
      if (pos == neighbours.end() || *pos != other) {
        neighbours.insert(pos, other);
      }
    }
  }
}

void JudgmentCache::CommitPending(std::vector<ExportedEntry>* applied) {
  std::map<int64_t, std::vector<Staged>> staged;
  {
    std::lock_guard<std::mutex> lock(staged_mu_);
    staged.swap(staged_);
  }
  // std::map iterates queries in id order; each query's inserts apply in
  // its own staging order — both independent of thread timing.
  for (const auto& [query_id, inserts] : staged) {
    (void)query_id;
    for (const Staged& staged_insert : inserts) {
      if (applied != nullptr) {
        ExportedEntry exported;
        exported.universe = staged_insert.key.universe;
        exported.kind = staged_insert.key.kind;
        exported.lo = static_cast<ItemId>(staged_insert.key.pair >> 32);
        exported.hi = static_cast<ItemId>(staged_insert.key.pair & 0xffffffffu);
        exported.entry = staged_insert.entry;
        applied->push_back(exported);
      }
      Commit(staged_insert.key, staged_insert.entry);
    }
  }
}

std::vector<ExportedEntry> JudgmentCache::Export() const {
  std::vector<ExportedEntry> exported;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.entries) {
      ExportedEntry e;
      e.universe = key.universe;
      e.kind = key.kind;
      e.lo = static_cast<ItemId>(key.pair >> 32);
      e.hi = static_cast<ItemId>(key.pair & 0xffffffffu);
      e.entry = entry;
      exported.push_back(e);
    }
  }
  std::sort(exported.begin(), exported.end(),
            [](const ExportedEntry& a, const ExportedEntry& b) {
              if (a.universe != b.universe) return a.universe < b.universe;
              if (a.lo != b.lo) return a.lo < b.lo;
              if (a.hi != b.hi) return a.hi < b.hi;
              return a.kind < b.kind;
            });
  return exported;
}

void JudgmentCache::RestoreEntries(const std::vector<ExportedEntry>& entries) {
  if (options_.capacity == 0) return;
  for (const ExportedEntry& e : entries) {
    CROWDTOPK_CHECK(e.lo < e.hi);
    const Key key{e.universe, CanonicalPair(e.lo, e.hi), e.kind};
    Commit(key, e.entry, /*restored=*/true);
  }
}

CacheStats JudgmentCache::stats() const {
  CacheStats stats;
  stats.lookups = lookups_.load(std::memory_order_relaxed);
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.topups = topups_.load(std::memory_order_relaxed);
  stats.inferred = inferred_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  stats.upgrades = upgrades_.load(std::memory_order_relaxed);
  stats.dropped_capacity = dropped_capacity_.load(std::memory_order_relaxed);
  stats.seeded_samples = seeded_samples_.load(std::memory_order_relaxed);
  stats.pairs = pairs_.load(std::memory_order_relaxed);
  stats.restored = restored_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(dropped_mu_);
    stats.dropped_by_universe.assign(dropped_by_universe_.begin(),
                                     dropped_by_universe_.end());
  }
  return stats;
}

}  // namespace crowdtopk::cache
