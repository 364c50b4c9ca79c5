#include "sim/chaos.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "data/generators.h"
#include "sim/environment.h"
#include "util/check.h"

namespace crowdtopk::sim {
namespace {

// A ladder whose judgments flow through a degraded worker pool while the
// ground truth — used only for precision scoring — stays honest. The base
// ladder is owned; the injector wraps it.
class FaultyLadderDataset : public data::Dataset {
 public:
  FaultyLadderDataset(std::unique_ptr<data::Dataset> base,
                      const fault::FaultPlan& plan, uint64_t fault_seed)
      : data::Dataset("sim_faulty_ladder", CopyScores(*base)),
        base_(std::move(base)),
        injector_(base_.get(), plan, fault_seed) {}

  double PreferenceJudgment(crowd::ItemId i, crowd::ItemId j,
                            util::Rng* rng) const override {
    return injector_.PreferenceJudgment(i, j, rng);
  }
  double BinaryJudgment(crowd::ItemId i, crowd::ItemId j,
                        util::Rng* rng) const override {
    // The injector's inherited sign-of-preference derivation, so binary
    // streams see the same degraded workers.
    return injector_.BinaryJudgment(i, j, rng);
  }
  double GradedJudgment(crowd::ItemId i, util::Rng* rng) const override {
    return injector_.GradedJudgment(i, rng);
  }

 private:
  static std::vector<double> CopyScores(const data::Dataset& d) {
    std::vector<double> scores(d.num_items());
    for (int64_t i = 0; i < d.num_items(); ++i) {
      scores[i] = d.TrueScore(i);
    }
    return scores;
  }

  std::unique_ptr<data::Dataset> base_;
  fault::FaultInjectionOracle injector_;
};

}  // namespace

fault::FaultPlan Episode::FaultPlanFor() const {
  fault::FaultPlan plan;
  plan.num_workers = 50;
  plan.spammer_fraction = spammer_fraction;
  plan.adversary_fraction = adversary_fraction;
  plan.lazy_fraction = lazy_fraction;
  plan.duplicate_fraction = duplicate_fraction;
  plan.no_show_fraction = no_show_fraction;
  return plan;
}

bool Episode::any_value_faults() const {
  return fault::AnyValueFaults(FaultPlanFor());
}

Episode DeriveEpisode(uint64_t seed) {
  Episode e;
  e.seed = seed;
  const util::Rng root(
      util::SplitSeed(seed, static_cast<uint64_t>(Stream::kEpisode)));

  util::Rng workload = root.Split(1);
  e.items = workload.UniformInt(8, 14);
  e.gap = 0.5 + 0.5 * workload.Uniform();
  e.noise = 0.5 + 1.0 * workload.Uniform();
  e.queries = workload.UniformInt(3, 6);
  e.k = workload.UniformInt(2, 4);
  e.alpha = 0.02 + 0.06 * workload.Uniform();
  e.algorithms = workload.UniformInt(1, 4);
  e.arrival_rate = 0.02 + 0.08 * workload.Uniform();

  util::Rng sched = root.Split(2);
  e.crowd_workers = sched.UniformInt(8, 24);
  e.per_pair_batch = sched.UniformInt(2, 6);
  e.deadline_seconds = 30.0 + 60.0 * sched.Uniform();
  e.abandon_probability = sched.Bernoulli(0.5) ? 0.05 * sched.Uniform() : 0.0;
  e.max_attempts = sched.UniformInt(3, 5);
  e.max_inflight = sched.UniformInt(2, 4);
  e.max_queue = sched.Bernoulli(0.3) ? sched.UniformInt(1, 3) : -1;

  util::Rng faults = root.Split(3);
  if (faults.Bernoulli(0.5)) {
    e.spammer_fraction = faults.Bernoulli(0.5) ? 0.2 * faults.Uniform() : 0.0;
    e.adversary_fraction =
        faults.Bernoulli(0.35) ? 0.1 * faults.Uniform() : 0.0;
    e.lazy_fraction = faults.Bernoulli(0.5) ? 0.3 * faults.Uniform() : 0.0;
    e.duplicate_fraction =
        faults.Bernoulli(0.35) ? 0.2 * faults.Uniform() : 0.0;
    e.no_show_fraction =
        faults.Bernoulli(0.35) ? 0.15 * faults.Uniform() : 0.0;
  }

  util::Rng cache = root.Split(4);
  e.cache_enabled = cache.Bernoulli(0.6);
  if (e.cache_enabled) {
    e.transitivity = cache.Bernoulli(0.4);
    e.cache_capacity = cache.Bernoulli(0.3) ? cache.UniformInt(1, 8) : -1;
  }

  util::Rng persist = root.Split(5);
  e.persist_enabled = persist.Bernoulli(0.6);
  if (e.persist_enabled) {
    e.snapshot_every = persist.UniformInt(1, 5);
    e.wal_segment_bytes = persist.Bernoulli(0.5) ? (1 << 10) : (1 << 14);
    e.halt_after_barrier =
        persist.Bernoulli(0.6) ? persist.UniformInt(0, 6) : -1;
    // A torn tail needs a live WAL tail to tear; only halted (crash-image)
    // runs leave one behind — completed runs prune their log.
    e.torn_tail_bytes = (e.halt_after_barrier >= 0 && persist.Bernoulli(0.4))
                            ? persist.UniformInt(1, 64)
                            : 0;
  }

  util::Rng wire = root.Split(7);
  e.wire_trials = wire.UniformInt(1, 3);
  const double roll = wire.Uniform();
  e.wire_corruption = roll < 0.55   ? WireCorruption::kNone
                      : roll < 0.75 ? WireCorruption::kBitFlip
                      : roll < 0.90 ? WireCorruption::kTruncate
                                    : WireCorruption::kOversized;

  e.check_verify = root.Split(8).Bernoulli(0.25);

  util::Rng shard = root.Split(9);
  if (shard.Bernoulli(0.4)) {
    e.shards = shard.UniformInt(2, 4);
    e.shard_kill = shard.Bernoulli(0.5);
  }
  return e;
}

namespace {

void AppendKv(std::string* out, const char* key, const std::string& value) {
  if (!out->empty()) out->push_back(',');
  out->append(key);
  out->push_back('=');
  out->append(value);
}

std::string FmtI(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

std::string FmtU(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

// %.17g round-trips every double exactly through text.
std::string FmtD(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ToSpec(const Episode& e) {
  std::string s;
  AppendKv(&s, "seed", FmtU(e.seed));
  AppendKv(&s, "items", FmtI(e.items));
  AppendKv(&s, "gap", FmtD(e.gap));
  AppendKv(&s, "noise", FmtD(e.noise));
  AppendKv(&s, "queries", FmtI(e.queries));
  AppendKv(&s, "k", FmtI(e.k));
  AppendKv(&s, "alpha", FmtD(e.alpha));
  AppendKv(&s, "algos", FmtI(e.algorithms));
  AppendKv(&s, "rate", FmtD(e.arrival_rate));
  AppendKv(&s, "workers", FmtI(e.crowd_workers));
  AppendKv(&s, "eta", FmtI(e.per_pair_batch));
  AppendKv(&s, "deadline", FmtD(e.deadline_seconds));
  AppendKv(&s, "abandon", FmtD(e.abandon_probability));
  AppendKv(&s, "attempts", FmtI(e.max_attempts));
  AppendKv(&s, "inflight", FmtI(e.max_inflight));
  AppendKv(&s, "queue", FmtI(e.max_queue));
  AppendKv(&s, "spam", FmtD(e.spammer_fraction));
  AppendKv(&s, "adv", FmtD(e.adversary_fraction));
  AppendKv(&s, "lazy", FmtD(e.lazy_fraction));
  AppendKv(&s, "dup", FmtD(e.duplicate_fraction));
  AppendKv(&s, "noshow", FmtD(e.no_show_fraction));
  AppendKv(&s, "cache", FmtI(e.cache_enabled ? 1 : 0));
  AppendKv(&s, "cap", FmtI(e.cache_capacity));
  AppendKv(&s, "trans", FmtI(e.transitivity ? 1 : 0));
  AppendKv(&s, "persist", FmtI(e.persist_enabled ? 1 : 0));
  AppendKv(&s, "snap", FmtI(e.snapshot_every));
  AppendKv(&s, "walseg", FmtI(e.wal_segment_bytes));
  AppendKv(&s, "halt", FmtI(e.halt_after_barrier));
  AppendKv(&s, "torn", FmtI(e.torn_tail_bytes));
  AppendKv(&s, "wire", FmtI(e.wire_trials));
  AppendKv(&s, "corrupt", FmtI(static_cast<int32_t>(e.wire_corruption)));
  AppendKv(&s, "verify", FmtI(e.check_verify ? 1 : 0));
  AppendKv(&s, "shards", FmtI(e.shards));
  AppendKv(&s, "shardkill", FmtI(e.shard_kill ? 1 : 0));
  AppendKv(&s, "mutation", e.mutation);
  return s;
}

namespace {

bool ParseI(const std::string& v, int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(v.c_str(), &end, 10);
  return end != v.c_str() && *end == '\0';
}

bool ParseU(const std::string& v, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(v.c_str(), &end, 10);
  return end != v.c_str() && *end == '\0';
}

bool ParseD(const std::string& v, double* out) {
  char* end = nullptr;
  *out = std::strtod(v.c_str(), &end);
  return end != v.c_str() && *end == '\0';
}

bool ParseB(const std::string& v, bool* out) {
  if (v != "0" && v != "1") return false;
  *out = v == "1";
  return true;
}

}  // namespace

util::StatusOr<Episode> EpisodeFromSpec(const std::string& spec) {
  Episode e;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string pair =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (pair.empty()) continue;
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return util::Status::InvalidArgument("episode spec entry without '=': " +
                                           pair);
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    bool ok = true;
    int32_t corrupt = 0;
    if (key == "seed") {
      ok = ParseU(value, &e.seed);
    } else if (key == "items") {
      ok = ParseI(value, &e.items);
    } else if (key == "gap") {
      ok = ParseD(value, &e.gap);
    } else if (key == "noise") {
      ok = ParseD(value, &e.noise);
    } else if (key == "queries") {
      ok = ParseI(value, &e.queries);
    } else if (key == "k") {
      ok = ParseI(value, &e.k);
    } else if (key == "alpha") {
      ok = ParseD(value, &e.alpha);
    } else if (key == "algos") {
      ok = ParseI(value, &e.algorithms);
    } else if (key == "rate") {
      ok = ParseD(value, &e.arrival_rate);
    } else if (key == "workers") {
      ok = ParseI(value, &e.crowd_workers);
    } else if (key == "eta") {
      ok = ParseI(value, &e.per_pair_batch);
    } else if (key == "deadline") {
      ok = ParseD(value, &e.deadline_seconds);
    } else if (key == "abandon") {
      ok = ParseD(value, &e.abandon_probability);
    } else if (key == "attempts") {
      ok = ParseI(value, &e.max_attempts);
    } else if (key == "inflight") {
      ok = ParseI(value, &e.max_inflight);
    } else if (key == "queue") {
      ok = ParseI(value, &e.max_queue);
    } else if (key == "spam") {
      ok = ParseD(value, &e.spammer_fraction);
    } else if (key == "adv") {
      ok = ParseD(value, &e.adversary_fraction);
    } else if (key == "lazy") {
      ok = ParseD(value, &e.lazy_fraction);
    } else if (key == "dup") {
      ok = ParseD(value, &e.duplicate_fraction);
    } else if (key == "noshow") {
      ok = ParseD(value, &e.no_show_fraction);
    } else if (key == "cache") {
      ok = ParseB(value, &e.cache_enabled);
    } else if (key == "cap") {
      ok = ParseI(value, &e.cache_capacity);
    } else if (key == "trans") {
      ok = ParseB(value, &e.transitivity);
    } else if (key == "persist") {
      ok = ParseB(value, &e.persist_enabled);
    } else if (key == "snap") {
      ok = ParseI(value, &e.snapshot_every);
    } else if (key == "walseg") {
      ok = ParseI(value, &e.wal_segment_bytes);
    } else if (key == "halt") {
      ok = ParseI(value, &e.halt_after_barrier);
    } else if (key == "torn") {
      ok = ParseI(value, &e.torn_tail_bytes);
    } else if (key == "wire") {
      ok = ParseI(value, &e.wire_trials);
    } else if (key == "corrupt") {
      int64_t raw = 0;
      ok = ParseI(value, &raw) && raw >= 0 && raw <= 3;
      corrupt = static_cast<int32_t>(raw);
      if (ok) e.wire_corruption = static_cast<WireCorruption>(corrupt);
    } else if (key == "verify") {
      ok = ParseB(value, &e.check_verify);
    } else if (key == "shards") {
      ok = ParseI(value, &e.shards);
    } else if (key == "shardkill") {
      ok = ParseB(value, &e.shard_kill);
    } else if (key == "mutation") {
      e.mutation = value;
    } else {
      return util::Status::InvalidArgument("unknown episode spec key: " + key);
    }
    if (!ok) {
      return util::Status::InvalidArgument("unparseable episode spec value: " +
                                           pair);
    }
  }
  return e;
}

std::unique_ptr<data::Dataset> MakeEpisodeDataset(const Episode& episode,
                                                  uint64_t fault_seed) {
  std::unique_ptr<data::Dataset> ladder =
      data::MakeUniformLadder(episode.items, episode.gap, episode.noise);
  if (!episode.any_value_faults()) return ladder;
  return std::make_unique<FaultyLadderDataset>(
      std::move(ladder), episode.FaultPlanFor(), fault_seed);
}

}  // namespace crowdtopk::sim
