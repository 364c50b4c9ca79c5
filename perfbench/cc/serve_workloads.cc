// serve-wide and serve-cached-durable: offline replays through
// serve::QueryService::Replay (and, for the durable workload, one
// persist::PersistOptions::resume over the replay's own directory).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/judgment_cache.h"
#include "data/generators.h"
#include "judgment/comparison.h"
#include "measure.h"
#include "net/server.h"
#include "persist/format.h"
#include "persist/wal.h"
#include "serve/arrival.h"
#include "serve/query_service.h"
#include "serve/report.h"
#include "spans.h"
#include "telemetry/recorder.h"
#include "workloads.h"

namespace crowdtopk::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kK = 10;
constexpr double kAlpha = 0.02;
// The seed the repository's tools default to; at it, serve-wide must
// reproduce crowdtopk_serve run with the same knobs.
constexpr uint64_t kReferenceSeed = 20170514;

struct ServeShape {
  const char* name;
  int64_t queries;
  int64_t inflight;
  bool cached_durable;
};

constexpr ServeShape kWide{"serve-wide", 200, 256, false};
constexpr ServeShape kCachedDurable{"serve-cached-durable", 1000, 16, true};

struct Dirs {
  std::string persist;
  std::string trace;
};

void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
}

// What setup builds. A repetition replays `requests` through `service`.
struct Fixture {
  std::unique_ptr<data::Dataset> dataset;
  CountingDataset* counting = nullptr;  // set when traced
  std::vector<std::unique_ptr<core::TopKAlgorithm>> algorithms;
  std::vector<std::unique_ptr<TimedAlgorithm>> timed;  // traced: per request
  std::vector<serve::QueryRequest> requests;
  std::vector<double> arrivals;
  serve::ServeOptions options;
  std::unique_ptr<serve::QueryService> service;
};

// Dataset, algorithms, trace and service, until Replay can be called.
// With `log` set the dataset and every request's algorithm are decorated.
Fixture Build(const ServeShape& shape, uint64_t seed, const Dirs& dirs,
              SpanLog* log) {
  Fixture f;
  std::unique_ptr<data::Dataset> base = data::MakeByName("peopleage", seed);
  if (log != nullptr) {
    auto counting = std::make_unique<CountingDataset>(std::move(base));
    f.counting = counting.get();
    f.dataset = std::move(counting);
  } else {
    f.dataset = std::move(base);
  }

  judgment::ComparisonOptions comparison;
  comparison.alpha = kAlpha;
  const net::AlgorithmFactory factory = net::DefaultAlgorithmFactory();
  for (const char* name : kAlgorithms) {
    f.algorithms.push_back(factory(name, comparison));
  }

  f.requests.resize(static_cast<size_t>(shape.queries));
  for (int64_t q = 0; q < shape.queries; ++q) {
    core::TopKAlgorithm* algorithm =
        f.algorithms[static_cast<size_t>(q) % f.algorithms.size()].get();
    if (log != nullptr) {
      f.timed.push_back(
          std::make_unique<TimedAlgorithm>(algorithm, log, q, -1));
      algorithm = f.timed.back().get();
    }
    serve::QueryRequest& request = f.requests[static_cast<size_t>(q)];
    request.algorithm = algorithm;
    request.dataset = f.dataset.get();
    request.k = kK;
  }
  f.arrivals = serve::PoissonArrivals(shape.queries, /*rate=*/1.0, seed);

  f.options.schedule.crowd_workers = 2000;
  f.options.max_inflight = shape.inflight;
  f.options.seed = seed;
  if (shape.cached_durable) {
    f.options.cache.enabled = true;
    f.options.cache.capacity = -1;
    f.options.cache.transitivity = true;
    // Shipped persistence defaults: fdatasync on, snapshot every 8.
    f.options.persist.dir = dirs.persist;
    f.options.trace_dir = dirs.trace;
  }
  f.service = std::make_unique<serve::QueryService>(f.options);
  return f;
}

// The outcome columns that are pure functions of (seed, trace): status,
// answer, crowd cost and rounds. Byte-compared across repetitions.
std::string PureTable(const std::vector<serve::QueryOutcome>& outcomes) {
  std::string table;
  char line[256];
  for (const serve::QueryOutcome& o : outcomes) {
    std::snprintf(line, sizeof(line), "%lld,%s,%s,%d,%lld,%lld,%lld,%.17g,",
                  static_cast<long long>(o.query_id), o.algorithm.c_str(),
                  util::StatusCodeName(o.status.code()), o.rejected ? 1 : 0,
                  static_cast<long long>(o.total_microtasks),
                  static_cast<long long>(o.rounds_observed),
                  static_cast<long long>(o.rounds_private), o.precision_at_k);
    table += line;
    for (size_t i = 0; i < o.items.size(); ++i) {
      if (i > 0) table += ' ';
      table += std::to_string(o.items[i]);
    }
    table += '\n';
  }
  return table;
}

Cause Classify(const serve::QueryOutcome& o, int64_t num_items) {
  if (o.rejected) return Cause::kRejected;
  switch (o.status.code()) {
    case util::StatusCode::kOk:
      return IsValidTopK(o.items, kK, num_items) ? Cause::kOk
                                                 : Cause::kMalformed;
    case util::StatusCode::kResourceExhausted:
      return Cause::kExhausted;
    default:
      return Cause::kOther;
  }
}

struct DirStats {
  int64_t files = 0;
  int64_t bytes = 0;
};

DirStats ScanDir(const std::string& dir) {
  DirStats s;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    ++s.files;
    s.bytes += static_cast<int64_t>(entry.file_size());
  }
  return s;
}

// One repetition's results. wall_s covers Replay only, cpu_s Replay and
// the resume.
struct Rep : RepBase {
  CpuSample replay_cpu;  // Replay only
  std::vector<serve::QueryOutcome> outcomes;
  std::string table;
  std::string report;
  serve::ServeReport summary;
  int64_t rounds = 0;
  serve::AssignmentStats assignments;
  cache::CacheStats cache;
  std::vector<cache::ExportedEntry> cache_export;
  persist::PersistCounters persist;
  DirStats traces;
  // Durable workload only.
  double resume_s = 0.0;
  persist::PersistCounters resume_persist;
  int64_t replayed_microtasks = 0;
  // Traced repetition only.
  int64_t oracle_calls = 0;
  int64_t oracle_ns = 0;
  int64_t replay_span = -1;
  int64_t resume_span = -1;
};

// Builds a fixture, replays it, resumes it when durable, and checks the
// outputs; `log` non-null turns the decorators and spans on.
Rep RunRep(const ServeShape& shape, uint64_t seed, const Dirs& dirs,
           SpanLog* log, RunResult* result) {
  ResetDir(dirs.persist);
  ResetDir(dirs.trace);
  SyncFilesystem(dirs.persist);
  Rep rep;
  Fixture f = Build(shape, seed, dirs, log);

  const CpuSample c0 = ReadCpu();
  const double t0 = NowSeconds();
  {
    std::unique_ptr<ScopedSpan> span;
    if (log != nullptr) {
      span = std::make_unique<ScopedSpan>(log, "serve.replay", -1);
      rep.replay_span = span->id();
      for (auto& timed : f.timed) timed->set_parent(span->id());
    }
    rep.outcomes = f.service->Replay(f.requests, f.arrivals);
  }
  rep.wall_s = NowSeconds() - t0;
  rep.replay_cpu = ReadCpu() - c0;
  if (f.counting != nullptr) {
    rep.oracle_calls = f.counting->calls();
    rep.oracle_ns = f.counting->nanos();
  }

  rep.rounds = f.service->total_rounds();
  rep.assignments = f.service->assignment_stats();
  rep.cache = f.service->cache_stats();
  rep.cache_export = f.service->ExportCache();
  rep.persist = f.service->persist_counters();
  rep.table = PureTable(rep.outcomes);
  rep.summary = serve::BuildServeReport(rep.outcomes, rep.assignments,
                                        f.service->makespan_seconds(),
                                        rep.rounds);
  rep.report = serve::RenderServeReport(rep.summary);
  for (const serve::QueryOutcome& o : rep.outcomes) {
    rep.tally.Count(Classify(o, f.dataset->num_items()));
  }

  if (shape.cached_durable) {
    rep.traces = ScanDir(dirs.trace);
    if (!f.service->persist_status().ok()) {
      result->Fail("persist: " + f.service->persist_status().ToString());
    }
    // A restart over the same directory with the same knobs.
    serve::ServeOptions resume_options = f.options;
    resume_options.persist.resume = true;
    const double r0 = NowSeconds();
    std::unique_ptr<ScopedSpan> span;
    if (log != nullptr) {
      span = std::make_unique<ScopedSpan>(log, "persist.resume", -1);
      rep.resume_span = span->id();
      for (auto& timed : f.timed) timed->set_parent(span->id());
    }
    serve::QueryService resumed(resume_options);
    const std::vector<serve::QueryOutcome> outcomes =
        resumed.Replay(f.requests, f.arrivals);
    span.reset();
    rep.resume_s = NowSeconds() - r0;
    rep.resume_persist = resumed.persist_counters();
    rep.replayed_microtasks = resumed.replayed_microtasks();
    if (!resumed.persist_status().ok()) {
      result->Fail("resume: " + resumed.persist_status().ToString());
    }
    if (rep.resume_persist.resumed != 1 ||
        rep.resume_persist.divergent_barriers != 0 ||
        rep.resume_persist.cache_image_divergent != 0) {
      result->Fail("resume: not a clean verified catch-up (divergent "
                   "barriers " +
                   std::to_string(rep.resume_persist.divergent_barriers) +
                   ")");
    }
    const std::string resumed_report = serve::RenderServeReport(
        serve::BuildServeReport(outcomes, resumed.assignment_stats(),
                                resumed.makespan_seconds(),
                                resumed.total_rounds()));
    if (PureTable(outcomes) != rep.table || resumed_report != rep.report) {
      result->Fail("resume: report differs from the original replay");
    }
  }
  rep.cpu_s = (ReadCpu() - c0).total_s();
  return rep;
}

// --- per-layer probes (traced run only) ---------------------------------

// The same requests one at a time on private platforms: the compute floor
// under serve.replay_s.
double ServePrivateRunSeconds(const ServeShape& shape, uint64_t seed) {
  Fixture f = Build(shape, seed, Dirs{}, nullptr);
  std::vector<core::TopKAlgorithm*> algorithms;
  for (const serve::QueryRequest& r : f.requests) {
    algorithms.push_back(r.algorithm);
  }
  return PrivateRunSeconds(f.dataset.get(), algorithms, kK, seed);
}

// Mean ns per JudgmentCache::Lookup over the run's exported keys on a
// cache rebuilt with RestoreEntries, each of `threads` threads looking up
// every key `passes` times.
double LookupNanos(const std::vector<cache::ExportedEntry>& keys,
                   const cache::CacheOptions& options, int threads) {
  if (keys.empty()) return 0.0;
  cache::JudgmentCache cache(options);
  cache.RestoreEntries(keys);
  const int64_t passes =
      std::max<int64_t>(1, 1000000 / static_cast<int64_t>(keys.size()));
  std::vector<double> per_thread(static_cast<size_t>(threads), 0.0);
  judgment::ComparisonOptions request;
  request.alpha = kAlpha;
  auto worker = [&](int t) {
    int64_t sink = 0;
    const double t0 = NowSeconds();
    for (int64_t p = 0; p < passes; ++p) {
      for (const cache::ExportedEntry& e : keys) {
        sink += static_cast<int64_t>(
            cache.Lookup(e.universe, e.lo, e.hi, request.alpha,
                         request.budget,
                         static_cast<cache::JudgmentKind>(e.kind))
                .status);
      }
    }
    per_thread[static_cast<size_t>(t)] =
        (NowSeconds() - t0) * 1e9 /
        static_cast<double>(passes * static_cast<int64_t>(keys.size()));
    if (sink < 0) std::abort();  // keeps the loop observable
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (std::thread& th : pool) th.join();
  double sum = 0.0;
  for (const double v : per_thread) sum += v;
  return sum / static_cast<double>(threads);
}

// Median microseconds per WalWriter::AppendBatch, re-appending the run's
// own records into a fresh directory. The run's WAL segments are pruned
// once its final snapshot lands, so the records are re-encoded from the
// run's outcomes and cache export and spread over as many batches as the
// run sealed barriers.
double AppendMicros(const Rep& rep, const serve::ServeOptions& options,
                    const std::string& dir, RunResult* result) {
  const int64_t barriers = rep.resume_persist.durable_barrier + 1;
  if (barriers <= 0) return 0.0;
  std::vector<std::string> events;
  for (const serve::QueryOutcome& o : rep.outcomes) {
    events.push_back(persist::EncodeAdmit(o.query_id));
    persist::CompleteRecord complete;
    complete.query_id = o.query_id;
    complete.status_code = static_cast<uint32_t>(o.status.code());
    complete.total_microtasks = o.total_microtasks;
    complete.rounds_private = o.rounds_private;
    complete.precision_at_k = o.precision_at_k;
    complete.items = o.items;
    events.push_back(persist::EncodeComplete(complete));
  }
  for (const cache::ExportedEntry& e : rep.cache_export) {
    events.push_back(persist::EncodeCacheInsert(e));
  }
  ResetDir(dir);
  persist::WalWriterOptions writer_options;
  writer_options.dir = dir;
  writer_options.segment_bytes = options.persist.wal_segment_bytes;
  writer_options.fsync = options.persist.wal_fsync;
  persist::WalWriter writer(writer_options, 0);
  const int64_t batches = std::min<int64_t>(barriers, 400);
  std::vector<double> micros;
  size_t next = 0;
  for (int64_t b = 0; b < batches; ++b) {
    const size_t end = static_cast<size_t>(
        (static_cast<int64_t>(events.size()) * (b + 1)) / barriers);
    std::vector<std::string> batch(events.begin() + static_cast<long>(next),
                                   events.begin() + static_cast<long>(end));
    next = end;
    persist::BarrierRecord barrier;
    barrier.barrier = b;
    batch.push_back(persist::EncodeBarrier(barrier));
    const double t0 = NowSeconds();
    const util::Status status = writer.AppendBatch(batch);
    micros.push_back((NowSeconds() - t0) * 1e6);
    if (!status.ok()) {
      result->Fail("wal append probe: " + status.ToString());
      break;
    }
  }
  return Median(micros);
}

// Mean ns per TraceRecorder::RecordPurchase.
double RecordPurchaseNanos() {
  telemetry::TraceRecorder recorder;
  recorder.BeginPhase("probe");
  constexpr int kChunks = 10;
  constexpr int kPerChunk = 100000;
  double total = 0.0;
  for (int c = 0; c < kChunks; ++c) {
    const double t0 = NowSeconds();
    for (int i = 0; i < kPerChunk; ++i) {
      recorder.RecordPurchase(telemetry::PurchaseKind::kPreference, i % 97,
                              (i + 1) % 97, 1);
    }
    total += NowSeconds() - t0;
    recorder.Clear();
  }
  return total * 1e9 / (kChunks * kPerChunk);
}

// --- repetitions and reporting -------------------------------------------

// Untraced repetitions for about `seconds`, each checked against the first.
std::vector<Rep> RunServeReps(const ServeShape& shape, const RunConfig& config,
                              const Dirs& dirs, double seconds, int min_reps,
                              RunResult* result) {
  std::vector<Rep> reps = RunReps<Rep>(seconds, min_reps, result, [&] {
    return RunRep(shape, config.seed, dirs, nullptr, result);
  });
  for (size_t i = 0; i < reps.size(); ++i) {
    if (reps[i].table != reps.front().table) {
      result->Fail("repetition " + std::to_string(i) +
                   ": per-query outcome table differs from repetition 0");
    }
    if (reps[i].tally.count(Cause::kMalformed) > 0) {
      result->Fail("an OK query did not return k distinct item ids");
    }
  }
  return reps;
}

// Median seconds of data::MakeByName over `samples` builds.
double DataBuildSeconds(uint64_t seed, int samples) {
  std::vector<double> seconds;
  for (int i = 0; i < samples; ++i) {
    const double t0 = NowSeconds();
    const std::unique_ptr<data::Dataset> dataset =
        data::MakeByName("peopleage", seed);
    seconds.push_back(NowSeconds() - t0);
  }
  return Median(seconds);
}

void ReportCommon(const ServeShape& shape, const RunConfig& config,
                  const std::vector<Rep>& reps, RunResult* result) {
  const Rep& first = reps.front();
  result->info.push_back(
      std::string(shape.name) + ": " + std::to_string(shape.queries) +
      " peopleage queries (spr,tourtree,heapsort,quickselect), k=10, "
      "alpha=0.02, Poisson lambda=1/s, W=2000, in-flight " +
      std::to_string(shape.inflight) + ", " + std::to_string(reps.size()) +
      " repetitions");
  std::string walls = "repetition wall s:";
  for (const Rep& rep : reps) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.3f", rep.wall_s);
    walls += buf;
  }
  result->info.push_back(walls);
  result->info.push_back("outcomes per repetition: ok=" +
                         std::to_string(first.tally.ok()) + " " +
                         first.tally.Breakdown());
  if (config.seed == kReferenceSeed && !shape.cached_durable &&
      (first.summary.total_microtasks != 2691050 || first.tally.ok() != 196 ||
       first.tally.not_ok() != 4)) {
    result->Fail("reference seed: expected 2691050 microtasks, 196 ok and "
                 "4 failed (crowdtopk_serve with the same knobs)");
  }
}

RunResult RunServe(const ServeShape& shape, const RunConfig& config) {
  RunResult result;
  const Dirs dirs{config.work_dir + "/persist", config.work_dir + "/traces"};
  if (config.setup_samples > 0) {
    // Build touches no file: the service opens its directories in Replay.
    return SetupOnly(config.setup_samples, [&](std::string*) {
      return Build(shape, config.seed, dirs, nullptr);
    });
  }
  ResetDir(dirs.persist);
  ResetDir(dirs.trace);

  if (!config.trace) {
    const std::vector<Rep> reps = RunServeReps(
        shape, config, dirs, config.seconds, kMinRepetitions, &result);
    ReportCommon(shape, config, reps, &result);
    const Rep& first = reps.front();
    const std::string n = "n=" + std::to_string(reps.size());
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
    result.Add("tmc_microtasks",
               static_cast<double>(first.summary.total_microtasks),
               "microtasks");
    result.Add("precision_at_k", first.summary.mean_precision, "ratio");
    result.Add("ok_ratio", first.tally.ok_ratio(), "ratio");
    // Printed, not gated: wall-clock throughput and CPU time move with the
    // host's load; the others exist on one workload only, or can be 0.
    result.Add("queries_per_s", Median(Collect(reps, QueriesPerSecond)),
               "queries/s", "median, " + n);
    result.Add("serve.cpu_s",
               Median(Collect(reps, [](const Rep& r) { return r.cpu_s; })),
               "s", "median per repetition, " + n);
    result.Add("global_rounds", static_cast<double>(first.rounds), "rounds");
    result.Add("failed_ratio", first.tally.failed_ratio(), "ratio",
               first.tally.Breakdown());
    if (shape.cached_durable) {
      result.Add("resume_s",
                 Median(Collect(reps, [](const Rep& r) { return r.resume_s; })),
                 "s", "median, " + n);
    }
    return result;
  }

  // Traced run: untraced reference repetitions, one traced repetition,
  // then the per-layer probes.
  const std::vector<Rep> reps =
      RunServeReps(shape, config, dirs, config.seconds / 2, 2, &result);
  ReportCommon(shape, config, reps, &result);
  const Rep& first = reps.front();
  const std::string n = "n=" + std::to_string(reps.size());

  SpanLog log;
  const Rep traced = RunRep(shape, config.seed, dirs, &log, &result);
  if (traced.table != first.table) {
    result.Fail("traced repetition: per-query outcome table differs from "
                "the untraced one (decorator observer effect)");
  }

  const double replay_s =
      Median(Collect(reps, [](const Rep& r) { return r.wall_s; }));
  result.Add("serve.replay_s", replay_s, "s", "median, " + n);
  std::vector<double> query_ms;
  for (const Span& s : log.Named("serve.query")) {
    if (s.parent == traced.replay_span) query_ms.push_back(s.seconds() * 1e3);
  }
  const Tail wall_tail = TailPercentile(query_ms);
  result.Add("serve.query_wall_p50_ms", Median(query_ms), "ms",
             "median, n=" + std::to_string(query_ms.size()));
  result.Add("serve.query_wall_p99_ms", wall_tail.value, "ms",
             TailNote(wall_tail));
  result.Add("serve.rounds_per_s", static_cast<double>(first.rounds) / replay_s,
             "rounds/s");
  result.Add("serve.ctx_switches",
             Median(Collect(reps,
                            [](const Rep& r) {
                              return static_cast<double>(
                                  r.replay_cpu.ctx_switches);
                            })),
             "count", "median, " + n);
  result.Add("serve.sys_cpu_s",
             Median(Collect(reps,
                            [](const Rep& r) { return r.replay_cpu.sys_s; })),
             "s", "median, " + n);
  result.Add("serve.cpu_s",
             Median(Collect(reps, [](const Rep& r) { return r.cpu_s; })), "s",
             "median per repetition, " + n);
  result.Add("serve.assignments",
             static_cast<double>(first.assignments.scheduled), "count");
  result.Add("serve.expired_ratio",
             first.assignments.scheduled == 0
                 ? 0.0
                 : static_cast<double>(first.assignments.expired) /
                       static_cast<double>(first.assignments.scheduled),
             "ratio", "base: scheduled assignments");
  result.Add("global_rounds", static_cast<double>(first.rounds), "rounds");
  result.Add("failed_ratio", first.tally.failed_ratio(), "ratio",
             first.tally.Breakdown());

  result.Add("crowd.oracle_calls", static_cast<double>(traced.oracle_calls),
             "count", "traced repetition");
  result.Add("crowd.oracle_ns", static_cast<double>(traced.oracle_ns), "ns",
             "summed over calls, traced repetition");
  constexpr int kBuildSamples = 101;
  result.Add("data.build_s", DataBuildSeconds(config.seed, kBuildSamples), "s",
             "median, n=" + std::to_string(kBuildSamples));

  result.Add("queries_per_s", Median(Collect(reps, QueriesPerSecond)),
             "queries/s", "untraced, median, " + n);
  result.Add("tracing.queries_per_s", QueriesPerSecond(traced), "queries/s",
             "one traced repetition");

  if (!shape.cached_durable) {
    result.Add("core.private_run_s", ServePrivateRunSeconds(shape, config.seed),
               "s", "same requests, one at a time, private platforms");
  }

  if (shape.cached_durable) {
    const cache::CacheStats& cs = first.cache;
    result.Add("cache.lookups", static_cast<double>(cs.lookups), "count");
    result.Add("cache.hit_ratio",
               cs.lookups == 0 ? 0.0
                               : static_cast<double>(cs.hits + cs.topups +
                                                     cs.inferred) /
                                     static_cast<double>(cs.lookups),
               "ratio", "base: lookups; hits+topups+inferred");
    result.Add("cache.pairs", static_cast<double>(cs.pairs), "count");
    Fixture f = Build(shape, config.seed, dirs, nullptr);
    result.Add("cache.lookup_ns",
               LookupNanos(first.cache_export, f.options.cache, 1), "ns",
               std::to_string(first.cache_export.size()) + " keys, 1 thread");
    const int threads =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    result.Add("cache.lookup_ns_mt",
               LookupNanos(first.cache_export, f.options.cache, threads), "ns",
               std::to_string(threads) + " threads");

    const persist::PersistCounters& pc = first.persist;
    result.Add("persist.wal_records", static_cast<double>(pc.wal_records),
               "count");
    result.Add("persist.wal_bytes", static_cast<double>(pc.wal_bytes),
               "bytes");
    result.Add("persist.snapshots", static_cast<double>(pc.snapshots),
               "count");
    result.Add("persist.snapshot_bytes", static_cast<double>(pc.snapshot_bytes),
               "bytes", "last snapshot");
    result.Add("persist.append_us",
               AppendMicros(first, f.options, config.work_dir + "/wal_probe",
                            &result),
               "us",
               std::string("median per batch, fsync=") +
                   (f.options.persist.wal_fsync ? "on" : "off"));
    result.Add("persist.replayed_microtasks",
               static_cast<double>(first.replayed_microtasks), "microtasks");
    result.Add("resume_s",
               Median(Collect(reps, [](const Rep& r) { return r.resume_s; })),
               "s", "median, " + n);

    result.Add("telemetry.trace_files", static_cast<double>(first.traces.files),
               "count");
    result.Add("telemetry.trace_bytes", static_cast<double>(first.traces.bytes),
               "bytes");
    result.Add("telemetry.record_purchase_ns", RecordPurchaseNanos(), "ns");
  }

  char line[160];
  std::snprintf(line, sizeof(line),
                "span serve.replay: %.4f s, self %.4f s, %zu query spans",
                log.Named("serve.replay").front().seconds(),
                log.SelfSeconds(traced.replay_span), query_ms.size());
  result.info.push_back(line);
  if (traced.resume_span >= 0) {
    std::snprintf(line, sizeof(line),
                  "span persist.resume: %.4f s, self %.4f s",
                  log.Named("persist.resume").front().seconds(),
                  log.SelfSeconds(traced.resume_span));
    result.info.push_back(line);
  }
  const std::string spans_path = config.work_dir + "/spans.jsonl";
  if (!log.WriteJsonl(spans_path)) result.Fail("cannot write " + spans_path);
  return result;
}

}  // namespace

RunResult RunServeWide(const RunConfig& config) {
  return RunServe(kWide, config);
}

RunResult RunServeCachedDurable(const RunConfig& config) {
  return RunServe(kCachedDurable, config);
}

}  // namespace crowdtopk::perfbench
