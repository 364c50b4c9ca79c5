// router-loopback: an in-process net::Server whose engine is a
// shard::RouterEngine over two local shards, driven on 127.0.0.1 by two
// closed-loop net::Client threads. The only workload through the wire
// codec, the poll loop, engine batching and shard scatter.

#include <algorithm>
#include <iterator>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "measure.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "shard/router_engine.h"
#include "spans.h"
#include "workloads.h"

namespace crowdtopk::perfbench {
namespace {

constexpr int kClients = 2;
constexpr int64_t kQueriesPerClient = 250;  // per repetition
constexpr int64_t kK = 5;
constexpr double kAlpha = 0.02;
constexpr int64_t kShards = 2;
constexpr int64_t kNumItems = 100;  // peopleage

// Query `i` of client `c`: the algorithm mix rotates per client so both
// clients submit every algorithm.
net::SubmitQuery Spec(int c, int64_t i) {
  net::SubmitQuery spec;
  spec.dataset = "peopleage";
  spec.k = kK;
  spec.algo = kAlgorithms[static_cast<size_t>(i + c) % std::size(kAlgorithms)];
  spec.alpha = kAlpha;
  return spec;
}

// A started server with its network thread and connected clients.
class Deployment {
 public:
  Deployment(uint64_t seed, CountingDataset** counting) {
    // The cache stays off (the default): with two clients, batch
    // composition depends on timing, and cached judgments would follow it.
    options_.seed = seed;
    shard::RouterEngineConfig config;
    config.shards = kShards;
    if (counting != nullptr) {
      options_.dataset_factory = [counting](const std::string& name,
                                            uint64_t dataset_seed)
          -> std::unique_ptr<data::Dataset> {
        std::unique_ptr<data::Dataset> base =
            net::DefaultDatasetFactory()(name, dataset_seed);
        if (base == nullptr) return nullptr;
        auto decorated = std::make_unique<CountingDataset>(std::move(base));
        *counting = decorated.get();
        return decorated;
      };
    }
    options_.engine_factory = [this, config](
                                  const net::ServerOptions& server_options,
                                  std::function<void()> wake) {
      auto built = std::make_unique<shard::RouterEngine>(server_options,
                                                         config,
                                                         std::move(wake));
      engine_ = built.get();
      return built;
    };
    server_ = std::make_unique<net::Server>(options_);
    status_ = server_->Start();
    if (!status_.ok()) return;
    serving_ = std::thread([this] { server_->Serve(); });
    net::ClientOptions client_options;
    client_options.port = server_->port();
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<net::Client>(client_options));
      const util::Status connected = clients_.back()->Connect();
      if (!connected.ok() && status_.ok()) status_ = connected;
    }
  }

  ~Deployment() {
    clients_.clear();
    if (serving_.joinable()) {
      server_->RequestDrain();
      serving_.join();
    }
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const util::Status& status() const { return status_; }
  net::Client* client(int c) { return clients_[static_cast<size_t>(c)].get(); }
  net::Server* server() { return server_.get(); }
  shard::RouterEngine* engine() { return engine_; }

 private:
  net::ServerOptions options_;
  shard::RouterEngine* engine_ = nullptr;  // owned by server_
  std::unique_ptr<net::Server> server_;
  util::Status status_;
  std::vector<std::unique_ptr<net::Client>> clients_;
  std::thread serving_;  // joined in the destructor before server_ dies
};

struct Request {
  net::SubmitQuery spec;
  int64_t query_id = -1;
  Cause cause = Cause::kMissing;
  net::Result result;
  double total_ms = 0.0;
};

// One repetition: wall_s and cpu_s cover the closed loop.
struct Rep : RepBase {
  std::vector<Request> requests;  // client-major
  int64_t microtasks = 0;
  double precision = 0.0;  // mean over OK queries
  net::StatsReply stats;
  int64_t batches = 0;
  shard::RouterCounters counters;
  int64_t oracle_calls = 0;
  int64_t oracle_ns = 0;
};

Cause ClassifyResult(const net::Result& r) {
  const auto code = static_cast<util::StatusCode>(r.status_code);
  if (code == util::StatusCode::kOk) {
    return IsValidTopK(r.items, kK, kNumItems) ? Cause::kOk
                                               : Cause::kMalformed;
  }
  if (r.reject_reason != 0 || code == util::StatusCode::kUnavailable) {
    return Cause::kRejected;
  }
  if (code == util::StatusCode::kResourceExhausted) return Cause::kExhausted;
  return Cause::kOther;
}

Cause ClassifySubmitError(const util::Status& status) {
  return status.code() == util::StatusCode::kUnavailable ||
                 status.code() == util::StatusCode::kResourceExhausted
             ? Cause::kRejected
             : Cause::kTransport;
}

Rep RunRep(uint64_t seed, SpanLog* log, RunResult* result) {
  Rep rep;
  CountingDataset* counting = nullptr;
  Deployment deployment(seed, log != nullptr ? &counting : nullptr);
  if (!deployment.status().ok()) {
    result->Fail("router-loopback setup: " + deployment.status().ToString());
    return rep;
  }

  rep.requests.resize(static_cast<size_t>(kClients * kQueriesPerClient));
  auto run_client = [&](int c) {
    net::Client* client = deployment.client(c);
    for (int64_t i = 0; i < kQueriesPerClient; ++i) {
      Request& r =
          rep.requests[static_cast<size_t>(c * kQueriesPerClient + i)];
      r.spec = Spec(c, i);
      std::unique_ptr<ScopedSpan> request_span;
      if (log != nullptr) {
        request_span = std::make_unique<ScopedSpan>(log, "client.request", -1);
      }
      const double t0 = NowSeconds();
      util::StatusOr<int64_t> id = [&] {
        std::unique_ptr<ScopedSpan> span;
        if (log != nullptr) {
          span = std::make_unique<ScopedSpan>(log, "net.submit",
                                              request_span->id());
        }
        return client->Submit(r.spec);
      }();
      if (!id.ok()) {
        r.cause = ClassifySubmitError(id.status());
        continue;
      }
      r.query_id = *id;
      util::StatusOr<net::Result> awaited = [&] {
        std::unique_ptr<ScopedSpan> span;
        if (log != nullptr) {
          span = std::make_unique<ScopedSpan>(log, "net.await",
                                              request_span->id(), *id);
        }
        return client->AwaitResult(*id);
      }();
      r.total_ms = (NowSeconds() - t0) * 1e3;
      if (!awaited.ok()) {
        r.cause = awaited.status().code() == util::StatusCode::kUnavailable
                      ? Cause::kRejected
                      : Cause::kMissing;
        continue;
      }
      r.result = std::move(*awaited);
      r.cause = r.result.query_id == *id ? ClassifyResult(r.result)
                                         : Cause::kMissing;
    }
  };

  const CpuSample c0 = ReadCpu();
  const double t0 = NowSeconds();
  std::vector<std::thread> threads;
  for (int c = 1; c < kClients; ++c) threads.emplace_back(run_client, c);
  run_client(0);
  for (std::thread& t : threads) t.join();
  rep.wall_s = NowSeconds() - t0;
  rep.cpu_s = (ReadCpu() - c0).total_s();

  // Every submit gets exactly one terminal result: ids are distinct and
  // every accepted id came back.
  std::set<int64_t> ids;
  int64_t ok = 0;
  double precision_sum = 0.0;
  for (Request& r : rep.requests) {
    if (r.query_id >= 0 && !ids.insert(r.query_id).second) {
      r.cause = Cause::kMissing;
      result->Fail("router-loopback: query id " + std::to_string(r.query_id) +
                   " was assigned twice");
    }
    rep.tally.Count(r.cause);
    if (r.cause == Cause::kOk) {
      ++ok;
      precision_sum += r.result.precision_at_k;
    }
    rep.microtasks += r.result.total_microtasks;
  }
  rep.precision = ok == 0 ? 0.0 : precision_sum / static_cast<double>(ok);
  rep.stats = deployment.server()->Stats();
  rep.batches = deployment.engine()->batches();
  rep.counters = deployment.engine()->counters();
  if (counting != nullptr) {
    rep.oracle_calls = counting->calls();
    rep.oracle_ns = counting->nanos();
  }
  if (rep.tally.count(Cause::kMissing) > 0 ||
      rep.tally.count(Cause::kTransport) > 0) {
    result->Fail("router-loopback: " + rep.tally.Breakdown());
  }
  if (rep.tally.count(Cause::kMalformed) > 0) {
    result->Fail("router-loopback: an OK result is not k distinct item ids");
  }
  if (rep.counters.redispatched_queries != 0) {
    result->Fail("router-loopback: queries were re-dispatched");
  }
  return rep;
}

std::vector<double> RequestLatencies(const std::vector<Rep>& reps) {
  std::vector<double> out;
  for (const Rep& rep : reps) {
    for (const Request& r : rep.requests) {
      if (r.cause == Cause::kOk) out.push_back(r.total_ms);
    }
  }
  return out;
}

// Mean ns per frame for FrameReader::Append + Pop over the wire bytes of
// the repetition's own submits and results, fed in 4 KiB reads.
double DecodeNanos(const Rep& rep) {
  std::string wire;
  int64_t frames = 0;
  for (const Request& r : rep.requests) {
    net::NetMessage submit;
    submit.type = net::MessageType::kSubmitQuery;
    submit.submit = r.spec;
    wire += net::FrameMessage(submit);
    net::NetMessage result;
    result.type = net::MessageType::kResult;
    result.result = r.result;
    wire += net::FrameMessage(result);
    frames += 2;
  }
  constexpr int kPasses = 50;
  constexpr size_t kChunk = 4096;
  std::string payload;
  int64_t popped = 0;
  const double t0 = NowSeconds();
  for (int p = 0; p < kPasses; ++p) {
    net::FrameReader reader;
    for (size_t off = 0; off < wire.size(); off += kChunk) {
      reader.Append(wire.data() + off, std::min(kChunk, wire.size() - off));
      while (reader.Pop(&payload) == net::FrameReader::Next::kFrame) ++popped;
    }
  }
  const double elapsed = NowSeconds() - t0;
  if (popped != frames * kPasses) return 0.0;
  return elapsed * 1e9 / static_cast<double>(popped);
}

// The repetition's queries one at a time on private platforms.
double RouterPrivateRunSeconds(uint64_t seed) {
  const std::unique_ptr<data::Dataset> dataset =
      data::MakeByName("peopleage", seed);
  const net::AlgorithmFactory factory = net::DefaultAlgorithmFactory();
  judgment::ComparisonOptions comparison;
  comparison.alpha = kAlpha;
  std::vector<std::unique_ptr<core::TopKAlgorithm>> owned;
  for (const char* name : kAlgorithms) {
    owned.push_back(factory(name, comparison));
  }
  std::vector<core::TopKAlgorithm*> algorithms;
  for (int c = 0; c < kClients; ++c) {
    for (int64_t i = 0; i < kQueriesPerClient; ++i) {
      algorithms.push_back(owned[static_cast<size_t>(i + c) % owned.size()]
                               .get());
    }
  }
  return PrivateRunSeconds(dataset.get(), algorithms, kK, seed);
}

}  // namespace

RunResult RunRouterLoopback(const RunConfig& config) {
  if (config.setup_samples > 0) {
    return SetupOnly(config.setup_samples, [&](std::string* error) {
      auto deployment = std::make_unique<Deployment>(config.seed, nullptr);
      if (!deployment->status().ok()) *error = deployment->status().ToString();
      return deployment;
    });
  }
  RunResult result;
  const bool traced = config.trace;
  const std::vector<Rep> reps = RunReps<Rep>(
      traced ? config.seconds / 2 : config.seconds,
      traced ? 2 : kMinRepetitions, &result,
      [&] { return RunRep(config.seed, nullptr, &result); });
  const std::string n = "n=" + std::to_string(reps.size());
  result.info.push_back(
      "router-loopback: net::Server + shard::RouterEngine (" +
      std::to_string(kShards) + " local shards, cache off) on 127.0.0.1, " +
      std::to_string(kClients) + " closed-loop clients x " +
      std::to_string(kQueriesPerClient) +
      " peopleage queries (k=5, alpha=0.02, algorithms rotating), " + n +
      " repetitions");
  if (reps.empty() || !result.errors.empty()) return result;
  FailureTally per_rep;
  for (const Rep& rep : reps) per_rep.Merge(rep.tally);
  result.info.push_back("outcomes over all repetitions: ok=" +
                        std::to_string(per_rep.ok()) + " " +
                        per_rep.Breakdown());

  const std::vector<double> latencies = RequestLatencies(reps);
  const Tail tail = TailPercentile(latencies);
  const double p50 = Median(latencies);
  auto median_of = [&](auto field) {
    return Median(Collect(reps, field));
  };

  // Printed in both modes, gated in neither (see the serve workloads).
  result.Add("serve.cpu_s", median_of([](const Rep& r) { return r.cpu_s; }),
             "s", "median per repetition, " + n);
  if (!traced) {
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
    result.Add("tmc_microtasks",
               median_of([](const Rep& r) {
                 return static_cast<double>(r.microtasks);
               }),
               "microtasks", "median per repetition, " + n);
    result.Add("precision_at_k",
               median_of([](const Rep& r) { return r.precision; }), "ratio",
               "median, " + n);
    result.Add("ok_ratio", per_rep.ok_ratio(), "ratio");
    // Printed, not gated (see the serve workloads).
    result.Add("queries_per_s", median_of(QueriesPerSecond), "queries/s",
               "median, " + n);
    result.Add("request_p50_ms", p50, "ms",
               "median, n=" + std::to_string(latencies.size()));
    result.Add("request_p99_ms", tail.value, "ms", TailNote(tail));
    result.Add("failed_ratio", per_rep.failed_ratio(), "ratio",
               per_rep.Breakdown());
    return result;
  }

  SpanLog log;
  const Rep traced_rep = RunRep(config.seed, &log, &result);
  const Rep& first = reps.front();
  result.Add("request_p50_ms", p50, "ms",
             "median, n=" + std::to_string(latencies.size()));
  result.Add("request_p99_ms", tail.value, "ms", TailNote(tail));
  result.Add("failed_ratio", per_rep.failed_ratio(), "ratio",
             per_rep.Breakdown());
  std::vector<double> submit_ms;
  std::vector<double> await_ms;
  for (const Span& s : log.Named("net.submit")) {
    submit_ms.push_back(s.seconds() * 1e3);
  }
  for (const Span& s : log.Named("net.await")) {
    await_ms.push_back(s.seconds() * 1e3);
  }
  result.Add("net.submit_ms_p50", Median(submit_ms), "ms",
             "median, n=" + std::to_string(submit_ms.size()));
  result.Add("net.await_ms_p50", Median(await_ms), "ms",
             "median, n=" + std::to_string(await_ms.size()));
  result.Add("net.frames_in", static_cast<double>(first.stats.frames_in),
             "count", "per repetition");
  result.Add("net.bytes_in", static_cast<double>(first.stats.bytes_in),
             "bytes", "per repetition");
  result.Add("net.bytes_out", static_cast<double>(first.stats.bytes_out),
             "bytes", "per repetition");
  result.Add("net.decode_ns", DecodeNanos(first), "ns", "per frame");
  result.Add("shard.batches", static_cast<double>(first.batches), "count",
             "per repetition");
  result.Add("shard.queries_per_batch",
             first.batches == 0
                 ? 0.0
                 : static_cast<double>(first.counters.routed_queries) /
                       static_cast<double>(first.batches),
             "queries", "base: engine batches");
  result.Add("shard.redispatched",
             static_cast<double>(first.counters.redispatched_queries),
             "count");
  result.Add("crowd.oracle_calls", static_cast<double>(traced_rep.oracle_calls),
             "count", "traced repetition");
  result.Add("crowd.oracle_ns", static_cast<double>(traced_rep.oracle_ns), "ns",
             "summed over calls, traced repetition");
  result.Add("core.private_run_s", RouterPrivateRunSeconds(config.seed), "s",
             "same queries, one at a time, private platforms");
  result.Add("queries_per_s", median_of(QueriesPerSecond), "queries/s",
             "untraced, median, " + n);
  result.Add("tracing.queries_per_s", QueriesPerSecond(traced_rep),
             "queries/s", "one traced repetition");

  // Self time of the client: request span minus its submit/await children.
  double request_s = 0.0;
  double request_self_s = 0.0;
  for (const Span& s : log.Named("client.request")) {
    request_s += s.seconds();
    request_self_s += log.SelfSeconds(s.id);
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "span client.request: %.4f s summed, self %.4f s", request_s,
                request_self_s);
  result.info.push_back(line);
  const std::string spans_path = config.work_dir + "/spans.jsonl";
  if (!log.WriteJsonl(spans_path)) result.Fail("cannot write " + spans_path);
  return result;
}

}  // namespace crowdtopk::perfbench
