// RouterEngine: the shard router as a net::Engine.
//
// crowdtopk_router injects this through ServerOptions::engine_factory, so
// the entire socket front-end — handshake, admission, backpressure,
// graceful drain — is the plain server's, unchanged, and so is the whole
// engine (queue, records, drain, dataset resolution, per-name universes);
// only RunBatch differs: it stamps each query with its global id and hands
// the batch to the ShardRouter, which scatters it over K shards and runs
// the failover waves (router.h).
//
// Global ids are the engine's query ids, which double as the wire query
// ids — so the id a client sees is the id that keys the query's
// judgment/latency streams, and the merged table (shard/report.h) can be
// byte-diffed across shard counts.
//
// Deployment: with `ports` empty the engine spawns `shards` in-process
// LocalShardBackends (dataset/algorithm instances resolved once by the
// engine, shared by all shards — both are safe for concurrent runs); with
// `ports` set it dials one RemoteShardBackend per endpoint and leaves name
// resolution to the far servers.

#ifndef CROWDTOPK_SHARD_ROUTER_ENGINE_H_
#define CROWDTOPK_SHARD_ROUTER_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/engine.h"
#include "net/server.h"
#include "shard/report.h"
#include "shard/router.h"

namespace crowdtopk::shard {

struct RouterEngineConfig {
  // In-process shard count; ignored when `ports` is non-empty.
  int64_t shards = 1;
  // Remote deployment: one crowdtopk_server endpoint per shard on
  // 127.0.0.1. Empty = in-process shards.
  std::vector<int64_t> ports;
  Policy policy = Policy::kRendezvous;
  int64_t max_redispatch = 2;
  bool cache_sync = false;
  // Fault injection (CROWDTOPK_SHARD_FAIL/_FAIL_AFTER): local shard
  // `fail_shard` dies while executing its `fail_at_batch`-th sub-batch.
  int64_t fail_shard = -1;
  int64_t fail_at_batch = 1;
};

class RemoteShardBackend;

class RouterEngine : public net::Engine {
 public:
  RouterEngine(const net::ServerOptions& options,
               const RouterEngineConfig& config,
               std::function<void()> wake);
  ~RouterEngine() override;

  int64_t upstream_retries() const override;
  int64_t upstream_redials() const override;

  // Merged report over every routed query so far (shard/report.h). Call
  // after the drain completes; the CLI writes it on exit and the smoke
  // script byte-diffs it across runs and shard counts.
  std::string MergedReport() const;
  // Router counters as of the last completed batch.
  RouterCounters counters() const;

  // Writes shard/* counters to <trace_dir>/shard_router.trace.jsonl; the
  // CLI calls it after Serve returns. No-op without a trace_dir.
  void DumpTrace() const;

 protected:
  std::vector<net::Completion> RunBatch(
      int64_t batch_index, const std::vector<Query>& batch) override;

 private:
  std::unique_ptr<ShardRouter> router_;
  // Remote backends, for the retry/redial sums (owned by router_).
  std::vector<const RemoteShardBackend*> remote_backends_;

  // Written by RunBatch after each routed batch, read from other threads:
  // net::Client and router counters are plain fields owned by the engine
  // thread, and Stats() asks from the network thread mid-run.
  mutable std::mutex mu_;
  std::vector<RoutedOutcome> outcomes_;  // everything routed so far
  RouterCounters counters_;
  int64_t retries_ = 0;
  int64_t redials_ = 0;
};

}  // namespace crowdtopk::shard

#endif  // CROWDTOPK_SHARD_ROUTER_ENGINE_H_
