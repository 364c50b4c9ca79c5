// Engine: the execution half of the network server.
//
// net::Server splits into two layers. The *front-end* (server.cc's poll
// loop) owns sockets, framing, handshakes, backpressure, and drain
// sequencing; the *engine* owns query execution. This class is the seam
// between them: the front-end validates and forwards submissions, the
// engine answers with Completions it posts back for delivery.
//
// There is one engine. It owns submit validation, the FIFO queue and its
// records, query state, cancel/drain/abort, the done-id memory, the engine
// thread, and memoised dataset/algorithm resolution. Engines differ only
// in how a drained batch runs — the protected RunBatch hook:
//
//   net::Engine         (engine.cc)   one serve::QueryService replay per
//                                     batch, single-process execution;
//   shard::RouterEngine (src/shard)   scatter across K engine shards with
//                                     failover and cross-shard cache sync.
//
// Cache universes are assigned per dataset name, in first-seen order, for
// the engine's lifetime, and stamped into every batch: a judgment cached
// for one dataset is never served to a query on another, however the
// batches fall.
//
// Threading contract: Submit/State/Cancel/BeginDrain/AbortQueued/
// TakeCompletions/Drained are called on the network thread; RunBatch runs
// on the engine thread, outside the engine's lock, and the engine calls
// the wake function it was constructed with after posting completions, so
// the poll loop re-checks TakeCompletions. The engine thread runs between
// Start() and Stop(); the owner (net::Server) calls Start only after the
// most-derived constructor has returned and Stop before destroying the
// engine, so RunBatch never runs on a partly built or partly destroyed
// object.

#ifndef CROWDTOPK_NET_ENGINE_H_
#define CROWDTOPK_NET_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/judgment_cache.h"
#include "core/topk_algorithm.h"
#include "data/dataset.h"
#include "net/protocol.h"
#include "net/server.h"
#include "util/status.h"

namespace crowdtopk::net {

// Terminal outcome of one accepted submission, addressed to the
// connection that submitted it.
struct Completion {
  int64_t conn_id = 0;
  int64_t query_id = 0;
  // Rejected at admission: deliver an error frame instead of a result.
  bool send_error = false;
  ErrorCode error_code = ErrorCode::kInternal;
  std::string error_message;
  Result result;
};

class Engine {
 public:
  // `wake` is async-safe and is called after completions are posted.
  Engine(const ServerOptions& options, std::function<void()> wake);
  // Calls Stop(). A subclass must be stopped before its own destructor
  // runs; net::Server does so.
  virtual ~Engine();

  // Spawns the engine thread. Call once, after construction completes.
  void Start();
  // Stops and joins the engine thread; a batch in flight finishes first.
  // Idempotent.
  void Stop();

  // Validates and queues one submission; returns the assigned query id.
  util::StatusOr<int64_t> Submit(int64_t conn_id, const SubmitQuery& spec);

  // Where `query_id` is in its lifecycle.
  QueryState State(int64_t query_id) const;

  // Removes a still-queued query. On success fills the submitter's conn id
  // so the server can clear its pending bookkeeping.
  bool Cancel(int64_t query_id, int64_t* submitter_conn);

  // Stops accepting work and lets the queue run dry. Submissions are
  // refused by the server before they reach Submit, but the engine refuses
  // too, in case of races.
  void BeginDrain();

  // Drain-deadline path: reject everything still waiting for a batch. The
  // batch in flight (if any) always completes.
  void AbortQueued();

  std::vector<Completion> TakeCompletions();

  // True once a drain has consumed everything: no queued or running
  // queries remain and no completions await delivery.
  bool Drained() const;

  int64_t queued() const;
  int64_t batches() const;

  // Upstream net::Client retry/redial totals (StatsReply::client_retries /
  // client_redials). Nonzero only for engines that dial other servers.
  virtual int64_t upstream_retries() const { return 0; }
  virtual int64_t upstream_redials() const { return 0; }

 protected:
  // One accepted submission as RunBatch sees it.
  struct Query {
    int64_t id = 0;  // the wire query id
    SubmitQuery spec;
    // Cache and placement universe: one per dataset name, first-seen
    // order, for the engine's lifetime.
    int64_t universe = 0;
    // Memoised instances; null when the engine does not resolve names
    // locally (a router over remote shards).
    const data::Dataset* dataset = nullptr;
    core::TopKAlgorithm* algorithm = nullptr;
  };

  // `resolve_locally` = false skips dataset/algorithm construction: names
  // are then validated by whoever executes the batch.
  Engine(const ServerOptions& options, std::function<void()> wake,
         bool resolve_locally);

  // Executes batch number `batch_index` (0-based) on the engine thread and
  // returns one Completion per query, in batch order; the engine fills in
  // the ids (conn_id, query_id, result.query_id). The default replays the
  // batch through one serve::QueryService, chaining the judgment cache
  // across batches.
  virtual std::vector<Completion> RunBatch(int64_t batch_index,
                                           const std::vector<Query>& batch);

  const ServerOptions& options() const { return options_; }

 private:
  struct Record {
    int64_t conn_id = 0;
    Query query;
    QueryState state = QueryState::kQueued;
  };
  struct DatasetEntry {
    std::unique_ptr<data::Dataset> dataset;  // null without local resolution
    int64_t universe = 0;
  };

  const DatasetEntry* ResolveDatasetLocked(const std::string& name);
  core::TopKAlgorithm* ResolveAlgorithmLocked(const SubmitQuery& spec);
  void RememberDoneLocked(int64_t id);
  void ThreadMain();

  const ServerOptions options_;
  const bool resolve_locally_;
  const DatasetFactory dataset_factory_;
  const AlgorithmFactory algorithm_factory_;
  const std::function<void()> wake_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool draining_ = false;
  bool running_ = false;
  int64_t next_query_id_ = 0;
  int64_t batches_ = 0;
  std::deque<int64_t> queue_;
  std::unordered_map<int64_t, Record> records_;
  std::unordered_set<int64_t> done_;
  std::deque<int64_t> done_order_;
  std::vector<Completion> completions_;
  std::unordered_map<std::string, DatasetEntry> datasets_;
  std::unordered_map<std::string, std::unique_ptr<core::TopKAlgorithm>>
      algorithms_;

  // Default RunBatch only; touched on the engine thread alone.
  std::vector<cache::ExportedEntry> warm_cache_;

  std::thread thread_;
};

}  // namespace crowdtopk::net

#endif  // CROWDTOPK_NET_ENGINE_H_
