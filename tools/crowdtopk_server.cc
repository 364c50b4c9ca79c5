// crowdtopk_server: TCP front-end for the serving layer (src/net,
// docs/NETWORK.md). Binds 127.0.0.1:CROWDTOPK_NET_PORT, speaks the framed
// binary protocol of src/net/protocol.h, and executes SubmitQuery requests
// in shared-capacity batches through serve::QueryService.
//
// SIGTERM / SIGINT start a graceful drain: the acceptor stops, new
// submissions are refused with UNAVAILABLE, every already-accepted query
// finishes and its result is flushed, then the process exits 0. Queries
// still queued when CROWDTOPK_NET_DRAIN_TIMEOUT_MS expires are rejected
// rather than executed.
//
// All knobs are environment variables (run with --help for the list). The
// bound port is printed on stdout — with CROWDTOPK_NET_PORT=0 that is the
// only way to learn the ephemeral port, and the smoke script parses it.

#include <csignal>
#include <cstdio>
#include <cstring>

#include "crowd_knobs.h"
#include "net/server.h"
#include "util/env.h"

namespace {

using namespace crowdtopk;

constexpr char kHelp[] = R"(crowdtopk_server [--help]

Serves crowdsourced top-k queries over TCP on 127.0.0.1 (wire protocol:
docs/NETWORK.md). SIGTERM/SIGINT drain gracefully: in-flight queries
finish, new ones are refused with UNAVAILABLE.

Network knobs
  CROWDTOPK_NET_PORT             TCP port; 0 = ephemeral    (default 0)
  CROWDTOPK_NET_MAX_CONNS        connection bound, >= 1     (default 64)
  CROWDTOPK_NET_IDLE_TIMEOUT_MS  idle-connection close, <=0 off (60000)
  CROWDTOPK_NET_DRAIN_TIMEOUT_MS drain budget on SIGTERM    (default 30000)
  CROWDTOPK_NET_MAX_QUEUE        admission bound, <0 = inf  (default 256)

Engine knobs (same meaning as crowdtopk_serve)
  CROWDTOPK_SERVE_WORKERS   crowd worker slots W per round   (default 100)
  CROWDTOPK_SERVE_ETA       per-pair batch cap eta           (default 30)
  CROWDTOPK_SERVE_INFLIGHT  max concurrently served queries  (default 16)
  CROWDTOPK_SERVE_DEADLINE  assignment deadline seconds      (default 60)
  CROWDTOPK_SERVE_ABANDON   worker abandonment probability   (default 0.03)
  CROWDTOPK_SERVE_ATTEMPTS  dispatch attempts per microtask  (default 4)
  CROWDTOPK_CACHE, CROWDTOPK_CACHE_CAPACITY, CROWDTOPK_CACHE_TRANSITIVITY
                            cross-query judgment cache; committed entries
                            chain across batches
  CROWDTOPK_SEED            master seed                (default 20170514)
  CROWDTOPK_TRACE=1, CROWDTOPK_TRACE_DIR  net/* telemetry counters
                            (net_server.trace.jsonl on exit)

Exit codes: 0 clean drain, 2 out-of-range knob or startup failure.
)";

net::Server* g_server = nullptr;

// Only async-signal-safe work here: RequestDrain is an atomic store plus a
// self-pipe write.
void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestDrain();
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::printf("%s", kHelp);
      return 0;
    }
    std::fprintf(stderr, "unknown argument %s (try --help)\n", argv[i]);
    return 2;
  }

  net::ServerOptions options;
  options.port = util::NetPort();
  options.max_connections = util::NetMaxConns();
  options.idle_timeout_ms = util::NetIdleTimeoutMs();
  options.drain_timeout_ms = util::NetDrainTimeoutMs();
  options.max_queue = util::GetEnvInt64("CROWDTOPK_NET_MAX_QUEUE", 256);
  options.seed = util::BenchSeed();
  // Out-of-range knobs are usage errors, caught before the port is bound
  // rather than by a CHECK when the first batch runs (crowd knobs) or by
  // refusing every connection (max_conns).
  if (!tools::KnobOk(options.max_connections >= 1, "CROWDTOPK_NET_MAX_CONNS",
                     ">= 1") ||
      !tools::ReadCrowdKnobs(&options.schedule, &options.max_inflight)) {
    return 2;
  }
  options.cache.enabled = util::CacheEnabled();
  options.cache.capacity = util::CacheCapacity();
  options.cache.transitivity = util::CacheTransitivity();
  if (util::TraceEnabled()) options.trace_dir = util::TraceDir();

  net::Server server(options);
  const util::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "crowdtopk_server: %s\n", status.ToString().c_str());
    return 2;
  }

  g_server = &server;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  // The port line is machine-parsed (smoke script, loadgen wrappers);
  // flush it before blocking in the event loop.
  std::printf("crowdtopk_server: listening on 127.0.0.1:%d\n", server.port());
  std::printf(
      "crowdtopk_server: max_conns=%lld idle_timeout_ms=%lld "
      "drain_timeout_ms=%lld max_queue=%lld seed=%llu cache=%d\n",
      static_cast<long long>(options.max_connections),
      static_cast<long long>(options.idle_timeout_ms),
      static_cast<long long>(options.drain_timeout_ms),
      static_cast<long long>(options.max_queue),
      static_cast<unsigned long long>(options.seed),
      options.cache.enabled ? 1 : 0);
  std::fflush(stdout);

  server.Serve();

  const net::StatsReply stats = server.Stats();
  std::printf(
      "crowdtopk_server: drained | conns accepted=%lld rejected=%lld "
      "idle_closed=%lld | frames in=%lld out=%lld crc_errors=%lld "
      "malformed=%lld version_mismatches=%lld | queries submitted=%lld "
      "completed=%lld rejected=%lld cancelled=%lld batches=%lld\n",
      static_cast<long long>(stats.accepted_connections),
      static_cast<long long>(stats.rejected_connections),
      static_cast<long long>(stats.idle_closed),
      static_cast<long long>(stats.frames_in),
      static_cast<long long>(stats.frames_out),
      static_cast<long long>(stats.crc_errors),
      static_cast<long long>(stats.malformed_frames),
      static_cast<long long>(stats.version_mismatches),
      static_cast<long long>(stats.queries_submitted),
      static_cast<long long>(stats.queries_completed),
      static_cast<long long>(stats.queries_rejected),
      static_cast<long long>(stats.queries_cancelled),
      static_cast<long long>(stats.batches));
  g_server = nullptr;
  return 0;
}
