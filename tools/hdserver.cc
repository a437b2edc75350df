// hdserver: the standalone decomposition server (docs/SERVER.md).
//
//   $ hdserver --port 8080 --solver logk --workers 8 --threads 0 \
//              --queue-depth 64 --snapshot /var/lib/htd/warm.snap --store
//
// Serves POST /v1/decompose, POST /v1/query, GET /v1/jobs/<id>,
// GET /v1/metrics (Prometheus text), GET /v1/trace (recent request traces),
// GET /healthz, and the /v1/admin/* routes (snapshot, export, import,
// migrate, digest, antientropy) over HTTP/1.1; docs/SERVER.md has the
// list. With --snapshot the server restores the result cache and
// subproblem store at startup (warm start) and saves them on clean
// shutdown (SIGINT/SIGTERM) unless --no-save-on-exit; --snapshot-interval
// additionally saves periodically in the background.
//
// Sharded deployments (docs/SERVER.md "Sharding the warm state"):
//
//   $ hdserver --route-to 10.0.0.1:8080,10.0.0.2:8080         # proxy mode
//   $ hdserver --shard-map 10.0.0.1:8080,10.0.0.2:8080 \
//              --shard-index 0 --snapshot shard0.snap          # backend
//
// Proxy mode forwards each /v1/decompose and /v1/query to the shard owning
// the body's canonical fingerprint (net/shard_router.h), fans GET
// /v1/metrics and POST /v1/admin/snapshot out across the fleet, and holds
// no warm state of its own; backend mode restricts snapshots to this shard's fingerprint range and
// refuses requests routed by a mismatched map digest with 421. A map item
// "host:port*2" declares a replicated range (that endpoint plus the next
// one serve the same range; the router round-robins over them). Topologies
// change at runtime: tools/hdreshard.cc drives a live N->M reshard through
// POST /v1/admin/transition (router) and /v1/admin/migrate (backends)
// without dropping warm state — see docs/OPERATIONS.md.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "net/decomposition_server.h"
#include "net/server.h"
#include "net/shard_router.h"
#include "util/cli.h"
#include "util/executor.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --host ADDR        listen address (default 127.0.0.1)\n"
      "  --port N           listen port, 0 = ephemeral (default 8080)\n"
      "  --io-threads N     handler pool width: a private executor, apart\n"
      "                     from --workers, whose idle threads sleep; a\n"
      "                     synchronous solve blocks one for its duration\n"
      "                     (default 8)\n"
      "  --loop-threads N   epoll event-loop ring driving connection I/O;\n"
      "                     a few loops carry tens of thousands of sockets\n"
      "                     (default 2)\n"
      "  --workers N        fleet executor width: workers shared by every\n"
      "                     solve and async query job (default 4)\n"
      "  --threads N        intra-solve threads per job; 0 = batch-aware auto\n"
      "                     (default 0)\n"
      "  --solver NAME      logk | logk-basic | detk | hybrid | balsep-ghd\n"
      "  --queue-depth N    admission bound: shed with 429 beyond N\n"
      "                     outstanding jobs (default 64)\n"
      "  --max-connections N  live-connection bound: further connections are\n"
      "                     answered 503 and closed (default 64)\n"
      "  --idle-timeout S   close keep-alive connections idle past S seconds\n"
      "                     (default 30)\n"
      "  --header-timeout S reap a connection still mid-request after S\n"
      "                     seconds with 408 (slow-loris guard; default 10,\n"
      "                     0 = use --idle-timeout)\n"
      "  --write-timeout S  abandon a response part-flushed to a stalled\n"
      "                     reader after S seconds (default 30)\n"
      "  --default-timeout S  deadline for requests without ?timeout=\n"
      "                     (default 30, 0 = none)\n"
      "  --cache-capacity N result-cache entries (default 4096)\n"
      "  --store            enable the cross-instance subproblem store\n"
      "  --store-budget-mb N  subproblem store byte budget (default 64)\n"
      "  --max-k N          largest accepted width parameter (default 64)\n"
      "  --snapshot PATH    warm-state snapshot file (enables\n"
      "                     /v1/admin/snapshot, startup restore, exit save)\n"
      "  --snapshot-interval S  also save the snapshot every S seconds\n"
      "                     (0 = off, the default; requires --snapshot)\n"
      "  --no-load          do not restore the snapshot at startup\n"
      "  --no-save-on-exit  do not save the snapshot on clean shutdown\n"
      "sharding (docs/SERVER.md, docs/OPERATIONS.md):\n"
      "  --shard-map H:P,H:P,...  fleet topology; this process serves the\n"
      "                     fingerprint range of shard --shard-index.\n"
      "                     \"H:P*2\" marks a replicated range (this endpoint\n"
      "                     plus the next serve the same range)\n"
      "  --shard-index N    which RANGE of --shard-map this process serves\n"
      "                     (replicas of one range share the index)\n"
      "  --route-to H:P,H:P,...   proxy mode: forward /v1/decompose to the\n"
      "                     owning shard instead of serving locally\n"
      "  --route-backoff S  base backoff after a shard transport failure\n"
      "                     (default 0.5, doubling up to 30)\n"
      "  --anti-entropy-interval S  reconcile warm state with the replica\n"
      "                     siblings of this range every S seconds (0 = off,\n"
      "                     the default; requires --shard-map). POST\n"
      "                     /v1/admin/antientropy forces a round either way\n"
      "  --anti-entropy-slices N  digest sub-slices per comparison\n"
      "                     (default 16, max 4096)\n"
      "  --self H:P         this process's own endpoint as written in\n"
      "                     --shard-map, so the sweep skips itself (default:\n"
      "                     inferred from the listen port)\n"
      "live resharding: drive with hdreshard (POST /v1/admin/transition on\n"
      "the router, /v1/admin/migrate on each backend)\n",
      argv0);
}

/// Strict integer flag: full-string, range-checked. Prints usage and exits
/// non-zero on garbage — `--port x` must not silently bind port 0.
long RequireInt(const char* argv0, const char* flag, const char* text,
                long min_value, long max_value) {
  long value;
  if (!htd::util::ParseIntFlag(text, min_value, max_value, &value)) {
    std::fprintf(stderr,
                 "invalid value for %s: \"%s\" (expected an integer in "
                 "[%ld, %ld])\n\n",
                 flag, text, min_value, max_value);
    Usage(argv0);
    std::exit(2);
  }
  return value;
}

double RequireSeconds(const char* argv0, const char* flag, const char* text) {
  double value;
  if (!htd::util::ParseDoubleFlag(text, 0.0, &value)) {
    std::fprintf(stderr,
                 "invalid value for %s: \"%s\" (expected seconds >= 0)\n\n",
                 flag, text);
    Usage(argv0);
    std::exit(2);
  }
  return value;
}

htd::service::ShardMap RequireShardMap(const char* argv0, const char* flag,
                                       const char* text) {
  auto map = htd::service::ShardMap::Parse(text);
  if (!map.ok()) {
    std::fprintf(stderr, "invalid value for %s: %s\n\n", flag,
                 map.status().message().c_str());
    Usage(argv0);
    std::exit(2);
  }
  return *std::move(map);
}

/// Proxy mode: an HttpServer whose handler is the ShardRouter; no local
/// service, no snapshot — the shards own the warm state.
int RunRouter(htd::net::HttpServer::Options http,
              htd::net::ShardRouterOptions router_options) {
  htd::net::ShardRouter router(std::move(router_options));
  htd::net::HttpServer http_server(
      http, [&router](const htd::net::HttpRequest& request) {
        return router.Handle(request);
      });
  if (auto status = http_server.Start(); !status.ok()) {
    std::fprintf(stderr, "hdserver: %s\n", status.message().c_str());
    return 2;
  }
  std::printf("hdserver: routing on %s:%d across %d shards (%s), digest %s\n",
              http.host.c_str(), http_server.port(),
              router.options().map.num_shards(),
              router.options().map.Serialise().c_str(),
              router.options().map.DigestHex().c_str());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("hdserver: router shutting down\n");
  http_server.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  htd::net::DecompositionServerOptions options;
  options.http.port = 8080;
  options.service.solve.num_threads = 0;  // batch-aware auto
  options.service.default_timeout_seconds = 30.0;
  bool save_on_exit = true;
  double snapshot_interval = 0.0;
  int workers = 4;  // --workers: the global executor's width
  bool have_shard_index = false;
  std::string route_to_spec;
  htd::net::ShardRouterOptions router_options{
      htd::service::ShardMap::Parse("unused:1").value()};

  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--host") {
      options.http.host = next("--host");
    } else if (flag == "--port") {
      options.http.port = static_cast<int>(
          RequireInt(argv[0], "--port", next("--port"), 0, 65535));
    } else if (flag == "--io-threads") {
      options.http.io_threads = static_cast<int>(
          RequireInt(argv[0], "--io-threads", next("--io-threads"), 1, 1024));
    } else if (flag == "--loop-threads") {
      options.http.loop_threads = static_cast<int>(RequireInt(
          argv[0], "--loop-threads", next("--loop-threads"), 1, 256));
    } else if (flag == "--idle-timeout") {
      options.http.idle_timeout_seconds =
          RequireSeconds(argv[0], "--idle-timeout", next("--idle-timeout"));
    } else if (flag == "--header-timeout") {
      options.http.header_timeout_seconds =
          RequireSeconds(argv[0], "--header-timeout", next("--header-timeout"));
    } else if (flag == "--write-timeout") {
      options.http.write_timeout_seconds =
          RequireSeconds(argv[0], "--write-timeout", next("--write-timeout"));
    } else if (flag == "--workers") {
      workers = static_cast<int>(
          RequireInt(argv[0], "--workers", next("--workers"), 1, 1024));
    } else if (flag == "--threads") {
      options.service.solve.num_threads = static_cast<int>(
          RequireInt(argv[0], "--threads", next("--threads"), 0, 1024));
    } else if (flag == "--solver") {
      options.service.solver_name = next("--solver");
    } else if (flag == "--queue-depth") {
      options.max_queue_depth = static_cast<int>(RequireInt(
          argv[0], "--queue-depth", next("--queue-depth"), 1, 1'000'000));
    } else if (flag == "--max-connections") {
      options.http.max_connections = static_cast<int>(
          RequireInt(argv[0], "--max-connections", next("--max-connections"), 1,
                     1'000'000));
    } else if (flag == "--default-timeout") {
      options.service.default_timeout_seconds =
          RequireSeconds(argv[0], "--default-timeout", next("--default-timeout"));
    } else if (flag == "--cache-capacity") {
      options.service.cache_capacity = static_cast<size_t>(
          RequireInt(argv[0], "--cache-capacity", next("--cache-capacity"), 1,
                     1'000'000'000));
    } else if (flag == "--store") {
      options.service.enable_subproblem_store = true;
    } else if (flag == "--store-budget-mb") {
      options.service.subproblem_store.byte_budget =
          static_cast<size_t>(RequireInt(argv[0], "--store-budget-mb",
                                         next("--store-budget-mb"), 1,
                                         1'000'000))
          << 20;
      options.service.enable_subproblem_store = true;
    } else if (flag == "--max-k") {
      options.max_k = static_cast<int>(
          RequireInt(argv[0], "--max-k", next("--max-k"), 1, 1'000'000));
    } else if (flag == "--snapshot") {
      options.snapshot_path = next("--snapshot");
    } else if (flag == "--snapshot-interval") {
      snapshot_interval = RequireSeconds(argv[0], "--snapshot-interval",
                                         next("--snapshot-interval"));
    } else if (flag == "--no-load") {
      options.load_snapshot_on_start = false;
    } else if (flag == "--no-save-on-exit") {
      save_on_exit = false;
    } else if (flag == "--shard-map") {
      options.shard_map =
          RequireShardMap(argv[0], "--shard-map", next("--shard-map"));
    } else if (flag == "--shard-index") {
      options.shard_index = static_cast<int>(
          RequireInt(argv[0], "--shard-index", next("--shard-index"), 0, 4095));
      have_shard_index = true;
    } else if (flag == "--anti-entropy-interval") {
      options.anti_entropy_interval_seconds =
          RequireSeconds(argv[0], "--anti-entropy-interval",
                         next("--anti-entropy-interval"));
    } else if (flag == "--anti-entropy-slices") {
      options.anti_entropy_slices = static_cast<int>(
          RequireInt(argv[0], "--anti-entropy-slices",
                     next("--anti-entropy-slices"), 1, 4096));
    } else if (flag == "--self") {
      options.anti_entropy_self = next("--self");
    } else if (flag == "--route-to") {
      route_to_spec = next("--route-to");
    } else if (flag == "--route-backoff") {
      router_options.backoff_base_seconds =
          RequireSeconds(argv[0], "--route-backoff", next("--route-backoff"));
    } else if (flag == "--help" || flag == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  if (!route_to_spec.empty()) {
    if (options.shard_map.has_value() || have_shard_index ||
        !options.snapshot_path.empty()) {
      std::fprintf(stderr,
                   "--route-to (proxy mode) excludes --shard-map, "
                   "--shard-index, and --snapshot: the shards own the warm "
                   "state, the router owns none\n");
      return 2;
    }
    router_options.map =
        RequireShardMap(argv[0], "--route-to", route_to_spec.c_str());
    return RunRouter(options.http, std::move(router_options));
  }
  if (options.shard_map.has_value() != have_shard_index) {
    std::fprintf(stderr, "--shard-map and --shard-index go together\n");
    return 2;
  }
  if (snapshot_interval > 0 && options.snapshot_path.empty()) {
    std::fprintf(stderr, "--snapshot-interval requires --snapshot PATH\n");
    return 2;
  }

  // Size the fleet-wide executor before anything touches Global(): every
  // flight, chunk task, and async query job in this process runs on it.
  htd::util::Executor::InitGlobal(workers);
  auto server = htd::net::DecompositionServer::Create(options);
  if (!server.ok()) {
    std::fprintf(stderr, "hdserver: %s\n", server.status().message().c_str());
    return 2;
  }
  if (auto status = (*server)->Start(); !status.ok()) {
    std::fprintf(stderr, "hdserver: %s\n", status.message().c_str());
    return 2;
  }

  const auto& restored = (*server)->restored();
  std::printf(
      "hdserver: listening on %s:%d (solver %s, %d workers, queue depth %d)\n",
      options.http.host.c_str(), (*server)->port(),
      options.service.solver_name.c_str(), workers,
      options.max_queue_depth);
  if (options.shard_map.has_value()) {
    std::printf("hdserver: shard %d/%d of %s (digest %s)\n",
                options.shard_index, options.shard_map->num_shards(),
                options.shard_map->Serialise().c_str(),
                options.shard_map->DigestHex().c_str());
  }
  if (options.anti_entropy_interval_seconds > 0) {
    std::printf("hdserver: anti-entropy sweep every %.3gs (%d digest slices)\n",
                options.anti_entropy_interval_seconds,
                options.anti_entropy_slices);
  }
  if (restored.cache_entries > 0 || restored.store_entries > 0 ||
      restored.dropped_out_of_range > 0) {
    std::printf("hdserver: warm start — restored %zu cache entries, "
                "%zu store keys from %s (%zu dropped out of shard range)\n",
                restored.cache_entries, restored.store_entries,
                options.snapshot_path.c_str(), restored.dropped_out_of_range);
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // Periodic background snapshot (--snapshot-interval): bounds warm-state
  // loss on crash to one interval. SaveSnapshotNow serialises writers, so a
  // colliding /v1/admin/snapshot or exit save stays safe.
  auto last_save = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (snapshot_interval > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(now - last_save).count() >=
          snapshot_interval) {
        last_save = now;
        auto saved = (*server)->SaveSnapshotNow();
        if (!saved.ok()) {
          std::fprintf(stderr, "hdserver: periodic snapshot failed: %s\n",
                       saved.status().message().c_str());
        }
      }
    }
  }

  std::printf("hdserver: shutting down\n");
  if (save_on_exit && !options.snapshot_path.empty()) {
    auto saved = (*server)->SaveSnapshotNow();
    if (saved.ok()) {
      std::printf("hdserver: snapshot saved (%zu cache entries, %zu store keys, "
                  "%zu bytes)\n",
                  saved->cache_entries, saved->store_entries, saved->bytes);
    } else {
      std::fprintf(stderr, "hdserver: snapshot save failed: %s\n",
                   saved.status().message().c_str());
    }
  }
  (*server)->Stop();
  return 0;
}
