// hdreshard: drives a live N→M reshard of a sharded hdserver fleet
// (docs/OPERATIONS.md has the full runbook and a worked 2→3 transcript).
//
//   $ hdreshard --from 10.0.0.1:8080,10.0.0.2:8080 \
//               --to   10.0.0.1:8080,10.0.0.2:8080,10.0.0.3:8080 \
//               --router 10.0.0.9:8080
//
// Sequence (each step is an idempotent HTTP call; re-running a failed
// reshard with the same arguments is safe):
//
//   1. announce  POST /v1/admin/transition on the router: it starts
//                double-routing (old owner first, new owner on 421/5xx) so
//                no request 421s while the fleet is mid-topology.
//   2. prepare   POST /v1/admin/migrate?prepare=1&new_index=J on every OLD
//                backend: each enters its transitioning state (accepts both
//                digests) BEFORE any entry moves, so peers' new-digest
//                pushes are welcome everywhere.
//   3. migrate   POST /v1/admin/migrate?new_index=J on every old backend:
//                streams the entries leaving its range to every replica of
//                their new owners via /v1/admin/import.
//   4. flip      POST /v1/admin/transition?complete=1 on the router: the
//                new map becomes the only map.
//   5. finalise  POST /v1/admin/migrate?finalise=1 on every old backend
//                that stays in the fleet; backends that left the map are
//                reported for shutdown instead.
//   6. verify    GET /v1/metrics on every new endpoint: prints its
//                htd_migration_entries_total imports so the operator can
//                see the warm state actually moved.
//
// Backends keep serving throughout — donors retain their entries until the
// flip, so warm hits survive the whole transition. Exits non-zero on the
// first failed step; nothing is rolled back automatically (the router can
// be reverted with POST /v1/admin/transition?abort=1 — see the runbook).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "net/http_client.h"
#include "service/shard_map.h"
#include "util/cli.h"

namespace {

struct Args {
  std::string from_spec;
  std::string to_spec;
  std::string router_host;
  int router_port = 0;
  bool have_router = false;
  bool dry_run = false;
  double timeout = 300.0;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --from H:P,... --to H:P,... [options]\n"
      "  --from SPEC     the fleet's CURRENT shard map\n"
      "  --to SPEC       the new shard map (host:port*2 = replicated range)\n"
      "  --router H:P    a --route-to proxy to transition and flip\n"
      "                  (omit for fleets addressed by hdclient --shards)\n"
      "  --timeout S     per-step HTTP timeout (default 300)\n"
      "  --dry-run       print the migration plan and exit\n",
      argv0);
}

/// One HTTP step against a backend or the router; prints and fails loudly.
bool Step(const Args& args, const std::string& what, const std::string& host,
          int port, const std::string& method, const std::string& target,
          const std::string& body, std::string* response_body = nullptr) {
  htd::net::FetchOptions fetch;
  fetch.read_timeout_seconds = args.timeout;
  htd::net::FetchResult result =
      htd::net::HttpFetch(host, port, method, target, body, {}, fetch);
  if (!result.ok()) {
    std::fprintf(stderr, "hdreshard: %s (%s:%d): transport failure: %s\n",
                 what.c_str(), host.c_str(), port, result.error.c_str());
    return false;
  }
  if (result.status != 200) {
    std::fprintf(stderr, "hdreshard: %s (%s:%d): HTTP %d: %s",
                 what.c_str(), host.c_str(), port, result.status,
                 result.body.c_str());
    return false;
  }
  std::printf("hdreshard: %s (%s:%d): ok %s", what.c_str(), host.c_str(), port,
              result.body.c_str());
  if (response_body != nullptr) *response_body = result.body;
  return true;
}

/// The integer after `prefix` in a body the fleet rendered — a JSON field
/// (`"entries_out": `) or a /v1/metrics sample line (`\nname{labels} `),
/// both in one exact form, so a string search suffices; -1 when absent.
long long NumberAfter(const std::string& body, const std::string& prefix) {
  size_t pos = body.find(prefix);
  if (pos == std::string::npos) return -1;
  return std::strtoll(body.c_str() + pos + prefix.size(), nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--from") {
      args.from_spec = next("--from");
    } else if (flag == "--to") {
      args.to_spec = next("--to");
    } else if (flag == "--router") {
      auto endpoint = htd::service::ShardEndpoint::Parse(next("--router"));
      if (!endpoint.ok()) {
        std::fprintf(stderr, "invalid value for --router: %s\n\n",
                     endpoint.status().message().c_str());
        Usage(argv[0]);
        return 2;
      }
      args.router_host = endpoint->host;
      args.router_port = endpoint->port;
      args.have_router = true;
    } else if (flag == "--timeout") {
      if (!htd::util::ParseDoubleFlag(next("--timeout"), 0.0, &args.timeout)) {
        std::fprintf(stderr, "invalid value for --timeout\n\n");
        Usage(argv[0]);
        return 2;
      }
    } else if (flag == "--dry-run") {
      args.dry_run = true;
    } else if (flag == "--help" || flag == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n\n", flag.c_str());
      Usage(argv[0]);
      return 2;
    }
  }
  if (args.from_spec.empty() || args.to_spec.empty()) {
    Usage(argv[0]);
    return 2;
  }

  auto from = htd::service::ShardMap::Parse(args.from_spec);
  if (!from.ok()) {
    std::fprintf(stderr, "hdreshard: --from: %s\n",
                 from.status().message().c_str());
    return 2;
  }
  auto to = htd::service::ShardMap::Parse(args.to_spec);
  if (!to.ok()) {
    std::fprintf(stderr, "hdreshard: --to: %s\n", to.status().message().c_str());
    return 2;
  }
  if (from->Digest() == to->Digest()) {
    std::fprintf(stderr, "hdreshard: --from and --to are the same map "
                         "(digest %s); nothing to do\n",
                 from->DigestHex().c_str());
    return 2;
  }

  // Plan: every OLD process migrates; its identity under the new map is
  // found by endpoint equality (-1 = it leaves the fleet). NEW-only
  // endpoints must already be running with the new map before step 2 pushes
  // entries at them.
  struct OldBackend {
    htd::service::ShardEndpoint endpoint;
    int old_range = 0;
    int new_index = -1;
  };
  std::vector<OldBackend> old_backends;
  for (int index = 0; index < from->num_shards(); ++index) {
    for (int r = 0; r < from->num_replicas(index); ++r) {
      OldBackend backend;
      backend.endpoint = from->replica(index, r);
      backend.old_range = index;
      backend.new_index = to->RangeOfEndpoint(backend.endpoint);
      old_backends.push_back(std::move(backend));
    }
  }
  std::vector<htd::service::ShardEndpoint> new_only;
  for (int index = 0; index < to->num_shards(); ++index) {
    for (int r = 0; r < to->num_replicas(index); ++r) {
      if (from->RangeOfEndpoint(to->replica(index, r)) < 0) {
        new_only.push_back(to->replica(index, r));
      }
    }
  }

  std::printf("hdreshard: %d -> %d ranges (digests %s -> %s)\n",
              from->num_shards(), to->num_shards(), from->DigestHex().c_str(),
              to->DigestHex().c_str());
  for (const OldBackend& backend : old_backends) {
    if (backend.new_index >= 0) {
      std::printf("  %s:%d  range %d -> range %d\n",
                  backend.endpoint.host.c_str(), backend.endpoint.port,
                  backend.old_range, backend.new_index);
    } else {
      std::printf("  %s:%d  range %d -> LEAVES the fleet (shut down after "
                  "the flip)\n",
                  backend.endpoint.host.c_str(), backend.endpoint.port,
                  backend.old_range);
    }
  }
  for (const htd::service::ShardEndpoint& endpoint : new_only) {
    std::printf("  %s:%d  JOINS as range %d (must already run with the new "
                "map)\n",
                endpoint.host.c_str(), endpoint.port,
                to->RangeOfEndpoint(endpoint));
  }
  if (args.dry_run) return 0;

  // 1. Announce the transition to the router: double-routing starts here.
  if (args.have_router &&
      !Step(args, "announce transition", args.router_host, args.router_port,
            "POST", "/v1/admin/transition", to->Serialise())) {
    return 1;
  }

  // 2. Prepare every old backend: all of them must accept the new digest
  // before any of them pushes entries at a peer.
  for (const OldBackend& backend : old_backends) {
    if (!Step(args, "prepare range " + std::to_string(backend.old_range),
              backend.endpoint.host, backend.endpoint.port, "POST",
              "/v1/admin/migrate?prepare=1&new_index=" +
                  std::to_string(backend.new_index),
              to->Serialise())) {
      return 1;
    }
  }

  // 3. Migrate every old backend (streams the entries leaving its range).
  long long total_out = 0;
  for (const OldBackend& backend : old_backends) {
    std::string response;
    // `self` lets the backend push its RETAINED slice to new sibling
    // replicas of its own range (it skips itself by endpoint identity).
    if (!Step(args,
              "migrate range " + std::to_string(backend.old_range),
              backend.endpoint.host, backend.endpoint.port, "POST",
              "/v1/admin/migrate?new_index=" + std::to_string(backend.new_index) +
                  "&self=" + backend.endpoint.host + ":" +
                  std::to_string(backend.endpoint.port),
              to->Serialise(), &response)) {
      std::fprintf(stderr, "hdreshard: migration incomplete — fix the backend "
                           "and re-run (all steps are idempotent), or revert "
                           "the router with /v1/admin/transition?abort=1\n");
      return 1;
    }
    long long out = NumberAfter(response, "\"entries_out\": ");
    if (out > 0) total_out += out;
  }

  // 4. Flip the router onto the new map.
  if (args.have_router &&
      !Step(args, "flip router", args.router_host, args.router_port, "POST",
            "/v1/admin/transition?complete=1", "")) {
    return 1;
  }

  // 5. Finalise the backends that stay (adopt the new map exclusively).
  for (const OldBackend& backend : old_backends) {
    if (backend.new_index < 0) {
      std::printf("hdreshard: %s:%d left the map — drain and shut it down\n",
                  backend.endpoint.host.c_str(), backend.endpoint.port);
      continue;
    }
    if (!Step(args, "finalise range " + std::to_string(backend.new_index),
              backend.endpoint.host, backend.endpoint.port, "POST",
              "/v1/admin/migrate?finalise=1", "")) {
      return 1;
    }
  }

  // 6. Verify: the new fleet's counters show the warm state arrived.
  long long total_in = 0;
  bool verified = true;
  for (int index = 0; index < to->num_shards(); ++index) {
    for (int r = 0; r < to->num_replicas(index); ++r) {
      const htd::service::ShardEndpoint& endpoint = to->replica(index, r);
      htd::net::FetchOptions fetch;
      fetch.read_timeout_seconds = args.timeout;
      htd::net::FetchResult metrics = htd::net::HttpFetch(
          endpoint.host, endpoint.port, "GET", "/v1/metrics", "", {}, fetch);
      if (!metrics.ok() || metrics.status != 200) {
        std::fprintf(stderr, "hdreshard: verify %s:%d: unreachable\n",
                     endpoint.host.c_str(), endpoint.port);
        verified = false;
        continue;
      }
      const long long cache_in = NumberAfter(
          metrics.body,
          "\nhtd_migration_entries_total{direction=\"imported_cache\"} ");
      const long long store_in = NumberAfter(
          metrics.body,
          "\nhtd_migration_entries_total{direction=\"imported_store\"} ");
      std::printf("hdreshard: verify range %d (%s:%d): imported %lld cache + "
                  "%lld store entries\n",
                  index, endpoint.host.c_str(), endpoint.port,
                  cache_in > 0 ? cache_in : 0, store_in > 0 ? store_in : 0);
      if (cache_in > 0) total_in += cache_in;
      if (store_in > 0) total_in += store_in;
    }
  }
  std::printf("hdreshard: done — %lld entries pushed out, %lld accepted by "
              "new owners\n", total_out, total_in);
  return verified ? 0 : 1;
}
