// Fingerprint-range routing proxy: hdserver's --route-to mode.
//
// One ShardRouter sits in front of N sharded hdserver backends
// (net/decomposition_server.h, each configured with the same ShardMap and
// its own shard_index) and forwards every /v1/decompose to the shard that
// owns the instance's canonical fingerprint. Because the fingerprint is
// isomorphism-invariant, all renamings of an instance — and, with the
// subproblem store enabled, all isomorphic subproblems the backends memoize
// — accumulate on one shard, so the fleet's warm state is a partition, not
// N overlapping copies (ROADMAP: "shard the warm state across processes").
//
//   clients ──► ShardRouter (hdserver --route-to a:1,b:2*2,c:2)
//                  │  fingerprint → ShardMap::IndexFor
//                  ├────────► range 0 (hdserver --shard-map … --shard-index 0)
//                  └──round-robin──► range 1 replicas b:2 and c:2
//                                    (both --shard-index 1)
//
// Replication (service/shard_map.h "host:port*R" syntax): a hot range can
// be served by R replicas. The router round-robins decompose requests over
// a range's replicas and FAILS OVER to the next replica on a transport
// error or backoff window, so one dead replica costs a connect timeout
// once, not availability; fan-out routes (metrics/snapshot) and migration
// imports address every replica, which is what keeps a surviving replica
// warm enough to make shard death a non-event.
//
// Live resharding: the router can hold TWO maps at once (POST
// /v1/admin/transition installs the incoming topology next to the current
// one). While transitioning, decompose requests are double-routed: the
// CURRENT owner is tried first (it still holds the warm entry — donors keep
// their copies until the handover completes), and a 421 ("I already
// finalised onto the new map") or transport-level failure retries the NEW
// owner under the new digest. No correctly-operated request surfaces a 421
// mid-migration. `?complete=1` flips the new map to current;
// `?abort=1` drops it. tools/hdreshard.cc drives the whole sequence.
//
// Forwarding is SINGLE-HOP by construction: every forwarded request carries
// x-htd-forwarded, and a router that receives that header answers 508 Loop
// Detected instead of forwarding again — a mis-wired fleet (router routed to
// itself, or two routers pointed at each other) fails loudly on the first
// request rather than melting down. Requests also carry the map digest and
// the computed fingerprint, so a backend holding a different topology
// refuses with 421 (see DecompositionServerOptions::shard_map).
//
// Health: an endpoint whose transport fails (connect/send/recv) is marked
// down and skipped for an exponentially growing backoff window; with no
// healthy replica left the client gets a fail-fast 503 + Retry-After. One
// successful exchange resets it. A shard's own 429/503 load-shedding
// responses pass through verbatim and are NOT retried on a sibling replica
// — the router adds no retry magic to overload, clients already know how to
// back off (docs/SERVER.md).
//
// Routes: /v1/decompose forwards to the owning shard (async job ids come
// back prefixed "s<shard>r<replica>." so /v1/jobs/<id> can route without
// state to the exact minting process (replicas mint independent counters) —
// polls try every replica of the range); /v1/query routes identically but
// keys on the fingerprint of the QUERY'S HYPERGRAPH (qa/wire.h body), so
// repeated queries warm the shard that owns them; /v1/metrics fans out and
// returns one Prometheus text page with identical backend series summed,
// then the router's own htd_router_* series, per-endpoint health rows
// included;
// /v1/trace?n=K answers locally with the router's recent root spans;
// /v1/admin/snapshot fans out (each process persists its own range);
// /v1/admin/transition begins/completes/aborts a live reshard;
// /healthz answers locally with per-endpoint reachability.
//
// The routes come from one RouteTable (net/routes.h), behind the 508
// loop check.
//
// Observability: every forwarded /v1/decompose carries an
// X-HTD-Request-Id the backend adopts as its root span id, so the router's
// "route" span and the backend's "request" trace stitch on one id; the
// backend's X-HTD-Request-Id and Server-Timing response headers pass
// through to the client. Each forward attempt is recorded as a "forward"
// span tagged (range << 8 | replica).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "net/routes.h"
#include "service/shard_map.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace htd::net {

struct ShardRouterOptions {
  service::ShardMap map;

  /// Transport timeout for connecting to a shard.
  double connect_timeout_seconds = 5.0;
  /// Floor for the forwarded-request read timeout. Synchronous decompose
  /// forwards stretch it to cover the job's own ?timeout= (the shard
  /// legitimately takes that long to answer); ?timeout=0 waits indefinitely.
  double read_timeout_seconds = 120.0;
  /// First backoff after a transport failure; doubles per consecutive
  /// failure up to backoff_max_seconds.
  double backoff_base_seconds = 0.5;
  double backoff_max_seconds = 30.0;
  /// Retry-After value on router-generated 503s (shard down / backing off).
  int retry_after_seconds = 1;
};

class ShardRouter {
 public:
  /// Per-ENDPOINT health and traffic counters (one row per process; a
  /// replicated range contributes one row per replica). Rows are ordered
  /// (range, replica) over the current map, then any endpoints only present
  /// in the incoming map while a transition is in flight (range = their
  /// range under the NEW map).
  struct ShardStats {
    std::string host;
    int port = 0;
    int range = 0;                ///< fingerprint range this endpoint serves
    int replica = 0;              ///< replica slot within the range
    uint64_t forwarded = 0;       ///< exchanges attempted against this endpoint
    uint64_t transport_errors = 0;///< connect/send/recv/parse failures
    uint64_t backoff_shed = 0;    ///< skips without touching the socket
    bool backing_off = false;     ///< true while inside the backoff window
  };

  explicit ShardRouter(ShardRouterOptions options);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Route dispatch; plug into HttpServer as the handler (tools/hdserver.cc)
  /// or call directly in tests.
  HttpResponse Handle(const HttpRequest& request);

  const ShardRouterOptions& options() const { return options_; }
  std::vector<ShardStats> shard_stats() const;

  /// The router's own registry (per-route latency histograms, rendered at
  /// the tail of the aggregated /v1/metrics page as htd_router_* series
  /// ahead of the per-endpoint health rows).
  util::MetricsRegistry& metrics() { return metrics_; }

  /// Installs `new_map` as the incoming topology and starts double-routing
  /// (also reachable as POST /v1/admin/transition with the spec as body).
  /// Idempotent for the same map; kFailedPrecondition when a DIFFERENT
  /// transition is already in flight, kInvalidArgument when the new map
  /// equals the current one.
  util::Status BeginTransition(const service::ShardMap& new_map);
  /// Flips the incoming map to current (kFailedPrecondition when no
  /// transition is in flight). Also POST /v1/admin/transition?complete=1.
  util::Status CompleteTransition();
  /// Drops the incoming map without flipping (?abort=1).
  util::Status AbortTransition();
  bool transitioning() const { return maps()->new_map.has_value(); }

 private:
  struct EndpointHealth {
    int consecutive_failures = 0;
    std::chrono::steady_clock::time_point retry_at{};  // epoch = healthy
    uint64_t forwarded = 0;
    uint64_t transport_errors = 0;
    uint64_t backoff_shed = 0;
  };

  /// Immutable snapshot of the routing topology, swapped whole under
  /// maps_mutex_ so request handlers never see a half-updated transition.
  struct Maps {
    explicit Maps(service::ShardMap m) : map(std::move(m)) {}

    service::ShardMap map;
    std::string digest_hex;
    std::optional<service::ShardMap> new_map;
    std::string new_digest_hex;
    /// The map retired by the last completed transition. Job ids encode a
    /// range index under the map that minted them, so polls keep resolving
    /// against one generation of history — an async job admitted just
    /// before the flip stays pollable on the endpoint that owns it.
    std::optional<service::ShardMap> prev_map;
    std::string prev_digest_hex;
  };

  std::shared_ptr<const Maps> maps() const;

  /// The route table (built once, by the constructor).
  std::vector<Route> Routes();

  HttpResponse HandleHealth(const HttpRequest& request);
  /// POST /v1/decompose and /v1/query: a 400 for an empty or unparseable
  /// body (never forwarded), else the body's owning range by its
  /// Body::Fingerprint, the same key the backend admits it under.
  template <typename Body>
  HttpResponse HandleBody(const HttpRequest& request);
  HttpResponse HandleJob(const HttpRequest& request);
  HttpResponse HandleMetrics(const HttpRequest& request);
  HttpResponse HandleSnapshot(const HttpRequest& request);
  HttpResponse HandleTransition(const HttpRequest& request);

  /// Forwarding tail of HandleBody: route `request` to the range owning
  /// `fp` under the current map, double-route mid-transition, prefix async
  /// job ids, and guarantee an X-HTD-Request-Id on the way out.
  HttpResponse RouteByFingerprint(const HttpRequest& request,
                                  const service::Fingerprint& fp);

  /// One blocking exchange against `endpoint` (Connection: close), with the
  /// single-hop / digest / fingerprint headers attached. Applies the
  /// backoff gate before touching the socket and records the outcome.
  /// `*transport_failed` distinguishes "endpoint is down / backing off"
  /// (true — the caller may fail over to a sibling replica) from an HTTP
  /// response, which passes through verbatim.
  /// A non-empty `request_id_hex` is attached as X-HTD-Request-Id (the
  /// backend adopts it as its root span id); the backend's Server-Timing
  /// and X-HTD-Request-Id response headers pass through.
  HttpResponse ForwardToEndpoint(const service::ShardEndpoint& endpoint,
                                 const std::string& digest_hex,
                                 const std::string& method,
                                 const std::string& target,
                                 const std::string& body,
                                 const std::string& fingerprint_hex,
                                 const std::string& request_id_hex,
                                 double read_timeout_seconds,
                                 bool* transport_failed);

  /// Replica-aware forward to range `index` of `map`: starts at the
  /// round-robin slot, skips replicas in their backoff window, and fails
  /// over to the next replica on transport errors. Returns the first HTTP
  /// response, or a 503 when every replica is down or backing off. A
  /// non-null `served_replica` receives the replica slot that answered
  /// (unchanged when no replica did) — job-id prefixes need the exact
  /// minting process, not just the range.
  /// `trace` parents one "forward" span per attempt, tagged
  /// (range << 8 | replica); an all-zero TraceParent records nothing.
  HttpResponse ForwardToRange(const service::ShardMap& map, int index,
                              const std::string& digest_hex,
                              const std::string& method,
                              const std::string& target,
                              const std::string& body,
                              const std::string& fingerprint_hex,
                              const std::string& request_id_hex,
                              double read_timeout_seconds,
                              util::TraceParent trace = {},
                              int* served_replica = nullptr);

  /// Every unique endpoint the router currently addresses (current map
  /// first in (range, replica) order, then incoming-map-only extras).
  struct AddressedEndpoint {
    service::ShardEndpoint endpoint;
    int range = 0;
    int replica = 0;
    std::string digest_hex;  ///< digest of the map this endpoint is under
  };
  static std::vector<AddressedEndpoint> AddressedEndpoints(const Maps& maps);

  /// Body-less forward to EVERY addressed endpoint concurrently (up to 16
  /// fan-out threads), index-aligned with AddressedEndpoints(). A
  /// sequential fan-out would serialise the connect timeouts of down
  /// endpoints on a router IO thread.
  std::vector<HttpResponse> ForwardAll(
      const std::vector<AddressedEndpoint>& targets, const std::string& method,
      const std::string& target);

  /// Health rows for exactly `targets`, index-aligned — callers that pair
  /// health with per-endpoint responses pass the SAME target list to both,
  /// so a concurrent transition cannot misalign the rows.
  std::vector<ShardStats> StatsForTargets(
      const std::vector<AddressedEndpoint>& targets) const;

  /// Prometheus text of the per-endpoint health rows for exactly `targets`:
  /// htd_router_{forwarded,transport_errors,backoff_shed}_total and
  /// htd_router_backing_off, labelled by endpoint, range and replica.
  std::string RenderEndpointSeries(
      const std::vector<AddressedEndpoint>& targets) const;

  static std::string HealthKey(const service::ShardEndpoint& endpoint) {
    return endpoint.host + ":" + std::to_string(endpoint.port);
  }

  /// True when the endpoint is inside its backoff window (also bumps the
  /// backoff_shed counter).
  bool InBackoff(const std::string& key);
  void RecordSuccess(const std::string& key);
  void RecordFailure(const std::string& key);

  ShardRouterOptions options_;
  /// Router-local metrics; family names are htd_router_* so the aggregated
  /// /v1/metrics page never collides with summed backend series.
  util::MetricsRegistry metrics_;
  /// After metrics_, which it registers its latency series on.
  RouteTable routes_;
  mutable std::mutex maps_mutex_;
  std::shared_ptr<const Maps> maps_;  // swapped by transitions

  mutable std::mutex health_mutex_;
  /// Keyed "host:port" so health survives topology transitions — flipping
  /// the map must not forget which processes were down.
  std::map<std::string, EndpointHealth> health_;

  /// Round-robin cursor for replica selection (shared across ranges; only
  /// the modulo per range matters).
  std::atomic<uint64_t> round_robin_{0};
};

}  // namespace htd::net
