// Out-of-process decomposition server: HTTP routes, admission control, and
// warm-state persistence over a DecompositionService.
//
// Routes (wire protocol details in docs/SERVER.md, fleet operations in
// docs/OPERATIONS.md):
//
//   POST /v1/decompose      body: hypergraph (HyperBench or PACE text),
//                           query: k (required), timeout, async,
//                           decomposition. Sync by default; async=1 returns
//                           202 + a job id for GET /v1/jobs/<id>.
//   POST /v1/query          body: conjunctive query + database (HTDQUERY1
//                           text, qa/wire.h); query: timeout, async, count.
//                           Decomposes the query's hypergraph through the
//                           service (same cache/shard warm path as
//                           /v1/decompose), picks a tree from the
//                           decomposition portfolio, runs Yannakakis, and
//                           returns witness/count/decomposition metadata
//                           (docs/QUERIES.md). Admitted by the same step as
//                           /v1/decompose (421/400/503/429); async job ids
//                           are "q<N>".
//   GET  /v1/jobs/<id>      state of an async job; includes the result once
//                           resolved. Serves decompose ("j<N>") and query
//                           ("q<N>") jobs from one table.
//   POST /v1/admin/snapshot persist warm state to the configured snapshot
//                           path (service/persistence.h).
//   GET  /v1/admin/export?range=HEX-HEX
//                           the warm state inside the given fingerprint
//                           hi-range as one snapshot blob (the
//                           service/persistence.h codec IS the wire format).
//   POST /v1/admin/import   merge a snapshot blob into the warm state
//                           (filtered to this shard's accepted range).
//   POST /v1/admin/migrate?new_index=K[&prepare=1|&finalise=1]
//                           live reshard: body carries the NEW shard map
//                           spec; the server enters a transitioning state
//                           (accepts both topologies), streams the entries
//                           leaving its range to their new owners via
//                           /v1/admin/import, and on finalise adopts the
//                           new map exclusively. prepare=1 installs the
//                           transitioning state WITHOUT streaming — the
//                           orchestrator prepares every backend first so
//                           each accepts its peers' new-digest pushes.
//   GET  /v1/admin/digest?range=HEX-HEX&slices=N
//                           order-independent content digest of the warm
//                           state per fingerprint sub-slice
//                           (service/anti_entropy.h wire format) — what a
//                           replica sibling compares against before pulling.
//   POST /v1/admin/antientropy
//                           force one synchronous anti-entropy sweep (the
//                           same round the background loop runs).
//   GET  /v1/metrics        Prometheus text exposition: admission/migration
//                           counters, component gauges, and per-stage /
//                           per-route latency histograms (util/metrics.h).
//   GET  /v1/trace?n=K      the most recent K completed root request spans
//                           as JSON, children attached (util/trace.h).
//   GET  /healthz           liveness probe.
//
// Observability: every POST /v1/decompose and /v1/query opens a root span
// whose id is echoed as X-HTD-Request-Id (an id arriving in that header —
// the shard router propagates its own — is adopted, so a fleet trace
// stitches together), and synchronous responses carry a Server-Timing
// header with the route's stage breakdown.
//
// Admission control: requests are shed with 429 + Retry-After once the
// number of admitted-but-unresolved jobs reaches max_queue_depth — a
// bounded queue in front of the scheduler, so overload degrades into fast
// failures instead of unbounded queueing. The check samples the scheduler's
// outstanding-jobs counter without a lock, and that counter itself can
// transiently under-count jobs mid-fan-out (see
// BatchScheduler::outstanding_jobs), so the bound is a load-shedding
// threshold with overshoot on the order of the IO thread count plus one
// fan-out, not an exact semaphore.
//
// Warm start: when a snapshot path is configured, Create() restores the
// result cache and subproblem store from it (a missing file is a normal
// cold start; a corrupt or version-mismatched file logs the reason to
// stderr and starts cold — it never aborts startup).
//
// Live resharding: a sharded server's topology is runtime state, not just
// configuration. /v1/admin/migrate installs a transitioning ShardState —
// old map and new map at once — during which the server accepts requests
// routed by EITHER digest and fingerprints in EITHER of its two ranges, so
// a router double-routing mid-handover never surfaces a 421. Entries whose
// owner changes are pushed (as range-filtered snapshot blobs) to every
// replica of the new owner; the old copies stay resident until the next
// range-filtered snapshot or LRU eviction drops them, so the donor keeps
// serving warm hits throughout. Finalise swaps to the new map atomically.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "net/http.h"
#include "net/routes.h"
#include "net/server.h"
#include "qa/query_engine.h"
#include "service/persistence.h"
#include "service/service.h"
#include "service/shard_map.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace htd::net {

struct DecompositionServerOptions {
  HttpServer::Options http;
  service::ServiceOptions service;

  /// Admission bound: jobs admitted but not yet resolved. Requests beyond
  /// it are shed with 429.
  int max_queue_depth = 64;
  /// Advertised in the Retry-After header of shed responses.
  int retry_after_seconds = 1;

  /// Snapshot file for warm-state persistence; empty disables the
  /// /v1/admin/snapshot route and startup restore.
  std::string snapshot_path;
  /// Restore from snapshot_path during Create() when the file exists.
  bool load_snapshot_on_start = true;

  /// Largest k accepted from the wire (guards against runaway requests).
  int max_k = 64;

  /// Query-answering engine knobs (qa/query_engine.h): width sweep bound,
  /// portfolio diversity probes, counting. The engine decomposes through
  /// this server's DecompositionService, so its probes hit the same result
  /// cache and shard warm path as /v1/decompose.
  qa::QueryEngineOptions query;

  /// Fingerprint-range sharding (docs/SERVER.md): when set, this server is
  /// shard `shard_index` of the map. Snapshots then cover only this shard's
  /// range (and restores drop out-of-range entries, so pre-resharding
  /// snapshots load cleanly), and requests carrying an x-htd-shard-digest
  /// header that disagrees with the map — a client or proxy routing by a
  /// stale topology — are refused with 421 Misdirected Request. The pair is
  /// only the STARTING topology: /v1/admin/migrate can replace it at
  /// runtime (live resharding, docs/OPERATIONS.md).
  std::optional<service::ShardMap> shard_map;
  int shard_index = -1;

  /// Anti-entropy between replica siblings (docs/OPERATIONS.md): every
  /// interval, compare warm-state digests with the other replicas of this
  /// range and pull the differing slices. 0 (the default) disables the
  /// background loop; POST /v1/admin/antientropy still forces a round.
  /// Requires shard_map.
  double anti_entropy_interval_seconds = 0.0;
  /// Sub-slices per digest comparison: more slices = finer-grained pulls
  /// (less redundant transfer) at a longer digest response. [1, 4096].
  int anti_entropy_slices = 16;
  /// This process's own endpoint as listed in the shard map ("host:port"),
  /// so the sweep excludes itself from its sibling set. Empty = infer by
  /// matching the listen port against the replica group (works whenever
  /// replica ports are distinct per host, e.g. loopback test fleets); an
  /// unidentifiable self degrades to pulling from every replica, where the
  /// self-pull is a digest-equal no-op.
  std::string anti_entropy_self;
};

class DecompositionServer {
 public:
  struct AdmissionStats {
    uint64_t admitted = 0;     ///< requests handed to the scheduler
    uint64_t shed = 0;         ///< requests rejected with 429
    uint64_t bad_requests = 0; ///< parse/validation failures (4xx)
    uint64_t misrouted = 0;    ///< sharding refusals (421): digest or range
  };

  /// Warm-state movement counters (live resharding, docs/OPERATIONS.md).
  struct MigrationStats {
    uint64_t imported_cache_entries = 0;  ///< merged in via /v1/admin/import
    uint64_t imported_store_entries = 0;
    uint64_t migrated_out_entries = 0;    ///< pushed to new owners by migrate
  };

  /// Cumulative anti-entropy counters (same cells as the
  /// htd_antientropy_*_total metrics).
  struct AntiEntropyStats {
    uint64_t rounds_ok = 0;       ///< rounds completed without a pull error
    uint64_t rounds_error = 0;    ///< rounds with >= 1 failed/aborted sibling
    uint64_t rounds_skipped = 0;  ///< no siblings, or migration in flight
    uint64_t merged_cache_entries = 0;
    uint64_t merged_store_entries = 0;
    uint64_t bytes_pulled = 0;
  };

  /// Outcome of one sweep round (RunAntiEntropySweep).
  struct SweepResult {
    int siblings = 0;       ///< siblings this round compared against
    int slices_pulled = 0;  ///< digest slices that differed and were fetched
    uint64_t cache_entries = 0;  ///< merged in this round
    uint64_t store_entries = 0;
    uint64_t bytes = 0;  ///< slice blob bytes transferred
    int errors = 0;      ///< siblings whose exchange failed or was aborted
  };

  /// The sharding identity the server currently enforces. Starts from
  /// DecompositionServerOptions::{shard_map, shard_index}; replaced at
  /// runtime by /v1/admin/migrate. While `new_map` is set the server is
  /// TRANSITIONING: it accepts the old digest AND the new one, and
  /// fingerprints in the old range AND (when it stays in the fleet) the new
  /// one, so no correctly double-routed request 421s mid-migration.
  struct ShardState {
    explicit ShardState(service::ShardMap m) : map(std::move(m)) {}

    service::ShardMap map;
    int index = 0;
    service::FingerprintRange range;
    std::string digest_hex;

    std::optional<service::ShardMap> new_map;
    /// This server's range under new_map; -1 = leaving the fleet (it
    /// donates everything and serves only its old range until shut down).
    int new_index = -1;
    service::FingerprintRange new_range;  ///< valid iff new_index >= 0
    std::string new_digest_hex;

    bool transitioning() const { return new_map.has_value(); }
  };

  /// Builds the service (validated), restores the snapshot when configured,
  /// and wires the routes. The HTTP listener is not started yet — Start().
  static util::StatusOr<std::unique_ptr<DecompositionServer>> Create(
      DecompositionServerOptions options);

  ~DecompositionServer();

  DecompositionServer(const DecompositionServer&) = delete;
  DecompositionServer& operator=(const DecompositionServer&) = delete;

  util::Status Start();
  /// Cancels in-flight solves, stops the listener, drains the service.
  void Stop();

  int port() const { return http_->port(); }
  service::DecompositionService& decomposition_service() { return *service_; }
  qa::QueryEngine& query_engine() { return *query_engine_; }
  AdmissionStats admission_stats() const;
  MigrationStats migration_stats() const;
  /// Entries restored at startup (zeros when cold).
  const service::SnapshotStats& restored() const { return restored_; }
  /// Snapshot of the current sharding identity; null when unsharded.
  std::shared_ptr<const ShardState> shard_state() const;

  /// Saves warm state to options().snapshot_path (FailedPrecondition when no
  /// path is configured). Also reachable as POST /v1/admin/snapshot.
  util::StatusOr<service::SnapshotStats> SaveSnapshotNow();

  AntiEntropyStats anti_entropy_stats() const;

  /// Runs one synchronous anti-entropy round: digest every sibling of this
  /// range, pull the differing slices, merge under dominance. What the
  /// background loop runs every interval; also reachable as
  /// POST /v1/admin/antientropy, and callable directly from tests.
  /// FailedPrecondition when unsharded or a migration is in flight. A
  /// sibling that fails mid-exchange (transport error, corrupt digest or
  /// blob) aborts THAT sibling's exchange cleanly — counted in
  /// SweepResult::errors, the store left consistent — and the round
  /// continues with the next sibling.
  util::StatusOr<SweepResult> RunAntiEntropySweep();

  /// Route dispatch; public so tests can drive the server without sockets.
  HttpResponse Handle(const HttpRequest& request) {
    return routes_->Handle(request);
  }

  /// Async job records retained for GET /v1/jobs/<id>, both kinds
  /// together; the oldest resolved records are evicted first, unresolved
  /// ones never.
  static constexpr size_t kMaxRetainedJobs = 1024;

  const DecompositionServerOptions& options() const { return options_; }

 private:
  /// One async job record, "j<N>" (decompose) or "q<N>" (query). The two
  /// kinds differ only in how they resolve and render, so one table, one
  /// retention cap and one GET /v1/jobs/<id> serve both.
  struct AsyncJob {
    /// Non-blocking: true once the job's result is ready.
    std::function<bool()> resolved;
    /// The done body's payload member, `"result": {...}` or
    /// `"error": "..."`; called only once resolved.
    std::function<std::string()> render;
  };

  /// A hypergraph-bearing route run under Traced(): `request_id` is the
  /// root span id, and a synchronous answer writes its stage breakdown to
  /// `server_timing` in Server-Timing header syntax.
  using TracedHandler = HttpResponse (DecompositionServer::*)(
      const HttpRequest& request, uint64_t request_id,
      std::string* server_timing);

  explicit DecompositionServer(DecompositionServerOptions options);

  /// Binds the admission/migration counters and runtime-state gauges onto
  /// the service's MetricsRegistry (called once from Create, after service_).
  void BindMetrics();
  /// Builds the route table (called once from Create, after BindMetrics).
  void BindRoutes();

  /// Adopts a valid X-HTD-Request-Id or mints one, runs `handler` under the
  /// root "request" span, and attaches the id and any Server-Timing to the
  /// response.
  HttpResponse Traced(TracedHandler handler, const HttpRequest& request);

  /// 421, counted as misrouted, when the request carries a shard-map
  /// digest `shard` does not accept; nullopt otherwise.
  std::optional<HttpResponse> RefuseForeignDigest(const ShardState& shard,
                                                  const HttpRequest& request);

  /// The admission step of both hypergraph-bearing routes, in order: the
  /// shard digest and fingerprint-header checks (421/400), the empty-body
  /// 400, shed-before-parse (503 while stopping, 429 at max_queue_depth),
  /// the timed parse (400), and — for a sender that did not prove it hashed
  /// with an accepted map — the range check on this server's own
  /// fingerprint of `Body::Fingerprint` (421). Counts each outcome. Returns
  /// the refusal, or nullopt with `*body` and `*parse_seconds` set.
  template <typename Body>
  std::optional<HttpResponse> Admit(const HttpRequest& request,
                                    uint64_t request_id,
                                    typename Body::Parsed* body,
                                    double* parse_seconds);

  HttpResponse HandleDecompose(const HttpRequest& request, uint64_t request_id,
                               std::string* server_timing);
  HttpResponse HandleQuery(const HttpRequest& request, uint64_t request_id,
                           std::string* server_timing);
  /// Mints the job's id ('j' or 'q' then a counter shared by both kinds),
  /// records it, evicts the oldest resolved records over kMaxRetainedJobs,
  /// and returns the 202.
  HttpResponse AcceptJob(char kind, AsyncJob job);
  HttpResponse HandleJob(const HttpRequest& request);
  HttpResponse HandleMetrics(const HttpRequest& request);
  HttpResponse HandleSnapshot(const HttpRequest& request);
  HttpResponse HandleExport(const HttpRequest& request);
  HttpResponse HandleImport(const HttpRequest& request);
  HttpResponse HandleMigrate(const HttpRequest& request);
  HttpResponse HandleDigest(const HttpRequest& request);
  HttpResponse HandleAntiEntropy(const HttpRequest& request);

  /// The background sweep loop (anti_entropy_interval_seconds > 0): one
  /// RunAntiEntropySweep per interval until Stop().
  void AntiEntropyLoop();

  /// This process's endpoint within `state`'s map: the configured
  /// anti_entropy_self, else the replica of our range matching the listen
  /// port, else an empty endpoint (matches nobody — the sweep then pulls
  /// from the whole replica group).
  service::ShardEndpoint SelfEndpoint(const ShardState& state) const;

  /// Jobs the admission bound counts: scheduler-outstanding plus async
  /// query jobs still running (their probe flights resolve before the job
  /// does, so the scheduler alone under-counts query load).
  uint64_t TotalOutstandingJobs() const;

  /// The solver-config digest snapshots are stamped with (recomputed the
  /// way the service armed it, so the header matches the keys inside).
  uint64_t CurrentConfigDigest() const;

  /// Atomically replaces the sharding identity.
  void SwapShardState(std::shared_ptr<const ShardState> next);

  DecompositionServerOptions options_;
  std::unique_ptr<service::DecompositionService> service_;
  /// Built after service_ in Create(); its metrics land on the service's
  /// registry. Never null after Create().
  std::unique_ptr<qa::QueryEngine> query_engine_;
  std::unique_ptr<HttpServer> http_;
  /// Built by BindRoutes(); never null after Create().
  std::unique_ptr<RouteTable> routes_;
  service::SnapshotStats restored_;

  /// Current sharding identity (null = unsharded); readers copy the
  /// shared_ptr under shard_mutex_, writers swap it (live resharding).
  std::shared_ptr<const ShardState> shard_state_;
  mutable std::mutex shard_mutex_;
  /// Serialises /v1/admin/migrate flows (begin, re-drive, finalise).
  std::mutex migrate_mutex_;

  /// Admission/migration counters, owned by the service's MetricsRegistry
  /// (so /v1/metrics and the struct accessors read the same cells). Bound
  /// in BindMetrics(); never null after Create().
  util::Counter* admitted_ = nullptr;
  util::Counter* shed_ = nullptr;
  util::Counter* bad_requests_ = nullptr;
  util::Counter* misrouted_ = nullptr;
  util::Counter* imported_cache_entries_ = nullptr;
  util::Counter* imported_store_entries_ = nullptr;
  util::Counter* migrated_out_entries_ = nullptr;
  util::Counter* ae_rounds_ok_ = nullptr;
  util::Counter* ae_rounds_error_ = nullptr;
  util::Counter* ae_rounds_skipped_ = nullptr;
  util::Counter* ae_entries_cache_ = nullptr;
  util::Counter* ae_entries_store_ = nullptr;
  util::Counter* ae_bytes_ = nullptr;
  std::atomic<uint64_t> next_job_id_{1};
  /// Set at the head of Stop(): new admissions are refused with 503
  /// so no fresh flight can slip in behind the cancellation sweep.
  std::atomic<bool> stopping_{false};
  /// Serialises snapshot writers (concurrent saves would interleave on the
  /// shared temp file and install a corrupt snapshot).
  std::mutex snapshot_mutex_;

  /// Async query jobs admitted but not yet resolved. Incremented before the
  /// background task is submitted; decremented as the task's last touch of
  /// this object, so Stop() seeing zero means no query task will dereference
  /// the server again.
  std::atomic<uint64_t> outstanding_query_jobs_{0};

  std::mutex jobs_mutex_;
  std::map<std::string, AsyncJob> jobs_;  // guarded by jobs_mutex_
  std::list<std::string> job_order_;      // insertion order, for eviction

  /// anti_entropy_self parsed at Create(); nullopt when empty/inferred.
  std::optional<service::ShardEndpoint> ae_self_;
  /// Serialises sweep rounds (the background loop vs a forced
  /// /v1/admin/antientropy) so two rounds never interleave their pulls.
  std::mutex ae_mutex_;
  /// Started by Start() when the interval is > 0; joined at the head of
  /// Stop() (the loop polls stopping_ and checks it between pulls).
  std::thread anti_entropy_thread_;
};

}  // namespace htd::net
