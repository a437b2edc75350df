#include "net/decomposition_server.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include <algorithm>

#include "decomp/decomp_writer.h"
#include "net/http_client.h"
#include "net/json.h"
#include "service/anti_entropy.h"
#include "util/cli.h"
#include "util/timer.h"

namespace htd::net {

namespace {

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kYes: return "yes";
    case Outcome::kNo: return "no";
    case Outcome::kCancelled: return "cancelled";
    case Outcome::kError: return "error";
  }
  return "?";
}

/// Transport timeout for one migration push (POST /v1/admin/import to a new
/// owner). Blobs can be large.
constexpr double kMigratePushTimeoutSeconds = 300.0;
/// Transport timeout for one anti-entropy digest or slice pull.
constexpr double kAntiEntropyPullTimeoutSeconds = 60.0;

/// Server-Timing header value (RFC draft syntax: name;dur=millis, in stage
/// order) for one synchronous answer.
std::string ServerTiming(
    std::initializer_list<std::pair<const char*, double>> stages) {
  std::string out;
  for (const auto& [name, seconds] : stages) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s;dur=%.3f", name, seconds * 1e3);
    if (!out.empty()) out += ", ";
    out += buf;
  }
  return out;
}

double ParseSeconds(const std::string& text, double fallback) {
  if (text.empty()) return fallback;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || value < 0 || !(value < 1e9)) {
    return -1.0;
  }
  return value;
}

std::string HexRange(const service::FingerprintRange& range) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx-%016llx",
                static_cast<unsigned long long>(range.first_hi),
                static_cast<unsigned long long>(range.last_hi));
  return std::string(buf);
}

/// Parses "HEX-HEX" (1..16 hex digits each side, first <= last) — the wire
/// form of a fingerprint hi-range, matching HexRange.
bool ParseHexRange(const std::string& text, service::FingerprintRange* out) {
  size_t dash = text.find('-');
  if (dash == std::string::npos || dash == 0 || dash + 1 >= text.size()) {
    return false;
  }
  auto parse_half = [](std::string_view half, uint64_t* value) {
    if (half.empty() || half.size() > 16) return false;
    *value = 0;
    for (char c : half) {
      int digit;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
      else return false;
      *value = (*value << 4) | static_cast<uint64_t>(digit);
    }
    return true;
  };
  uint64_t first, last;
  if (!parse_half(std::string_view(text).substr(0, dash), &first) ||
      !parse_half(std::string_view(text).substr(dash + 1), &last)) {
    return false;
  }
  if (first > last) return false;
  out->first_hi = first;
  out->last_hi = last;
  return true;
}

/// Intersection of two hi-ranges; false when they are disjoint.
bool Intersect(const service::FingerprintRange& a,
               const service::FingerprintRange& b,
               service::FingerprintRange* out) {
  const uint64_t first = a.first_hi > b.first_hi ? a.first_hi : b.first_hi;
  const uint64_t last = a.last_hi < b.last_hi ? a.last_hi : b.last_hi;
  if (first > last) return false;
  out->first_hi = first;
  out->last_hi = last;
  return true;
}

using ShardState = DecompositionServer::ShardState;

/// True when a request routed by `digest_hex` may be served here: the
/// current digest, or — mid-migration — the incoming topology's digest.
bool DigestAccepted(const ShardState& state, const std::string& digest_hex) {
  return digest_hex == state.digest_hex ||
         (state.transitioning() && digest_hex == state.new_digest_hex);
}

/// True when `fp` is in a range this server currently answers for: its old
/// range, or — mid-migration, when it stays in the fleet — its new one.
bool RangeAccepted(const ShardState& state, const service::Fingerprint& fp) {
  return state.range.Contains(fp) ||
         (state.transitioning() && state.new_index >= 0 &&
          state.new_range.Contains(fp));
}

/// The smallest single interval covering everything this server accepts.
/// Used by /v1/admin/import (an operator/migration path): precise enough to
/// refuse clearly-foreign entries while staying one DecodeSnapshot pass.
service::FingerprintRange CoveringRange(const ShardState& state) {
  service::FingerprintRange covering = state.range;
  if (state.transitioning() && state.new_index >= 0) {
    if (state.new_range.first_hi < covering.first_hi) {
      covering.first_hi = state.new_range.first_hi;
    }
    if (state.new_range.last_hi > covering.last_hi) {
      covering.last_hi = state.new_range.last_hi;
    }
  }
  return covering;
}

/// One resolved JobResult as a JSON object, vertex and edge names as the
/// caller sent them.
std::string RenderResult(const service::JobResult& job, const Hypergraph& graph,
                         bool include_decomposition) {
  std::string body = "{";
  body += "\"outcome\": \"" + std::string(OutcomeName(job.result.outcome)) + "\"";
  if (job.result.decomposition.has_value()) {
    body += ", \"width\": " + std::to_string(job.result.decomposition->Width());
  }
  body += std::string(", \"cache_hit\": ") + (job.cache_hit ? "true" : "false");
  body += std::string(", \"deduplicated\": ") +
          (job.deduplicated ? "true" : "false");
  body += ", \"seconds\": " + std::to_string(job.seconds);
  body += ", \"threads_used\": " + std::to_string(job.threads_used);
  body += ", \"fingerprint\": \"" + job.fingerprint.ToHex() + "\"";
  if (include_decomposition && job.result.decomposition.has_value()) {
    body += ", \"decomposition\": " +
            WriteDecompositionJson(graph, *job.result.decomposition);
  }
  body += "}";
  return body;
}

/// One QueryAnswer as a JSON object (docs/QUERIES.md).
std::string RenderQueryAnswer(const qa::QueryAnswer& answer) {
  std::string body = "{";
  body += "\"outcome\": \"" +
          std::string(qa::QueryOutcomeName(answer.outcome)) + "\"";
  if (answer.outcome == qa::QueryOutcome::kSatisfiable) {
    // Witness keys are rendered sorted so the body is deterministic.
    std::vector<std::pair<std::string, int64_t>> vars(answer.witness.begin(),
                                                      answer.witness.end());
    std::sort(vars.begin(), vars.end());
    body += ", \"witness\": {";
    bool first = true;
    for (const auto& [var, value] : vars) {
      if (!first) body += ", ";
      first = false;
      body += "\"" + JsonEscape(var) + "\": " + std::to_string(value);
    }
    body += "}";
  }
  if (answer.counted) {
    body += ", \"count\": " + std::to_string(answer.count.value);
    body += std::string(", \"count_saturated\": ") +
            (answer.count.saturated ? "true" : "false");
  }
  if (answer.portfolio_size > 0) {
    body += ", \"width\": " + std::to_string(answer.width);
    body += ", \"fractional_width\": " +
            std::to_string(answer.fractional_width);
    body += ", \"estimated_cost\": " + std::to_string(answer.estimated_cost);
    body += ", \"portfolio\": {\"picked\": " +
            std::to_string(answer.picked_index) +
            ", \"size\": " + std::to_string(answer.portfolio_size) + "}";
  }
  body += ", \"fingerprint\": \"" + answer.fingerprint.ToHex() + "\"";
  body += std::string(", \"cache_hit\": ") +
          (answer.decompose_cache_hit ? "true" : "false");
  body += ", \"probes\": " + std::to_string(answer.probes);
  body += ", \"decompose_seconds\": " +
          std::to_string(answer.decompose_seconds);
  body += ", \"pick_seconds\": " + std::to_string(answer.pick_seconds);
  body += ", \"execute_seconds\": " + std::to_string(answer.execute_seconds);
  body += "}";
  return body;
}

}  // namespace

DecompositionServer::DecompositionServer(DecompositionServerOptions options)
    : options_(std::move(options)) {}

util::StatusOr<std::unique_ptr<DecompositionServer>> DecompositionServer::Create(
    DecompositionServerOptions options) {
  if (options.max_queue_depth < 1) {
    return util::Status::InvalidArgument("max_queue_depth must be >= 1");
  }
  if (options.max_k < 1) {
    return util::Status::InvalidArgument("max_k must be >= 1");
  }
  if (options.shard_map.has_value() &&
      (options.shard_index < 0 ||
       options.shard_index >= options.shard_map->num_shards())) {
    return util::Status::InvalidArgument(
        "shard_index must be in [0, " +
        std::to_string(options.shard_map->num_shards()) + ") for shard map " +
        options.shard_map->Serialise());
  }
  if (options.anti_entropy_interval_seconds < 0 ||
      !(options.anti_entropy_interval_seconds < 1e9)) {
    return util::Status::InvalidArgument(
        "anti_entropy_interval_seconds must be >= 0 (0 disables the sweep)");
  }
  if (options.anti_entropy_interval_seconds > 0 &&
      !options.shard_map.has_value()) {
    return util::Status::InvalidArgument(
        "anti-entropy needs a shard map: --anti-entropy-interval without "
        "--shard-map/--shard-index has no replica siblings to reconcile");
  }
  if (options.anti_entropy_slices < 1 || options.anti_entropy_slices > 4096) {
    return util::Status::InvalidArgument(
        "anti_entropy_slices must be in [1, 4096]");
  }
  std::optional<service::ShardEndpoint> ae_self;
  if (!options.anti_entropy_self.empty()) {
    auto parsed = service::ShardEndpoint::Parse(options.anti_entropy_self);
    if (!parsed.ok()) {
      return util::Status::InvalidArgument("anti_entropy_self: " +
                                           parsed.status().message());
    }
    ae_self = std::move(*parsed);
  }
  // One Retry-After story for both shedding layers (queue bound here,
  // connection bound in the transport).
  options.http.retry_after_seconds = options.retry_after_seconds;
  auto service = service::DecompositionService::Create(options.service);
  if (!service.ok()) return service.status();

  auto server = std::unique_ptr<DecompositionServer>(
      new DecompositionServer(std::move(options)));
  server->service_ = std::move(*service);
  server->query_engine_ = std::make_unique<qa::QueryEngine>(
      server->service_.get(), server->options_.query);
  server->ae_self_ = std::move(ae_self);
  if (server->options_.shard_map.has_value()) {
    auto state = std::make_shared<ShardState>(*server->options_.shard_map);
    state->index = server->options_.shard_index;
    state->range = state->map.RangeFor(state->index);
    state->digest_hex = state->map.DigestHex();
    server->shard_state_ = std::move(state);
  }
  auto shard = server->shard_state();
  const service::FingerprintRange* range =
      shard != nullptr ? &shard->range : nullptr;

  if (!server->options_.snapshot_path.empty() &&
      server->options_.load_snapshot_on_start) {
    auto loaded = service::LoadSnapshot(server->options_.snapshot_path,
                                        server->service_->result_cache(),
                                        server->service_->subproblem_store(),
                                        range);
    if (loaded.ok()) {
      server->restored_ = *loaded;
    } else if (loaded.status().code() != util::StatusCode::kNotFound) {
      // Corrupt or version-mismatched warm state must not take the server
      // down — log and start cold (verified by tests/net_server_test.cc).
      std::fprintf(stderr, "hdserver: ignoring snapshot %s: %s\n",
                   server->options_.snapshot_path.c_str(),
                   loaded.status().message().c_str());
    }
  }

  server->http_ = std::make_unique<HttpServer>(
      server->options_.http,
      [raw = server.get()](const HttpRequest& request) {
        return raw->Handle(request);
      });
  server->BindMetrics();
  server->BindRoutes();
  return server;
}

void DecompositionServer::BindMetrics() {
  util::MetricsRegistry& metrics = service_->metrics();
  metrics.SetHelp("htd_admission_requests_total",
                  "Admission outcomes (admitted, shed, bad_request, "
                  "misrouted).");
  admitted_ =
      &metrics.GetCounter("htd_admission_requests_total", "result=\"admitted\"");
  shed_ = &metrics.GetCounter("htd_admission_requests_total", "result=\"shed\"");
  bad_requests_ = &metrics.GetCounter("htd_admission_requests_total",
                                      "result=\"bad_request\"");
  misrouted_ = &metrics.GetCounter("htd_admission_requests_total",
                                   "result=\"misrouted\"");
  metrics.SetHelp("htd_migration_entries_total",
                  "Warm-state entries moved by live resharding.");
  imported_cache_entries_ = &metrics.GetCounter("htd_migration_entries_total",
                                                "direction=\"imported_cache\"");
  imported_store_entries_ = &metrics.GetCounter("htd_migration_entries_total",
                                                "direction=\"imported_store\"");
  migrated_out_entries_ = &metrics.GetCounter("htd_migration_entries_total",
                                              "direction=\"migrated_out\"");
  metrics.SetHelp("htd_antientropy_rounds_total",
                  "Anti-entropy sweep rounds by result (ok, error, skipped).");
  ae_rounds_ok_ =
      &metrics.GetCounter("htd_antientropy_rounds_total", "result=\"ok\"");
  ae_rounds_error_ =
      &metrics.GetCounter("htd_antientropy_rounds_total", "result=\"error\"");
  ae_rounds_skipped_ =
      &metrics.GetCounter("htd_antientropy_rounds_total", "result=\"skipped\"");
  metrics.SetHelp("htd_antientropy_entries_total",
                  "Warm-state entries merged from replica siblings.");
  ae_entries_cache_ =
      &metrics.GetCounter("htd_antientropy_entries_total", "section=\"cache\"");
  ae_entries_store_ =
      &metrics.GetCounter("htd_antientropy_entries_total", "section=\"store\"");
  metrics.SetHelp("htd_antientropy_bytes_total",
                  "Slice blob bytes pulled from replica siblings.");
  ae_bytes_ = &metrics.GetCounter("htd_antientropy_bytes_total", "");
  metrics.SetHelp("htd_connections_shed_total",
                  "Connections refused at the transport bound (503).");
  metrics.RegisterCallback(
      "htd_connections_shed_total", "", "counter",
      [this] { return static_cast<double>(http_->connections_shed()); });
  metrics.SetHelp("htd_connections_reaped_total",
                  "Connections reaped by a timeout (idle, header/slow-loris, "
                  "or stalled write).");
  metrics.RegisterCallback(
      "htd_connections_reaped_total", "", "counter",
      [this] { return static_cast<double>(http_->connections_reaped()); });
  metrics.SetHelp("htd_accept_failures_total",
                  "accept() failures after a readable poll (fd exhaustion); "
                  "each costs one acceptor backoff.");
  metrics.RegisterCallback(
      "htd_accept_failures_total", "", "counter",
      [this] { return static_cast<double>(http_->accept_failures()); });
  metrics.SetHelp("htd_connections",
                  "Live connections by state on the epoll loop ring.");
  using Counts = HttpServer::ConnectionCounts;
  for (const auto& [state, count] :
       {std::pair{"idle", &Counts::idle}, std::pair{"reading", &Counts::reading},
        std::pair{"dispatched", &Counts::dispatched},
        std::pair{"writing", &Counts::writing}}) {
    metrics.RegisterCallback(
        "htd_connections", std::string("state=\"") + state + "\"", "gauge",
        [this, count] {
          return static_cast<double>(http_->connection_counts().*count);
        });
  }
  metrics.SetHelp("htd_restored_entries",
                  "Warm-state entries restored from the snapshot at startup "
                  "(cache, store) and entries dropped as outside this "
                  "shard's range.");
  using Restored = service::SnapshotStats;
  for (const auto& [kind, count] :
       {std::pair{"cache", &Restored::cache_entries},
        std::pair{"store", &Restored::store_entries},
        std::pair{"dropped_out_of_range", &Restored::dropped_out_of_range}}) {
    metrics.RegisterCallback(
        "htd_restored_entries", std::string("kind=\"") + kind + "\"", "gauge",
        [this, count] { return static_cast<double>(restored_.*count); });
  }
  metrics.SetHelp("htd_shard_index",
                  "The fingerprint range this backend serves; -1 unsharded.");
  metrics.RegisterCallback("htd_shard_index", "", "gauge", [this] {
    auto shard = shard_state();
    return shard != nullptr ? static_cast<double>(shard->index) : -1.0;
  });
  metrics.SetHelp("htd_shard_transitioning",
                  "1 while a live reshard is in flight on this backend.");
  metrics.RegisterCallback("htd_shard_transitioning", "", "gauge", [this] {
    auto shard = shard_state();
    return shard != nullptr && shard->transitioning() ? 1.0 : 0.0;
  });
  metrics.SetHelp("htd_request_seconds", "HTTP request latency by route.");
}

void DecompositionServer::BindRoutes() {
  using Self = DecompositionServer;
  auto bind = [this](auto handler) { return std::bind_front(handler, this); };
  auto traced = [this](TracedHandler handler) {
    return std::bind_front(&Self::Traced, this, handler);
  };
  routes_ = std::make_unique<RouteTable>(
      std::vector<Route>{
          {nullptr, "/healthz", "healthz",
           [](const HttpRequest&) {
             HttpResponse response;
             response.body = "{\"ok\": true}\n";
             return response;
           }},
          {"POST", "/v1/decompose", "decompose", traced(&Self::HandleDecompose)},
          {"POST", "/v1/query", "query", traced(&Self::HandleQuery)},
          {"GET", "/v1/jobs/", "jobs", bind(&Self::HandleJob)},
          {"GET", "/v1/metrics", "metrics", bind(&Self::HandleMetrics)},
          {"GET", "/v1/trace", "trace", HandleTrace},
          {"POST", "/v1/admin/snapshot", "admin", bind(&Self::HandleSnapshot)},
          {"GET", "/v1/admin/export", "admin", bind(&Self::HandleExport)},
          {"POST", "/v1/admin/import", "admin", bind(&Self::HandleImport)},
          {"POST", "/v1/admin/migrate", "admin", bind(&Self::HandleMigrate)},
          {"GET", "/v1/admin/digest", "admin", bind(&Self::HandleDigest)},
          {"POST", "/v1/admin/antientropy", "admin",
           bind(&Self::HandleAntiEntropy)},
      },
      service_->metrics(), "htd_request_seconds");
}

DecompositionServer::~DecompositionServer() { Stop(); }

util::Status DecompositionServer::Start() {
  util::Status started = http_->Start();
  if (!started.ok()) return started;
  if (options_.anti_entropy_interval_seconds > 0) {
    anti_entropy_thread_ = std::thread([this] { AntiEntropyLoop(); });
  }
  return started;
}

void DecompositionServer::Stop() {
  if (http_ == nullptr || !http_->running()) return;
  // Refuse new admissions first (503), then keep sweeping cancellations
  // while the listener drains: a handler that passed the stopping_ check
  // can still admit one more flight behind a single CancelAll, and with no
  // deadline that flight would park its handler thread — and HttpServer::
  // Stop()'s WaitIdle — forever.
  stopping_.store(true, std::memory_order_release);
  // The sweep loop polls stopping_ between pulls; join it before tearing the
  // transport down so no pull races the listener drain.
  if (anti_entropy_thread_.joinable()) anti_entropy_thread_.join();
  std::atomic<bool> http_stopped{false};
  std::thread canceller([&] {
    while (!http_stopped.load(std::memory_order_acquire)) {
      service_->CancelAll();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  http_->Stop();
  http_stopped.store(true, std::memory_order_release);
  canceller.join();
  // Async query jobs run on the executor, not under HttpServer's WaitIdle;
  // their closing fetch_sub is the last touch of `this`, so the destructor
  // must not return while any are in flight. Keep cancelling so a job parked
  // on a probe future unblocks.
  while (outstanding_query_jobs_.load(std::memory_order_acquire) > 0) {
    service_->CancelAll();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  service_->CancelAll();
  service_->Drain();
}

uint64_t DecompositionServer::TotalOutstandingJobs() const {
  // Scheduler flights (decompose jobs, sync and async) plus async query
  // jobs; the 429 bound sheds against the sum so a query flood cannot pile
  // unbounded background work behind a healthy-looking scheduler queue.
  return service_->outstanding_jobs() +
         outstanding_query_jobs_.load(std::memory_order_acquire);
}

DecompositionServer::AdmissionStats DecompositionServer::admission_stats() const {
  AdmissionStats stats;
  stats.admitted = admitted_->Value();
  stats.shed = shed_->Value();
  stats.bad_requests = bad_requests_->Value();
  stats.misrouted = misrouted_->Value();
  return stats;
}

DecompositionServer::MigrationStats DecompositionServer::migration_stats() const {
  MigrationStats stats;
  stats.imported_cache_entries = imported_cache_entries_->Value();
  stats.imported_store_entries = imported_store_entries_->Value();
  stats.migrated_out_entries = migrated_out_entries_->Value();
  return stats;
}

DecompositionServer::AntiEntropyStats
DecompositionServer::anti_entropy_stats() const {
  AntiEntropyStats stats;
  stats.rounds_ok = ae_rounds_ok_->Value();
  stats.rounds_error = ae_rounds_error_->Value();
  stats.rounds_skipped = ae_rounds_skipped_->Value();
  stats.merged_cache_entries = ae_entries_cache_->Value();
  stats.merged_store_entries = ae_entries_store_->Value();
  stats.bytes_pulled = ae_bytes_->Value();
  return stats;
}

std::shared_ptr<const ShardState> DecompositionServer::shard_state() const {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  return shard_state_;
}

void DecompositionServer::SwapShardState(
    std::shared_ptr<const ShardState> next) {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  shard_state_ = std::move(next);
}

uint64_t DecompositionServer::CurrentConfigDigest() const {
  // Recompute the digest the way the service did (it arms
  // solve.subproblem_store before digesting), so snapshot headers match the
  // cache keys inside.
  SolveOptions solve = options_.service.solve;
  solve.subproblem_store = service_->subproblem_store();
  return SolverConfigDigest(options_.service.solver_name, solve);
}

util::StatusOr<service::SnapshotStats> DecompositionServer::SaveSnapshotNow() {
  if (options_.snapshot_path.empty()) {
    return util::Status::FailedPrecondition(
        "no snapshot path configured (--snapshot)");
  }
  // One writer at a time: concurrent saves (two /v1/admin/snapshot requests,
  // or one racing the exit save) would interleave on the shared temp file
  // and rename a corrupt snapshot over the good one.
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  // A sharded server persists only its own fingerprint range: shard
  // snapshots never overlap, so a fleet's warm state is the disjoint union
  // of its shards' snapshot files. Mid-migration the server answers for two
  // ranges at once, so it snapshots unfiltered (restores filter anyway).
  auto state = shard_state();
  const service::FingerprintRange* range =
      state != nullptr && !state->transitioning() ? &state->range : nullptr;
  return service::SaveSnapshot(options_.snapshot_path,
                               service_->result_cache(),
                               service_->subproblem_store(),
                               CurrentConfigDigest(), range);
}

HttpResponse DecompositionServer::Traced(TracedHandler handler,
                                         const HttpRequest& request) {
  // Adopt the request id when a proxy (the shard router) already assigned
  // one — the fleet's spans then stitch onto one root — else mint our own.
  uint64_t request_id = 0;
  auto rid = request.headers.find("x-htd-request-id");
  if (rid == request.headers.end() ||
      !util::ParseTraceId(rid->second, &request_id)) {
    request_id = util::TraceRegistry::Instance().NextId();
  }
  std::string server_timing;
  HttpResponse response;
  {
    util::TraceScope root_span("request", util::TraceRootId{request_id},
                               static_cast<uint64_t>(request.body.size()));
    response = (this->*handler)(request, request_id, &server_timing);
  }
  response.headers.emplace_back("X-HTD-Request-Id",
                                util::TraceIdHex(request_id));
  if (!server_timing.empty()) {
    response.headers.emplace_back("Server-Timing", server_timing);
  }
  return response;
}

std::optional<HttpResponse> DecompositionServer::RefuseForeignDigest(
    const ShardState& shard, const HttpRequest& request) {
  auto digest = request.headers.find("x-htd-shard-digest");
  if (digest == request.headers.end() ||
      DigestAccepted(shard, digest->second)) {
    return std::nullopt;
  }
  misrouted_->Add();
  return ErrorResponse(
      421, "shard map digest mismatch: this shard is " +
               std::to_string(shard.index) + "/" +
               std::to_string(shard.map.num_shards()) + " of " +
               shard.map.Serialise() + " (digest " + shard.digest_hex +
               (shard.transitioning()
                    ? ", transitioning to " + shard.new_digest_hex
                    : "") +
               "); request was routed by digest " + digest->second);
}

template <typename Body>
std::optional<HttpResponse> DecompositionServer::Admit(
    const HttpRequest& request, uint64_t request_id,
    typename Body::Parsed* body, double* parse_seconds) {
  // In a sharded deployment, a sender that hashed against a different
  // topology must be told so, not silently served — an entry cached here
  // under a foreign range would never be found again after its snapshot is
  // filtered to this shard's slice. `sender_hashed` records that the sender
  // proved it routed with a topology this server currently accepts (its own
  // map, or — mid-migration — the incoming one); only then is its
  // fingerprint header trusted below in place of our own canonicalisation.
  auto shard = shard_state();
  bool sender_hashed = false;
  if (shard != nullptr) {
    if (auto refused = RefuseForeignDigest(*shard, request)) return refused;
    sender_hashed = request.headers.count("x-htd-shard-digest") != 0;
    auto fp_header = request.headers.find("x-htd-shard-fingerprint");
    if (fp_header != request.headers.end()) {
      service::Fingerprint fp;
      if (!service::Fingerprint::FromHex(fp_header->second, &fp)) {
        bad_requests_->Add();
        return ErrorResponse(400, "x-htd-shard-fingerprint must be 32 hex digits");
      }
      if (!RangeAccepted(*shard, fp)) {
        misrouted_->Add();
        return ErrorResponse(
            421, "misrouted: fingerprint " + fp_header->second +
                     " is outside shard " + std::to_string(shard->index) +
                     "'s range");
      }
    } else {
      sender_hashed = false;  // a digest without a fingerprint proves nothing
    }
  }
  if (request.body.empty()) {
    bad_requests_->Add();
    return ErrorResponse(400, Body::kEmpty);
  }

  // Shedding comes BEFORE the body parse: an overloaded server must reject
  // in O(1), not pay a parse proportional to the body it is about to refuse.
  if (stopping_.load(std::memory_order_acquire)) {
    return ErrorResponse(503, "server is shutting down");
  }
  // Admission control: shed rather than queue without bound. The counter is
  // sampled lock-free and approximate (see the header comment); overshoot
  // on the order of the IO thread count is within the bound's semantics
  // (docs/SERVER.md).
  if (TotalOutstandingJobs() >=
      static_cast<uint64_t>(options_.max_queue_depth)) {
    shed_->Add();
    return RetryLaterResponse(
        429,
        "queue full: " + std::to_string(options_.max_queue_depth) +
            " jobs outstanding; retry later",
        options_.retry_after_seconds);
  }

  // The parse stage is timed unconditionally (histogram) and recorded as a
  // span when the request is traced. The WallTimer is the ground truth —
  // TraceScope::Seconds() is 0 when tracing is off.
  util::WallTimer parse_timer;
  auto parsed = [&] {
    util::TraceScope span("parse", util::TraceParent{request_id, request_id},
                          static_cast<uint64_t>(request.body.size()));
    return Body::Parse(request.body);
  }();
  *parse_seconds = parse_timer.ElapsedSeconds();
  service_->ObserveParseSeconds(*parse_seconds);
  if (!parsed.ok()) {
    bad_requests_->Add();
    return ErrorResponse(400, parsed.status().message());
  }
  if (shard != nullptr && !sender_hashed) {
    // The sender did not prove it hashed with an accepted map (no digest
    // header, or no fingerprint header to go with it — e.g. a client
    // talking to a shard directly, without --shards, or one sending a
    // crafted fingerprint alone). Enforce the range on OUR fingerprint:
    // admitting would warm a foreign range — the entry would be invisible
    // to correctly-routed traffic and silently dropped by the next
    // range-filtered snapshot. (When both headers are present and the
    // digest matches, the sender demonstrably ran IndexFor on an accepted
    // topology; recomputing here would double-pay canonicalisation on
    // every routed request.)
    const service::Fingerprint fp = Body::Fingerprint(*parsed);
    if (!RangeAccepted(*shard, fp)) {
      misrouted_->Add();
      return ErrorResponse(
          421, "misrouted: fingerprint " + fp.ToHex() + " belongs to shard " +
                   std::to_string(shard->map.IndexFor(fp)) +
                   ", this is shard " + std::to_string(shard->index) +
                   " (route via the shard map)");
    }
  }
  admitted_->Add();
  *body = std::move(*parsed);
  return std::nullopt;
}

HttpResponse DecompositionServer::HandleDecompose(const HttpRequest& request,
                                                  uint64_t request_id,
                                                  std::string* server_timing) {
  long k;
  if (!util::ParseIntFlag(request.QueryOr("k", ""), 1, options_.max_k, &k)) {
    bad_requests_->Add();
    return ErrorResponse(
        400, "query parameter k must be an integer in [1, " +
                 std::to_string(options_.max_k) + "]");
  }
  double timeout = ParseSeconds(request.QueryOr("timeout", ""),
                                service_->options().default_timeout_seconds);
  if (timeout < 0) {
    bad_requests_->Add();
    return ErrorResponse(400, "query parameter timeout must be seconds >= 0");
  }
  const bool async = request.QueryOr("async", "0") == "1";
  const bool include_decomposition = request.QueryOr("decomposition", "0") == "1";
  Hypergraph parsed;
  double parse_seconds = 0;
  if (auto refused = Admit<DecomposeBody>(request, request_id, &parsed,
                                          &parse_seconds)) {
    return *refused;
  }

  auto graph = std::make_shared<const Hypergraph>(std::move(parsed));
  // Sync requests ride the executor's interactive lane (a client is parked
  // on the answer); polled async jobs take the lower-priority async lane.
  std::future<service::JobResult> future = service_->Submit(
      *graph, static_cast<int>(k), timeout, util::TraceParent{request_id, request_id},
      async ? util::Executor::Lane::kAsync : util::Executor::Lane::kSync);

  if (!async) {
    service::JobResult job = future.get();
    HttpResponse response;
    util::WallTimer serialise_timer;
    {
      util::TraceScope span("serialise",
                            util::TraceParent{request_id, request_id});
      response.body = RenderResult(job, *graph, include_decomposition) + "\n";
    }
    const double serialise_seconds = serialise_timer.ElapsedSeconds();
    service_->ObserveSerialiseSeconds(serialise_seconds);
    *server_timing = ServerTiming({{"parse", parse_seconds},
                                   {"fingerprint", job.stages.fingerprint_seconds},
                                   {"cache", job.stages.cache_seconds},
                                   {"schedule", job.stages.schedule_seconds},
                                   {"solve", job.stages.solve_seconds},
                                   {"serialise", serialise_seconds}});
    return response;
  }

  // The graph is kept so a later GET renders the decomposition in the
  // caller's vertex and edge names.
  std::shared_future<service::JobResult> shared = future.share();
  return AcceptJob(
      'j', AsyncJob{[shared] {
                      return shared.wait_for(std::chrono::seconds(0)) ==
                             std::future_status::ready;
                    },
                    [shared, graph, include_decomposition] {
                      return "\"result\": " +
                             RenderResult(shared.get(), *graph,
                                          include_decomposition);
                    }});
}

HttpResponse DecompositionServer::HandleQuery(const HttpRequest& request,
                                              uint64_t request_id,
                                              std::string* server_timing) {
  double timeout = ParseSeconds(request.QueryOr("timeout", ""),
                                service_->options().default_timeout_seconds);
  if (timeout < 0) {
    bad_requests_->Add();
    return ErrorResponse(400, "query parameter timeout must be seconds >= 0");
  }
  const bool async = request.QueryOr("async", "0") == "1";
  const std::string count_param = request.QueryOr("count", "");
  if (!count_param.empty() && count_param != "0" && count_param != "1") {
    bad_requests_->Add();
    return ErrorResponse(400, "query parameter count must be 0 or 1");
  }
  std::optional<bool> count_override;
  if (!count_param.empty()) count_override = count_param == "1";
  qa::QueryRequest parsed;
  double parse_seconds = 0;
  if (auto refused =
          Admit<QueryBody>(request, request_id, &parsed, &parse_seconds)) {
    return *refused;
  }

  if (!async) {
    auto answer = query_engine_->Answer(parsed.query, parsed.db, timeout,
                                        util::TraceParent{request_id, request_id},
                                        count_override);
    if (!answer.ok()) {
      if (answer.status().code() == util::StatusCode::kInvalidArgument) {
        bad_requests_->Add();
        return ErrorResponse(400, answer.status().message());
      }
      return ErrorResponse(500, answer.status().message());
    }
    HttpResponse response;
    util::WallTimer serialise_timer;
    {
      util::TraceScope span("serialise",
                            util::TraceParent{request_id, request_id});
      response.body = RenderQueryAnswer(*answer) + "\n";
    }
    const double serialise_seconds = serialise_timer.ElapsedSeconds();
    service_->ObserveSerialiseSeconds(serialise_seconds);
    *server_timing = ServerTiming({{"parse", parse_seconds},
                                   {"decompose", answer->decompose_seconds},
                                   {"pick", answer->pick_seconds},
                                   {"execute", answer->execute_seconds},
                                   {"serialise", serialise_seconds}});
    return response;
  }

  // The answer runs as a background-lane task on the fleet-wide executor.
  // QueryEngine::Answer blocks on probe flights served by the same
  // executor, which is safe because a worker running Answer helps execute
  // sync/async-lane work while it waits (Executor::HelpWhileWaiting) — and
  // the background lane itself is excluded from helping, so query jobs
  // cannot recursively stack. The outstanding counter makes the job
  // visible to the 429 bound and lets Stop() wait the task out; its
  // decrement is the task's last touch of `this`.
  auto shared_request = std::make_shared<qa::QueryRequest>(std::move(parsed));
  auto promise =
      std::make_shared<std::promise<util::StatusOr<qa::QueryAnswer>>>();
  std::shared_future<util::StatusOr<qa::QueryAnswer>> shared =
      promise->get_future().share();
  outstanding_query_jobs_.fetch_add(1, std::memory_order_acq_rel);
  service_->executor().Submit(
      [this, shared_request, timeout, request_id, count_override, promise] {
        try {
          promise->set_value(query_engine_->Answer(
              shared_request->query, shared_request->db, timeout,
              util::TraceParent{request_id, request_id}, count_override));
        } catch (...) {
          promise->set_value(
              util::Status::Internal("query job failed with an exception"));
        }
        outstanding_query_jobs_.fetch_sub(1, std::memory_order_acq_rel);
      },
      util::Executor::Lane::kBackground);
  return AcceptJob(
      'q', AsyncJob{[shared] {
                      return shared.wait_for(std::chrono::seconds(0)) ==
                             std::future_status::ready;
                    },
                    [shared] {
                      const util::StatusOr<qa::QueryAnswer>& answer =
                          shared.get();
                      if (!answer.ok()) {
                        return "\"error\": \"" +
                               JsonEscape(answer.status().message()) + "\"";
                      }
                      return "\"result\": " + RenderQueryAnswer(*answer);
                    }});
}

HttpResponse DecompositionServer::AcceptJob(char kind, AsyncJob job) {
  const std::string id =
      kind + std::to_string(next_job_id_.fetch_add(1, std::memory_order_relaxed));
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.emplace(id, std::move(job));
    job_order_.push_back(id);
    // Evict the oldest *resolved* records over the retention cap; unresolved
    // jobs stay queryable (their count is bounded by admission control).
    for (auto it = job_order_.begin();
         jobs_.size() > kMaxRetainedJobs && it != job_order_.end();) {
      auto found = jobs_.find(*it);
      if (found->second.resolved()) {
        jobs_.erase(found);
        it = job_order_.erase(it);
      } else {
        ++it;
      }
    }
  }
  HttpResponse response;
  response.status = 202;
  response.body = "{\"job\": \"" + id + "\", \"state\": \"admitted\"}\n";
  return response;
}

HttpResponse DecompositionServer::HandleJob(const HttpRequest& request) {
  const std::string id = request.path.substr(sizeof("/v1/jobs/") - 1);
  AsyncJob job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return ErrorResponse(404, "unknown job id: " + id);
    }
    job = it->second;  // copies of shared futures and pointers are cheap
  }
  HttpResponse response;
  response.body = "{\"job\": \"" + id + "\", \"state\": " +
                  (job.resolved() ? "\"done\", " + job.render() + "}\n"
                                  : std::string("\"running\"}\n"));
  return response;
}

HttpResponse DecompositionServer::HandleMetrics(const HttpRequest&) {
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = service_->metrics().RenderPrometheus();
  return response;
}

HttpResponse DecompositionServer::HandleSnapshot(const HttpRequest&) {
  auto saved = SaveSnapshotNow();
  if (!saved.ok()) {
    int status =
        saved.status().code() == util::StatusCode::kFailedPrecondition ? 412 : 500;
    return ErrorResponse(status, saved.status().message());
  }
  HttpResponse response;
  response.body = "{\"saved\": true, \"cache_entries\": " +
                  std::to_string(saved->cache_entries) +
                  ", \"store_entries\": " + std::to_string(saved->store_entries) +
                  ", \"bytes\": " + std::to_string(saved->bytes) + "}\n";
  return response;
}

HttpResponse DecompositionServer::HandleExport(const HttpRequest& request) {
  service::FingerprintRange range;
  const std::string range_text = request.QueryOr("range", "");
  if (range_text.empty()) {
    // No range = everything this server holds (an operator copy drill).
  } else if (!ParseHexRange(range_text, &range)) {
    return ErrorResponse(400, "query parameter range must be HEX-HEX "
                              "(fingerprint hi bounds, inclusive)");
  }
  service::SnapshotStats written;
  std::string blob = service::EncodeSnapshot(
      service_->result_cache(), service_->subproblem_store(),
      CurrentConfigDigest(), range_text.empty() ? nullptr : &range, &written);
  HttpResponse response;
  response.content_type = "application/octet-stream";
  response.headers.emplace_back("X-HTD-Cache-Entries",
                                std::to_string(written.cache_entries));
  response.headers.emplace_back("X-HTD-Store-Entries",
                                std::to_string(written.store_entries));
  response.body = std::move(blob);
  return response;
}

HttpResponse DecompositionServer::HandleImport(const HttpRequest& request) {
  if (request.body.empty()) {
    return ErrorResponse(400, "empty body: expected a snapshot blob "
                              "(service/persistence.h format)");
  }
  auto shard = shard_state();
  if (shard != nullptr) {
    if (auto refused = RefuseForeignDigest(*shard, request)) return *refused;
  }
  // Filter to the accepted slice of the key space; a migration push built
  // against the right map never loses entries to this (the sender already
  // cut the blob to our range), while a mis-aimed blob is trimmed instead
  // of poisoning a foreign range.
  service::FingerprintRange covering;
  const service::FingerprintRange* range = nullptr;
  if (shard != nullptr) {
    covering = CoveringRange(*shard);
    range = &covering;
  }
  auto imported = service::DecodeSnapshot(request.body,
                                          service_->result_cache(),
                                          service_->subproblem_store(), range);
  if (!imported.ok()) {
    bad_requests_->Add();
    return ErrorResponse(400, "cannot import snapshot blob: " +
                                  imported.status().message());
  }
  imported_cache_entries_->Add(imported->cache_entries);
  imported_store_entries_->Add(imported->store_entries);
  HttpResponse response;
  response.body = "{\"imported\": true, \"cache_entries\": " +
                  std::to_string(imported->cache_entries) +
                  ", \"store_entries\": " + std::to_string(imported->store_entries) +
                  ", \"dropped_out_of_range\": " +
                  std::to_string(imported->dropped_out_of_range) + "}\n";
  return response;
}

HttpResponse DecompositionServer::HandleMigrate(const HttpRequest& request) {
  // One migration flow at a time; begin, re-drive, and finalise serialise.
  std::lock_guard<std::mutex> migrate_lock(migrate_mutex_);
  auto shard = shard_state();
  if (shard == nullptr) {
    return ErrorResponse(412, "not a sharded server: /v1/admin/migrate needs "
                              "--shard-map/--shard-index");
  }
  if (stopping_.load(std::memory_order_acquire)) {
    return ErrorResponse(503, "server is shutting down");
  }

  if (request.QueryOr("finalise", "0") == "1") {
    if (!shard->transitioning()) {
      return ErrorResponse(412, "no migration in flight to finalise");
    }
    if (shard->new_index < 0) {
      return ErrorResponse(412, "this backend is leaving the fleet "
                                "(new_index=-1); shut it down instead of "
                                "finalising");
    }
    auto next = std::make_shared<ShardState>(*shard->new_map);
    next->index = shard->new_index;
    next->range = next->map.RangeFor(next->index);
    next->digest_hex = next->map.DigestHex();
    SwapShardState(next);
    HttpResponse response;
    response.body = "{\"finalised\": true, \"digest\": \"" + next->digest_hex +
                    "\", \"index\": " + std::to_string(next->index) +
                    ", \"range\": \"" + HexRange(next->range) + "\"}\n";
    return response;
  }

  long new_index;
  if (!util::ParseIntFlag(request.QueryOr("new_index", "-1"), -1, 4095,
                          &new_index)) {
    return ErrorResponse(400, "query parameter new_index must be an integer "
                              ">= -1 (-1 = this backend leaves the fleet)");
  }
  // `self` is this process's own endpoint as it appears in the new map. The
  // server cannot know its public host:port, and it matters when the new
  // map REPLICATES this server's own range: the retained slice must be
  // pushed to the new sibling replicas (minus self) or they come up cold.
  // Without `self` the own-range push is skipped entirely — a self-push
  // would tie up an IO thread talking to itself.
  std::optional<service::ShardEndpoint> self;
  const std::string self_text = request.QueryOr("self", "");
  if (!self_text.empty()) {
    auto parsed = service::ShardEndpoint::Parse(self_text);
    if (!parsed.ok()) {
      return ErrorResponse(400, "query parameter self: " +
                                    parsed.status().message());
    }
    self = std::move(*parsed);
  }
  auto new_map = ParseShardMapBody(request.body);
  if (!new_map.ok()) return ErrorResponse(400, new_map.status().message());
  if (new_index >= new_map->num_shards()) {
    return ErrorResponse(400, "new_index " + std::to_string(new_index) +
                                  " is outside the new map (" +
                                  std::to_string(new_map->num_shards()) +
                                  " shards)");
  }
  if (new_map->DigestHex() == shard->digest_hex) {
    return ErrorResponse(400, "new map equals the current map (digest " +
                                  shard->digest_hex + "); nothing to migrate");
  }
  if (shard->transitioning() &&
      (shard->new_digest_hex != new_map->DigestHex() ||
       shard->new_index != static_cast<int>(new_index))) {
    return ErrorResponse(
        409, "a different migration is already in flight (to digest " +
                 shard->new_digest_hex + ", new_index " +
                 std::to_string(shard->new_index) +
                 "); finalise or restart it with the same arguments");
  }

  // Install the transitioning state BEFORE streaming anything out: from
  // here on this server accepts requests routed by either digest and
  // imports for its new range, so traffic keeps flowing mid-handover.
  // (Re-driving an identical in-flight migration is idempotent — pushes go
  // through the dominance-checked import path.)
  auto next = std::make_shared<ShardState>(*shard);
  next->new_map = *new_map;
  next->new_index = static_cast<int>(new_index);
  next->new_digest_hex = new_map->DigestHex();
  if (new_index >= 0) next->new_range = new_map->RangeFor(next->new_index);
  SwapShardState(next);
  shard = next;

  // ?prepare=1 stops here: the orchestrator (tools/hdreshard.cc) prepares
  // EVERY old backend before any of them streams, because migration pushes
  // carry the NEW digest — a receiver that has not yet learned the incoming
  // topology would refuse them with 421.
  if (request.QueryOr("prepare", "0") == "1") {
    HttpResponse response;
    response.body = "{\"prepared\": true, \"transitioning\": true, "
                    "\"new_digest\": \"" + shard->new_digest_hex +
                    "\", \"new_index\": " + std::to_string(shard->new_index) +
                    "}\n";
    return response;
  }

  // Stream the entries leaving this range to their new owners — and, when
  // the new map replicates our OWN range, the retained slice to the new
  // sibling replicas: cut a snapshot blob per overlapping new range and
  // push it to every replica of that range (minus ourselves).
  bool all_ok = true;
  uint64_t moved = 0;
  std::string targets_json;
  for (int j = 0; j < new_map->num_shards(); ++j) {
    if (j == shard->new_index && !self.has_value()) continue;
    service::FingerprintRange leaving;
    if (!Intersect(shard->range, new_map->RangeFor(j), &leaving)) continue;
    service::SnapshotStats written;
    std::string blob = service::EncodeSnapshot(
        service_->result_cache(), service_->subproblem_store(),
        CurrentConfigDigest(), &leaving, &written);
    const uint64_t entries = written.cache_entries + written.store_entries;
    bool pushed_any = false;
    for (int r = 0; r < new_map->num_replicas(j); ++r) {
      const service::ShardEndpoint& target = new_map->replica(j, r);
      if (self.has_value() && target == *self) continue;
      FetchOptions fetch;
      fetch.read_timeout_seconds = kMigratePushTimeoutSeconds;
      FetchResult pushed =
          entries == 0
              ? FetchResult{FetchResult::Transport::kOk, 200, {}, "", ""}
              : HttpFetch(target.host, target.port, "POST", "/v1/admin/import",
                          blob,
                          {{"X-HTD-Shard-Digest", shard->new_digest_hex}},
                          fetch);
      pushed_any = true;
      const bool ok = pushed.ok() && pushed.status == 200;
      all_ok = all_ok && ok;
      if (!targets_json.empty()) targets_json += ", ";
      targets_json += "{\"range\": " + std::to_string(j);
      targets_json += ", \"endpoint\": \"" + JsonEscape(target.host) + ":" +
                      std::to_string(target.port) + "\"";
      targets_json += ", \"cache_entries\": " +
                      std::to_string(written.cache_entries);
      targets_json +=
          ", \"store_entries\": " + std::to_string(written.store_entries);
      if (pushed.ok()) {
        targets_json += ", \"status\": " + std::to_string(pushed.status);
      } else {
        targets_json += ", \"status\": 0, \"error\": \"" +
                        JsonEscape(pushed.error) + "\"";
      }
      targets_json += "}";
    }
    if (pushed_any) moved += entries;
  }
  migrated_out_entries_->Add(moved);

  HttpResponse response;
  // Partial pushes are a gateway-level failure: some new owner did NOT
  // receive its slice, and the operator must re-drive before finalising.
  response.status = all_ok ? 200 : 502;
  response.body = std::string("{\"migrated\": ") + (all_ok ? "true" : "false") +
                  ", \"transitioning\": true, \"new_digest\": \"" +
                  shard->new_digest_hex +
                  "\", \"new_index\": " + std::to_string(shard->new_index) +
                  ", \"entries_out\": " + std::to_string(moved) +
                  ", \"targets\": [" + targets_json + "]}\n";
  return response;
}

HttpResponse DecompositionServer::HandleDigest(const HttpRequest& request) {
  auto shard = shard_state();
  if (shard != nullptr) {
    if (auto refused = RefuseForeignDigest(*shard, request)) return *refused;
  }
  // Default to the slice of the key space this server owns (everything when
  // unsharded); an explicit ?range= narrows or widens it — e.g. a sweep
  // asking a transitioning sibling about the OLD range only.
  service::FingerprintRange range;
  if (shard != nullptr) range = shard->range;
  const std::string range_text = request.QueryOr("range", "");
  if (!range_text.empty() && !ParseHexRange(range_text, &range)) {
    return ErrorResponse(400, "query parameter range must be HEX-HEX "
                              "(fingerprint hi bounds, inclusive)");
  }
  long slices;
  if (!util::ParseIntFlag(
          request.QueryOr("slices", std::to_string(options_.anti_entropy_slices)),
          1, 4096, &slices)) {
    return ErrorResponse(400,
                         "query parameter slices must be an integer in [1, 4096]");
  }
  HttpResponse response;
  response.content_type = "text/plain; charset=utf-8";
  response.body = service::RenderDigestSummary(service::ComputeDigestSummary(
      service_->result_cache(), service_->subproblem_store(),
      CurrentConfigDigest(), range, static_cast<int>(slices)));
  return response;
}

HttpResponse DecompositionServer::HandleAntiEntropy(const HttpRequest&) {
  auto swept = RunAntiEntropySweep();
  if (!swept.ok()) {
    int status = swept.status().code() == util::StatusCode::kFailedPrecondition
                     ? 412
                     : 500;
    return ErrorResponse(status, swept.status().message());
  }
  HttpResponse response;
  // Partial failures mirror the migrate contract: some sibling did not
  // complete its exchange, so the operator (or the next round) must re-drive.
  response.status = swept->errors == 0 ? 200 : 502;
  response.body = "{\"swept\": true, \"siblings\": " +
                  std::to_string(swept->siblings) +
                  ", \"slices_pulled\": " + std::to_string(swept->slices_pulled) +
                  ", \"cache_entries\": " + std::to_string(swept->cache_entries) +
                  ", \"store_entries\": " + std::to_string(swept->store_entries) +
                  ", \"bytes\": " + std::to_string(swept->bytes) +
                  ", \"errors\": " + std::to_string(swept->errors) + "}\n";
  return response;
}

void DecompositionServer::AntiEntropyLoop() {
  const auto interval = std::chrono::duration<double>(
      options_.anti_entropy_interval_seconds);
  auto next = std::chrono::steady_clock::now() + interval;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() < next) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    // Outcomes land in the htd_antientropy_* counters; a failed round is not
    // fatal to the loop (the next interval retries from the new digests).
    auto swept = RunAntiEntropySweep();
    (void)swept;
    next = std::chrono::steady_clock::now() + interval;
  }
}

service::ShardEndpoint DecompositionServer::SelfEndpoint(
    const ShardState& state) const {
  if (ae_self_.has_value()) return *ae_self_;
  // Fall back to matching the listen port against the replica group —
  // unambiguous whenever replica ports are distinct per host (loopback test
  // fleets always are). No match returns an empty endpoint: Siblings() then
  // yields the whole group, and the self-pull is a digest-equal no-op.
  for (int r = 0; r < state.map.num_replicas(state.index); ++r) {
    const service::ShardEndpoint& candidate = state.map.replica(state.index, r);
    if (candidate.port == port()) return candidate;
  }
  return service::ShardEndpoint{};
}

util::StatusOr<DecompositionServer::SweepResult>
DecompositionServer::RunAntiEntropySweep() {
  // One round at a time: the background loop and a forced
  // /v1/admin/antientropy must not interleave their pulls.
  std::lock_guard<std::mutex> sweep_lock(ae_mutex_);
  auto state = shard_state();
  if (state == nullptr) {
    return util::Status::FailedPrecondition(
        "not a sharded server: anti-entropy needs --shard-map/--shard-index");
  }
  if (state->transitioning()) {
    // Mid-migration the range boundaries are moving; reconciling against
    // them would tug entries back and forth. Skip; the loop retries after
    // the finalise.
    ae_rounds_skipped_->Add();
    return util::Status::FailedPrecondition(
        "migration in flight; anti-entropy resumes after finalise");
  }
  const std::vector<service::ShardEndpoint> siblings =
      state->map.Siblings(state->index, SelfEndpoint(*state));
  SweepResult result;
  result.siblings = static_cast<int>(siblings.size());
  if (siblings.empty()) {
    ae_rounds_skipped_->Add();
    return result;  // unreplicated range: nothing to reconcile
  }

  util::TraceScope sweep_span("ae_sweep",
                              static_cast<uint64_t>(siblings.size()));
  const uint64_t config_digest = CurrentConfigDigest();
  service::DigestSummary local = service::ComputeDigestSummary(
      service_->result_cache(), service_->subproblem_store(), config_digest,
      state->range, options_.anti_entropy_slices);
  const std::string digest_target =
      "/v1/admin/digest?range=" + HexRange(state->range) +
      "&slices=" + std::to_string(options_.anti_entropy_slices);
  FetchOptions fetch;
  fetch.read_timeout_seconds = kAntiEntropyPullTimeoutSeconds;

  for (size_t s = 0; s < siblings.size(); ++s) {
    if (stopping_.load(std::memory_order_acquire)) break;
    const service::ShardEndpoint& sibling = siblings[s];
    util::TraceScope pull_span("ae_pull", static_cast<uint64_t>(sibling.port));
    uint64_t merged_cache = 0;
    uint64_t merged_store = 0;
    FetchResult digest_response = HttpFetch(
        sibling.host, sibling.port, "GET", digest_target, "",
        {{"X-HTD-Shard-Digest", state->digest_hex}}, fetch);
    if (!digest_response.ok() || digest_response.status != 200) {
      ++result.errors;
      continue;
    }
    auto remote = service::ParseDigestSummary(digest_response.body);
    if (!remote.ok()) {
      // Corrupt digest: abort this sibling's exchange before any pull — a
      // garbled summary must trigger zero imports.
      ++result.errors;
      continue;
    }
    if (remote->config_digest != local.config_digest) {
      // Incomparable warm state (different solver config); not an error,
      // but nothing can be merged either.
      continue;
    }
    if (remote->slices.size() != local.slices.size()) {
      ++result.errors;
      continue;
    }
    bool aligned = true;
    for (size_t i = 0; i < local.slices.size(); ++i) {
      if (!(remote->slices[i].range == local.slices[i].range)) {
        aligned = false;
        break;
      }
    }
    if (!aligned) {
      ++result.errors;
      continue;
    }
    bool sibling_ok = true;
    for (size_t i = 0; i < local.slices.size(); ++i) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (remote->slices[i].digest == local.slices[i].digest) continue;
      ++result.slices_pulled;
      FetchResult blob = HttpFetch(
          sibling.host, sibling.port, "GET",
          "/v1/admin/export?range=" + HexRange(local.slices[i].range), "",
          {{"X-HTD-Shard-Digest", state->digest_hex}}, fetch);
      if (!blob.ok() || blob.status != 200) {
        ++result.errors;
        sibling_ok = false;
        break;
      }
      // DecodeSnapshot stages the whole blob before touching the live
      // state, so a truncated or bit-flipped transfer merges nothing.
      auto merged = service::DecodeSnapshot(
          blob.body, service_->result_cache(), service_->subproblem_store(),
          &local.slices[i].range);
      if (!merged.ok()) {
        ++result.errors;
        sibling_ok = false;
        break;
      }
      result.bytes += blob.body.size();
      merged_cache += merged->cache_entries;
      merged_store += merged->store_entries;
    }
    result.cache_entries += merged_cache;
    result.store_entries += merged_store;
    // What we merged from this sibling changes OUR digests; recompute before
    // comparing against the next sibling or its unchanged slices would look
    // spuriously different.
    if (sibling_ok && merged_cache + merged_store > 0 &&
        s + 1 < siblings.size()) {
      local = service::ComputeDigestSummary(
          service_->result_cache(), service_->subproblem_store(), config_digest,
          state->range, options_.anti_entropy_slices);
    }
  }

  ae_entries_cache_->Add(result.cache_entries);
  ae_entries_store_->Add(result.store_entries);
  ae_bytes_->Add(result.bytes);
  if (result.errors == 0) {
    ae_rounds_ok_->Add();
  } else {
    ae_rounds_error_->Add();
  }
  return result;
}

}  // namespace htd::net
