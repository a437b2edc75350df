#include "net/shard_router.h"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "net/http_client.h"
#include "net/json.h"
#include "service/canonical.h"
#include "util/cli.h"

namespace htd::net {

namespace {

/// Trailing-'\n'-free copy of a forwarded JSON body, for embedding.
std::string Embed(const std::string& body) {
  std::string out = body;
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "null" : out;
}

/// Inserts `prefix` in front of the job id in a 202/200 job body.
void PrefixJobIdRaw(HttpResponse* response, const std::string& prefix) {
  const std::string marker = "\"job\": \"";
  size_t pos = response->body.find(marker);
  if (pos != std::string::npos) {
    response->body.insert(pos + marker.size(), prefix);
  }
}

/// Prefixes the job id in a 202 body with the shard AND replica that minted
/// it ("j7" -> "s1r0.j7") so a later GET /v1/jobs/<id> can route statelessly
/// to the exact process. The replica matters: backends mint their own local
/// counters, so "j7" on replica 0 and "j7" on replica 1 are DIFFERENT jobs.
void PrefixJobId(HttpResponse* response, int shard, int replica) {
  PrefixJobIdRaw(response,
                 "s" + std::to_string(shard) + "r" + std::to_string(replica) +
                     ".");
}

}  // namespace

ShardRouter::ShardRouter(ShardRouterOptions options)
    : options_(std::move(options)),
      routes_(Routes(), metrics_, "htd_router_request_seconds") {
  auto maps = std::make_shared<Maps>(options_.map);
  maps->digest_hex = maps->map.DigestHex();
  maps_ = std::move(maps);
  metrics_.SetHelp("htd_router_request_seconds",
                   "Router HTTP request latency by route (includes the "
                   "forwarded exchange).");
}

std::shared_ptr<const ShardRouter::Maps> ShardRouter::maps() const {
  std::lock_guard<std::mutex> lock(maps_mutex_);
  return maps_;
}

util::Status ShardRouter::BeginTransition(const service::ShardMap& new_map) {
  std::lock_guard<std::mutex> lock(maps_mutex_);
  if (new_map.DigestHex() == maps_->digest_hex) {
    return util::Status::InvalidArgument(
        "new map equals the current map (digest " + maps_->digest_hex +
        "); nothing to transition to");
  }
  if (maps_->new_map.has_value()) {
    if (maps_->new_digest_hex == new_map.DigestHex()) {
      return util::Status::Ok();  // idempotent re-announce
    }
    return util::Status::FailedPrecondition(
        "a different transition is already in flight (to digest " +
        maps_->new_digest_hex + "); complete or abort it first");
  }
  auto next = std::make_shared<Maps>(*maps_);
  next->new_map = new_map;
  next->new_digest_hex = new_map.DigestHex();
  maps_ = std::move(next);
  return util::Status::Ok();
}

util::Status ShardRouter::CompleteTransition() {
  std::lock_guard<std::mutex> lock(maps_mutex_);
  if (!maps_->new_map.has_value()) {
    return util::Status::FailedPrecondition("no transition in flight");
  }
  auto next = std::make_shared<Maps>(*maps_->new_map);
  next->digest_hex = maps_->new_digest_hex;
  // Retire the old map into the job-polling history (see Maps::prev_map).
  next->prev_map = maps_->map;
  next->prev_digest_hex = maps_->digest_hex;
  maps_ = std::move(next);
  return util::Status::Ok();
}

util::Status ShardRouter::AbortTransition() {
  std::lock_guard<std::mutex> lock(maps_mutex_);
  if (!maps_->new_map.has_value()) {
    return util::Status::FailedPrecondition("no transition in flight");
  }
  auto next = std::make_shared<Maps>(maps_->map);
  next->digest_hex = maps_->digest_hex;
  next->prev_map = maps_->prev_map;
  next->prev_digest_hex = maps_->prev_digest_hex;
  maps_ = std::move(next);
  return util::Status::Ok();
}

std::vector<ShardRouter::AddressedEndpoint> ShardRouter::AddressedEndpoints(
    const Maps& maps) {
  std::vector<AddressedEndpoint> out;
  std::set<std::string> seen;
  auto add = [&](const service::ShardMap& map, const std::string& digest_hex) {
    for (int index = 0; index < map.num_shards(); ++index) {
      for (int r = 0; r < map.num_replicas(index); ++r) {
        if (seen.insert(HealthKey(map.replica(index, r))).second) {
          out.push_back({map.replica(index, r), index, r, digest_hex});
        }
      }
    }
  };
  add(maps.map, maps.digest_hex);
  if (maps.new_map.has_value()) add(*maps.new_map, maps.new_digest_hex);
  return out;
}

std::vector<ShardRouter::ShardStats> ShardRouter::shard_stats() const {
  return StatsForTargets(AddressedEndpoints(*maps()));
}

std::vector<ShardRouter::ShardStats> ShardRouter::StatsForTargets(
    const std::vector<AddressedEndpoint>& targets) const {
  std::vector<ShardStats> out;
  out.reserve(targets.size());
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(health_mutex_);
  for (const AddressedEndpoint& target : targets) {
    ShardStats stats;
    stats.host = target.endpoint.host;
    stats.port = target.endpoint.port;
    stats.range = target.range;
    stats.replica = target.replica;
    auto it = health_.find(HealthKey(target.endpoint));
    if (it != health_.end()) {
      stats.forwarded = it->second.forwarded;
      stats.transport_errors = it->second.transport_errors;
      stats.backoff_shed = it->second.backoff_shed;
      stats.backing_off = it->second.retry_at > now;
    }
    out.push_back(std::move(stats));
  }
  return out;
}

std::string ShardRouter::RenderEndpointSeries(
    const std::vector<AddressedEndpoint>& targets) const {
  const std::vector<ShardStats> rows = StatsForTargets(targets);
  std::string out;
  auto family = [&](const char* name, const char* type, const char* help,
                    auto value) {
    out += std::string("# HELP ") + name + " " + help + "\n# TYPE " + name +
           " " + type + "\n";
    for (const ShardStats& row : rows) {
      out += std::string(name) + "{endpoint=\"" + row.host + ":" +
             std::to_string(row.port) + "\",range=\"" +
             std::to_string(row.range) + "\",replica=\"" +
             std::to_string(row.replica) + "\"} " +
             std::to_string(value(row)) + "\n";
    }
  };
  family("htd_router_forwarded_total", "counter",
         "Exchanges the router attempted against each backend endpoint.",
         [](const ShardStats& row) { return row.forwarded; });
  family("htd_router_transport_errors_total", "counter",
         "Connect, send, receive or parse failures per backend endpoint.",
         [](const ShardStats& row) { return row.transport_errors; });
  family("htd_router_backoff_shed_total", "counter",
         "Forwards skipped without touching the socket because the endpoint "
         "was backing off.",
         [](const ShardStats& row) { return row.backoff_shed; });
  family("htd_router_backing_off", "gauge",
         "1 while the endpoint is inside its backoff window.",
         [](const ShardStats& row) { return row.backing_off ? 1 : 0; });
  return out;
}

bool ShardRouter::InBackoff(const std::string& key) {
  std::lock_guard<std::mutex> lock(health_mutex_);
  EndpointHealth& health = health_[key];
  if (health.retry_at > std::chrono::steady_clock::now()) {
    ++health.backoff_shed;
    return true;
  }
  return false;
}

void ShardRouter::RecordSuccess(const std::string& key) {
  std::lock_guard<std::mutex> lock(health_mutex_);
  health_[key].consecutive_failures = 0;
  health_[key].retry_at = {};
}

void ShardRouter::RecordFailure(const std::string& key) {
  std::lock_guard<std::mutex> lock(health_mutex_);
  EndpointHealth& health = health_[key];
  ++health.transport_errors;
  health.consecutive_failures =
      std::min(health.consecutive_failures + 1, 30);  // cap the shift below
  const double backoff =
      std::min(options_.backoff_max_seconds,
               options_.backoff_base_seconds *
                   static_cast<double>(1ULL << (health.consecutive_failures - 1)));
  health.retry_at = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(static_cast<int64_t>(backoff * 1e6));
}

HttpResponse ShardRouter::ForwardToEndpoint(
    const service::ShardEndpoint& endpoint, const std::string& digest_hex,
    const std::string& method, const std::string& target,
    const std::string& body, const std::string& fingerprint_hex,
    const std::string& request_id_hex, double read_timeout_seconds,
    bool* transport_failed) {
  const std::string key = HealthKey(endpoint);
  *transport_failed = true;
  if (InBackoff(key)) {
    return RetryLaterResponse(
        503,
        "endpoint " + key +
            " is backing off after transport failures; retry later",
        options_.retry_after_seconds);
  }
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    ++health_[key].forwarded;
  }

  std::vector<std::pair<std::string, std::string>> headers;
  // Single-hop marker: a router receiving this answers 508, never forwards.
  headers.emplace_back("X-HTD-Forwarded", "1");
  headers.emplace_back("X-HTD-Shard-Digest", digest_hex);
  if (!fingerprint_hex.empty()) {
    headers.emplace_back("X-HTD-Shard-Fingerprint", fingerprint_hex);
  }
  if (!request_id_hex.empty()) {
    // The backend adopts this as its root span id, stitching its trace onto
    // the router's "route" span under one request id.
    headers.emplace_back("X-HTD-Request-Id", request_id_hex);
  }
  FetchOptions fetch;
  fetch.connect_timeout_seconds = options_.connect_timeout_seconds;
  fetch.read_timeout_seconds = read_timeout_seconds;
  FetchResult result = HttpFetch(endpoint.host, endpoint.port, method, target,
                                 body, headers, fetch);
  if (!result.ok()) {
    RecordFailure(key);
    switch (result.transport) {
      case FetchResult::Transport::kConnectFailed:
        return RetryLaterResponse(
            503, "endpoint " + key + " unreachable: " + result.error,
            options_.retry_after_seconds);
      case FetchResult::Transport::kRecvTimeout:
        return ErrorResponse(504, "endpoint " + key + " response timed out");
      case FetchResult::Transport::kParseFailed:
        return ErrorResponse(502, "endpoint " + key +
                                      " sent a malformed HTTP response");
      default:
        return ErrorResponse(502, "exchange with endpoint " + key +
                                      " failed: " + result.error);
    }
  }
  RecordSuccess(key);
  *transport_failed = false;

  // Pass the endpoint's answer through verbatim — status (incl. its own
  // 429/503 load shedding), Retry-After, and body; the client's backoff
  // logic works unchanged behind the router. The observability headers
  // pass through too: the client sees the backend's stage breakdown and the
  // request id its trace is filed under.
  HttpResponse response;
  response.status = result.status;
  response.body = std::move(result.body);
  auto content_type = result.headers.find("content-type");
  if (content_type != result.headers.end()) {
    response.content_type = content_type->second;
  }
  for (const auto& [key, name] :
       {std::pair{"retry-after", "Retry-After"},
        std::pair{"server-timing", "Server-Timing"},
        std::pair{"x-htd-request-id", "X-HTD-Request-Id"}}) {
    auto header = result.headers.find(key);
    if (header != result.headers.end()) {
      response.headers.emplace_back(name, header->second);
    }
  }
  return response;
}

HttpResponse ShardRouter::ForwardToRange(
    const service::ShardMap& map, int index, const std::string& digest_hex,
    const std::string& method, const std::string& target,
    const std::string& body, const std::string& fingerprint_hex,
    const std::string& request_id_hex, double read_timeout_seconds,
    util::TraceParent trace, int* served_replica) {
  // Round-robin over the range's replicas, failing over on transport-level
  // trouble (down or backing off). A replica's own HTTP answer — including
  // its 429/503 load shedding — is final: overload on one replica is not a
  // license to double the fleet-wide load by retrying siblings.
  const int replicas = map.num_replicas(index);
  const int start =
      static_cast<int>(round_robin_.fetch_add(1, std::memory_order_relaxed) %
                       static_cast<uint64_t>(replicas));
  HttpResponse last;
  bool answered = false;
  for (int attempt = 0; attempt < replicas; ++attempt) {
    const int r = (start + attempt) % replicas;
    bool transport_failed = false;
    // One span per attempt, tagged with the owning (range, replica) — a
    // trace of a failover shows every endpoint tried, not just the winner.
    util::TraceScope span(
        "forward", trace,
        (static_cast<uint64_t>(index) << 8) | static_cast<uint64_t>(r));
    HttpResponse response =
        ForwardToEndpoint(map.replica(index, r), digest_hex, method, target,
                          body, fingerprint_hex, request_id_hex,
                          read_timeout_seconds, &transport_failed);
    if (!transport_failed) {
      if (served_replica != nullptr) *served_replica = r;
      return response;
    }
    last = std::move(response);
    answered = true;
  }
  if (answered) return last;  // every replica down/backing off: best error
  return RetryLaterResponse(503,
                            "every replica of shard " + std::to_string(index) +
                                " is backing off; retry later",
                            options_.retry_after_seconds);
}

std::vector<HttpResponse> ShardRouter::ForwardAll(
    const std::vector<AddressedEndpoint>& targets, const std::string& method,
    const std::string& target) {
  // Concurrent fan-out: the per-endpoint exchanges are independent, and
  // doing them sequentially would serialise the connect timeouts of every
  // not-yet-backing-off down endpoint (k dead endpoints = k *
  // connect_timeout per fan-out, on a router IO thread decompose forwards
  // also need). Each exchange gets the full read timeout, not the connect
  // timeout: a backend whose IO threads are pinned by long solves answers
  // slowly, and timing it out here would back a healthy endpoint off —
  // shedding live decompose traffic because an operator looked at a
  // dashboard.
  const int n = static_cast<int>(targets.size());
  std::vector<HttpResponse> responses(static_cast<size_t>(n));
  constexpr int kMaxFanOutThreads = 16;
  const int num_threads = std::min(n, kMaxFanOutThreads);
  std::atomic<int> next{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    workers.emplace_back([&] {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        bool transport_failed = false;
        responses[static_cast<size_t>(i)] = ForwardToEndpoint(
            targets[static_cast<size_t>(i)].endpoint,
            targets[static_cast<size_t>(i)].digest_hex, method, target, "", "",
            "", options_.read_timeout_seconds, &transport_failed);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return responses;
}

std::vector<Route> ShardRouter::Routes() {
  using Self = ShardRouter;
  auto bind = [this](auto handler) { return std::bind_front(handler, this); };
  return {
      {nullptr, "/healthz", "healthz", bind(&Self::HandleHealth)},
      {"POST", "/v1/decompose", "decompose",
       bind(&Self::HandleBody<DecomposeBody>)},
      {"POST", "/v1/query", "query", bind(&Self::HandleBody<QueryBody>)},
      {"GET", "/v1/jobs/", "jobs", bind(&Self::HandleJob)},
      {"GET", "/v1/metrics", "metrics", bind(&Self::HandleMetrics)},
      {"GET", "/v1/trace", "trace", HandleTrace},
      {"POST", "/v1/admin/snapshot", "admin", bind(&Self::HandleSnapshot)},
      {"POST", "/v1/admin/transition", "admin", bind(&Self::HandleTransition)},
  };
}

HttpResponse ShardRouter::Handle(const HttpRequest& request) {
  if (request.headers.count("x-htd-forwarded") != 0) {
    return ErrorResponse(
        508, "routing loop: this router received an already-forwarded request "
             "(is a router listed in its own --route-to map?)");
  }
  return routes_.Handle(request);
}

HttpResponse ShardRouter::HandleHealth(const HttpRequest&) {
  auto snapshot = maps();
  auto stats = StatsForTargets(AddressedEndpoints(*snapshot));
  int backing_off = 0;
  for (const ShardStats& endpoint : stats) {
    backing_off += endpoint.backing_off ? 1 : 0;
  }
  HttpResponse response;
  response.body =
      "{\"ok\": true, \"role\": \"router\", \"shards\": " +
      std::to_string(snapshot->map.num_shards()) +
      ", \"endpoints\": " + std::to_string(stats.size()) +
      ", \"backing_off\": " + std::to_string(backing_off) +
      ", \"transitioning\": " +
      (snapshot->new_map.has_value() ? "true" : "false") + "}\n";
  return response;
}

template <typename Body>
HttpResponse ShardRouter::HandleBody(const HttpRequest& request) {
  if (request.body.empty()) return ErrorResponse(400, Body::kEmpty);
  // The router pays one parse + canonicalisation per request to learn the
  // routing key. The shard parses again — the body crosses a process
  // boundary either way, and re-deriving beats trusting a proxy's bytes.
  auto parsed = Body::Parse(request.body);
  if (!parsed.ok()) return ErrorResponse(400, parsed.status().message());
  return RouteByFingerprint(request, Body::Fingerprint(*parsed));
}

HttpResponse ShardRouter::RouteByFingerprint(const HttpRequest& request,
                                             const service::Fingerprint& fp) {
  auto snapshot = maps();

  const bool async = request.QueryOr("async", "0") == "1";
  double read_timeout = options_.read_timeout_seconds;
  if (!async) {
    // A synchronous solve legitimately runs for the job's own deadline; the
    // forward must outlast it (same policy as hdclient's transport timeout).
    double job_timeout;
    if (util::ParseDoubleFlag(request.QueryOr("timeout", ""), 0.0, &job_timeout)) {
      read_timeout =
          job_timeout == 0 ? 0 : std::max(read_timeout, job_timeout + 60.0);
    }
  }

  // One request id for the whole fleet trip: the router's root span, every
  // forward attempt, and the backend's own trace all file under it, and the
  // client reads it back from X-HTD-Request-Id.
  const uint64_t request_id = util::TraceRegistry::Instance().NextId();
  const std::string request_id_hex = util::TraceIdHex(request_id);
  util::TraceScope root_span("route", util::TraceRootId{request_id});
  const util::TraceParent forward_trace{request_id, request_id};

  // Current owner first: during a live reshard the donor still holds the
  // warm entry, so routing by the old map preserves every cache hit until
  // the fleet flips.
  const int owner = snapshot->map.IndexFor(fp);
  root_span.set_tag(static_cast<uint64_t>(owner));
  int served_replica = 0;
  HttpResponse response =
      ForwardToRange(snapshot->map, owner, snapshot->digest_hex, request.method,
                     request.target, request.body, fp.ToHex(), request_id_hex,
                     read_timeout, forward_trace, &served_replica);
  int served_by = owner;
  if (snapshot->new_map.has_value() &&
      (response.status == 421 || response.status == 502 ||
       response.status == 503 || response.status == 504)) {
    // Double-route: the old owner already finalised onto the new map (421)
    // or is gone mid-handover — retry the NEW owner under the new digest so
    // the client never sees the topology change. Exception: when the new
    // owner is served by the SAME processes, a 5xx is that process's own
    // answer (its load shedding, its timeout) — re-sending the body there
    // would double the load on an endpoint that just asked us to back off.
    // A 421 still retries: it means "wrong digest", and the new digest is
    // exactly the cure.
    const int new_owner = snapshot->new_map->IndexFor(fp);
    std::set<std::string> old_keys, new_keys;
    for (int r = 0; r < snapshot->map.num_replicas(owner); ++r) {
      old_keys.insert(HealthKey(snapshot->map.replica(owner, r)));
    }
    for (int r = 0; r < snapshot->new_map->num_replicas(new_owner); ++r) {
      new_keys.insert(HealthKey(snapshot->new_map->replica(new_owner, r)));
    }
    if (response.status == 421 || new_keys != old_keys) {
      response = ForwardToRange(*snapshot->new_map, new_owner,
                                snapshot->new_digest_hex, request.method,
                                request.target, request.body, fp.ToHex(),
                                request_id_hex, read_timeout, forward_trace,
                                &served_replica);
      served_by = new_owner;
    }
  }
  if (async && response.status == 202) {
    PrefixJobId(&response, served_by, served_replica);
  }
  // A router-generated error (every replica down) never touched a backend,
  // so no echoed id passed through — attach ours so the client can still
  // find the router-side trace of the failed routing attempt.
  bool has_id = false;
  for (const auto& header : response.headers) {
    if (header.first == "X-HTD-Request-Id") has_id = true;
  }
  if (!has_id) {
    response.headers.emplace_back("X-HTD-Request-Id", request_id_hex);
  }
  return response;
}

HttpResponse ShardRouter::HandleJob(const HttpRequest& request) {
  // Job ids minted through the router are "s<shard>r<replica>.<id on that
  // process>" — backends mint their own local counters, so the replica slot
  // is part of the identity ("j7" on two replicas = two different jobs).
  // Bare "s<shard>.<id>" ids (pre-replication) poll every replica.
  std::string id = request.path.substr(sizeof("/v1/jobs/") - 1);
  if (id.size() < 3 || id[0] != 's') {
    return ErrorResponse(404, "unknown job id: " + id +
                                  " (router job ids look like s0r0.j7)");
  }
  size_t dot = id.find('.');
  if (dot == std::string::npos || dot == 1) {
    return ErrorResponse(404, "unknown job id: " + id +
                                  " (router job ids look like s0r0.j7)");
  }
  char* end = nullptr;
  long shard = std::strtol(id.c_str() + 1, &end, 10);
  long replica = -1;  // -1 = unqualified: poll every replica
  bool prefix_ok = end != id.c_str() + 1;
  if (prefix_ok && end != id.c_str() + dot) {
    if (*end == 'r') {
      char* replica_end = nullptr;
      replica = std::strtol(end + 1, &replica_end, 10);
      prefix_ok = replica_end == id.c_str() + dot && replica >= 0;
    } else {
      prefix_ok = false;
    }
  }
  auto snapshot = maps();
  // The job lives on whichever replica admitted it, under whichever map
  // minted the id: the current map, the incoming one mid-transition, or —
  // for a job admitted just before a flip — the map the last transition
  // retired. Poll every candidate until one recognises the id.
  std::vector<std::pair<const service::ShardMap*, const std::string*>>
      generations;
  generations.emplace_back(&snapshot->map, &snapshot->digest_hex);
  if (snapshot->new_map.has_value()) {
    generations.emplace_back(&*snapshot->new_map, &snapshot->new_digest_hex);
  }
  if (snapshot->prev_map.has_value()) {
    generations.emplace_back(&*snapshot->prev_map, &snapshot->prev_digest_hex);
  }
  bool in_some_map = false;
  for (const auto& [map, digest] : generations) {
    in_some_map = in_some_map || shard < map->num_shards();
  }
  if (!prefix_ok || shard < 0 || !in_some_map) {
    return ErrorResponse(404, "unknown job id: " + id +
                                  " (no such shard in the map)");
  }
  const std::string remote_id = id.substr(dot + 1);

  std::vector<std::pair<service::ShardEndpoint, std::string>> candidates;
  std::set<std::string> seen;
  for (const auto& [map, digest] : generations) {
    if (shard >= map->num_shards()) continue;
    for (int r = 0; r < map->num_replicas(static_cast<int>(shard)); ++r) {
      if (replica >= 0 && r != replica) continue;
      const service::ShardEndpoint& endpoint =
          map->replica(static_cast<int>(shard), r);
      if (seen.insert(HealthKey(endpoint)).second) {
        candidates.emplace_back(endpoint, *digest);
      }
    }
  }

  HttpResponse last = ErrorResponse(404, "unknown job id: " + id);
  for (const auto& [endpoint, digest_hex] : candidates) {
    bool transport_failed = false;
    HttpResponse response = ForwardToEndpoint(
        endpoint, digest_hex, "GET", "/v1/jobs/" + remote_id, "", "", "",
        options_.read_timeout_seconds, &transport_failed);
    if (!transport_failed && response.status != 404) {
      if (response.status == 200) {
        // Re-prefix the id in the shard's answer with the ORIGINAL prefix
        // so clients can keep polling the value they read back.
        PrefixJobIdRaw(&response, id.substr(0, dot + 1));
      }
      return response;
    }
    last = std::move(response);
  }
  return last;
}

HttpResponse ShardRouter::HandleMetrics(const HttpRequest&) {
  const std::vector<AddressedEndpoint> targets = AddressedEndpoints(*maps());
  std::vector<HttpResponse> responses = ForwardAll(targets, "GET", "/v1/metrics");

  // Aggregate the backend scrapes into one Prometheus page: identical
  // series (same name and label set) are SUMMED — counters add, histogram
  // bucket counts add, gauges add (entries/bytes gauges are fleet totals) —
  // while each family's first-seen HELP/TYPE lines are kept once. Family
  // grouping is preserved because the text format requires one contiguous
  // block per metric family.
  struct Family {
    std::vector<std::string> meta;          ///< "# HELP"/"# TYPE" lines
    std::vector<std::string> series_order;  ///< series keys, first seen first
    std::map<std::string, double> values;
  };
  std::vector<std::string> family_order;
  std::map<std::string, Family> families;
  auto family_of = [](const std::string& series) {
    size_t cut = series.find_first_of("{ ");
    return cut == std::string::npos ? series : series.substr(0, cut);
  };
  int scraped = 0;
  for (const HttpResponse& endpoint_response : responses) {
    if (endpoint_response.status != 200) continue;
    ++scraped;
    size_t pos = 0;
    const std::string& text = endpoint_response.body;
    while (pos < text.size()) {
      size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      const std::string line = text.substr(pos, eol - pos);
      pos = eol + 1;
      if (line.empty()) continue;
      if (line[0] == '#') {
        // "# HELP <name> ..." / "# TYPE <name> ...": third token = family.
        size_t name_start = line.find(' ', 2);
        if (name_start == std::string::npos) continue;
        ++name_start;
        size_t name_end = line.find(' ', name_start);
        const std::string family =
            line.substr(name_start, name_end == std::string::npos
                                        ? std::string::npos
                                        : name_end - name_start);
        if (families.find(family) == families.end()) {
          family_order.push_back(family);
        }
        Family& entry = families[family];
        bool seen = false;
        for (const std::string& meta : entry.meta) seen = seen || meta == line;
        if (!seen) entry.meta.push_back(line);
        continue;
      }
      size_t value_cut = line.rfind(' ');
      if (value_cut == std::string::npos) continue;
      const std::string key = line.substr(0, value_cut);
      char* end = nullptr;
      const std::string value_text = line.substr(value_cut + 1);
      double value = std::strtod(value_text.c_str(), &end);
      if (end != value_text.c_str() + value_text.size()) continue;
      const std::string family = family_of(key);
      if (families.find(family) == families.end()) {
        family_order.push_back(family);
      }
      Family& entry = families[family];
      if (entry.values.find(key) == entry.values.end()) {
        entry.series_order.push_back(key);
      }
      entry.values[key] += value;
    }
  }

  std::string body;
  body += "# HELP htd_fleet_endpoints_scraped Backends that answered this "
          "aggregated scrape.\n";
  body += "# TYPE htd_fleet_endpoints_scraped gauge\n";
  body += "htd_fleet_endpoints_scraped " + std::to_string(scraped) + "\n";
  body += "# HELP htd_fleet_endpoints Backends addressed by the router.\n";
  body += "# TYPE htd_fleet_endpoints gauge\n";
  body += "htd_fleet_endpoints " + std::to_string(targets.size()) + "\n";
  for (const std::string& family : family_order) {
    const Family& entry = families[family];
    for (const std::string& meta : entry.meta) body += meta + "\n";
    for (const std::string& key : entry.series_order) {
      body += key + " " + util::FormatMetricValue(entry.values.at(key)) + "\n";
    }
  }
  // Router-local series last; htd_router_* names never collide with the
  // summed backend families. The health rows are for the SAME target list
  // the scrape used, so a racing transition cannot misattribute them.
  body += metrics_.RenderPrometheus();
  body += RenderEndpointSeries(targets);

  HttpResponse response;
  // Prometheus text exposition format 0.0.4.
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.status = scraped > 0 || targets.empty() ? 200 : 502;
  response.body = std::move(body);
  return response;
}

HttpResponse ShardRouter::HandleSnapshot(const HttpRequest&) {
  const std::vector<AddressedEndpoint> targets = AddressedEndpoints(*maps());
  std::vector<HttpResponse> responses =
      ForwardAll(targets, "POST", "/v1/admin/snapshot");
  bool all_saved = true;
  std::string shards_json;
  for (size_t i = 0; i < targets.size(); ++i) {
    HttpResponse& endpoint_response = responses[i];
    if (!shards_json.empty()) shards_json += ", ";
    shards_json += "{\"index\": " + std::to_string(targets[i].range);
    shards_json += ", \"replica\": " + std::to_string(targets[i].replica);
    shards_json += ", \"endpoint\": \"" +
                   JsonEscape(targets[i].endpoint.host) + ":" +
                   std::to_string(targets[i].endpoint.port) + "\"";
    shards_json += ", \"status\": " + std::to_string(endpoint_response.status);
    shards_json += ", \"response\": " + Embed(endpoint_response.body) + "}";
    if (endpoint_response.status != 200) all_saved = false;
  }
  HttpResponse response;
  // Partial success is a gateway-level failure: some process's warm state is
  // NOT on disk, and the operator must know before trusting a restart.
  response.status = all_saved ? 200 : 502;
  response.body = std::string("{\"saved\": ") + (all_saved ? "true" : "false") +
                  ", \"shards\": [" + shards_json + "]}\n";
  return response;
}

HttpResponse ShardRouter::HandleTransition(const HttpRequest& request) {
  const bool complete = request.QueryOr("complete", "0") == "1";
  if (complete || request.QueryOr("abort", "0") == "1") {
    auto status = complete ? CompleteTransition() : AbortTransition();
    if (!status.ok()) return ErrorResponse(412, status.message());
    HttpResponse response;
    response.body = "{\"transitioning\": false, \"map_digest\": \"" +
                    maps()->digest_hex + "\", \"" +
                    (complete ? "completed" : "aborted") + "\": true}\n";
    return response;
  }
  auto new_map = ParseShardMapBody(request.body);
  if (!new_map.ok()) return ErrorResponse(400, new_map.status().message());
  auto status = BeginTransition(*new_map);
  if (!status.ok()) {
    return ErrorResponse(
        status.code() == util::StatusCode::kFailedPrecondition ? 409 : 400,
        status.message());
  }
  auto snapshot = maps();
  HttpResponse response;
  response.body = "{\"transitioning\": true, \"map_digest\": \"" +
                  snapshot->digest_hex + "\", \"new_map_digest\": \"" +
                  snapshot->new_digest_hex + "\"}\n";
  return response;
}

}  // namespace htd::net
