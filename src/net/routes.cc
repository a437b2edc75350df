#include "net/routes.h"

#include <cstdio>

#include "cq/query.h"
#include "hypergraph/parser.h"
#include "net/json.h"
#include "util/cli.h"
#include "util/timer.h"
#include "util/trace.h"

namespace htd::net {

namespace {

std::string LabelSeries(const char* label) {
  return std::string("route=\"") + label + "\"";
}

/// Nanoseconds rendered as fractional milliseconds.
std::string MsJson(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return std::string(buf);
}

std::string SpanJson(const util::TraceSpan& span) {
  std::string json = "{\"id\": \"" + util::TraceIdHex(span.id) + "\"";
  json += ", \"parent\": \"" + util::TraceIdHex(span.parent) + "\"";
  json += ", \"name\": \"" + JsonEscape(span.Name()) + "\"";
  json += ", \"start_ms\": " + MsJson(span.start_ns);
  json += ", \"duration_ms\": " + MsJson(span.duration_ns);
  json += ", \"tag\": " + std::to_string(span.tag);
  json += "}";
  return json;
}

/// The GET /v1/trace body (trailing newline included).
std::string RecentTracesJson(size_t n) {
  util::TraceRegistry& registry = util::TraceRegistry::Instance();
  auto roots = registry.RecentRoots(n);
  std::string body = std::string("{\"enabled\": ") +
                     (registry.enabled() ? "true" : "false") + ", \"traces\": [";
  bool first_root = true;
  for (const util::TraceRegistry::RootTrace& trace : roots) {
    if (!first_root) body += ", ";
    first_root = false;
    body += "{\"id\": \"" + util::TraceIdHex(trace.root.id) + "\"";
    body += ", \"name\": \"" + JsonEscape(trace.root.Name()) + "\"";
    body += ", \"start_ms\": " + MsJson(trace.root.start_ns);
    body += ", \"duration_ms\": " + MsJson(trace.root.duration_ns);
    body += ", \"tag\": " + std::to_string(trace.root.tag);
    body += ", \"spans\": [";
    bool first_span = true;
    for (const util::TraceSpan& span : trace.spans) {
      if (!first_span) body += ", ";
      first_span = false;
      body += SpanJson(span);
    }
    body += "]}";
  }
  body += "]}\n";
  return body;
}

bool Matches(const Route& route, const std::string& path) {
  return route.path.back() == '/' ? path.rfind(route.path, 0) == 0
                                  : path == route.path;
}

}  // namespace

RouteTable::RouteTable(std::vector<Route> routes,
                       util::MetricsRegistry& metrics,
                       const std::string& histogram)
    : routes_(std::move(routes)) {
  for (const Route& route : routes_) {
    latency_.push_back(
        &metrics.GetHistogram(histogram, LabelSeries(route.label)));
  }
  other_ = &metrics.GetHistogram(histogram, LabelSeries("other"));
}

HttpResponse RouteTable::Handle(const HttpRequest& request) const {
  util::WallTimer timer;
  for (size_t i = 0; i < routes_.size(); ++i) {
    const Route& route = routes_[i];
    if (!Matches(route, request.path)) continue;
    HttpResponse response =
        route.method == nullptr || request.method == route.method
            ? route.handler(request)
            : ErrorResponse(405, std::string("use ") + route.method +
                                     " for " + route.path);
    latency_[i]->Observe(timer.ElapsedSeconds());
    return response;
  }
  HttpResponse response = ErrorResponse(404, "unknown route: " + request.path);
  other_->Observe(timer.ElapsedSeconds());
  return response;
}

util::StatusOr<Hypergraph> DecomposeBody::Parse(const std::string& text) {
  auto parsed = ParseAuto(text);
  if (!parsed.ok()) {
    return util::Status::InvalidArgument("cannot parse hypergraph: " +
                                         parsed.status().message());
  }
  return parsed;
}

service::Fingerprint DecomposeBody::Fingerprint(const Hypergraph& graph) {
  return service::CanonicalFingerprint(graph);
}

util::StatusOr<qa::QueryRequest> QueryBody::Parse(const std::string& text) {
  auto parsed = qa::ParseQueryRequest(text);
  if (!parsed.ok()) {
    return util::Status::InvalidArgument("cannot parse query request: " +
                                         parsed.status().message());
  }
  return parsed;
}

service::Fingerprint QueryBody::Fingerprint(const qa::QueryRequest& request) {
  return service::CanonicalFingerprint(cq::QueryHypergraph(request.query));
}

HttpResponse HandleTrace(const HttpRequest& request) {
  long n;
  if (!util::ParseIntFlag(request.QueryOr("n", "16"), 1, 256, &n)) {
    return ErrorResponse(
        400, "query parameter n must be an integer in [1, 256]");
  }
  HttpResponse response;
  response.body = RecentTracesJson(static_cast<size_t>(n));
  return response;
}

util::StatusOr<service::ShardMap> ParseShardMapBody(const std::string& body) {
  if (body.empty()) {
    return util::Status::InvalidArgument(
        "empty body: expected the new shard map spec "
        "(host:port,host:port*2,...)");
  }
  std::string spec = body;
  while (!spec.empty() && (spec.back() == '\n' || spec.back() == '\r')) {
    spec.pop_back();
  }
  auto map = service::ShardMap::Parse(spec);
  if (!map.ok()) {
    return util::Status::InvalidArgument("cannot parse new shard map: " +
                                         map.status().message());
  }
  return map;
}

}  // namespace htd::net
