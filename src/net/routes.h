// What the two HTTP front-ends (net/decomposition_server.cc and
// net/shard_router.cc) share about their routes: one route table type, the
// two hypergraph-bearing request bodies, and GET /v1/trace.
//
// A RouteTable lists each route once — method, path, latency label and
// handler. 404 (no route), 405 (wrong method) and the closed label set of
// the per-route latency histogram all come from it, so a path a client
// invents lands under route="other" and cannot mint label values.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "net/http.h"
#include "qa/wire.h"
#include "service/canonical.h"
#include "service/shard_map.h"
#include "util/metrics.h"
#include "util/status.h"

namespace htd::net {

struct Route {
  /// The method the route serves; null serves every method.
  const char* method;
  /// The exact path, or a path prefix when it ends in '/' ("/v1/jobs/").
  std::string path;
  /// The route label of the latency histogram.
  const char* label;
  std::function<HttpResponse(const HttpRequest&)> handler;
};

class RouteTable {
 public:
  /// Registers one `histogram{route="<label>"}` series per label on
  /// `metrics`, plus route="other" for requests no route matches.
  RouteTable(std::vector<Route> routes, util::MetricsRegistry& metrics,
             const std::string& histogram);

  /// Runs the matching route's handler — 404 when no route matches the
  /// path, 405 when one does but not the method — and observes the latency
  /// under the route's label.
  HttpResponse Handle(const HttpRequest& request) const;

 private:
  std::vector<Route> routes_;
  std::vector<util::Histogram*> latency_;  ///< index-aligned with routes_
  util::Histogram* other_ = nullptr;
};

/// The body of POST /v1/decompose: a hypergraph in HyperBench or PACE text.
struct DecomposeBody {
  using Parsed = Hypergraph;
  /// The 400 message for an empty body.
  static constexpr const char* kEmpty =
      "empty body: expected a hypergraph in HyperBench or PACE format";
  /// Parses a non-empty body; the error carries the whole 400 message.
  static util::StatusOr<Hypergraph> Parse(const std::string& text);
  /// The canonical fingerprint that decides which shard owns the body.
  static service::Fingerprint Fingerprint(const Hypergraph& graph);
};

/// The body of POST /v1/query: an HTDQUERY1 query request (qa/wire.h). It
/// is owned by the shard that owns the QUERY'S HYPERGRAPH, the key its
/// decomposition probes are cached under, so repeated queries warm the
/// shard that will be asked for them again.
struct QueryBody {
  using Parsed = qa::QueryRequest;
  static constexpr const char* kEmpty =
      "empty body: expected an HTDQUERY1 query request (docs/QUERIES.md)";
  static util::StatusOr<qa::QueryRequest> Parse(const std::string& text);
  static service::Fingerprint Fingerprint(const qa::QueryRequest& request);
};

/// GET /v1/trace?n=K: the process's K most recent completed ROOT spans,
/// newest first, children attached sorted by start time:
///
///   {"enabled": true, "traces": [
///     {"id": "<16 hex>", "name": "request", "start_ms": ..,
///      "duration_ms": .., "tag": .., "spans": [
///        {"id": .., "parent": .., "name": "solve", "start_ms": ..,
///         "duration_ms": .., "tag": ..}, ...]}, ...]}
///
/// Ids use the X-HTD-Request-Id encoding, so an operator can grep a
/// response header straight into this output.
HttpResponse HandleTrace(const HttpRequest& request);

/// The new shard map a POST body carries (/v1/admin/migrate on a backend,
/// /v1/admin/transition on a router); the error carries the whole 400
/// message.
util::StatusOr<service::ShardMap> ParseShardMapBody(const std::string& body);

}  // namespace htd::net
