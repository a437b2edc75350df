// hdclient: command-line client for hdserver (docs/SERVER.md).
//
//   $ hdclient decompose instance.hg --k 3 --timeout 5 --decomposition
//   $ hdclient decompose instance.hg --k 3 --async      # prints a job id
//   $ hdclient query request.qr --timeout 5             # HTDQUERY1 body
//   $ hdclient job j42                                  # or q42 (query job)
//   $ hdclient metrics                    # /v1/metrics, histograms condensed
//   $ hdclient trace --last 5             # /v1/trace?n=5
//   $ hdclient snapshot
//
// --verbose prints the response's observability headers (X-HTD-Request-Id,
// Server-Timing stage breakdown) to stderr on decompose, and the raw
// Prometheus page (HELP/TYPE lines, every histogram bucket) on metrics.
//
// Sharded fleets (docs/SERVER.md "Sharding the warm state"): with
// --shards host:port,host:port the client hashes the instance's canonical
// fingerprint itself and talks straight to the owning shard — no proxy hop.
// The shared ShardMap's digest rides along on every request, so a client
// holding a stale topology is refused with 421 instead of warming the wrong
// shard. `metrics`, `trace`, `snapshot` and `sync` fan out to every shard.
//
// Speaks HTTP/1.1 over a raw TCP socket (Connection: close per request) —
// no external dependencies. The response body is printed to stdout.
//
// Exit codes: 0 = 2xx, 3 = other HTTP error, 4 = load shed (429/503),
// 2 = usage/transport error, 5 = --expect-cache-hit unmet.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cq/query.h"
#include "hypergraph/parser.h"
#include "net/http_client.h"
#include "qa/wire.h"
#include "service/canonical.h"
#include "service/shard_map.h"
#include "util/cli.h"

namespace {

struct Args {
  std::string host = "127.0.0.1";
  int port = 8080;
  /// Transport timeout (connect + response read). For synchronous decompose
  /// requests the effective read timeout is stretched to cover the job's own
  /// --timeout (the server legitimately takes that long to answer); a job
  /// with no deadline (--timeout 0) waits indefinitely.
  double connect_timeout = 120.0;
  std::string command;
  std::string file;    // decompose: instance path ("-" = stdin)
  std::string job_id;  // job
  int k = 0;
  double timeout = -1.0;  // <0 = server default
  int count = -1;         // query: <0 = server default, 0/1 = override
  bool async = false;
  bool decomposition = false;
  bool expect_cache_hit = false;
  bool quiet = false;
  bool verbose = false;
  long trace_n = 16;  // trace: how many recent root spans to fetch
  /// Client-side sharding: fingerprint the instance locally and pick the
  /// owning endpoint from this map (overrides --host/--port for decompose).
  std::optional<htd::service::ShardMap> shards;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host H] [--port N] [--shards H:P,H:P,...] COMMAND\n"
      "commands:\n"
      "  decompose FILE --k N [--timeout S] [--async] [--decomposition]\n"
      "            [--expect-cache-hit]      FILE '-' reads stdin\n"
      "  query FILE [--timeout S] [--async] [--count 0|1]\n"
      "            [--expect-cache-hit]      FILE: HTDQUERY1 query+database\n"
      "                                      (docs/QUERIES.md); '-' = stdin\n"
      "  job ID                              poll an async job (j* or q*)\n"
      "  metrics                             GET /v1/metrics (condensed;\n"
      "                                      --verbose prints the raw page)\n"
      "  trace [--last N]                    GET /v1/trace?n=N (default 16)\n"
      "  snapshot                            POST /v1/admin/snapshot\n"
      "  sync                                POST /v1/admin/antientropy\n"
      "                                      (force one anti-entropy round)\n"
      "options:\n"
      "  --shards H:P,...      shared shard map: decompose routes to the\n"
      "                        shard owning the instance's fingerprint;\n"
      "                        metrics/trace/snapshot/sync fan out to\n"
      "                        every shard\n"
      "  --quiet               suppress the response body on success\n"
      "  --verbose             print X-HTD-Request-Id and the Server-Timing\n"
      "                        stage breakdown (decompose), or the full\n"
      "                        Prometheus page (metrics)\n"
      "  --connect-timeout S   transport timeout (default 120; sync decompose\n"
      "                        reads wait at least the job timeout + 60)\n",
      argv0);
}

/// Strict numeric flag parse; a false return lands in main's usage+exit-2
/// path (bare atoi silently turned `--port x` into port 0).
bool FlagInt(const char* flag, const char* text, long min_value, long max_value,
             long* out) {
  if (!htd::util::ParseIntFlag(text, min_value, max_value, out)) {
    std::fprintf(stderr,
                 "invalid value for %s: \"%s\" (expected an integer in "
                 "[%ld, %ld])\n",
                 flag, text, min_value, max_value);
    return false;
  }
  return true;
}

bool FlagSeconds(const char* flag, const char* text, double* out) {
  if (!htd::util::ParseDoubleFlag(text, 0.0, out)) {
    std::fprintf(stderr, "invalid value for %s: \"%s\" (expected seconds >= 0)\n",
                 flag, text);
    return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--host") {
      const char* v = next("--host");
      if (v == nullptr) return false;
      args.host = v;
    } else if (flag == "--port") {
      const char* v = next("--port");
      long port;
      if (v == nullptr || !FlagInt("--port", v, 1, 65535, &port)) return false;
      args.port = static_cast<int>(port);
    } else if (flag == "--shards") {
      const char* v = next("--shards");
      if (v == nullptr) return false;
      auto map = htd::service::ShardMap::Parse(v);
      if (!map.ok()) {
        std::fprintf(stderr, "invalid value for --shards: %s\n",
                     map.status().message().c_str());
        return false;
      }
      args.shards = *map;
    } else if (flag == "--k") {
      const char* v = next("--k");
      long k;
      if (v == nullptr || !FlagInt("--k", v, 1, 1'000'000, &k)) return false;
      args.k = static_cast<int>(k);
    } else if (flag == "--timeout") {
      const char* v = next("--timeout");
      if (v == nullptr || !FlagSeconds("--timeout", v, &args.timeout)) {
        return false;
      }
    } else if (flag == "--count") {
      const char* v = next("--count");
      long count;
      if (v == nullptr || !FlagInt("--count", v, 0, 1, &count)) return false;
      args.count = static_cast<int>(count);
    } else if (flag == "--connect-timeout") {
      const char* v = next("--connect-timeout");
      if (v == nullptr ||
          !FlagSeconds("--connect-timeout", v, &args.connect_timeout)) {
        return false;
      }
    } else if (flag == "--async") {
      args.async = true;
    } else if (flag == "--decomposition") {
      args.decomposition = true;
    } else if (flag == "--expect-cache-hit") {
      args.expect_cache_hit = true;
    } else if (flag == "--quiet") {
      args.quiet = true;
    } else if (flag == "--verbose") {
      args.verbose = true;
    } else if (flag == "--last") {
      const char* v = next("--last");
      if (v == nullptr || !FlagInt("--last", v, 1, 256, &args.trace_n)) {
        return false;
      }
    } else if (flag.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    } else if (positional == 0) {
      args.command = flag;
      ++positional;
    } else if (positional == 1 &&
               (args.command == "decompose" || args.command == "query" ||
                args.command == "job")) {
      if (args.command == "job") {
        args.job_id = flag;
      } else {
        args.file = flag;
      }
      ++positional;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", flag.c_str());
      return false;
    }
  }
  if (args.command == "decompose") return !args.file.empty() && args.k >= 1;
  if (args.command == "query") return !args.file.empty();
  if (args.command == "job") return !args.job_id.empty();
  return args.command == "snapshot" || args.command == "metrics" ||
         args.command == "trace" || args.command == "sync";
}

/// One HTTP exchange (Connection: close) over the shared client
/// (net/http_client.h). Returns false on transport errors.
bool Exchange(const Args& args, const std::string& host, int port,
              const std::string& method, const std::string& target,
              const std::string& body,
              const std::vector<std::pair<std::string, std::string>>&
                  extra_headers,
              int* status, std::string* response_body,
              std::map<std::string, std::string>* response_headers = nullptr) {
  double io_timeout = args.connect_timeout;
  if ((args.command == "decompose" || args.command == "query") && !args.async) {
    // A synchronous solve may legitimately run for the job's full deadline;
    // the transport must outlast it. --timeout 0 = no deadline: wait forever.
    io_timeout = args.timeout == 0.0
                     ? 0.0
                     : std::max(io_timeout, args.timeout + 60.0);
  }
  htd::net::FetchOptions options;
  options.connect_timeout_seconds = io_timeout;
  options.read_timeout_seconds = io_timeout;
  htd::net::FetchResult result = htd::net::HttpFetch(
      host, port, method, target, body, extra_headers, options);
  if (!result.ok()) {
    std::fprintf(stderr, "hdclient: %s\n", result.error.c_str());
    return false;
  }
  *status = result.status;
  *response_body = std::move(result.body);
  if (response_headers != nullptr) {
    *response_headers = std::move(result.headers);  // keys lower-cased
  }
  return true;
}

/// Condensed /v1/metrics rendering: drops HELP/TYPE comments and per-bucket
/// histogram lines, keeping the _count/_sum rollups and every counter and
/// gauge — the 30-second "is the fleet healthy" read. --verbose prints the
/// raw page instead.
std::string PrettyMetrics(const std::string& text) {
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    if (line.find("_bucket{") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", seconds);
  return buf;
}

int ExitCodeFor(int status) {
  if (status >= 200 && status < 300) return 0;
  return status == 429 || status == 503 ? 4 : 3;
}

/// metrics/trace/snapshot/sync against a shard map: one exchange per
/// PROCESS (every replica of every range), each body printed under its
/// endpoint. Fails with the worst per-endpoint exit code.
int FanOut(const Args& args, const std::string& method,
           const std::string& target) {
  const htd::service::ShardMap& map = *args.shards;
  const std::vector<std::pair<std::string, std::string>> digest_header = {
      {"X-HTD-Shard-Digest", map.DigestHex()}};
  int worst = 0;
  for (int i = 0; i < map.num_shards(); ++i) {
    for (int r = 0; r < map.num_replicas(i); ++r) {
      const htd::service::ShardEndpoint& endpoint = map.replica(i, r);
      int status = 0;
      std::string response;
      if (!Exchange(args, endpoint.host, endpoint.port, method, target, "",
                    digest_header, &status, &response)) {
        worst = std::max(worst, 2);
        continue;
      }
      if (args.command == "metrics" && !args.verbose && status == 200) {
        response = PrettyMetrics(response);
      }
      if (!args.quiet || status < 200 || status >= 300) {
        std::printf("shard %d replica %d (%s:%d): HTTP %d\n%s", i, r,
                    endpoint.host.c_str(), endpoint.port, status,
                    response.c_str());
      }
      worst = std::max(worst, ExitCodeFor(status));
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    Usage(argv[0]);
    return 2;
  }

  std::string method = "GET", target, body;
  if (args.command == "decompose" || args.command == "query") {
    std::string text;
    if (args.file == "-") {
      std::ostringstream buffer;
      buffer << std::cin.rdbuf();
      text = buffer.str();
    } else {
      std::ifstream in(args.file, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "hdclient: cannot open %s\n", args.file.c_str());
        return 2;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
    }
    method = "POST";
    if (args.command == "decompose") {
      target = "/v1/decompose?k=" + std::to_string(args.k);
      if (args.timeout >= 0) target += "&timeout=" + FormatSeconds(args.timeout);
      if (args.async) target += "&async=1";
      if (args.decomposition) target += "&decomposition=1";
    } else {
      target = "/v1/query";
      std::string sep = "?";
      if (args.timeout >= 0) {
        target += sep + "timeout=" + FormatSeconds(args.timeout);
        sep = "&";
      }
      if (args.async) {
        target += sep + "async=1";
        sep = "&";
      }
      if (args.count >= 0) {
        target += sep + "count=" + std::to_string(args.count);
        sep = "&";
      }
    }
    body = std::move(text);
  } else if (args.command == "job") {
    target = "/v1/jobs/" + args.job_id;
  } else if (args.command == "metrics") {
    target = "/v1/metrics";
  } else if (args.command == "trace") {
    target = "/v1/trace?n=" + std::to_string(args.trace_n);
  } else if (args.command == "sync") {
    method = "POST";
    target = "/v1/admin/antientropy";
  } else {  // snapshot
    method = "POST";
    target = "/v1/admin/snapshot";
  }

  std::string host = args.host;
  int port = args.port;
  std::vector<std::pair<std::string, std::string>> extra_headers;
  /// Sibling replicas of the chosen shard, tried in order on transport
  /// failure (client-side analogue of the router's replica failover).
  std::vector<std::pair<std::string, int>> replica_fallbacks;
  if (args.shards.has_value()) {
    if (args.command == "snapshot" || args.command == "metrics" ||
        args.command == "trace" || args.command == "sync") {
      return FanOut(args, method, target);
    }
    if (args.command == "job") {
      std::fprintf(stderr,
                   "hdclient: `job` with --shards is ambiguous; poll the "
                   "shard that admitted the job via --host/--port\n");
      return 2;
    }
    // Client-side hashing: the canonical fingerprint decides the shard, so
    // every renaming of this instance lands on the same warm state. A query
    // hashes the fingerprint of its hypergraph — the same key the backend
    // decomposes under.
    htd::service::Fingerprint fp;
    if (args.command == "query") {
      auto parsed = htd::qa::ParseQueryRequest(body);
      if (!parsed.ok()) {
        std::fprintf(stderr, "hdclient: cannot parse %s: %s\n",
                     args.file.c_str(), parsed.status().message().c_str());
        return 2;
      }
      fp = htd::service::CanonicalFingerprint(
          htd::cq::QueryHypergraph(parsed->query));
    } else {
      auto parsed = htd::ParseAuto(body);
      if (!parsed.ok()) {
        std::fprintf(stderr, "hdclient: cannot parse %s: %s\n",
                     args.file.c_str(), parsed.status().message().c_str());
        return 2;
      }
      fp = htd::service::CanonicalFingerprint(*parsed);
    }
    const int shard = args.shards->IndexFor(fp);
    // A replicated range (host:port*R in the map) spreads clients over its
    // replicas by the fingerprint's low word — stateless, deterministic per
    // instance — and the remaining replicas are kept as transport-failure
    // fallbacks below, so one dead replica does not fail the request.
    const int replicas = args.shards->num_replicas(shard);
    const int first = static_cast<int>(fp.lo % static_cast<uint64_t>(replicas));
    const htd::service::ShardEndpoint& endpoint =
        args.shards->replica(shard, first);
    host = endpoint.host;
    port = endpoint.port;
    for (int attempt = 1; attempt < replicas; ++attempt) {
      const htd::service::ShardEndpoint& fallback =
          args.shards->replica(shard, (first + attempt) % replicas);
      replica_fallbacks.emplace_back(fallback.host, fallback.port);
    }
    extra_headers = {{"X-HTD-Shard-Digest", args.shards->DigestHex()},
                     {"X-HTD-Shard-Fingerprint", fp.ToHex()}};
    if (!args.quiet) {
      std::fprintf(stderr, "hdclient: %s -> shard %d (%s:%d)\n",
                   fp.ToHex().c_str(), shard, host.c_str(), port);
    }
  }

  int status = 0;
  std::string response;
  std::map<std::string, std::string> response_headers;
  while (!Exchange(args, host, port, method, target, body, extra_headers,
                   &status, &response, &response_headers)) {
    if (replica_fallbacks.empty()) return 2;
    std::tie(host, port) = replica_fallbacks.front();
    replica_fallbacks.erase(replica_fallbacks.begin());
    std::fprintf(stderr, "hdclient: failing over to replica %s:%d\n",
                 host.c_str(), port);
  }
  if (args.verbose &&
      (args.command == "decompose" || args.command == "query")) {
    auto request_id = response_headers.find("x-htd-request-id");
    if (request_id != response_headers.end()) {
      std::fprintf(stderr, "hdclient: request id %s\n",
                   request_id->second.c_str());
    }
    auto server_timing = response_headers.find("server-timing");
    if (server_timing != response_headers.end()) {
      std::fprintf(stderr, "hdclient: server timing %s\n",
                   server_timing->second.c_str());
    }
  }

  if (status >= 200 && status < 300) {
    if (args.command == "metrics" && !args.verbose) {
      response = PrettyMetrics(response);
    }
    if (!args.quiet) std::fputs(response.c_str(), stdout);
    if (args.expect_cache_hit &&
        response.find("\"cache_hit\": true") == std::string::npos) {
      std::fprintf(stderr, "hdclient: expected a cache hit, got: %s",
                   response.c_str());
      return 5;
    }
    return 0;
  }
  std::fprintf(stderr, "hdclient: HTTP %d: %s", status, response.c_str());
  return ExitCodeFor(status);
}
