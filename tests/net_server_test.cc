// net/decomposition_server.h end to end: real sockets on an ephemeral port,
// route behaviour, admission-control load shedding, async jobs, and
// snapshot-based warm restart (including corrupt-snapshot cold start).
#include "net/decomposition_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hypergraph/generators.h"
#include "hypergraph/writer.h"
#include "cq/query.h"
#include "net/http.h"
#include "qa/wire.h"
#include "service/canonical.h"
#include "util/socket.h"

namespace htd::net {
namespace {

using namespace std::chrono_literals;

struct WireResponse {
  int status = 0;
  std::map<std::string, std::string> headers;
  std::string body;
};

/// Minimal HTTP client: one Connection: close exchange against localhost.
/// `extra_headers` are raw header lines including their trailing CRLF.
WireResponse Exchange(int port, const std::string& method,
                      const std::string& target, const std::string& body = "",
                      const std::string& extra_headers = "") {
  WireResponse out;
  auto sock = util::ConnectTcp("127.0.0.1", port, /*timeout_seconds=*/120.0);
  EXPECT_TRUE(sock.ok()) << sock.status().message();
  if (!sock.ok()) return out;
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += extra_headers;
  request += "Connection: close\r\n\r\n" + body;
  EXPECT_TRUE(util::SendAll(sock->fd(), request));
  std::string blob;
  char buffer[8192];
  while (true) {
    long n = util::RecvSome(sock->fd(), buffer, sizeof(buffer));
    if (n <= 0) break;
    blob.append(buffer, static_cast<size_t>(n));
  }
  EXPECT_TRUE(ParseHttpResponseBlob(blob, &out.status, &out.headers, &out.body))
      << "unparseable response: " << blob;
  return out;
}

DecompositionServerOptions BaseOptions() {
  DecompositionServerOptions options;
  options.http.port = 0;  // ephemeral
  options.http.io_threads = 4;
  options.service.default_timeout_seconds = 30.0;
  return options;
}

std::string PathInstance() { return WriteHyperBench(MakePath(5)); }

/// An in-process request for DecompositionServer::Handle (no socket).
HttpRequest Request(const std::string& method, const std::string& target,
                    std::string body = "",
                    std::map<std::string, std::string> headers = {}) {
  HttpRequest request;
  request.method = method;
  request.target = target;
  size_t q = target.find('?');
  request.path = target.substr(0, q);
  if (q != std::string::npos) {
    std::string query = target.substr(q + 1);
    while (!query.empty()) {
      size_t amp = query.find('&');
      std::string pair = query.substr(0, amp);
      size_t eq = pair.find('=');
      request.query[pair.substr(0, eq)] =
          eq == std::string::npos ? "" : pair.substr(eq + 1);
      query = amp == std::string::npos ? "" : query.substr(amp + 1);
    }
  }
  request.version = "HTTP/1.1";
  request.headers = std::move(headers);
  request.body = std::move(body);
  return request;
}

/// Value of a response header as the handler set it; empty when absent.
std::string HeaderOf(const HttpResponse& response, const std::string& name) {
  for (const auto& [key, value] : response.headers) {
    if (key == name) return value;
  }
  return "";
}

/// The job id in a 202 body ({"job": "<id>", ...}).
std::string JobIdOf(const std::string& body) {
  size_t start = body.find("\"job\": \"");
  if (start == std::string::npos) return "";
  start += 8;
  return body.substr(start, body.find('"', start) - start);
}

/// Stage names of a Server-Timing value, in order ("parse;dur=1, ...").
std::vector<std::string> TimingStages(const std::string& timing) {
  std::vector<std::string> stages;
  size_t pos = 0;
  while (pos < timing.size()) {
    size_t end = timing.find(", ", pos);
    if (end == std::string::npos) end = timing.size();
    std::string entry = timing.substr(pos, end - pos);
    stages.push_back(entry.substr(0, entry.find(';')));
    pos = end + 2;
  }
  return stages;
}

TEST(NetServerTest, DecomposeSyncAndCacheHit) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok()) << server.status().message();
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  WireResponse first =
      Exchange(port, "POST", "/v1/decompose?k=2&decomposition=1", PathInstance());
  EXPECT_EQ(first.status, 200);
  EXPECT_NE(first.body.find("\"outcome\": \"yes\""), std::string::npos) << first.body;
  EXPECT_NE(first.body.find("\"cache_hit\": false"), std::string::npos);
  EXPECT_NE(first.body.find("\"decomposition\""), std::string::npos);

  // The same instance under renamed vertices still hits (canonical keys).
  WireResponse second =
      Exchange(port, "POST", "/v1/decompose?k=2", PathInstance());
  EXPECT_EQ(second.status, 200);
  EXPECT_NE(second.body.find("\"cache_hit\": true"), std::string::npos) << second.body;

  WireResponse metrics = Exchange(port, "GET", "/v1/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("\nhtd_scheduler_cache_hits_total 1\n"),
            std::string::npos)
      << metrics.body;
  (*server)->Stop();
}

TEST(NetServerTest, ValidationAndRouting) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  EXPECT_EQ(Exchange(port, "POST", "/v1/decompose", PathInstance()).status, 400)
      << "missing k";
  EXPECT_EQ(Exchange(port, "POST", "/v1/decompose?k=abc", PathInstance()).status,
            400);
  EXPECT_EQ(Exchange(port, "POST", "/v1/decompose?k=2", "").status, 400)
      << "empty body";
  EXPECT_EQ(Exchange(port, "POST", "/v1/decompose?k=2", "((((").status, 400)
      << "unparseable hypergraph";
  EXPECT_EQ(Exchange(port, "GET", "/v1/decompose?k=2").status, 405);
  EXPECT_EQ(Exchange(port, "GET", "/nope").status, 404);
  EXPECT_EQ(Exchange(port, "GET", "/v1/jobs/j999").status, 404);
  EXPECT_EQ(Exchange(port, "GET", "/healthz").status, 200);

  WireResponse metrics = Exchange(port, "GET", "/v1/metrics");
  EXPECT_NE(metrics.body.find(
                "htd_admission_requests_total{result=\"bad_request\"} 4\n"),
            std::string::npos)
      << metrics.body;
  (*server)->Stop();
}

TEST(NetServerTest, AsyncJobLifecycle) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  WireResponse admitted =
      Exchange(port, "POST", "/v1/decompose?k=2&async=1", PathInstance());
  EXPECT_EQ(admitted.status, 202);
  size_t id_pos = admitted.body.find("\"job\": \"");
  ASSERT_NE(id_pos, std::string::npos) << admitted.body;
  size_t id_start = id_pos + 8;
  std::string id = admitted.body.substr(
      id_start, admitted.body.find('"', id_start) - id_start);

  // Poll until resolved (a path at k=2 solves in microseconds).
  WireResponse job;
  for (int i = 0; i < 200; ++i) {
    job = Exchange(port, "GET", "/v1/jobs/" + id);
    ASSERT_EQ(job.status, 200);
    if (job.body.find("\"state\": \"done\"") != std::string::npos) break;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_NE(job.body.find("\"state\": \"done\""), std::string::npos) << job.body;
  EXPECT_NE(job.body.find("\"outcome\": \"yes\""), std::string::npos) << job.body;
  (*server)->Stop();
}

TEST(NetServerTest, AdmissionControlShedsWith429) {
  DecompositionServerOptions options = BaseOptions();
  options.max_queue_depth = 2;
  options.retry_after_seconds = 3;
  auto server = DecompositionServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  // A clique this size at k=4 runs far longer than the test (it is shed or
  // cancelled long before finishing), so each admitted job stays
  // outstanding while the flood arrives.
  std::string slow = WriteHyperBench(MakeClique(24));
  int accepted = 0, shed = 0;
  for (int i = 0; i < 6; ++i) {
    WireResponse r = Exchange(
        port, "POST", "/v1/decompose?k=4&async=1&timeout=30", slow);
    if (r.status == 202) {
      ++accepted;
    } else {
      ASSERT_EQ(r.status, 429) << r.body;
      EXPECT_EQ(r.headers.at("retry-after"), "3");
      ++shed;
    }
  }
  EXPECT_EQ(accepted, 2) << "bounded queue must stop admitting at the bound";
  EXPECT_EQ(shed, 4);

  WireResponse metrics = Exchange(port, "GET", "/v1/metrics");
  EXPECT_NE(metrics.body.find("htd_admission_requests_total{result=\"shed\"} 4\n"),
            std::string::npos)
      << metrics.body;

  // Stop() cancels the pinned solves; it must return promptly rather than
  // wait out the 30 s deadlines.
  (*server)->Stop();
}

TEST(NetServerTest, SyncFloodShedsAtTheConnectionBound) {
  DecompositionServerOptions options = BaseOptions();
  options.http.io_threads = 2;
  options.http.max_connections = 2;  // both slots will be pinned
  auto server = DecompositionServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  // Two synchronous requests pin both connection slots (their handlers
  // block on the same long solve) — no async, so the
  // application-level queue bound alone could never shed this shape. The
  // pinning connections are opened HERE, sequentially, before any stats
  // probe: the kernel's accept queue is FIFO, so they own the two slots
  // before a probe can steal one (probe threads racing the pins for slots
  // made the original formulation flaky).
  std::string slow = WriteHyperBench(MakeClique(24));
  std::string pin_request =
      "POST /v1/decompose?k=4&timeout=30 HTTP/1.1\r\n"
      "Content-Length: " + std::to_string(slow.size()) +
      "\r\nConnection: close\r\n\r\n" + slow;
  auto pin1 = util::ConnectTcp("127.0.0.1", port, /*timeout_seconds=*/120.0);
  ASSERT_TRUE(pin1.ok()) << pin1.status().message();
  ASSERT_TRUE(util::SendAll(pin1->fd(), pin_request));
  auto pin2 = util::ConnectTcp("127.0.0.1", port, /*timeout_seconds=*/120.0);
  ASSERT_TRUE(pin2.ok()) << pin2.status().message();
  ASSERT_TRUE(util::SendAll(pin2->fd(), pin_request));

  // Once the acceptor has admitted both, the next connection must be shed
  // with 503 at the transport instead of queueing in the handler pool.
  WireResponse shed;
  for (int i = 0; i < 200; ++i) {
    shed = Exchange(port, "GET", "/v1/metrics");
    if (shed.status == 503) break;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(shed.status, 503) << shed.body;
  EXPECT_EQ(shed.headers.at("retry-after"), "1");

  // The acceptor counts a connection live before its handler task has run;
  // stopping now could 503 the pins before they are admitted. Wait until
  // both have reached the scheduler.
  for (int i = 0; i < 500 && (*server)->admission_stats().admitted < 2; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ((*server)->admission_stats().admitted, 2u);

  // Stop() cancels the pinned solves but flushes their in-flight responses
  // (read-side-only shutdown): both pinned connections still read an
  // orderly 200 (outcome: cancelled).
  (*server)->Stop();
  for (util::Socket* pin : {&*pin1, &*pin2}) {
    std::string blob;
    char buffer[8192];
    while (true) {
      long n = util::RecvSome(pin->fd(), buffer, sizeof(buffer));
      if (n <= 0) break;
      blob.append(buffer, static_cast<size_t>(n));
    }
    WireResponse response;
    ASSERT_TRUE(ParseHttpResponseBlob(blob, &response.status, &response.headers,
                                      &response.body))
        << "pinned connection must still get its response: " << blob;
    EXPECT_EQ(response.status, 200);
  }
}

TEST(NetServerTest, AsyncQueryJobsCountAgainstTheAdmissionBound) {
  // Regression: async /v1/query jobs used to run on detached std::async
  // threads invisible to outstanding_jobs(), so a query flood sailed past
  // the 429 bound without limit. They now run on the executor's background
  // lane and are counted, so the same bound covers both job kinds.
  DecompositionServerOptions options = BaseOptions();
  options.max_queue_depth = 2;
  options.retry_after_seconds = 3;
  auto server = DecompositionServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  // A conjunctive query whose hypergraph is a big clique: the k-sweep's
  // probes run far longer than the test, so every admitted query job stays
  // outstanding while the flood arrives.
  std::string atoms;
  for (int i = 0; i < 24; ++i) {
    for (int j = i + 1; j < 24; ++j) {
      if (!atoms.empty()) atoms += ", ";
      atoms += "R(X" + std::to_string(i) + ",X" + std::to_string(j) + ")";
    }
  }
  auto query = cq::ParseQuery(atoms + ".");
  ASSERT_TRUE(query.ok()) << query.status().message();
  cq::Database db;
  db.AddRelation({"R", 2, {{1, 2}, {2, 3}}});
  auto body = qa::RenderQueryRequest(*query, db);
  ASSERT_TRUE(body.ok()) << body.status().message();

  int accepted = 0, shed = 0;
  for (int i = 0; i < 8; ++i) {
    WireResponse r =
        Exchange(port, "POST", "/v1/query?async=1&timeout=30", *body);
    if (r.status == 202) {
      ++accepted;
    } else {
      ASSERT_EQ(r.status, 429) << r.body;
      EXPECT_EQ(r.headers.at("retry-after"), "3");
      ++shed;
    }
  }
  // A query job's own probe flight may briefly double-count against the
  // bound, so the exact split can vary by one — but the bound must engage.
  EXPECT_GE(accepted, 1);
  EXPECT_LE(accepted, 2) << "the bound must stop admitting query jobs";
  EXPECT_GE(shed, 6);

  WireResponse metrics = Exchange(port, "GET", "/v1/metrics");
  EXPECT_NE(metrics.body.find("htd_admission_requests_total{result=\"shed\"} " +
                              std::to_string(shed) + "\n"),
            std::string::npos)
      << metrics.body;

  // Stop() must cancel the pinned probes AND wait out the query tasks —
  // returning while one still runs would be a use-after-free.
  (*server)->Stop();
}

TEST(NetServerTest, SnapshotWarmRestartServesCacheHits) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "htd_net_server_warm.snap").string();
  std::filesystem::remove(path);

  DecompositionServerOptions options = BaseOptions();
  options.snapshot_path = path;
  options.service.enable_subproblem_store = true;

  {
    auto server = DecompositionServer::Create(options);
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE((*server)->Start().ok());
    int port = (*server)->port();
    EXPECT_EQ(Exchange(port, "POST", "/v1/decompose?k=2",
                       WriteHyperBench(MakeCycle(6))).status, 200);
    EXPECT_EQ(Exchange(port, "POST", "/v1/decompose?k=2", PathInstance()).status,
              200);
    WireResponse snap = Exchange(port, "POST", "/v1/admin/snapshot");
    EXPECT_EQ(snap.status, 200) << snap.body;
    EXPECT_NE(snap.body.find("\"saved\": true"), std::string::npos);
    (*server)->Stop();
  }

  {
    auto server = DecompositionServer::Create(options);
    ASSERT_TRUE(server.ok());
    EXPECT_EQ((*server)->restored().cache_entries, 2u);
    ASSERT_TRUE((*server)->Start().ok());
    int port = (*server)->port();
    WireResponse replay =
        Exchange(port, "POST", "/v1/decompose?k=2", WriteHyperBench(MakeCycle(6)));
    EXPECT_EQ(replay.status, 200);
    EXPECT_NE(replay.body.find("\"cache_hit\": true"), std::string::npos)
        << "warm restart must serve previously-solved instances from cache: "
        << replay.body;
    WireResponse metrics = Exchange(port, "GET", "/v1/metrics");
    EXPECT_NE(metrics.body.find("htd_restored_entries{kind=\"cache\"} 2\n"),
              std::string::npos)
        << metrics.body;
    (*server)->Stop();
  }
  std::filesystem::remove(path);
}

TEST(NetServerTest, CorruptSnapshotStartsCold) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "htd_net_server_corrupt.snap")
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "HTDSNAP1 but then garbage follows";
  }
  DecompositionServerOptions options = BaseOptions();
  options.snapshot_path = path;
  auto server = DecompositionServer::Create(options);
  ASSERT_TRUE(server.ok()) << "corrupt snapshot must not abort startup";
  EXPECT_EQ((*server)->restored().cache_entries, 0u);
  EXPECT_EQ((*server)->restored().store_entries, 0u);
  ASSERT_TRUE((*server)->Start().ok());
  EXPECT_EQ(Exchange((*server)->port(), "POST", "/v1/decompose?k=2",
                     PathInstance()).status, 200);
  (*server)->Stop();
  std::filesystem::remove(path);
}

bool IsHex16(const std::string& text) {
  if (text.size() != 16) return false;
  for (char c : text) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

TEST(NetServerTest, SyncDecomposeCarriesObservabilityHeaders) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  WireResponse r =
      Exchange(port, "POST", "/v1/decompose?k=2", PathInstance());
  ASSERT_EQ(r.status, 200);
  ASSERT_TRUE(r.headers.count("x-htd-request-id")) << r.body;
  EXPECT_TRUE(IsHex16(r.headers.at("x-htd-request-id")))
      << r.headers.at("x-htd-request-id");
  ASSERT_TRUE(r.headers.count("server-timing"));
  const std::string& timing = r.headers.at("server-timing");
  for (const char* stage :
       {"parse", "fingerprint", "cache", "schedule", "solve", "serialise"}) {
    EXPECT_NE(timing.find(std::string(stage) + ";dur="), std::string::npos)
        << "missing stage " << stage << " in: " << timing;
  }
  (*server)->Stop();
}

TEST(NetServerTest, AdoptedRequestIdIsEchoedAndTraceable) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  const std::string id = "00deadbeef00f00d";
  WireResponse r = Exchange(port, "POST", "/v1/decompose?k=2", PathInstance(),
                            "X-HTD-Request-Id: " + id + "\r\n");
  ASSERT_EQ(r.status, 200);
  ASSERT_TRUE(r.headers.count("x-htd-request-id"));
  EXPECT_EQ(r.headers.at("x-htd-request-id"), id)
      << "a valid propagated request id must be adopted, not re-minted";

  WireResponse trace = Exchange(port, "GET", "/v1/trace?n=32");
  ASSERT_EQ(trace.status, 200);
  EXPECT_NE(trace.body.find("\"id\": \"" + id + "\""), std::string::npos)
      << "adopted id must be retrievable as a root span: " << trace.body;
  EXPECT_NE(trace.body.find("\"name\": \"request\""), std::string::npos);
  EXPECT_NE(trace.body.find("\"name\": \"solve\""), std::string::npos)
      << "stage spans must be attached to the root: " << trace.body;
  (*server)->Stop();
}

TEST(NetServerTest, MalformedRequestIdIsReplacedNotAdopted) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  WireResponse r = Exchange(port, "POST", "/v1/decompose?k=2", PathInstance(),
                            "X-HTD-Request-Id: not-a-trace-id\r\n");
  ASSERT_EQ(r.status, 200);
  ASSERT_TRUE(r.headers.count("x-htd-request-id"));
  EXPECT_NE(r.headers.at("x-htd-request-id"), "not-a-trace-id");
  EXPECT_TRUE(IsHex16(r.headers.at("x-htd-request-id")));
  (*server)->Stop();
}

TEST(NetServerTest, MetricsEndpointRendersPrometheusText) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  ASSERT_EQ(
      Exchange(port, "POST", "/v1/decompose?k=2", PathInstance()).status, 200);

  WireResponse metrics = Exchange(port, "GET", "/v1/metrics");
  ASSERT_EQ(metrics.status, 200);
  ASSERT_TRUE(metrics.headers.count("content-type"));
  EXPECT_NE(metrics.headers.at("content-type").find("version=0.0.4"),
            std::string::npos);
  // Stage histograms are populated after one sync decompose.
  for (const char* stage :
       {"parse", "fingerprint", "cache", "schedule", "solve", "serialise"}) {
    std::string count_line =
        "htd_stage_seconds_count{stage=\"" + std::string(stage) + "\"}";
    size_t pos = metrics.body.find(count_line);
    ASSERT_NE(pos, std::string::npos) << "missing " << count_line;
    EXPECT_EQ(metrics.body.find(count_line + " 0\n"), std::string::npos)
        << "stage " << stage << " must have observations";
  }
  EXPECT_NE(metrics.body.find("# TYPE htd_stage_seconds histogram"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("htd_request_seconds_bucket{route=\"decompose\""),
            std::string::npos);
  EXPECT_NE(metrics.body.find("htd_admission_requests_total{result=\"admitted\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("htd_scheduler_submitted_total"),
            std::string::npos);
  EXPECT_EQ(Exchange(port, "POST", "/v1/metrics").status, 405);
  (*server)->Stop();
}

TEST(NetServerTest, MetricsCarryTheAdmissionAndSchedulerCounters) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  ASSERT_EQ(
      Exchange(port, "POST", "/v1/decompose?k=2", PathInstance()).status, 200);
  WireResponse metrics = Exchange(port, "GET", "/v1/metrics");
  ASSERT_EQ(metrics.status, 200);
  // The counter set operators read survives on the one stats surface.
  for (const char* series :
       {"htd_admission_requests_total{result=\"admitted\"} ",
        "htd_admission_requests_total{result=\"shed\"} ",
        "htd_admission_requests_total{result=\"bad_request\"} ",
        "htd_scheduler_submitted_total ", "htd_scheduler_completed_total ",
        "htd_scheduler_cache_hits_total ", "htd_queue_depth ",
        "htd_restored_entries{kind=\"cache\"} ", "htd_shard_index -1\n",
        "htd_shard_transitioning 0\n"}) {
    EXPECT_NE(metrics.body.find(std::string("\n") + series), std::string::npos)
        << "missing series " << series << " in: " << metrics.body;
  }
  EXPECT_EQ(Exchange(port, "GET", "/v1/stats").status, 404)
      << "/v1/metrics is the only stats surface";
  (*server)->Stop();
}

TEST(NetServerTest, SnapshotRouteWithoutPathIs412) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  EXPECT_EQ(Exchange((*server)->port(), "POST", "/v1/admin/snapshot").status, 412);
  (*server)->Stop();
}

TEST(NetServerTest, EveryRouteReachesItsHandlerAndRefusesOtherMethods) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok()) << server.status().message();
  DecompositionServer& backend = **server;

  // Each route, a method that reaches its handler, the method it refuses
  // (null: the route takes any method), and its latency-histogram label.
  // "Reaches its handler" means anything but 405 and the unknown-route 404:
  // an empty body, an unsharded server or a missing snapshot path is the
  // handler's own refusal.
  struct Row {
    const char* method;
    const char* target;
    const char* wrong_method;
    const char* label;
  };
  const Row rows[] = {
      {"GET", "/healthz", nullptr, "healthz"},
      {"POST", "/v1/decompose", "GET", "decompose"},
      {"POST", "/v1/query", "GET", "query"},
      {"GET", "/v1/jobs/j999", "POST", "jobs"},
      {"GET", "/v1/metrics", "POST", "metrics"},
      {"GET", "/v1/trace", "POST", "trace"},
      {"POST", "/v1/admin/snapshot", "GET", "admin"},
      {"GET", "/v1/admin/export", "POST", "admin"},
      {"POST", "/v1/admin/import", "GET", "admin"},
      {"POST", "/v1/admin/migrate", "GET", "admin"},
      {"GET", "/v1/admin/digest", "POST", "admin"},
      {"POST", "/v1/admin/antientropy", "GET", "admin"},
  };
  std::map<std::string, int> observed;
  for (const Row& row : rows) {
    HttpResponse reached = backend.Handle(Request(row.method, row.target));
    EXPECT_NE(reached.status, 405) << row.method << " " << row.target;
    EXPECT_EQ(reached.body.find("unknown route"), std::string::npos)
        << row.method << " " << row.target << ": " << reached.body;
    ++observed[row.label];
    if (row.wrong_method != nullptr) {
      EXPECT_EQ(backend.Handle(Request(row.wrong_method, row.target)).status,
                405)
          << row.wrong_method << " " << row.target;
      ++observed[row.label];
    }
  }
  for (const char* path : {"/nope", "/v1/stats"}) {
    HttpResponse unknown = backend.Handle(Request("GET", path));
    EXPECT_EQ(unknown.status, 404) << path;
    EXPECT_NE(unknown.body.find("unknown route"), std::string::npos) << path;
    ++observed["other"];
  }

  const std::string page = backend.Handle(Request("GET", "/v1/metrics")).body;
  for (const auto& [label, count] : observed) {
    const std::string line = "htd_request_seconds_count{route=\"" + label +
                             "\"} " + std::to_string(count) + "\n";
    EXPECT_NE(page.find(line), std::string::npos) << "missing " << line;
  }
}

/// A sharded server (range 0 of a two-range map) plus, for each
/// hypergraph-bearing route, one body this shard owns, one the other shard
/// owns, and one that does not parse.
struct AdmissionCase {
  const char* route;
  std::string target;
  std::string owned;
  std::string foreign;
  std::string garbage;
  std::vector<std::string> stages;  ///< Server-Timing stages, in order
};

std::string ChainQueryBody(int length, service::Fingerprint* fp) {
  std::string atoms;
  for (int i = 0; i < length; ++i) {
    if (!atoms.empty()) atoms += ", ";
    atoms += "R" + std::to_string(i) + "(V" + std::to_string(i) + ",V" +
             std::to_string(i + 1) + ")";
  }
  auto query = cq::ParseQuery(atoms + ".");
  EXPECT_TRUE(query.ok()) << query.status().message();
  cq::Database db;
  for (int i = 0; i < length; ++i) {
    db.AddRelation({"R" + std::to_string(i), 2, {{1, 1}, {2, 3}}});
  }
  *fp = service::CanonicalFingerprint(cq::QueryHypergraph(*query));
  auto body = qa::RenderQueryRequest(*query, db);
  EXPECT_TRUE(body.ok()) << body.status().message();
  return *body;
}

std::vector<AdmissionCase> AdmissionCases(const service::ShardMap& map) {
  AdmissionCase decompose{"decompose", "/v1/decompose?k=2", "", "", "((((",
                          {"parse", "fingerprint", "cache", "schedule",
                           "solve", "serialise"}};
  AdmissionCase query{"query", "/v1/query", "", "", "HTDQUERY1 garbage\n",
                      {"parse", "decompose", "pick", "execute", "serialise"}};
  for (int length = 3; length < 40; ++length) {
    Hypergraph graph = MakePath(length);
    std::string& slot =
        map.IndexFor(service::CanonicalFingerprint(graph)) == 0
            ? decompose.owned
            : decompose.foreign;
    if (slot.empty()) slot = WriteHyperBench(graph);
    service::Fingerprint fp;
    std::string body = ChainQueryBody(length, &fp);
    std::string& query_slot =
        map.IndexFor(fp) == 0 ? query.owned : query.foreign;
    if (query_slot.empty()) query_slot = body;
  }
  return {decompose, query};
}

TEST(NetServerTest, AdmissionIsTheSameOnDecomposeAndQuery) {
  DecompositionServerOptions options = BaseOptions();
  options.max_queue_depth = 1;
  options.retry_after_seconds = 3;
  auto map = service::ShardMap::Parse("127.0.0.1:1001,127.0.0.1:1002");
  ASSERT_TRUE(map.ok());
  options.shard_map = *map;
  options.shard_index = 0;
  auto server = DecompositionServer::Create(options);
  ASSERT_TRUE(server.ok()) << server.status().message();
  ASSERT_TRUE((*server)->Start().ok());
  DecompositionServer& backend = **server;
  const std::string digest = map->DigestHex();
  service::Fingerprint in_range, out_of_range;
  in_range.hi = 1;
  out_of_range.hi = ~0ULL;

  uint64_t admitted = 0, bad = 0, misrouted = 0, shed = 0;
  auto expect_counters = [&](const std::string& where) {
    const auto stats = backend.admission_stats();
    EXPECT_EQ(stats.admitted, admitted) << where;
    EXPECT_EQ(stats.bad_requests, bad) << where;
    EXPECT_EQ(stats.misrouted, misrouted) << where;
    EXPECT_EQ(stats.shed, shed) << where;
  };

  const std::vector<AdmissionCase> cases = AdmissionCases(*map);
  for (const AdmissionCase& c : cases) {
    SCOPED_TRACE(c.route);
    ASSERT_FALSE(c.owned.empty());
    ASSERT_FALSE(c.foreign.empty());

    // Routed by another topology's digest: 421.
    EXPECT_EQ(backend
                  .Handle(Request("POST", c.target, c.owned,
                                  {{"x-htd-shard-digest", "0123456789abcdef"}}))
                  .status,
              421);
    ++misrouted;
    // Right digest, malformed fingerprint header: 400.
    EXPECT_EQ(backend
                  .Handle(Request("POST", c.target, c.owned,
                                  {{"x-htd-shard-digest", digest},
                                   {"x-htd-shard-fingerprint", "xyz"}}))
                  .status,
              400);
    ++bad;
    // Right digest, fingerprint header outside this shard's range: 421.
    EXPECT_EQ(backend
                  .Handle(Request("POST", c.target, c.owned,
                                  {{"x-htd-shard-digest", digest},
                                   {"x-htd-shard-fingerprint",
                                    out_of_range.ToHex()}}))
                  .status,
              421);
    ++misrouted;
    // Empty and unparseable bodies: 400.
    EXPECT_EQ(backend.Handle(Request("POST", c.target, "")).status, 400);
    ++bad;
    EXPECT_EQ(backend.Handle(Request("POST", c.target, c.garbage)).status, 400);
    ++bad;
    // An unhashed sender's foreign body: this shard fingerprints it itself.
    HttpResponse foreign = backend.Handle(Request("POST", c.target, c.foreign));
    EXPECT_EQ(foreign.status, 421) << foreign.body;
    EXPECT_NE(foreign.body.find("belongs to shard 1"), std::string::npos)
        << foreign.body;
    ++misrouted;
    expect_counters("refusals");

    // An owned body is admitted; a propagated request id is adopted, a
    // malformed one replaced, and Server-Timing names the route's stages.
    const std::string id = "00deadbeef00f00d";
    HttpResponse served = backend.Handle(
        Request("POST", c.target, c.owned, {{"x-htd-request-id", id}}));
    EXPECT_EQ(served.status, 200) << served.body;
    ++admitted;
    EXPECT_EQ(HeaderOf(served, "X-HTD-Request-Id"), id);
    EXPECT_EQ(TimingStages(HeaderOf(served, "Server-Timing")), c.stages)
        << HeaderOf(served, "Server-Timing");
    HttpResponse renamed = backend.Handle(Request(
        "POST", c.target, c.owned, {{"x-htd-request-id", "not-an-id"}}));
    EXPECT_EQ(renamed.status, 200);
    ++admitted;
    EXPECT_TRUE(IsHex16(HeaderOf(renamed, "X-HTD-Request-Id")))
        << HeaderOf(renamed, "X-HTD-Request-Id");
    // A sender that hashed with this map is trusted without re-hashing.
    EXPECT_EQ(backend
                  .Handle(Request("POST", c.target, c.foreign,
                                  {{"x-htd-shard-digest", digest},
                                   {"x-htd-shard-fingerprint",
                                    in_range.ToHex()}}))
                  .status,
              200);
    ++admitted;

    // Async: a 202 job id that polls to done through /v1/jobs/<id>.
    const std::string async_target =
        c.target + (c.target.find('?') == std::string::npos ? "?" : "&") +
        "async=1";
    HttpResponse accepted =
        backend.Handle(Request("POST", async_target, c.owned));
    ASSERT_EQ(accepted.status, 202) << accepted.body;
    ++admitted;
    const std::string job_id = JobIdOf(accepted.body);
    HttpResponse job;
    for (int i = 0; i < 500; ++i) {
      job = backend.Handle(Request("GET", "/v1/jobs/" + job_id));
      ASSERT_EQ(job.status, 200) << job.body;
      if (job.body.find("\"state\": \"done\"") != std::string::npos) break;
      std::this_thread::sleep_for(10ms);
    }
    EXPECT_NE(job.body.find("\"state\": \"done\""), std::string::npos)
        << job.body;
    EXPECT_NE(job.body.find("\"job\": \"" + job_id + "\""), std::string::npos);
    expect_counters("admissions");
  }

  // Shed before parse: with one job outstanding at max_queue_depth 1, both
  // routes answer 429 + Retry-After, garbage bodies included.
  // (The async query job above may still be releasing its admission slot
  // after resolving; a 429 here is that, and counts as shed.)
  HttpResponse pin;
  for (int i = 0; i < 500; ++i) {
    pin = backend.Handle(Request(
        "POST", "/v1/decompose?k=4&async=1&timeout=60",
        WriteHyperBench(MakeClique(24)),
        {{"x-htd-shard-digest", digest},
         {"x-htd-shard-fingerprint", in_range.ToHex()}}));
    if (pin.status != 429) break;
    ++shed;
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(pin.status, 202) << pin.body;
  ++admitted;
  for (const AdmissionCase& c : cases) {
    SCOPED_TRACE(c.route);
    for (const std::string* body : {&c.owned, &c.garbage}) {
      HttpResponse refused = backend.Handle(Request("POST", c.target, *body));
      EXPECT_EQ(refused.status, 429) << refused.body;
      EXPECT_EQ(HeaderOf(refused, "Retry-After"), "3");
      ++shed;
    }
  }
  expect_counters("shed");

  // A stopping server refuses both routes with 503, uncounted.
  backend.Stop();
  for (const AdmissionCase& c : cases) {
    EXPECT_EQ(backend.Handle(Request("POST", c.target, c.owned)).status, 503)
        << c.route;
  }
  expect_counters("stopped");
}

TEST(NetServerTest, ResolvedJobsAreEvictedOldestFirstAndUnresolvedNever) {
  constexpr int kRetainedJobs = 1024;  // the server's job retention cap
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok()) << server.status().message();
  ASSERT_TRUE((*server)->Start().ok());
  DecompositionServer& backend = **server;

  // Warm the cache so every later async path job resolves at admission.
  ASSERT_EQ(backend.Handle(Request("POST", "/v1/decompose?k=2", PathInstance()))
                .status,
            200);
  // The oldest record stays unresolved for the whole test.
  HttpResponse pin =
      backend.Handle(Request("POST", "/v1/decompose?k=4&async=1&timeout=60",
                             WriteHyperBench(MakeClique(24))));
  ASSERT_EQ(pin.status, 202) << pin.body;
  const std::string pinned = JobIdOf(pin.body);

  std::vector<std::string> resolved;
  auto add_resolved = [&] {
    HttpResponse r = backend.Handle(
        Request("POST", "/v1/decompose?k=2&async=1", PathInstance()));
    ASSERT_EQ(r.status, 202) << r.body;
    resolved.push_back(JobIdOf(r.body));
  };
  auto status_of = [&](const std::string& id) {
    return backend.Handle(Request("GET", "/v1/jobs/" + id)).status;
  };

  // Filling the table to the cap evicts nothing.
  for (int i = 0; i + 1 < kRetainedJobs; ++i) add_resolved();
  EXPECT_EQ(status_of(resolved.front()), 200);
  // One over: the oldest RESOLVED record goes, the unresolved pin stays.
  add_resolved();
  EXPECT_EQ(status_of(resolved[0]), 404);
  EXPECT_EQ(status_of(resolved[1]), 200);
  add_resolved();
  EXPECT_EQ(status_of(resolved[1]), 404);
  EXPECT_EQ(status_of(resolved[2]), 200);
  EXPECT_EQ(status_of(resolved.back()), 200);
  HttpResponse still = backend.Handle(Request("GET", "/v1/jobs/" + pinned));
  EXPECT_EQ(still.status, 200);
  EXPECT_NE(still.body.find("\"state\": \"running\""), std::string::npos)
      << still.body;
  backend.Stop();
}

TEST(NetServerTest, OneRetentionCapCoversDecomposeAndQueryJobs) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok()) << server.status().message();
  ASSERT_TRUE((*server)->Start().ok());
  DecompositionServer& backend = **server;
  auto status_of = [&](const std::string& id) {
    return backend.Handle(Request("GET", "/v1/jobs/" + id)).status;
  };

  // A resolved query job is the oldest record.
  service::Fingerprint unused;
  HttpResponse query = backend.Handle(
      Request("POST", "/v1/query?async=1", ChainQueryBody(4, &unused)));
  ASSERT_EQ(query.status, 202) << query.body;
  const std::string query_job = JobIdOf(query.body);
  ASSERT_EQ(query_job[0], 'q');
  for (int i = 0; i < 500; ++i) {
    if (backend.Handle(Request("GET", "/v1/jobs/" + query_job))
            .body.find("\"state\": \"done\"") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(10ms);
  }

  // Decompose jobs fill the one table to the cap, then push past it: the
  // query record goes first, then the oldest decompose record.
  ASSERT_EQ(backend.Handle(Request("POST", "/v1/decompose?k=2", PathInstance()))
                .status,
            200);
  std::vector<std::string> jobs;
  for (size_t i = 0; i < DecompositionServer::kMaxRetainedJobs + 1; ++i) {
    HttpResponse r = backend.Handle(
        Request("POST", "/v1/decompose?k=2&async=1", PathInstance()));
    ASSERT_EQ(r.status, 202) << r.body;
    jobs.push_back(JobIdOf(r.body));
    if (i + 2 == DecompositionServer::kMaxRetainedJobs) {
      EXPECT_EQ(status_of(query_job), 200) << "evicted below the cap";
    }
  }
  EXPECT_EQ(status_of(query_job), 404);
  EXPECT_EQ(status_of(jobs[0]), 404);
  EXPECT_EQ(status_of(jobs[1]), 200);
  backend.Stop();
}

/// Prometheus text exposition keeps each family's samples in one group:
/// every sample follows its own family's TYPE line, and no family is
/// announced twice.
void ExpectContiguousFamilies(const std::string& page) {
  std::set<std::string> announced;
  std::string family;
  std::string type;
  std::istringstream lines(page);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      fields >> family >> type;
      EXPECT_TRUE(announced.insert(family).second)
          << family << " is split on the page:\n" << page;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    std::string name = line.substr(0, line.find_first_of("{ "));
    if (type == "histogram") {
      for (const std::string suffix : {"_bucket", "_sum", "_count"}) {
        if (name == family + suffix) name = family;
      }
    }
    EXPECT_EQ(name, family) << "sample outside its family: " << line;
  }
}

TEST(NetServerTest, MetricsFamiliesStayContiguousAndQueryStagesStartAtZero) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok()) << server.status().message();
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  WireResponse before = Exchange(port, "GET", "/v1/metrics");
  ASSERT_EQ(before.status, 200);
  for (const char* stage : {"decompose", "pick", "execute"}) {
    EXPECT_NE(before.body.find("\nhtd_query_seconds_count{stage=\"" +
                               std::string(stage) + "\"} 0\n"),
              std::string::npos)
        << "stage " << stage << " missing before the first query";
  }
  ExpectContiguousFamilies(before.body);

  // Queries add series by outcome and by pick after start-up.
  service::Fingerprint unused;
  ASSERT_EQ(Exchange(port, "POST", "/v1/query", ChainQueryBody(4, &unused))
                .status,
            200);
  ASSERT_EQ(
      Exchange(port, "POST", "/v1/decompose?k=2", PathInstance()).status, 200);
  WireResponse after = Exchange(port, "GET", "/v1/metrics");
  ASSERT_EQ(after.status, 200);
  for (const char* stage : {"decompose", "pick", "execute"}) {
    EXPECT_EQ(after.body.find("\nhtd_query_seconds_count{stage=\"" +
                              std::string(stage) + "\"} 0\n"),
              std::string::npos)
        << "stage " << stage << " not observed by the query";
  }
  EXPECT_NE(after.body.find("\nhtd_queries_total{outcome=\"satisfiable\"} 1\n"),
            std::string::npos);
  ExpectContiguousFamilies(after.body);
  (*server)->Stop();
}

// ---------------------------------------------------------------------------
// Epoll-core transport behaviour: slow-loris reaping, write-timeout slot
// recovery, io_threads-independent admission, and accept-failure backoff.
// These drive a bare HttpServer — the contract under test is the readiness
// loop itself, not the decomposition routes.

/// Polls `condition` until it holds or `deadline` elapses.
bool WaitFor(const std::function<bool()>& condition,
             std::chrono::milliseconds deadline) {
  auto give_up = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < give_up) {
    if (condition()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return condition();
}

HttpResponse OkHandler(const HttpRequest&) {
  HttpResponse response;
  response.body = "{\"ok\": true}\n";
  return response;
}

TEST(NetServerTest, ThrowingHandlerCostsOne500AndServingContinues) {
  // One handler thread: if the throw escaped the dispatch closure it would
  // take that thread down and the next request would never be answered.
  HttpServer::Options options;
  options.io_threads = 1;
  options.loop_threads = 1;
  HttpServer server(options, [](const HttpRequest& request) {
    if (request.target == "/throw") throw std::runtime_error("handler bug");
    return OkHandler(request);
  });
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 3; ++i) {
    WireResponse thrown = Exchange(server.port(), "GET", "/throw");
    EXPECT_EQ(thrown.status, 500) << thrown.body;
    WireResponse next = Exchange(server.port(), "GET", "/anything");
    EXPECT_EQ(next.status, 200) << next.body;
  }
  server.Stop();
}

TEST(NetServerTest, SlowLorisIsReapedWhileFastClientsAreServed) {
  HttpServer::Options options;
  options.io_threads = 2;
  options.loop_threads = 1;
  options.header_timeout_seconds = 0.5;
  options.idle_timeout_seconds = 30.0;  // the loris must hit the HEADER clock
  HttpServer server(options, OkHandler);
  ASSERT_TRUE(server.Start().ok());

  // The loris: drips a valid request one byte at a time, far slower than
  // the header timeout allows.
  auto loris = util::ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(loris.ok());
  util::SetRecvTimeout(loris->fd(), 10.0);
  std::atomic<bool> drip_done{false};
  std::thread dripper([&] {
    const std::string request = "GET /healthz HTTP/1.1\r\nHost: drip\r\n\r\n";
    for (char c : request) {
      if (!util::SendAll(loris->fd(), std::string_view(&c, 1))) break;
      std::this_thread::sleep_for(50ms);
    }
    drip_done.store(true);
  });

  // Fast clients during the drip: unchanged latency, all 200.
  for (int i = 0; i < 5; ++i) {
    auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(Exchange(server.port(), "GET", "/anything").status, 200);
    EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
  }

  // The loris is reaped by the header timeout: best-effort 408 then close.
  std::string blob;
  char buffer[1024];
  while (true) {
    long n = util::RecvSome(loris->fd(), buffer, sizeof(buffer));
    if (n <= 0) break;
    blob.append(buffer, static_cast<size_t>(n));
  }
  EXPECT_NE(blob.find(" 408 "), std::string::npos) << blob;
  EXPECT_GE(server.connections_reaped(), 1u);
  dripper.join();
  EXPECT_TRUE(drip_done.load());
  server.Stop();
}

TEST(NetServerTest, SilentKeepAliveIsReapedAfterTheLoopSleptIdle) {
  HttpServer::Options options;
  options.io_threads = 2;
  options.loop_threads = 1;
  options.idle_timeout_seconds = 0.5;
  HttpServer server(options, OkHandler);
  ASSERT_TRUE(server.Start().ok());

  // One exchange, then no connection for longer than the idle timeout: the
  // loop sleeps without a timer.
  EXPECT_EQ(Exchange(server.port(), "GET", "/anything").status, 200);
  std::this_thread::sleep_for(800ms);
  EXPECT_EQ(server.connections_reaped(), 0u);

  // A connection that never sends a byte is still reaped at the idle bound,
  // not before it.
  auto silent = util::ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(silent.ok());
  util::SetRecvTimeout(silent->fd(), 10.0);
  const auto start = std::chrono::steady_clock::now();
  char buffer[64];
  EXPECT_EQ(util::RecvSome(silent->fd(), buffer, sizeof(buffer)), 0)
      << "expected the server to close the idle connection";
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, 400ms);
  EXPECT_LT(waited, 5s);
  EXPECT_TRUE(WaitFor([&] { return server.connections_reaped() == 1; }, 2s));
  server.Stop();
}

TEST(NetServerTest, StalledReaderIsAbandonedAtWriteTimeoutWithoutLeakingSlot) {
  HttpServer::Options options;
  options.io_threads = 2;
  options.loop_threads = 1;
  options.max_connections = 1;  // ONE slot — a leak would starve the retry
  options.write_timeout_seconds = 0.5;
  HttpServer server(options, [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/octet-stream";
    response.body.assign(32 * 1024 * 1024, 'x');  // far past any socket buffer
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  // A reader that requests the huge response and then never reads: the
  // kernel buffers fill, the flush stalls, and the write timeout must
  // abandon the connection rather than hold its slot forever. SO_RCVBUF is
  // pinned tiny BEFORE connect so autotuned loopback windows can never
  // swallow the whole response and let the flush complete.
  int stalled_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stalled_fd, 0);
  int tiny = 16 * 1024;
  ::setsockopt(stalled_fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in server_addr{};
  server_addr.sin_family = AF_INET;
  server_addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  server_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(stalled_fd, reinterpret_cast<sockaddr*>(&server_addr),
                      sizeof(server_addr)),
            0);
  util::Socket stalled(stalled_fd);
  ASSERT_TRUE(util::SendAll(stalled.fd(),
                            "GET /blob HTTP/1.1\r\nConnection: close\r\n\r\n"));
  ASSERT_TRUE(WaitFor([&] { return server.connections_reaped() >= 1; }, 15s))
      << "write timeout never fired";

  // The slot must be free again: a well-behaved client succeeds.
  ASSERT_TRUE(WaitFor(
      [&] { return server.connection_counts().total() == 0; }, 10s));
  auto probe = util::ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(probe.ok());
  util::SetRecvTimeout(probe->fd(), 30.0);
  ASSERT_TRUE(util::SendAll(probe->fd(),
                            "GET /blob HTTP/1.1\r\nConnection: close\r\n\r\n"));
  std::string head;
  char buffer[4096];
  long n = util::RecvSome(probe->fd(), buffer, sizeof(buffer));
  ASSERT_GT(n, 0);
  head.assign(buffer, static_cast<size_t>(n));
  EXPECT_NE(head.find(" 200 "), std::string::npos) << head;
  server.Stop();
}

TEST(NetServerTest, IdleKeepAliveConnectionsArentBoundedByThreadCounts) {
  HttpServer::Options options;
  options.io_threads = 2;    // the whole point: 2 threads, hundreds of conns
  options.loop_threads = 2;
  options.backlog = 256;
  options.max_connections = 600;
  options.idle_timeout_seconds = 60.0;
  HttpServer server(options, OkHandler);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kIdle = 300;
  std::vector<util::Socket> held;
  held.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    auto sock = util::ConnectTcp("127.0.0.1", server.port(), 10.0);
    ASSERT_TRUE(sock.ok()) << "connect " << i << ": " << sock.status().message();
    held.push_back(std::move(*sock));
  }
  ASSERT_TRUE(WaitFor(
      [&] { return server.connection_counts().idle >= kIdle; }, 20s))
      << "only " << server.connection_counts().idle << " idle";
  // The thread-per-connection core shed at io_threads; the loop must not.
  EXPECT_EQ(server.connections_shed(), 0u);
  EXPECT_GE(server.connections_accepted(), static_cast<uint64_t>(kIdle));

  // The held connections are live, not zombies: a sample of them still
  // serves requests, as does a brand-new one.
  for (int i : {0, kIdle / 2, kIdle - 1}) {
    ASSERT_TRUE(util::SendAll(held[static_cast<size_t>(i)].fd(),
                              "GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n"));
    util::SetRecvTimeout(held[static_cast<size_t>(i)].fd(), 10.0);
    std::string blob;
    char buffer[4096];
    while (true) {
      long n = util::RecvSome(held[static_cast<size_t>(i)].fd(), buffer,
                              sizeof(buffer));
      if (n <= 0) break;
      blob.append(buffer, static_cast<size_t>(n));
    }
    EXPECT_NE(blob.find(" 200 "), std::string::npos) << blob;
  }
  EXPECT_EQ(Exchange(server.port(), "GET", "/fresh").status, 200);
  EXPECT_EQ(server.connections_shed(), 0u);
  held.clear();
  server.Stop();
}

TEST(NetServerTest, AcceptBackoffRecoversFromFdExhaustion) {
  HttpServer::Options options;
  options.io_threads = 2;
  options.loop_threads = 1;
  HttpServer server(options, OkHandler);
  ASSERT_TRUE(server.Start().ok());

  // The client's fd is allocated BEFORE exhaustion; connect() itself needs
  // no new descriptor in this process.
  int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);

  // Exhaust the fd budget: lower the soft limit to just above current use,
  // then fill what remains. accept() in the server (same process) now fails
  // with EMFILE while the connection waits in the listen queue.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = 256;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> fillers;
  while (true) {
    int fd = ::dup(client);
    if (fd < 0) break;
    fillers.push_back(fd);
  }
  ASSERT_FALSE(fillers.empty());

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_TRUE(util::SendAll(client,
                            "GET /after HTTP/1.1\r\nConnection: close\r\n\r\n"));

  // The acceptor must be failing AND backing off (not spinning): failures
  // accrue at roughly one per 10 ms backoff, not tens of thousands.
  ASSERT_TRUE(WaitFor([&] { return server.accept_failures() >= 2; }, 10s));
  uint64_t failures_during_exhaustion = server.accept_failures();
  EXPECT_LT(failures_during_exhaustion, 2000u) << "acceptor is spinning";

  // Recovery: free the budget and the queued connection gets served.
  for (int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  util::SetRecvTimeout(client, 20.0);
  std::string blob;
  char buffer[4096];
  while (true) {
    long n = util::RecvSome(client, buffer, sizeof(buffer));
    if (n <= 0) break;
    blob.append(buffer, static_cast<size_t>(n));
  }
  EXPECT_NE(blob.find(" 200 "), std::string::npos)
      << "queued connection not served after recovery: " << blob;
  ::close(client);
  server.Stop();
}

TEST(NetServerTest, StopDrainsInFlightResponsesAndRefusesNewWork) {
  // Re-pin the PR 3 drain contract on the epoll core directly: a response
  // in flight at Stop() is flushed; the port stops answering afterwards.
  HttpServer::Options options;
  options.io_threads = 2;
  options.loop_threads = 1;
  std::atomic<bool> release{false};
  HttpServer server(options, [&](const HttpRequest&) {
    while (!release.load()) std::this_thread::sleep_for(1ms);
    HttpResponse response;
    response.body = "{\"drained\": true}\n";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();

  auto pinned = util::ConnectTcp("127.0.0.1", port, 5.0);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(util::SendAll(pinned->fd(),
                            "GET /slow HTTP/1.1\r\nConnection: close\r\n\r\n"));
  ASSERT_TRUE(WaitFor(
      [&] { return server.connection_counts().dispatched >= 1; }, 10s));

  std::thread stopper([&] { server.Stop(); });
  std::this_thread::sleep_for(50ms);
  release.store(true);
  stopper.join();
  EXPECT_FALSE(server.running());

  // The dispatched response was flushed during the drain.
  util::SetRecvTimeout(pinned->fd(), 10.0);
  std::string blob;
  char buffer[4096];
  while (true) {
    long n = util::RecvSome(pinned->fd(), buffer, sizeof(buffer));
    if (n <= 0) break;
    blob.append(buffer, static_cast<size_t>(n));
  }
  EXPECT_NE(blob.find("\"drained\": true"), std::string::npos) << blob;
  EXPECT_EQ(server.connection_counts().total(), 0u);
}

}  // namespace
}  // namespace htd::net
