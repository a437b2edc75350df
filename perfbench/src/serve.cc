// serve-warm and serve-query: the client half of the served workloads.
//
// The Python runner starts hdserver; this process prepares the inputs and
// the warm state, then drives the server over keep-alive HTTP in an open
// loop and checks every response. The two halves talk over a line
// handshake: this process prints JSON events on stdout and waits for a line
// on stdin before each step, so the runner can sample the server's /proc
// counters and /v1/metrics exactly at the window boundaries.
//
//   -> {"event": "ready", ...}        <- "port N"
//   (warm-up pass)
//   -> {"event": "window", ...}       <- "go"      (once per window)
//   -> {"event": "window_done"}       <- "ok"
//   -> {"event": "done"}
//
// A run has one window; the traced run has two on the same schedule and
// takes its numbers from the second.
#include "workloads.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "cq/database.h"
#include "cq/query.h"
#include "cq/yannakakis.h"
#include "decomp/decomp_reader.h"
#include "decomp/decomp_writer.h"
#include "decomp/validation.h"
#include "hypergraph/generators.h"
#include "hypergraph/gyo.h"
#include "hypergraph/parser.h"
#include "hypergraph/writer.h"
#include "qa/wire.h"
#include "service/canonical.h"
#include "service/persistence.h"
#include "service/service.h"
#include "util/executor.h"
#include "util/rng.h"

namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Inputs

/// One distinct request body with everything its check needs.
struct Variant {
  int item = 0;  ///< index into the workload's base items
  bool renamed = false;
  std::string body;
  // serve-warm: the request's own hypergraph (checks resolve names in it).
  std::shared_ptr<htd::Hypergraph> graph;
  // serve-query: the request's own query.
  std::shared_ptr<htd::cq::Query> query;
};

/// A base item: one warm instance at its k, or one query with its database.
struct Item {
  std::string name;
  int k = 0;                       ///< serve-warm: the fixed k
  std::optional<bool> expect_yes;  ///< serve-warm: reference verdict
  std::string ref_source;
  // serve-query reference, evaluated over a det-k decomposition.
  std::shared_ptr<htd::cq::Database> db;
  bool satisfiable = false;
  unsigned long long count = 0;
  bool count_saturated = false;
  /// Tuples of each relation, for witness checks.
  std::unordered_map<std::string, std::set<std::vector<int64_t>>> tuples;
};

struct Inputs {
  std::vector<Item> items;
  std::vector<Variant> variants;  ///< variants[item * kVariants + j]
  std::string snapshot_path;      ///< serve-warm only
  double prepare_seconds = 0.0;
};

constexpr int kVariants = 4;  // the base naming plus three renamed copies
constexpr double kRequestTimeoutSeconds = 10.0;  // client read timeout
// Offered load: Poisson arrivals at these rates (requests/s) over
// kConnections keep-alive connections, each owned by one client thread.
// Each rate keeps the seed server near half a core (README, "Noise").
constexpr double kWarmRate = 350.0;
constexpr double kQueryRate = 110.0;
constexpr int kConnections = 4;
// Preparation budgets, far above what the seed needs (the slowest warm-up,
// syn-hugecycle at k=2, takes up to ~1.2 s; a query's det-k reference under
// 1 ms): the inputs never depend on the host's speed. A run whose
// preparation misses one fails.
constexpr double kWarmUpBudgetSeconds = 20.0;
constexpr double kQueryReferenceBudgetSeconds = 5.0;
constexpr int kQueries = 24;
// The query set (shapes, sizes, databases, base namings) is fixed so every
// run measures the same work; the seed names the renamed variants and draws
// the traffic.
constexpr uint64_t kQuerySetSeed = 20220612;

/// The warm set: every corpus instance at a k fixed by the generator — its
/// known width when the family has a closed form (a yes), else 1 (the
/// acyclicity test: a no unless the instance is alpha-acyclic, which GYO
/// reduction decides independently of the solvers). Every such k is decided
/// by the width-1 warm-up, so the large symmetric instances stay in. The
/// snapshot is written from the warm-up service by service::SaveSnapshot.
Inputs PrepareWarm(uint64_t seed, const std::string& dir) {
  Inputs inputs;
  const double start = Now();
  // The library's fixed corpus, as on solve-corpus; the seed names it.
  const auto corpus = htd::bench::BuildHyperBenchLikeCorpus();

  htd::util::Executor executor(1);
  htd::service::ServiceOptions options;
  options.solver_name = "logk";
  options.solve.num_threads = 1;
  options.executor = &executor;
  htd::service::DecompositionService service(options);

  for (size_t c = 0; c < corpus.size(); ++c) {
    const auto& instance = corpus[c];
    // The base request is a seeded renaming of the instance, as the text
    // the server will parse: the warm-up solves exactly that graph, so the
    // cache entries carry the base request's labelling.
    const uint64_t instance_seed = Mix(seed * 7919 + c);
    auto base = htd::ParseAuto(
        htd::WriteHyperBench(RenamedCopy(instance.graph, instance_seed)));
    if (!base.ok()) {
      std::fprintf(stderr, "perfbench: cannot parse %s\n", instance.name.c_str());
      std::exit(1);
    }
    auto graph = std::make_shared<htd::Hypergraph>(std::move(*base));
    Item item;
    item.name = instance.name;
    item.k = instance.known_width.value_or(1);
    item.expect_yes = instance.known_width.has_value() || htd::IsAlphaAcyclic(*graph);
    item.ref_source = instance.known_width.has_value() ? "known" : "gyo";
    const auto job = service.Submit(*graph, item.k, kWarmUpBudgetSeconds).get();
    const htd::Outcome outcome = job.result.outcome;
    if (outcome != htd::Outcome::kYes && outcome != htd::Outcome::kNo) {
      std::fprintf(stderr, "perfbench: warm-up did not decide %s at k=%d\n",
                   instance.name.c_str(), item.k);
      std::exit(1);
    }
    const int index = static_cast<int>(inputs.items.size());
    inputs.items.push_back(std::move(item));
    for (int j = 0; j < kVariants; ++j) {
      Variant variant;
      variant.item = index;
      variant.renamed = j > 0;
      variant.graph = j == 0 ? graph
                             : std::make_shared<htd::Hypergraph>(
                                   RenamedCopy(*graph, Mix(instance_seed + j)));
      variant.body = htd::WriteHyperBench(*variant.graph);
      inputs.variants.push_back(std::move(variant));
    }
  }
  inputs.snapshot_path = dir + "/warm.snap";
  auto saved = htd::service::SaveSnapshot(
      inputs.snapshot_path, service.result_cache(), service.subproblem_store(),
      htd::SolverConfigDigest(options.solver_name, options.solve));
  if (!saved.ok()) {
    std::fprintf(stderr, "perfbench: snapshot save failed: %s\n",
                 saved.status().message().c_str());
    std::exit(1);
  }
  inputs.prepare_seconds = Now() - start;
  return inputs;
}

/// A conjunctive query over `graph`: one relation per atom, variables named
/// after the vertices.
htd::cq::Query QueryOf(const htd::Hypergraph& graph) {
  htd::cq::Query query;
  for (int e = 0; e < graph.num_edges(); ++e) {
    htd::cq::Atom atom;
    atom.relation = "R" + std::to_string(e);
    for (int v : graph.edge_vertex_list(e)) {
      atom.variables.push_back("X" + std::to_string(v));
    }
    query.atoms.push_back(std::move(atom));
  }
  return query;
}

/// Seeded cyclic and acyclic queries of 4–10 atoms with databases sized so
/// one execution takes milliseconds; every third database is skewed (a few
/// relations keep only `light` tuples) so the portfolio's pick matters.
Inputs PrepareQuery(uint64_t seed, std::string* direct_json) {
  Inputs inputs;
  const double start = Now();
  htd::util::Rng rng(kQuerySetSeed);
  double execute_seconds = 0.0;
  int executions = 0;
  // Pairwise non-isomorphic: two isomorphic queries in different namings
  // are the renamed-copy case, which the probe covers on its own.
  std::set<htd::service::Fingerprint> fingerprints;
  for (int q = 0; static_cast<int>(inputs.items.size()) < kQueries && q < 10 * kQueries;
       ++q) {
    const int atoms = rng.UniformInt(4, 10);
    htd::Hypergraph graph;
    std::string shape;
    switch (q % 3) {
      case 0:
        graph = htd::MakeCycle(atoms);
        shape = "cycle";
        break;
      case 1: {
        htd::util::Rng child = rng.Fork();
        graph = htd::MakeAcyclicQuery(child, atoms, 3);
        shape = "acyclic";
        break;
      }
      default: {
        htd::util::Rng child = rng.Fork();
        graph = htd::MakeRandomCq(child, atoms, 3, 0.3);
        shape = "cq";
        break;
      }
    }
    const htd::cq::Query generated = QueryOf(graph);
    const bool skewed = q % 3 == 2 || q % 4 == 0;
    htd::util::Rng db_rng = rng.Fork();
    const int heavy = skewed ? 100 : 50;
    htd::cq::Database db =
        htd::cq::RandomDatabase(db_rng, generated, 12, heavy, 0.7);
    if (skewed) {
      // Keep the first 8 tuples and the planted one (always appended last)
      // of every other relation: heavy and light relations alternate.
      for (size_t a = 1; a < generated.atoms.size(); a += 2) {
        const htd::cq::Relation* rel = db.Find(generated.atoms[a].relation);
        htd::cq::Relation light = *rel;
        if (light.tuples.size() > 9) {
          std::vector<htd::cq::Tuple> kept(light.tuples.begin(),
                                           light.tuples.begin() + 8);
          kept.push_back(light.tuples.back());
          light.tuples = std::move(kept);
        }
        db.AddRelation(std::move(light));
      }
    }
    // The base naming is fixed too: the server's plans for it (the
    // decompositions its solves find, the portfolio's pick) set the cost of
    // every timed request. The seed names the renamed variants.
    const htd::cq::Query& base = generated;
    const uint64_t query_seed = Mix(seed * 104729 + static_cast<uint64_t>(q));
    const htd::Hypergraph query_graph = htd::cq::QueryHypergraph(base);
    if (!fingerprints.insert(htd::service::CanonicalFingerprint(query_graph)).second) {
      continue;
    }
    auto decomp = DetKDecomposition(query_graph, kQueryReferenceBudgetSeconds);
    if (!decomp.has_value()) {
      std::fprintf(stderr, "perfbench: no det-k reference for query %d\n", q);
      std::exit(1);
    }
    const double exec_start = Now();
    auto eval = htd::cq::EvaluateWithDecomposition(base, db, *decomp);
    auto count = htd::cq::CountSolutions(base, db, *decomp);
    execute_seconds += Now() - exec_start;
    ++executions;
    if (!eval.ok() || !count.ok()) continue;

    Item item;
    item.name = "q" + std::to_string(q) + "-" + shape + "-" +
                std::to_string(atoms) + (skewed ? "-skew" : "");
    item.ref_source = "detk";
    item.db = std::make_shared<htd::cq::Database>(std::move(db));
    item.satisfiable = eval->satisfiable;
    item.count = count->value;
    item.count_saturated = count->saturated;
    for (const auto& atom : base.atoms) {
      const htd::cq::Relation* rel = item.db->Find(atom.relation);
      auto& set = item.tuples[atom.relation];
      for (const auto& tuple : rel->tuples) set.insert(tuple);
    }
    const int index = static_cast<int>(inputs.items.size());
    inputs.items.push_back(std::move(item));
    for (int j = 0; j < kVariants; ++j) {
      Variant variant;
      variant.item = index;
      variant.renamed = j > 0;
      variant.query = std::make_shared<htd::cq::Query>(
          j == 0 ? base : RenamedQuery(base, Mix(query_seed + j)));
      auto body = htd::qa::RenderQueryRequest(*variant.query, *inputs.items[index].db);
      if (!body.ok()) {
        std::fprintf(stderr, "perfbench: cannot render query: %s\n",
                     body.status().message().c_str());
        std::exit(1);
      }
      variant.body = std::move(*body);
      inputs.variants.push_back(std::move(variant));
    }
  }
  inputs.prepare_seconds = Now() - start;
  *direct_json = "{\"reference_execute_s\": " + JsonNum(execute_seconds) +
                 ", \"reference_executions\": " + std::to_string(executions) +
                 "}";
  return inputs;
}

// ---------------------------------------------------------------------------
// Keep-alive HTTP/1.1 client (independent of the library's net layer).

struct Response {
  bool transport_ok = false;
  std::string transport_error;
  int status = 0;
  std::string server_timing;
  std::string request_id;
  std::string body;
};

class Connection {
 public:
  explicit Connection(int port) : port_(port) {}
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  Response Exchange(const std::string& request, double timeout_seconds) {
    Response response;
    if (fd_ < 0 && !Connect(&response.transport_error)) return response;
    if (!SendAll(request)) {
      // A keep-alive connection the server closed while idle: retry once on
      // a fresh one.
      Close();
      if (!Connect(&response.transport_error) || !SendAll(request)) {
        response.transport_error = "send failed";
        Close();
        return response;
      }
    }
    if (!ReadResponse(&response, timeout_seconds)) {
      Close();
      return response;
    }
    response.transport_ok = true;
    return response;
  }

 private:
  bool Connect(std::string* error) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      *error = "socket failed";
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = "connect failed";
      Close();
      return false;
    }
    buffer_.clear();
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool SendAll(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Appends more bytes to buffer_; false on close, error or timeout.
  bool Fill(double deadline, Response* response) {
    const double remaining = deadline - Now();
    if (remaining <= 0) {
      response->transport_error = "read timeout";
      return false;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining * 1000) + 1);
    if (ready <= 0) {
      response->transport_error = "read timeout";
      return false;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      response->transport_error = "connection closed";
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  bool ReadResponse(Response* response, double timeout_seconds) {
    const double deadline = Now() + timeout_seconds;
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill(deadline, response)) return false;
    }
    const std::string head = buffer_.substr(0, header_end);
    buffer_.erase(0, header_end + 4);
    if (head.compare(0, 5, "HTTP/") != 0 || head.size() < 12) {
      response->transport_error = "bad status line";
      return false;
    }
    response->status = std::atoi(head.c_str() + 9);
    size_t content_length = 0;
    bool close_after = false;
    size_t pos = head.find("\r\n");
    while (pos != std::string::npos && pos < head.size()) {
      const size_t next = head.find("\r\n", pos + 2);
      const std::string line =
          head.substr(pos + 2, (next == std::string::npos ? head.size() : next) - pos - 2);
      pos = next;
      const size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string name = line.substr(0, colon);
      std::transform(name.begin(), name.end(), name.begin(), ::tolower);
      size_t value_start = colon + 1;
      while (value_start < line.size() && line[value_start] == ' ') ++value_start;
      const std::string value = line.substr(value_start);
      if (name == "content-length") {
        content_length = std::strtoull(value.c_str(), nullptr, 10);
      } else if (name == "server-timing") {
        response->server_timing = value;
      } else if (name == "x-htd-request-id") {
        response->request_id = value;
      } else if (name == "connection" && value == "close") {
        close_after = true;
      }
    }
    while (buffer_.size() < content_length) {
      if (!Fill(deadline, response)) return false;
    }
    response->body = buffer_.substr(0, content_length);
    buffer_.erase(0, content_length);
    if (close_after) Close();
    return true;
  }

  int port_;
  int fd_ = -1;
  std::string buffer_;
};

std::string RequestText(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: "
         "text/plain\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

// ---------------------------------------------------------------------------
// Open loop

struct Planned {
  int variant = 0;
  bool decomposition = false;  ///< serve-warm: asks decomposition=1
  double offset = 0.0;         ///< scheduled send, seconds after window start
};

struct Exchanged {
  double scheduled = 0.0;  ///< absolute Now() seconds
  double sent = 0.0;
  double done = 0.0;
  bool picked_early = false;  ///< a connection was idle before it was due
  Response response;
};

/// The seeded schedule: rate × seconds requests at uniformly random times
/// (Poisson arrivals given their count) over a balanced multiset of `pool`
/// (the variants) in a seeded order. Every variant is sent equally often (to
/// within one), and serve-warm asks for the decomposition on every fourth
/// send of each variant, so the seed moves the order and the timing but not
/// the mix: a run's share of heavy requests does not depend on it.
std::vector<Planned> Schedule(uint64_t seed, double rate, double seconds,
                              const std::vector<int>& pool, bool warm) {
  htd::util::Rng rng(Mix(seed ^ 0x5c4edULL));
  const size_t n = static_cast<size_t>(std::llround(rate * seconds));
  std::vector<double> offsets(n);
  for (double& offset : offsets) offset = rng.UniformDouble() * seconds;
  std::sort(offsets.begin(), offsets.end());
  std::vector<Planned> plan(n);
  for (size_t i = 0; i < n; ++i) {
    plan[i].variant = pool[i % pool.size()];
    plan[i].decomposition = warm && (i / pool.size()) % 4 == 0;
  }
  rng.Shuffle(plan);
  for (size_t i = 0; i < n; ++i) plan[i].offset = offsets[i];
  return plan;
}

void SleepUntil(double when) {
  const double delta = when - Now();
  if (delta <= 0) return;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(delta);
  ts.tv_nsec = static_cast<long>((delta - static_cast<double>(ts.tv_sec)) * 1e9);
  ::nanosleep(&ts, nullptr);
}

/// Sends `requests[i]` at `start + plan[i].offset` over kConnections
/// keep-alive connections, each owned by one thread. A connection that is
/// busy when a request falls due delays it; the delay counts in its latency,
/// which is taken from the scheduled time. Nothing but the timestamps is
/// recorded here: spans are built from them after the window.
std::vector<Exchanged> RunOpenLoop(int port, const std::vector<Planned>& plan,
                                   const std::vector<const std::string*>& requests,
                                   double start) {
  std::vector<Exchanged> outcomes(plan.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&] {
      Connection connection(port);
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= plan.size()) break;
        Exchanged& out = outcomes[i];
        out.scheduled = start + plan[i].offset;
        out.picked_early = Now() < out.scheduled;
        SleepUntil(out.scheduled);
        out.sent = Now();
        out.response = connection.Exchange(*requests[i], kRequestTimeoutSeconds);
        out.done = Now();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return outcomes;
}

// ---------------------------------------------------------------------------
// Checks (outside every timed window)

/// Value text of a top-level JSON field ("" when absent). Good enough for
/// the server's flat response objects; nested objects are returned whole.
std::string Field(const std::string& body, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const size_t at = body.find(key);
  if (at == std::string::npos) return "";
  size_t begin = at + key.size();
  if (begin >= body.size()) return "";
  if (body[begin] == '"') {
    const size_t end = body.find('"', begin + 1);
    return end == std::string::npos ? "" : body.substr(begin + 1, end - begin - 1);
  }
  if (body[begin] == '{') {
    int depth = 0;
    bool in_string = false;
    for (size_t i = begin; i < body.size(); ++i) {
      const char c = body[i];
      if (in_string) {
        if (c == '\\') ++i;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}' && --depth == 0) {
        return body.substr(begin, i - begin + 1);
      }
    }
    return "";
  }
  size_t end = begin;
  while (end < body.size() && body[end] != ',' && body[end] != '}' &&
         body[end] != '\n') {
    ++end;
  }
  return body.substr(begin, end - begin);
}

struct CheckTimes {
  double validate_seconds = 0.0;
  int validations = 0;
};

/// Failure cause of one serve-warm response ("" = ok).
std::string CheckWarm(const Item& item, const Variant& variant,
                      bool asked_decomposition, const Response& response,
                      CheckTimes* times) {
  if (!response.transport_ok) return "transport";
  if (response.status == 429 || response.status == 503) return "shed";
  if (response.status != 200) return "http_" + std::to_string(response.status);
  const std::string outcome = Field(response.body, "outcome");
  if (outcome == "cancelled") return "deadline";
  if (outcome == "error") return "solver_error";
  if (outcome != "yes" && outcome != "no") return "bad_response";
  if (item.expect_yes.has_value() && *item.expect_yes != (outcome == "yes")) {
    return "wrong_verdict";
  }
  if (outcome == "yes" && asked_decomposition) {
    const std::string json = Field(response.body, "decomposition");
    if (json.empty()) return "invalid_decomposition";
    const double start = Now();
    auto parsed = htd::ParseDecompositionJson(*variant.graph, json);
    const bool valid =
        parsed.ok() && htd::ValidateHdWithWidth(*variant.graph, *parsed, item.k).ok;
    times->validate_seconds += Now() - start;
    ++times->validations;
    if (!valid) return "invalid_decomposition";
  }
  return "";
}

/// Parses the witness object {"X": 1, ...}.
std::unordered_map<std::string, int64_t> ParseWitness(const std::string& text) {
  std::unordered_map<std::string, int64_t> witness;
  size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) break;
    const std::string name = text.substr(pos + 1, end - pos - 1);
    const size_t colon = text.find(':', end);
    if (colon == std::string::npos) break;
    witness[name] = std::strtoll(text.c_str() + colon + 1, nullptr, 10);
    pos = colon + 1;
  }
  return witness;
}

/// Failure cause of one serve-query response ("" = ok).
std::string CheckQuery(const Item& item, const Variant& variant,
                       const Response& response) {
  if (!response.transport_ok) return "transport";
  if (response.status == 429 || response.status == 503) return "shed";
  if (response.status != 200) return "http_" + std::to_string(response.status);
  const std::string outcome = Field(response.body, "outcome");
  if (outcome == "deadline") return "deadline";
  if (outcome != "satisfiable" && outcome != "unsatisfiable") return "wrong_verdict";
  if ((outcome == "satisfiable") != item.satisfiable) return "wrong_verdict";
  const std::string count = Field(response.body, "count");
  if (count.empty() || std::strtoull(count.c_str(), nullptr, 10) != item.count ||
      (Field(response.body, "count_saturated") == "true") != item.count_saturated) {
    return "wrong_count";
  }
  if (outcome == "satisfiable") {
    const auto witness = ParseWitness(Field(response.body, "witness"));
    for (const auto& atom : variant.query->atoms) {
      std::vector<int64_t> tuple;
      for (const auto& var : atom.variables) {
        auto it = witness.find(var);
        if (it == witness.end()) return "wrong_witness";
        tuple.push_back(it->second);
      }
      const auto& set = item.tuples.at(atom.relation);
      if (set.count(tuple) == 0) return "wrong_witness";
    }
  }
  return "";
}

std::string ReadCommand() {
  std::string line;
  if (!std::getline(std::cin, line)) {
    std::fprintf(stderr, "perfbench: runner closed the handshake\n");
    std::exit(1);
  }
  return line;
}

void Event(const std::string& json) {
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Direct calls on the workload's own inputs (traced run only): the
/// hypergraph parser and the canonical form on every distinct warm body, or
/// the query-request parser on every distinct query body.
std::string DirectServePass(const Inputs& inputs, bool warm, SpanRecorder& spans) {
  double parse = 0.0, fingerprint = 0.0;
  int n = 0;
  for (const Variant& variant : inputs.variants) {
    double start = Now();
    if (warm) {
      auto graph = htd::ParseAuto(variant.body);
      parse += Now() - start;
      spans.Add("direct.parse", start, Now(), 0, 0);
      if (!graph.ok()) continue;
      start = Now();
      auto form = htd::service::ComputeCanonicalForm(*graph);
      fingerprint += Now() - start;
      spans.Add("direct.fingerprint", start, Now(), 0, 0);
    } else {
      auto request = htd::qa::ParseQueryRequest(variant.body);
      parse += Now() - start;
      spans.Add("direct.qparse", start, Now(), 0, 0);
    }
    ++n;
  }
  return "{\"calls\": " + std::to_string(n) + ", \"parse_s\": " + JsonNum(parse) +
         ", \"fingerprint_s\": " + JsonNum(fingerprint) + "}";
}

}  // namespace

int RunServe(const Flags& flags, const std::string& workload) {
  const bool warm = workload == "serve-warm";
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed"));
  const double seconds = flags.Num("seconds");
  const double rate = warm ? kWarmRate : kQueryRate;
  const bool traced = flags.Int("trace") != 0;
  const std::string dir = flags.Str("dir");
  const std::string out_path = flags.Str("out");
  const std::string spans_path = flags.Str("spans", "");

  std::string prepare_direct = "{}";
  Inputs inputs = warm ? PrepareWarm(seed, dir)
                       : PrepareQuery(seed, &prepare_direct);
  Event("{\"event\": \"ready\", \"snapshot\": " + JsonStr(inputs.snapshot_path) +
        ", \"items\": " + std::to_string(inputs.items.size()) +
        ", \"prepare_s\": " + JsonNum(inputs.prepare_seconds) + "}");

  // Request texts: one per (variant, decomposition flag).
  std::vector<std::string> texts;
  for (const Variant& variant : inputs.variants) {
    const Item& item = inputs.items[variant.item];
    if (warm) {
      const std::string target = "/v1/decompose?k=" + std::to_string(item.k);
      texts.push_back(RequestText(target, variant.body));
      texts.push_back(RequestText(target + "&decomposition=1", variant.body));
    } else {
      texts.push_back(RequestText("/v1/query?count=1", variant.body));
    }
  }
  auto text_of = [&](int variant, bool decomposition) -> const std::string* {
    return warm ? &texts[2 * variant + (decomposition ? 1 : 0)] : &texts[variant];
  };

  // The runner answers "port N", or "port N crashed|alive" after a probe
  // failure.
  auto port_of = [](const std::string& line) {
    return std::atoi(line.c_str() + line.find(' ') + 1);
  };
  int port = 0;
  // Warm-up: every base item once, in order, on one connection (serve-query
  // fills the decompositions and the portfolio with the base namings).
  auto warm_up = [&] {
    Connection connection(port);
    for (size_t i = 0; i < inputs.items.size(); ++i) {
      connection.Exchange(*text_of(static_cast<int>(i) * kVariants, false),
                          kRequestTimeoutSeconds);
    }
  };

  // The variants the timed windows draw from. serve-warm: all of them.
  // serve-query: the base namings. At the seed a renamed query is answered
  // with a decomposition computed for another naming, and some of these
  // requests abort hdserver (a CHECK in cq/yannakakis.cc), depending on what
  // earlier requests left in the cache and the portfolio — a window carrying
  // them measures crashes, not latency. So each renamed variant is checked
  // here once, on a server of its own warmed with the base namings, which
  // the runner restarts whenever one kills it; the results count in
  // attempted and failed, with the cause "server_crash" for a kill.
  std::vector<int> pool;
  std::string probe_json;
  for (size_t v = 0; v < inputs.variants.size(); ++v) {
    if (warm || !inputs.variants[v].renamed) pool.push_back(static_cast<int>(v));
  }
  if (!warm) {
    port = port_of(ReadCommand());
    warm_up();
    for (size_t v = 0; v < inputs.variants.size(); ++v) {
      const Variant& variant = inputs.variants[v];
      if (!variant.renamed) continue;
      Connection connection(port);
      const Response response = connection.Exchange(
          *text_of(static_cast<int>(v), false), kRequestTimeoutSeconds);
      std::string cause;
      if (response.transport_ok) {
        cause = CheckQuery(inputs.items[variant.item], variant, response);
      } else {
        Event("{\"event\": \"probe_failed\"}");
        const std::string reply = ReadCommand();
        port = port_of(reply);
        const bool crashed = reply.find("crashed") != std::string::npos;
        cause = crashed ? "server_crash" : "transport";
        if (crashed) warm_up();
      }
      probe_json += std::string(probe_json.empty() ? "" : ", ") + "{\"item\": " +
                    JsonStr(inputs.items[variant.item].name) +
                    ", \"cause\": " + JsonStr(cause) + "}";
    }
    Event("{\"event\": \"probe_done\"}");
  }
  port = port_of(ReadCommand());
  warm_up();

  // The traced run sends the same schedule twice and takes its numbers from
  // the second window. Its spans are built from the timestamps after the
  // window, so both windows do the same work and their ratio
  // (trace.overhead_share) shows only the window-to-window noise.
  const int windows = traced ? 2 : 1;
  const std::vector<Planned> plan = Schedule(seed, rate, seconds, pool, warm);
  std::vector<const std::string*> requests;
  for (const Planned& p : plan) requests.push_back(text_of(p.variant, p.decomposition));
  SpanRecorder spans(traced);
  std::vector<std::vector<Exchanged>> results;
  for (int w = 0; w < windows; ++w) {
    Event("{\"event\": \"window\", \"traced\": " + std::to_string(traced && w == 1) +
          ", \"requests\": " + std::to_string(plan.size()) + "}");
    ReadCommand();
    const double start = Now() + 0.05;
    results.push_back(RunOpenLoop(port, plan, requests, start));
    Event("{\"event\": \"window_done\"}");
    ReadCommand();
  }

  // Checks: every response of the last window, cached per distinct body.
  CheckTimes times;
  std::unordered_map<std::string, std::string> verdicts;  // body -> cause
  std::string records;
  const auto& last = results.back();
  const double window_start = last.empty() ? 0.0 : last.front().scheduled - plan.front().offset;
  for (size_t i = 0; i < last.size(); ++i) {
    const Exchanged& out = last[i];
    const Variant& variant = inputs.variants[plan[i].variant];
    const Item& item = inputs.items[variant.item];
    // The distinct request sent: variant and decomposition flag.
    const int request = 2 * plan[i].variant + (plan[i].decomposition ? 1 : 0);
    std::string cause;
    const std::string key = std::to_string(plan[i].variant) +
                            (plan[i].decomposition ? "d" : "") + "\n" +
                            std::to_string(out.response.status) + "\n" +
                            out.response.body;
    auto hit = out.response.transport_ok ? verdicts.find(key) : verdicts.end();
    if (hit != verdicts.end()) {
      cause = hit->second;
    } else {
      cause = warm ? CheckWarm(item, variant, plan[i].decomposition, out.response, &times)
                   : CheckQuery(item, variant, out.response);
      if (out.response.transport_ok) verdicts.emplace(key, cause);
    }
    records += "{\"sched\": " + JsonNum(out.scheduled - window_start) +
               ", \"sent\": " + JsonNum(out.sent - window_start) +
               ", \"done\": " + JsonNum(out.done - window_start) +
               ", \"early\": " + (out.picked_early ? "1" : "0") +
               ", \"status\": " + std::to_string(out.response.status) +
               ", \"cause\": " + JsonStr(cause) +
               ", \"request\": " + std::to_string(request) +
               ", \"renamed\": " + (variant.renamed ? "1" : "0") +
               ", \"decomp\": " + (plan[i].decomposition ? "1" : "0") +
               ", \"timing\": " + JsonStr(out.response.server_timing) + "}\n";
    const int64_t op = static_cast<int64_t>(i) + 1;
    spans.Add("wait", out.scheduled, out.sent, 0, op);
    spans.Add("exchange", out.sent, out.done, 0, op,
              "{\"server_timing\": " + JsonStr(out.response.server_timing) +
                  ", \"request_id\": " + JsonStr(out.response.request_id) + "}");
  }
  // One entry per planned request of the untraced window, in plan order
  // (-1 when it failed in transport or was not a 200).
  std::string latencies_untraced;
  if (traced) {
    for (const Exchanged& out : results.front()) {
      const bool ok = out.response.transport_ok && out.response.status == 200;
      latencies_untraced += (latencies_untraced.empty() ? "" : ", ") +
                            (ok ? JsonNum(out.done - out.scheduled) : std::string("-1"));
    }
  }
  std::string direct_json = "{}";
  if (traced) direct_json = DirectServePass(inputs, warm, spans);

  std::string items_json;
  for (const Item& item : inputs.items) {
    items_json += std::string(items_json.empty() ? "" : ", ") + "{\"name\": " +
                  JsonStr(item.name) + ", \"k\": " + std::to_string(item.k) +
                  ", \"ref\": " + JsonStr(item.ref_source) + "}";
  }
  WriteFile(out_path + ".records", records);
  WriteFile(out_path,
            "{\"rate\": " + JsonNum(rate) + ", \"connections\": " +
                std::to_string(kConnections) + ", \"items\": [" + items_json +
                "], \"variants\": " +
                std::to_string(inputs.variants.size()) +
                ", \"prepare_s\": " + JsonNum(inputs.prepare_seconds) +
                ", \"probe\": [" + probe_json + "]" +
                ", \"validate_s\": " + JsonNum(times.validate_seconds) +
                ", \"validations\": " + std::to_string(times.validations) +
                ", \"untraced_latencies\": [" + latencies_untraced + "]" +
                ", \"direct\": " + direct_json +
                ", \"prepare_direct\": " + prepare_direct + "}\n");
  if (!spans_path.empty()) WriteFile(spans_path, spans.ToJsonLines());
  Event("{\"event\": \"done\"}");
  return 0;
}

}  // namespace perfbench

namespace perfbench {

int RunSelfTest() {
  // The seed's renamed-copy defect, rebuilt without a server: the result
  // cache hands a renamed request the decomposition solved for the base
  // naming, and the server renders its ids with the request's names. The
  // checker must reject that and accept the base request's own answer.
  const htd::Hypergraph grid = htd::MakeGrid(3, 3);
  htd::Hypergraph reversed;
  for (int v = grid.num_vertices() - 1; v >= 0; --v) {
    reversed.GetOrAddVertex(grid.vertex_name(v));
  }
  for (int e = grid.num_edges() - 1; e >= 0; --e) {
    std::vector<int> vertices;
    for (int v : grid.edge_vertex_list(e)) {
      vertices.push_back(reversed.FindVertex(grid.vertex_name(v)));
    }
    if (!reversed.AddEdge(grid.edge_name(e), vertices).ok()) return 1;
  }
  htd::util::Executor executor(1);
  htd::service::ServiceOptions options;
  options.executor = &executor;
  options.solve.num_threads = 1;
  htd::service::DecompositionService service(options);
  const auto base = service.Submit(grid, 2, 10.0).get();
  if (base.result.outcome != htd::Outcome::kYes) {
    std::fprintf(stderr, "selftest: MakeGrid(3,3) at k=2 is not a yes\n");
    return 1;
  }
  const htd::Decomposition& decomp = *base.result.decomposition;

  Item item;
  item.name = "grid-3x3";
  item.k = 2;
  item.expect_yes = true;
  Variant own;
  own.graph = std::make_shared<htd::Hypergraph>(grid);
  Variant renamed;
  renamed.renamed = true;
  renamed.graph = std::make_shared<htd::Hypergraph>(reversed);
  auto response_for = [&](const htd::Hypergraph& request_graph) {
    Response response;
    response.transport_ok = true;
    response.status = 200;
    response.body = "{\"outcome\": \"yes\", \"width\": 2, \"cache_hit\": true, "
                    "\"decomposition\": " +
                    htd::WriteDecompositionJson(request_graph, decomp) + "}\n";
    return response;
  };
  CheckTimes times;
  const std::string own_cause = CheckWarm(item, own, true, response_for(grid), &times);
  const std::string renamed_cause =
      CheckWarm(item, renamed, true, response_for(reversed), &times);
  std::printf("selftest: base answer -> \"%s\", renamed cache hit -> \"%s\"\n",
              own_cause.c_str(), renamed_cause.c_str());
  if (!own_cause.empty() || renamed_cause != "invalid_decomposition") return 1;
  // A no where the reference says yes is a wrong verdict.
  Response no_response;
  no_response.transport_ok = true;
  no_response.status = 200;
  no_response.body = "{\"outcome\": \"no\", \"cache_hit\": true}\n";
  if (CheckWarm(item, own, false, no_response, &times) != "wrong_verdict") return 1;
  std::printf("selftest: ok\n");
  return 0;
}

}  // namespace perfbench
