#include "qa/query_engine.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <vector>

#include "decomp/validation.h"
#include "util/timer.h"

namespace htd::qa {
namespace {

constexpr double kNoDeadline = 0.0;

// Blocks on a probe future. Async query jobs run Answer() *on* an executor
// worker (background lane), and its probes are flights on that same
// executor — a plain get() would park the worker and, at width 1, deadlock
// the fleet against itself. A worker thread therefore helps run sync/async
// lane work while it waits; any other thread just waits.
service::JobResult AwaitProbe(util::Executor& executor,
                              std::future<service::JobResult>& future) {
  if (executor.OnWorkerThread()) {
    executor.HelpWhileWaiting([&future] {
      return future.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    });
  }
  return future.get();
}

}  // namespace

const char* QueryOutcomeName(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kSatisfiable:
      return "satisfiable";
    case QueryOutcome::kUnsatisfiable:
      return "unsatisfiable";
    case QueryOutcome::kNoDecomposition:
      return "no_decomposition";
    case QueryOutcome::kDeadline:
      return "deadline";
  }
  return "unknown";
}

QueryEngine::QueryEngine(service::DecompositionService* service,
                         QueryEngineOptions options)
    : service_(service), options_(options), portfolio_(options.portfolio) {
  util::MetricsRegistry& metrics = service_->metrics();
  metrics.SetHelp("htd_query_seconds",
                  "Query-answering stage latency (decompose / pick / "
                  "execute) in seconds.");
  metrics.SetHelp("htd_queries_total",
                  "Queries answered by the query engine, by outcome.");
  metrics.SetHelp("htd_query_portfolio_picks_total",
                  "Portfolio selections: first-found tree vs a better-scoring "
                  "alternative.");
  // Every stage is on the page before the first query, at count 0.
  for (const char* stage : {"decompose", "pick", "execute"}) {
    metrics.GetHistogram("htd_query_seconds",
                         std::string("stage=\"") + stage + "\"");
  }
}

util::StatusOr<QueryAnswer> QueryEngine::Answer(const cq::Query& query,
                                                const cq::Database& db,
                                                double timeout_seconds,
                                                util::TraceParent trace,
                                                std::optional<bool> count_override) {
  const bool count_solutions =
      count_override.value_or(options_.count_solutions);
  // Schema validation up front: every relation present at the right arity.
  for (const cq::Atom& atom : query.atoms) {
    const cq::Relation* relation = db.Find(atom.relation);
    if (relation == nullptr) {
      return util::Status::InvalidArgument("relation '" + atom.relation +
                                           "' not in database");
    }
    if (relation->arity != static_cast<int>(atom.variables.size())) {
      return util::Status::InvalidArgument("arity mismatch for '" +
                                           atom.relation + "'");
    }
  }
  if (query.atoms.empty()) {
    return util::Status::InvalidArgument("query has no atoms");
  }

  util::MetricsRegistry& metrics = service_->metrics();
  util::WallTimer deadline_timer;
  auto remaining = [&]() -> double {
    if (timeout_seconds <= 0) return kNoDeadline;
    return timeout_seconds - deadline_timer.ElapsedSeconds();
  };
  auto out_of_time = [&]() {
    return timeout_seconds > 0 && remaining() <= 0;
  };

  QueryAnswer answer;
  Hypergraph graph = cq::QueryHypergraph(query);
  answer.fingerprint = service::CanonicalFingerprint(graph);

  auto finish = [&](QueryOutcome outcome) {
    answer.outcome = outcome;
    metrics.GetCounter("htd_queries_total",
                       std::string("outcome=\"") + QueryOutcomeName(outcome) +
                           "\"")
        .Add();
    return answer;
  };

  // Stage 1: decompose through the service — k-sweep plus diversity probes.
  bool all_cache_hits = true;
  int first_yes = -1;
  {
    util::WallTimer timer;
    util::TraceScope span("decompose", trace,
                          static_cast<uint64_t>(graph.num_edges()));
    util::TraceParent probe_trace{span.id(), span.root()};
    int sweep_max = std::min(options_.max_k, graph.num_edges());
    bool deadline_hit = false;
    for (int k = 1; k <= sweep_max; ++k) {
      if (out_of_time()) {
        deadline_hit = true;
        break;
      }
      std::future<service::JobResult> probe =
          service_->Submit(graph, k, remaining(), probe_trace);
      service::JobResult result = AwaitProbe(service_->executor(), probe);
      ++answer.probes;
      if (!result.cache_hit) all_cache_hits = false;
      if (result.result.outcome == Outcome::kCancelled) {
        deadline_hit = true;
        break;
      }
      if (result.result.outcome == Outcome::kError) {
        return util::Status::Internal("decomposition solver failed at k=" +
                                      std::to_string(k));
      }
      if (result.result.outcome == Outcome::kYes) {
        HTD_CHECK(result.result.decomposition.has_value());
        portfolio_.Insert(answer.fingerprint, graph,
                          *result.result.decomposition);
        first_yes = k;
        break;
      }
      // kNo: keep sweeping. Negative results are cached too, so a warm
      // fleet answers the whole sweep without solving.
    }
    if (first_yes > 0) {
      // Diversity probes: higher k admits structurally different trees.
      int upper = std::min(first_yes + options_.extra_k, graph.num_edges());
      for (int k = first_yes + 1; k <= upper; ++k) {
        if (out_of_time()) break;
        std::future<service::JobResult> probe =
            service_->Submit(graph, k, remaining(), probe_trace);
        service::JobResult result = AwaitProbe(service_->executor(), probe);
        ++answer.probes;
        if (!result.cache_hit) all_cache_hits = false;
        if (result.result.outcome != Outcome::kYes) break;
        portfolio_.Insert(answer.fingerprint, graph,
                          *result.result.decomposition);
      }
    }
    answer.decompose_seconds = timer.ElapsedSeconds();
    metrics.GetHistogram("htd_query_seconds", "stage=\"decompose\"")
        .Observe(answer.decompose_seconds);
    answer.decompose_cache_hit = all_cache_hits && answer.probes > 0;
    if (first_yes < 0) {
      return finish(deadline_hit ? QueryOutcome::kDeadline
                                 : QueryOutcome::kNoDecomposition);
    }
  }

  // Stage 2: pick the cheapest retained tree for THIS database.
  PortfolioPick pick;
  {
    util::WallTimer timer;
    util::TraceScope span("pick", trace);
    std::vector<uint64_t> cardinalities(query.atoms.size(), 0);
    for (size_t i = 0; i < query.atoms.size(); ++i) {
      cardinalities[i] = db.Find(query.atoms[i].relation)->tuples.size();
    }
    auto best = portfolio_.PickBest(answer.fingerprint, graph, cardinalities);
    if (!best.has_value()) {
      // The warm stack can hand back trees made for another naming of this
      // query, and the portfolio refuses every tree that is not a GHD of
      // it: when it refused them all, there is nothing to execute.
      return util::Status::Internal(
          "no decomposition the service returned is a GHD of the query");
    }
    pick = std::move(*best);
    answer.pick_seconds = timer.ElapsedSeconds();
  }
  metrics.GetHistogram("htd_query_seconds", "stage=\"pick\"")
      .Observe(answer.pick_seconds);
  metrics.GetCounter("htd_query_portfolio_picks_total",
                     pick.candidate_index == 0 ? "pick=\"first\""
                                               : "pick=\"alternative\"")
      .Add();
  answer.width = pick.width;
  answer.fractional_width = pick.fractional_width;
  answer.estimated_cost = pick.estimated_cost;
  answer.picked_index = pick.candidate_index;
  answer.portfolio_size = pick.num_candidates;

  // Stage 3: execute Yannakakis over the picked tree.
  {
    if (out_of_time()) return finish(QueryOutcome::kDeadline);
    // Fail closed: the warm stack can hand back a tree made for another
    // naming of this query, and executing one that is not a GHD of the
    // request's own hypergraph aborts the process.
    if (Validation valid = ValidateGhd(graph, pick.decomposition); !valid) {
      return util::Status::Internal(
          "picked decomposition is not a GHD of the query: " + valid.error);
    }
    util::WallTimer timer;
    util::TraceScope span("execute", trace,
                          static_cast<uint64_t>(pick.width));
    auto eval = cq::EvaluateWithDecomposition(query, db, pick.decomposition);
    if (!eval.ok()) return eval.status();
    if (!eval->satisfiable) {
      answer.counted = count_solutions;
      answer.execute_seconds = timer.ElapsedSeconds();
      metrics.GetHistogram("htd_query_seconds", "stage=\"execute\"")
          .Observe(answer.execute_seconds);
      return finish(QueryOutcome::kUnsatisfiable);
    }
    answer.witness = eval->witness;
    // Verify the witness against every atom before reporting it: a bad
    // decomposition (or executor bug) must surface as an error, never as a
    // wrong answer.
    for (const cq::Atom& atom : query.atoms) {
      cq::Tuple expected;
      expected.reserve(atom.variables.size());
      for (const std::string& var : atom.variables) {
        auto it = answer.witness.find(var);
        if (it == answer.witness.end()) {
          return util::Status::Internal("witness misses variable '" + var +
                                        "'");
        }
        expected.push_back(it->second);
      }
      const cq::Relation* relation = db.Find(atom.relation);
      if (std::find(relation->tuples.begin(), relation->tuples.end(),
                    expected) == relation->tuples.end()) {
        return util::Status::Internal("witness violates atom over '" +
                                      atom.relation + "'");
      }
    }
    if (count_solutions) {
      auto count = cq::CountSolutions(query, db, pick.decomposition);
      if (!count.ok()) return count.status();
      answer.count = *count;
      answer.counted = true;
    }
    answer.execute_seconds = timer.ElapsedSeconds();
    metrics.GetHistogram("htd_query_seconds", "stage=\"execute\"")
        .Observe(answer.execute_seconds);
  }
  return finish(QueryOutcome::kSatisfiable);
}

}  // namespace htd::qa
