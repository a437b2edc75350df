// QueryEngine: decompose-and-execute conjunctive-query answering.
//
// The end-to-end loop the paper's introduction motivates (and the line of
// work Gottlob–Leone–Scarcello opened): a query's hypergraph is decomposed
// THROUGH the DecompositionService — so the whole warm path (result cache,
// single-flight scheduler, subproblem store, and, one layer up, the shard
// fleet) is exercised — and the resulting join tree drives Yannakakis
// evaluation (cq/yannakakis.h) for a witness and, optionally, the exact
// answer count.
//
// Decomposition probes k = 1, 2, ... like FindOptimalWidth, but every probe
// is a service submission: a warm fleet answers the whole sweep from the
// result cache (kNo probes are cached too). After the first kYes, a few
// higher-k probes run to diversify the portfolio (qa/portfolio.h), which
// then picks the cheapest tree for THIS database's cardinalities.
//
// Observability (PR 6 conventions): per-stage spans "decompose" / "pick" /
// "execute" under the caller's trace parent, htd_query_seconds{stage=...}
// histograms, htd_queries_total{outcome=...} (the four outcomes plus
// "error" for a failed answer) and
// htd_query_portfolio_picks_total{pick=first|alternative} counters — all on
// the service's registry so /v1/metrics renders them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "cq/database.h"
#include "cq/query.h"
#include "cq/yannakakis.h"
#include "qa/portfolio.h"
#include "service/service.h"
#include "util/status.h"
#include "util/trace.h"

namespace htd::qa {

struct QueryEngineOptions {
  /// Largest width probed. A query whose hypertree width exceeds this is
  /// answered kNoDecomposition rather than evaluated (the executor is only
  /// tractable for bounded width).
  int max_k = 8;
  /// Diversity probes past the first kYes width: higher-k solves usually
  /// return structurally different trees, which is what gives the portfolio
  /// something to choose from. 0 = first-found only.
  int extra_k = 2;
  /// Also run the counting DP when the query is satisfiable.
  bool count_solutions = true;
  PortfolioOptions portfolio;
};

enum class QueryOutcome {
  kSatisfiable,      ///< witness attached (count too when enabled)
  kUnsatisfiable,    ///< evaluated; no satisfying assignment exists
  kNoDecomposition,  ///< hypertree width exceeds max_k; not evaluated
  kDeadline,         ///< timed out (decomposing or before executing)
};

const char* QueryOutcomeName(QueryOutcome outcome);

struct QueryAnswer {
  QueryOutcome outcome = QueryOutcome::kDeadline;
  /// Satisfying assignment, verified against every atom's relation.
  std::unordered_map<std::string, int64_t> witness;
  /// Exact answer count (kSatisfiable/kUnsatisfiable when counting is on).
  cq::SolutionCount count;
  bool counted = false;

  service::Fingerprint fingerprint;
  /// Scores of the executed decomposition (zero when none was executed).
  int width = 0;
  double fractional_width = 0.0;
  double estimated_cost = 0.0;
  int picked_index = 0;      ///< 0 = the first-found baseline tree
  int portfolio_size = 0;
  /// True when EVERY decomposition probe was answered from the result
  /// cache — the warm-path signal the smoke test asserts on.
  bool decompose_cache_hit = false;
  int probes = 0;  ///< service submissions made

  double decompose_seconds = 0.0;
  double pick_seconds = 0.0;
  double execute_seconds = 0.0;
};

class QueryEngine {
 public:
  /// `service` must outlive the engine; its registry receives the metrics.
  QueryEngine(service::DecompositionService* service,
              QueryEngineOptions options = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Answers one query. `timeout_seconds` is an end-to-end deadline over
  /// decompose + pick + execute (0 = none); hitting it yields outcome
  /// kDeadline, not an error Status. Status errors are reserved for invalid
  /// requests (missing relation, arity mismatch) and internal failures.
  /// `trace` parents the per-stage spans; a zero TraceParent records none.
  /// `count_override`, when set, replaces options().count_solutions for this
  /// one call (the server's per-request `count` parameter).
  util::StatusOr<QueryAnswer> Answer(const cq::Query& query,
                                     const cq::Database& db,
                                     double timeout_seconds,
                                     util::TraceParent trace = {},
                                     std::optional<bool> count_override = {});

  DecompositionPortfolio& portfolio() { return portfolio_; }
  const QueryEngineOptions& options() const { return options_; }

 private:
  /// Answer past its schema checks: decompose, pick, execute.
  util::StatusOr<QueryAnswer> Run(const cq::Query& query, const cq::Database& db,
                                  double timeout_seconds, util::TraceParent trace,
                                  bool count_solutions);

  service::DecompositionService* service_;
  QueryEngineOptions options_;
  DecompositionPortfolio portfolio_;
};

}  // namespace htd::qa
