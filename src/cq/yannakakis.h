// HD-guided conjunctive-query evaluation (Yannakakis 1981).
//
// This is the application that motivates the paper (§1): an HD of width k
// reduces CQ evaluation to an acyclic instance — each decomposition node
// materialises the ≤ k-way join of its λ-atoms projected to its bag, atoms
// are enforced at a covering node, and two semi-join sweeps (bottom-up, then
// top-down) make the tree globally consistent in time polynomial for fixed
// k. A witness assignment is then read off top-down, and the answer count,
// when asked for, by dynamic programming over the reduced tree.
//
// EvaluateBruteForce provides the oracle the tests compare against.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "cq/database.h"
#include "cq/query.h"
#include "decomp/decomposition.h"
#include "util/status.h"

namespace htd::cq {

/// Answer count with explicit overflow signalling. When `saturated` is set,
/// the true count exceeds ULLONG_MAX and `value` is pinned at ULLONG_MAX;
/// otherwise `value` is exact.
struct SolutionCount {
  unsigned long long value = 0;
  bool saturated = false;
};

struct EvalResult {
  bool satisfiable = false;
  /// A satisfying assignment (variable name → value) when satisfiable.
  std::unordered_map<std::string, int64_t> witness;
  /// The answer count; filled only when evaluation was asked to count.
  SolutionCount count;
};

/// Evaluates `query` on `db` guided by an HD (or GHD) of the query's
/// hypergraph in one pass: node relations, both semijoin sweeps, the
/// witness, and — when `count_solutions` is set — the answer count under set
/// semantics by dynamic programming over the reduced tree (the tractable
/// counting application the paper's introduction cites, Pichler & Skritek
/// 2013). The DP accumulates in unsigned __int128 with saturating
/// arithmetic, so a count that no longer fits is reported via
/// SolutionCount::saturated instead of silently wrapping.
/// Fails with InvalidArgument if a relation is missing, arities mismatch, or
/// `decomp` is not a tree this query can be evaluated over (an atom no bag
/// covers, an empty λ, a bag its λ-atoms do not cover).
util::StatusOr<EvalResult> EvaluateWithDecomposition(const Query& query,
                                                     const Database& db,
                                                     const Decomposition& decomp,
                                                     bool count_solutions = false);

/// Baseline: backtracking join over the atoms (exponential; for testing).
util::StatusOr<EvalResult> EvaluateBruteForce(const Query& query, const Database& db);

/// The answer count alone: EvaluateWithDecomposition with counting on.
util::StatusOr<SolutionCount> CountSolutions(const Query& query,
                                             const Database& db,
                                             const Decomposition& decomp);

/// Exponential counting oracle for tests.
util::StatusOr<unsigned long long> CountSolutionsBruteForce(const Query& query,
                                                            const Database& db);

}  // namespace htd::cq
