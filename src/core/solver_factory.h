// Name-based solver construction.
//
// The benchmark harnesses and the service layer both need to build solvers
// from a configuration value rather than a hard-coded type. This registry
// maps the stable names used in CLIs, manifests, and cache keys to factories
// over the solvers of this repository:
//
//   "logk"        LogKDecomp        (paper Algorithm 2, optimised)
//   "logk-basic"  LogKDecompBasic   (paper Algorithm 1)
//   "detk"        DetKDecomp        (Gottlob & Samer baseline)
//   "hybrid"      log-k ➞ det-k hybrid at the corpus-tuned threshold (§D.2)
//   "balsep-ghd"  BalSepGhd         (balanced-separator GHD baseline)
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.h"
#include "util/status.h"

namespace htd {

/// Fresh-solver factory; matches bench::SolverFactory so harnesses can share.
using SolverFactoryFn = std::function<std::unique_ptr<HdSolver>(const SolveOptions&)>;

/// The names accepted by MakeSolverFactory, in presentation order.
std::vector<std::string> KnownSolverNames();

/// Resolves a solver name to a factory; kInvalidArgument for unknown names.
util::StatusOr<SolverFactoryFn> MakeSolverFactory(const std::string& name);

/// Stable 64-bit digest of the configuration axes that change what a solve
/// can return (solver identity, hybrid strategy, subproblem caching — both
/// the per-run negative cache and the presence of a cross-instance
/// subproblem store, which can swap one valid decomposition for another).
/// Used as the config component of result-cache keys; deliberately EXCLUDES
/// execution-only knobs (num_threads, cancel, validate_result,
/// parallel_min_size) so e.g. a 1-thread and an 8-thread run share cache
/// entries.
uint64_t SolverConfigDigest(const std::string& name, const SolveOptions& options);

}  // namespace htd
