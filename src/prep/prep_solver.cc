#include "prep/prep_solver.h"

#include <utility>
#include <vector>

#include "decomp/validation.h"
#include "util/timer.h"

namespace htd {
namespace {

class OwningPreprocessingSolver : public HdSolver {
 public:
  OwningPreprocessingSolver(std::unique_ptr<HdSolver> inner,
                            PreprocessOptions options, bool validate_result)
      : inner_(std::move(inner)),
        wrapper_(*inner_, options, validate_result) {}

  SolveResult Solve(const Hypergraph& graph, int k) override {
    return wrapper_.Solve(graph, k);
  }
  std::string name() const override { return wrapper_.name(); }

 private:
  std::unique_ptr<HdSolver> inner_;
  PreprocessingSolver wrapper_;
};

}  // namespace

std::unique_ptr<HdSolver> MakePreprocessingSolver(std::unique_ptr<HdSolver> inner,
                                                  PreprocessOptions options,
                                                  bool validate_result) {
  return std::make_unique<OwningPreprocessingSolver>(std::move(inner), options,
                                                     validate_result);
}

SolveResult PreprocessingSolver::Solve(const Hypergraph& graph, int k) {
  util::WallTimer timer;
  PreprocessedInstance instance = Preprocess(graph, options_);
  last_prep_stats_ = instance.stats();

  SolveResult result;
  result.outcome = Outcome::kYes;

  // hw(H) = max over components (and is unchanged by the reductions), so the
  // decision for H is the conjunction of the per-component decisions.
  std::vector<Decomposition> component_decomps;
  bool all_constructed = true;
  for (const ReducedComponent& component : instance.components()) {
    SolveResult sub = inner_.Solve(component.graph, k);
    result.stats.Add(sub.stats);
    if (sub.outcome != Outcome::kYes) {
      result.outcome = sub.outcome;
      result.stats.seconds = timer.ElapsedSeconds();
      return result;
    }
    if (sub.decomposition.has_value()) {
      component_decomps.push_back(*std::move(sub.decomposition));
    } else {
      all_constructed = false;  // decision-only inner solver
    }
  }

  if (all_constructed) {
    result.decomposition = instance.Lift(graph, component_decomps);
    if (validate_result_) {
      Validation validation = ValidateHdWithWidth(graph, *result.decomposition, k);
      if (!validation) {
        result.outcome = Outcome::kError;
        result.decomposition.reset();
      }
    }
  }
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace htd
