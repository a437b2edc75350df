#include "qa/portfolio.h"

#include <algorithm>
#include <cmath>

#include "decomp/validation.h"
#include "fractional/cover.h"
#include "util/logging.h"

namespace htd::qa {
namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

uint64_t ShapeDigest(const Decomposition& decomp) {
  uint64_t h = 0x5851f42d4c957f2dull;
  h = Mix(h, static_cast<uint64_t>(decomp.num_nodes()));
  for (int u = 0; u < decomp.num_nodes(); ++u) {
    const DecompNode& node = decomp.node(u);
    h = Mix(h, static_cast<uint64_t>(node.parent) + 1);
    for (int e : node.lambda) h = Mix(h, 0x10000ull + static_cast<uint64_t>(e));
    node.chi.ForEach(
        [&](int v) { h = Mix(h, 0x20000ull + static_cast<uint64_t>(v)); });
  }
  return h;
}

// (fractional width, width) — the cardinality-independent quality order used
// both for capacity eviction and as the PickBest tie-break.
bool QualityBetter(const double fw_a, const int w_a, const double fw_b,
                   const int w_b) {
  if (fw_a != fw_b) return fw_a < fw_b;
  return w_a < w_b;
}

}  // namespace

uint64_t LabelledGraphDigest(const Hypergraph& graph) {
  uint64_t h = 0x243f6a8885a308d3ull;
  h = Mix(h, static_cast<uint64_t>(graph.num_vertices()));
  h = Mix(h, static_cast<uint64_t>(graph.num_edges()));
  for (int e = 0; e < graph.num_edges(); ++e) {
    h = Mix(h, 0x40000ull + static_cast<uint64_t>(e));
    for (int v : graph.edge_vertex_list(e)) {
      h = Mix(h, static_cast<uint64_t>(v));
    }
  }
  return h;
}

DecompositionPortfolio::DecompositionPortfolio(PortfolioOptions options)
    : options_(options) {
  HTD_CHECK_GE(options_.capacity_per_key, 1);
  HTD_CHECK_GE(options_.max_keys, size_t{1});
}

bool DecompositionPortfolio::Insert(const service::Fingerprint& fingerprint,
                                    const Hypergraph& graph,
                                    const Decomposition& decomposition) {
  // A tree made for another naming of the query is not executable against
  // this one; refuse it rather than store, score and pick it.
  if (!ValidateGhd(graph, decomposition)) return false;
  Candidate candidate;
  candidate.decomposition = decomposition;
  candidate.width = decomposition.Width();
  candidate.shape_digest = ShapeDigest(decomposition);
  candidate.node_covers.reserve(decomposition.num_nodes());
  double fractional_width = 0.0;
  for (int u = 0; u < decomposition.num_nodes(); ++u) {
    fractional::FractionalCover cover =
        fractional::FractionalEdgeCover(graph, decomposition.node(u).chi);
    fractional_width = std::max(fractional_width, cover.weight);
    candidate.node_covers.push_back(std::move(cover.edge_weights));
  }
  candidate.fractional_width = fractional_width;

  Key key{fingerprint, LabelledGraphDigest(graph)};
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= options_.max_keys) {
      auto oldest = entries_.begin();
      for (auto e = entries_.begin(); e != entries_.end(); ++e) {
        if (e->second.inserted_at < oldest->second.inserted_at) oldest = e;
      }
      entries_.erase(oldest);
    }
    it = entries_.emplace(key, Entry{{}, ++clock_}).first;
  }
  Entry& entry = it->second;
  for (const Candidate& existing : entry.candidates) {
    if (existing.shape_digest == candidate.shape_digest) return false;
  }
  if (entry.candidates.size() <
      static_cast<size_t>(options_.capacity_per_key)) {
    entry.candidates.push_back(std::move(candidate));
    return true;
  }
  // Full: replace the quality-worst candidate if the newcomer beats it.
  // Slot 0 (first-found, the baseline) is never evicted.
  size_t worst = 1;
  for (size_t i = 2; i < entry.candidates.size(); ++i) {
    if (QualityBetter(entry.candidates[worst].fractional_width,
                      entry.candidates[worst].width,
                      entry.candidates[i].fractional_width,
                      entry.candidates[i].width)) {
      worst = i;
    }
  }
  if (worst < entry.candidates.size() &&
      QualityBetter(candidate.fractional_width, candidate.width,
                    entry.candidates[worst].fractional_width,
                    entry.candidates[worst].width)) {
    entry.candidates[worst] = std::move(candidate);
    return true;
  }
  return false;
}

double DecompositionPortfolio::EstimateCost(
    const Candidate& candidate,
    const std::vector<uint64_t>& edge_cardinalities) {
  // AGM bound per node in log space: Σ_e x_e · ln(max(1, N_e)); the node
  // costs are summed in linear space (total intermediate tuples built).
  double total = 0.0;
  for (const auto& cover : candidate.node_covers) {
    double log_bound = 0.0;
    for (const auto& [edge, weight] : cover) {
      double n = 1.0;
      if (edge >= 0 && static_cast<size_t>(edge) < edge_cardinalities.size()) {
        n = std::max<double>(1.0, static_cast<double>(edge_cardinalities[edge]));
      }
      log_bound += weight * std::log(n);
    }
    total += std::exp(log_bound);
  }
  return total;
}

PortfolioPick DecompositionPortfolio::MakePick(
    const Candidate& candidate, int index, int num_candidates,
    const std::vector<uint64_t>& cardinalities) {
  PortfolioPick pick;
  pick.decomposition = candidate.decomposition;
  pick.width = candidate.width;
  pick.fractional_width = candidate.fractional_width;
  pick.estimated_cost = EstimateCost(candidate, cardinalities);
  pick.candidate_index = index;
  pick.num_candidates = num_candidates;
  return pick;
}

std::optional<PortfolioPick> DecompositionPortfolio::PickBest(
    const service::Fingerprint& fingerprint, const Hypergraph& graph,
    const std::vector<uint64_t>& edge_cardinalities) const {
  Key key{fingerprint, LabelledGraphDigest(graph)};
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.candidates.empty()) {
    return std::nullopt;
  }
  const std::vector<Candidate>& candidates = it->second.candidates;
  int best = 0;
  double best_cost = EstimateCost(candidates[0], edge_cardinalities);
  for (size_t i = 1; i < candidates.size(); ++i) {
    double cost = EstimateCost(candidates[i], edge_cardinalities);
    bool better = cost < best_cost ||
                  (cost == best_cost &&
                   QualityBetter(candidates[i].fractional_width,
                                 candidates[i].width,
                                 candidates[best].fractional_width,
                                 candidates[best].width));
    if (better) {
      best = static_cast<int>(i);
      best_cost = cost;
    }
  }
  return MakePick(candidates[best], best, static_cast<int>(candidates.size()),
                  edge_cardinalities);
}

std::optional<PortfolioPick> DecompositionPortfolio::PickFirst(
    const service::Fingerprint& fingerprint, const Hypergraph& graph,
    const std::vector<uint64_t>& edge_cardinalities) const {
  Key key{fingerprint, LabelledGraphDigest(graph)};
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.candidates.empty()) {
    return std::nullopt;
  }
  return MakePick(it->second.candidates[0], 0,
                  static_cast<int>(it->second.candidates.size()),
                  edge_cardinalities);
}

std::vector<Decomposition> DecompositionPortfolio::Candidates(
    const service::Fingerprint& fingerprint, const Hypergraph& graph) const {
  Key key{fingerprint, LabelledGraphDigest(graph)};
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Decomposition> out;
  auto it = entries_.find(key);
  if (it == entries_.end()) return out;
  for (const Candidate& candidate : it->second.candidates) {
    out.push_back(candidate.decomposition);
  }
  return out;
}

int DecompositionPortfolio::CandidateCount(
    const service::Fingerprint& fingerprint, const Hypergraph& graph) const {
  Key key{fingerprint, LabelledGraphDigest(graph)};
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  return it == entries_.end() ? 0
                              : static_cast<int>(it->second.candidates.size());
}

size_t DecompositionPortfolio::num_keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace htd::qa
