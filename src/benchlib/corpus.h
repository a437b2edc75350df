// HyperBench-like synthetic corpus (docs/ARCHITECTURE.md, "Substitutions").
//
// HyperBench (Fischl et al. 2021) contains 3648 hypergraphs of CQs and CSPs;
// the paper's Table 1 stratifies them by origin (Application / Synthetic)
// and edge-count bins. This module builds a deterministic offline corpus
// with the same stratification and a family mix modelled on HyperBench's
// published profile: application bins are dominated by small, low-width CQs
// (mostly acyclic or hw 2), synthetic bins by CSP-style instances including
// genuinely hard high-width ones. Counts are scaled by `scale` to keep the
// full benchmark suite laptop-runnable.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"

namespace htd::bench {

enum class Origin { kApplication, kSynthetic };

/// Table 1's size bins.
enum class SizeBin { kUpTo10, k10To50, k50To75, k75To100, kOver100 };

std::string OriginName(Origin origin);
std::string SizeBinName(SizeBin bin);
SizeBin BinForEdgeCount(int num_edges);

struct Instance {
  std::string name;
  Origin origin;
  Hypergraph graph;
  /// Width known by construction (paths/acyclic: 1, cycles: 2, ...);
  /// unset for families without a closed form.
  std::optional<int> known_width;
};

struct CorpusConfig {
  uint64_t seed = 20220612;
  /// Replication factor: instances per (family, parameter) cell. The default
  /// yields ~190 instances; raise for larger studies.
  int scale = 1;
};

/// Builds the full stratified corpus.
std::vector<Instance> BuildHyperBenchLikeCorpus(const CorpusConfig& config = {});

/// The HB_large analogue (§5.2): instances with more than 50 edges whose
/// width is at most 6 — selected exactly as the paper does, by |E| and known
/// or previously determined width. `widths[i]` < 0 means unknown (excluded).
std::vector<int> SelectLargeSubset(const std::vector<Instance>& corpus,
                                   const std::vector<int>& widths);

}  // namespace htd::bench
