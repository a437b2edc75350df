// Direct calls into single layers on the corpus, for the traced
// solve-corpus run: the hypergraph parser, the canonical form, and
// SplitComponents on seeded (instance, separator) pairs.
#include "workloads.h"

#include <algorithm>
#include <cstdlib>

#include "decomp/components.h"
#include "decomp/extended_subhypergraph.h"
#include "decomp/special_edges.h"
#include "hypergraph/parser.h"
#include "hypergraph/writer.h"
#include "service/canonical.h"
#include "util/rng.h"

namespace perfbench {

std::string DirectCorpusPass(const std::vector<htd::bench::Instance>& corpus,
                             uint64_t seed, SpanRecorder& spans) {
  constexpr int kSeparatorsPerInstance = 16;
  constexpr int kRepeats = 8;
  double parse = 0.0, fingerprint = 0.0, split = 0.0;
  long splits = 0;
  htd::util::Rng rng(Mix(seed ^ 0xd1ec7ULL));
  for (const auto& instance : corpus) {
    const std::string text = htd::WriteHyperBench(instance.graph);
    double start = Now();
    auto parsed = htd::ParseAuto(text);
    parse += Now() - start;
    spans.Add("direct.parse", start, Now(), 0, 0);

    start = Now();
    auto form = htd::service::ComputeCanonicalForm(instance.graph);
    fingerprint += Now() - start;
    spans.Add("direct.fingerprint", start, Now(), 0, 0);

    // Separators like the solvers try: the union of 1..3 random edges.
    const htd::Hypergraph& graph = instance.graph;
    htd::SpecialEdgeRegistry registry(graph.num_vertices());
    const auto full = htd::ExtendedSubhypergraph::FullGraph(graph);
    for (int s = 0; s < kSeparatorsPerInstance; ++s) {
      const int size = rng.UniformInt(1, std::min(3, graph.num_edges()));
      const auto edges = rng.SampleDistinct(0, graph.num_edges() - 1, size);
      const auto separator = graph.UnionOfEdges(edges);
      start = Now();
      for (int r = 0; r < kRepeats; ++r) {
        auto result = htd::SplitComponents(graph, registry, full, separator);
        if (result.components.size() > static_cast<size_t>(graph.num_edges())) {
          std::abort();  // keeps the call from being optimised away
        }
      }
      split += Now() - start;
      splits += kRepeats;
      spans.Add("direct.split", start, Now(), 0, 0,
                "{\"calls\": " + std::to_string(kRepeats) + "}");
    }
  }
  return "{\"calls\": " + std::to_string(corpus.size()) +
         ", \"parse_s\": " + JsonNum(parse) +
         ", \"fingerprint_s\": " + JsonNum(fingerprint) +
         ", \"split_s\": " + JsonNum(split) +
         ", \"splits\": " + std::to_string(splits) + "}";
}

}  // namespace perfbench
