#include "common.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

#include "baselines/det_k_decomp.h"
#include "core/solver.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace perfbench {

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i + 1 < argc; i += 2) {
    std::string name = argv[i];
    if (name.rfind("--", 0) != 0) {
      std::fprintf(stderr, "perfbench: expected --flag, got %s\n", argv[i]);
      std::exit(2);
    }
    values_[name.substr(2)] = argv[i + 1];
  }
  if ((argc - first) % 2 != 0) {
    std::fprintf(stderr, "perfbench: flag %s has no value\n", argv[argc - 1]);
    std::exit(2);
  }
}

std::string Flags::Str(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    std::fprintf(stderr, "perfbench: missing flag --%s\n", name.c_str());
    std::exit(2);
  }
  return it->second;
}

std::string Flags::Str(const std::string& name, const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double Flags::Num(const std::string& name) const {
  return std::strtod(Str(name).c_str(), nullptr);
}

long Flags::Int(const std::string& name) const {
  return std::strtol(Str(name).c_str(), nullptr, 10);
}

double Now() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

std::string JsonStr(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNum(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

htd::Hypergraph RenamedCopy(const htd::Hypergraph& graph, uint64_t seed) {
  htd::util::Rng rng(Mix(seed));
  std::vector<int> vertex_order(graph.num_vertices());
  std::iota(vertex_order.begin(), vertex_order.end(), 0);
  rng.Shuffle(vertex_order);
  std::vector<int> edge_order(graph.num_edges());
  std::iota(edge_order.begin(), edge_order.end(), 0);
  rng.Shuffle(edge_order);

  const std::string tag = std::to_string(seed % 1000);
  htd::Hypergraph copy;
  std::vector<int> new_id(graph.num_vertices());
  for (int v : vertex_order) {
    new_id[v] = copy.GetOrAddVertex("r" + tag + "v" + std::to_string(v));
  }
  for (int e : edge_order) {
    std::vector<int> vertices;
    for (int v : graph.edge_vertex_list(e)) vertices.push_back(new_id[v]);
    auto added = copy.AddEdge("r" + tag + "e" + std::to_string(e), vertices);
    if (!added.ok()) std::abort();
  }
  return copy;
}

htd::cq::Query RenamedQuery(const htd::cq::Query& query, uint64_t seed) {
  htd::util::Rng rng(Mix(seed));
  std::vector<int> atom_order(query.atoms.size());
  std::iota(atom_order.begin(), atom_order.end(), 0);
  rng.Shuffle(atom_order);
  const std::string tag = "R" + std::to_string(seed % 1000) + "_";
  htd::cq::Query renamed;
  for (int a : atom_order) {
    htd::cq::Atom atom = query.atoms[a];
    for (auto& variable : atom.variables) variable = tag + variable;
    renamed.atoms.push_back(std::move(atom));
  }
  return renamed;
}

namespace {

/// FindOptimalWidth with det-k under one deadline for all its probes.
htd::OptimalRun DetKOptimal(const htd::Hypergraph& graph, double budget_seconds) {
  htd::util::CancelToken token;
  token.SetTimeout(std::chrono::duration<double>(budget_seconds));
  htd::SolveOptions options;
  options.cancel = &token;
  htd::DetKDecomp solver(options);
  return htd::FindOptimalWidth(solver, graph, 16);
}

}  // namespace

Reference ReferenceWidth(const htd::Hypergraph& graph,
                         std::optional<int> known_width, double budget_seconds) {
  if (known_width.has_value()) return Reference{known_width, "known"};
  htd::OptimalRun run = DetKOptimal(graph, budget_seconds);
  if (run.outcome == htd::Outcome::kYes) return Reference{run.width, "detk"};
  return Reference{std::nullopt, "none"};
}

std::optional<htd::Decomposition> DetKDecomposition(const htd::Hypergraph& graph,
                                                    double budget_seconds) {
  htd::OptimalRun run = DetKOptimal(graph, budget_seconds);
  if (run.outcome != htd::Outcome::kYes) return std::nullopt;
  return std::move(run.decomposition);
}

std::string ProcSnapshotJson() {
  return "{\"stat\": " + JsonStr(ReadFile("/proc/self/stat")) +
         ", \"status\": " + JsonStr(ReadFile("/proc/self/status")) +
         ", \"t\": " + JsonNum(Now()) + "}";
}

int64_t SpanRecorder::Begin(const std::string& name, int64_t parent,
                            int64_t request_id) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.start = Now();
  span.id = next_id_++;
  span.parent = parent;
  span.request_id = request_id;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(int64_t id, std::string attrs) {
  if (!enabled_ || id == 0) return;
  const double now = Now();
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end = now;
      it->attrs = std::move(attrs);
      return;
    }
  }
}

void SpanRecorder::Add(const std::string& name, double start, double end,
                       int64_t parent, int64_t request_id, std::string attrs) {
  if (!enabled_) return;
  spans_.push_back(
      Span{name, start, end, next_id_++, parent, request_id, std::move(attrs)});
}

std::string SpanRecorder::ToJsonLines() const {
  std::string out;
  for (const Span& span : spans_) {
    out += "{\"name\": " + JsonStr(span.name) + ", \"start\": " +
           JsonNum(span.start) + ", \"end\": " + JsonNum(span.end) +
           ", \"id\": " + std::to_string(span.id) +
           ", \"parent\": " + std::to_string(span.parent) +
           ", \"request_id\": " + std::to_string(span.request_id) +
           ", \"attrs\": " + (span.attrs.empty() ? "{}" : span.attrs) + "}\n";
  }
  return out;
}

}  // namespace perfbench
