// Shared helpers of the benchmark harness: flags, JSON output, seeded
// renamings, reference widths, /proc snapshots and the in-memory span
// recorder of the traced run.
//
// Nothing here is instrumentation inside the library: spans are recorded
// around the harness's own calls into each layer.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cq/query.h"
#include "decomp/decomposition.h"
#include "hypergraph/hypergraph.h"

namespace perfbench {

/// "--name value" flags; every flag takes a value. The accessors without a
/// fallback exit with a usage error when the flag is missing.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string Str(const std::string& name) const;
  std::string Str(const std::string& name, const std::string& fallback) const;
  double Num(const std::string& name) const;
  long Int(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Seconds on the steady clock since process start.
double Now();

/// JSON string literal with escapes.
std::string JsonStr(const std::string& text);
/// Full-precision JSON number ("null" for NaN/inf).
std::string JsonNum(double value);

/// Writes `text` to `path`; aborts the process on failure.
void WriteFile(const std::string& path, const std::string& text);
/// Whole file as text ("" when unreadable).
std::string ReadFile(const std::string& path);

/// An isomorphic copy of `graph` with fresh vertex and edge names, vertices
/// created in a seeded random order and edges in a seeded random order, so
/// both the names and the ids differ from the original.
htd::Hypergraph RenamedCopy(const htd::Hypergraph& graph, uint64_t seed);

/// The query with variables renamed and atoms reordered by `seed`
/// (relation symbols keep their names so the database still applies).
htd::cq::Query RenamedQuery(const htd::cq::Query& query, uint64_t seed);

/// Reference hypertree width for the output checks: the generator's
/// `known_width` when set, else the optimal width found by det-k-decomp
/// (Gottlob–Samer) within `budget_seconds`; nullopt when neither exists.
struct Reference {
  std::optional<int> width;
  std::string source;  ///< "known", "detk" or "none"
};
Reference ReferenceWidth(const htd::Hypergraph& graph,
                         std::optional<int> known_width, double budget_seconds);

/// Optimal-width HD found by det-k-decomp within the budget (the query
/// reference evaluates over it).
std::optional<htd::Decomposition> DetKDecomposition(const htd::Hypergraph& graph,
                                                    double budget_seconds);

/// Full text of /proc/self/stat and /proc/self/status, for the Python
/// readers that turn them into CPU time and peak RSS.
std::string ProcSnapshotJson();

/// One span of the traced run. Times are Now() seconds.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t id = 0;
  int64_t parent = 0;      ///< 0 = root
  int64_t request_id = 0;  ///< spans of one operation share it
  std::string attrs;       ///< JSON object text, "{}" when empty
};

/// In-memory span store: recording never touches a file; the caller writes
/// ToJsonLines() out at exit. Single-threaded.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Opens a span and returns its id (0 when disabled).
  int64_t Begin(const std::string& name, int64_t parent, int64_t request_id);
  void End(int64_t id, std::string attrs = "{}");
  /// Appends a completed span with explicit times.
  void Add(const std::string& name, double start, double end, int64_t parent,
           int64_t request_id, std::string attrs = "{}");
  /// One JSON object per line.
  std::string ToJsonLines() const;

 private:
  bool enabled_;
  int64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// splitmix64 step, for deriving per-item seeds.
uint64_t Mix(uint64_t x);

}  // namespace perfbench
