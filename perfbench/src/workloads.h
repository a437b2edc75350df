// Entry points of the benchmark harness's subcommands (main.cc dispatches).
#pragma once

#include <string>
#include <vector>

#include "benchlib/corpus.h"
#include "common.h"

namespace perfbench {

/// solve-corpus: in-process optimal-width protocol over the corpus.
int RunCorpus(const Flags& flags);

/// serve-warm / serve-query client: prepares inputs and warm state, then
/// drives a running hdserver over keep-alive HTTP (stdin handshake with the
/// Python runner) and checks every response.
int RunServe(const Flags& flags, const std::string& workload);

/// Direct calls into single layers on the corpus (traced solve-corpus run):
/// ParseAuto, ComputeCanonicalForm and SplitComponents on seeded
/// (instance, separator) pairs. Returns a JSON object of per-call timings.
std::string DirectCorpusPass(const std::vector<htd::bench::Instance>& corpus,
                             uint64_t seed, SpanRecorder& spans);

/// Measurement self-test that needs the library: the checker must reject a
/// cache hit's decomposition served for a renamed MakeGrid(3,3).
int RunSelfTest();

}  // namespace perfbench
