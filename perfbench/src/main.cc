// perfbench_harness: the compiled half of the benchmark (perfbench/run.py is
// the other half and the entry point).
//
//   perfbench_harness corpus --seed N --trace 0|1 --out FILE [--spans FILE]
//   perfbench_harness serve-warm|serve-query --seed N --seconds S --trace 0|1
//                     --dir DIR --out FILE [--spans FILE]
//   perfbench_harness selftest
//
// Everything else that shapes a workload (deadline, passes, offered rate,
// connections) is a constant of its source file.
#include <cstdio>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s corpus|serve-warm|serve-query|selftest [--flag value]...\n",
                 argv[0]);
    return 2;
  }
  const std::string command = argv[1];
  perfbench::Flags flags(argc, argv, 2);
  if (command == "corpus") return perfbench::RunCorpus(flags);
  if (command == "serve-warm" || command == "serve-query") {
    return perfbench::RunServe(flags, command);
  }
  if (command == "selftest") return perfbench::RunSelfTest();
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}
