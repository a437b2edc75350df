// Thread-local search-step accounting for the parallel-scaling metric.
//
// A "step" is one candidate separator examined, anywhere in the recursion
// (log-k child or parent candidates, det-k candidates inside the hybrid).
//
// DriveCandidates snapshots the executing thread's counter around each
// slot's share of a search, so a candidate's *entire nested cost* —
// including recursive Decompose calls and det-k leaf work — is credited to
// the slot that ran it (see SolveStats::work_total / work_parallel).
#pragma once

namespace htd {

inline thread_local long tls_search_steps = 0;

inline void AddSearchStep() { ++tls_search_steps; }
inline long CurrentSearchSteps() { return tls_search_steps; }

}  // namespace htd
