// Distributed analysis phase: nested-dissection ordering + symbolic
// factorization executed *inside* the simulated ranks, so the cold-start
// cost of analysis lands on the simulated clock (and in the W_analysis /
// msg_analysis counters) instead of host wall time.
//
// The in-sim analysis builds exactly what the factorization reads: the
// separator tree, from subtree-parallel nested dissection
// (order/parallel_nd), and the BlockStructure, from a distributed symbolic
// factorization — a boolean SpGEMM over the separator hierarchy. Each rank
// owns a contiguous subtree of supernodes (the same leader mapping the
// dissection recursion uses), computes their candidate row structures
// locally from the replicated symmetrized pattern, merges fill upward, and
// ships only the row sets that escape its subtree up the leader chain. On
// one rank it is the serial analysis, charged to that rank's clock.
//
// Determinism contract: the in-sim analysis returns a bitwise-identical
// permutation, separator tree, and BlockStructure to the host analysis
// (analyze_host), on every rank. The host path is the oracle;
// tests/test_dist_analysis.cpp pins the equivalence. See DESIGN.md,
// "Distributed analysis" for the structural argument.
#pragma once

#include <memory>

#include "order/nested_dissection.hpp"
#include "simmpi/runtime.hpp"
#include "symbolic/block_structure.hpp"

namespace slu3d {

/// Where the cold-start analysis (ordering + symbolic) runs.
enum class AnalysisMode {
  Host,         ///< on the host, outside the simulated clock (legacy)
  Distributed,  ///< in-sim: subtree-parallel over all ranks
};

/// The complete analysis product. Both parts are identical across ranks
/// and modes (the determinism contract above).
struct AnalysisResult {
  std::unique_ptr<SeparatorTree> tree;
  std::unique_ptr<BlockStructure> bs;
};

/// Host-side analysis — the oracle the in-sim analysis must reproduce.
AnalysisResult analyze_host(const CsrMatrix& A, const NdOptions& opts);

/// Collective in-sim analysis over all ranks of `comm`. `mode` must be
/// Distributed. Every rank returns the full (identical) result; the clock
/// advance, bytes received and messages sent between entry and exit are
/// added to the rank's RankStats::analysis_* counters.
AnalysisResult analyze_in_sim(const CsrMatrix& A, sim::Comm& comm,
                              const NdOptions& opts, AnalysisMode mode);

}  // namespace slu3d
