// Parallel nested dissection on the simulated runtime — the role ParMETIS
// plays for SuperLU_DIST. The dissection recursion is mapped onto the
// rank tree: a group's first ranks split the level-set seed list of its
// top separator between them, the leader broadcasts which seed won and the
// winner broadcasts the split, the two halves of the communicator recurse
// on the two subdomains concurrently, and subtree orderings are merged
// upward and finally broadcast, so every rank ends with the identical
// SeparatorTree.
#pragma once

#include "order/nested_dissection.hpp"
#include "simmpi/runtime.hpp"

namespace slu3d {

/// Computes a nested-dissection ordering of A cooperatively over all
/// ranks of `comm` (any size >= 1). Collective; deterministic; returns
/// nested_dissection(A, opts)'s tree, bitwise, on every rank: the
/// parallelism only changes who computes what. A level-set split runs on
/// the first min(group size, seeds) ranks of its group, each trying its
/// residue class of the serial seed list; a leaf-sized set and a
/// Multilevel split run on the group leader. Each rank builds one
/// dissector on entry and reuses it for every split, seed and local
/// recursion. Every split a rank computes is charged to its simulated
/// clock through a work model (kNdWorkFactor in parallel_nd.cpp), so the
/// ordering stage shows up in the LogGP critical path like any numeric
/// kernel would.
SeparatorTree parallel_nested_dissection(const CsrMatrix& A, sim::Comm& comm,
                                         const NdOptions& opts = {});

}  // namespace slu3d
