// Parallel nested dissection on the simulated runtime — the role ParMETIS
// plays for SuperLU_DIST. The dissection recursion is mapped onto the
// rank tree: the group leader computes the top separator and broadcasts
// the split, the two halves of the communicator recurse on the two
// subdomains concurrently, and subtree orderings are merged upward and
// finally broadcast, so every rank ends with the identical SeparatorTree.
#pragma once

#include "order/nested_dissection.hpp"
#include "simmpi/runtime.hpp"

namespace slu3d {

/// Computes a nested-dissection ordering of A cooperatively over all
/// ranks of `comm` (any size >= 1). Collective; deterministic; returns
/// the same tree on every rank, and the same *kind* of tree a serial
/// nested_dissection would produce (separator choices at the top levels
/// are identical — the parallelism only changes who computes what).
/// Every split a rank computes is charged to its simulated clock through
/// a work model (kNdWorkFactor in parallel_nd.cpp), so the ordering stage
/// shows up in the LogGP critical path like any numeric kernel would.
SeparatorTree parallel_nested_dissection(const CsrMatrix& A, sim::Comm& comm,
                                         const NdOptions& opts = {});

}  // namespace slu3d
