#!/usr/bin/env bash
# Full verification sweep: plain build + tests, then the same suite under
# ASan/UBSan (SLU3D_SANITIZE=ON) and ThreadSanitizer (SLU3D_TSAN=ON). The
# simulated MPI ranks are real threads, so the TSAN run is what certifies
# the non-blocking communication layer (shared mailbox queues, per-rank
# network clocks) free of data races.
#
# ctest runs with --stop-on-failure, so the sweep fails fast on the first
# failing test of the first failing configuration instead of burning the
# remaining (sanitizer-slowed) legs. Before testing, the presence of the
# load-bearing suites (comm-equivalence, golden counters) is asserted so a
# registration regression cannot silently pass an empty sweep.
#
#   tools/check.sh          # all three configurations
#   tools/check.sh plain    # just the plain build
#   tools/check.sh asan     # just ASan/UBSan
#   tools/check.sh tsan     # just TSAN
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

# Suites every configuration must register, matched by whole gtest suite
# name (after any `Instance/` prefix, before the `.`):
#   BinomialTree: the one tree every simmpi broadcast and reduction and
#     the 3D solve's slice broadcasts walk (parent and children by
#     definition, each non-root listed by exactly its parent);
#   CommEquivalence, GoldenCommCounters: bitwise factors across schedules
#     and wires, and the pinned bytes, messages and critical-path clocks of
#     the Dense and Targeted wires;
#   DiagonalDelivery: each factored diagonal block reaches exactly the
#     ranks that solve against it, from its owner, nearest ancestor first;
#   FactorSchedule: the panel engine factors every level leaves first, in
#     the forward solve's (nd_height, id) order;
#   PanelWindow: an unset lookahead window is panel_lookahead of the
#     plane (8 below 64 ranks, else open), an explicit one wins, and the
#     open window shortens a Targeted factorization on an 8x8 plane;
#   ParallelNdSeeds: a level-set split's seeds run on separate ranks of
#     its group (a seed-only rank charges ND work, a rank past the seed
#     count none, a disconnected set keeps the split on its leader), and
#     every rank still gets nested_dissection's tree;
#   PaperTrends: Fig. 9's qualitative claims, which a schedule change
#     moves: 3D beats 2D, the non-planar gains are modest and Schur-update
#     bound, and the lookahead window shortens the critical path;
#   RandomTargetedDeliveryFuzz: the Targeted footprint messages under
#     random densities;
#   RelaxedLeaf: the service derives its ND leaf from its process grid
#     (relaxed_leaf_size), keeps an explicit one, and factors faster with
#     fewer supernodes for it on a 16-rank plane;
#   Rma: the one-sided windows the ledger's put microbenchmark drives;
#   PlatformRuntime, AllgathervSweep: the charge path and the log-depth
#     allgatherv every solve and analysis ends with;
#   DistAnalysis, DistAnalysisSweep: the in-sim analysis against its host
#     oracle, and its analysis split (a rank's counters before and after
#     analyze_in_sim);
#   SolveSchedulePin, SolveScheduleFuzz: bitwise solution pins and a fuzz
#     of the solve's routing over unbalanced trees at every z-depth;
#   SolverFleet: the sharded front end (coalesced batch dispatch,
#     cache-warm migration);
#   SnodeWidthCap: supernodes of at most kMaxSnodeWidth columns, the
#     chains of split separators against the host oracle and through the
#     solve;
#   SparseZReduction: the z-reduction of a Targeted run against the Dense
#     run (bitwise factors, fewer Z bytes in as many messages);
#   ParserFuzz: mutated MatrixMarket and platform texts parse or throw
#     slu3d::Error.
REQUIRED_SUITES=(BinomialTree CommEquivalence GoldenCommCounters
                 DiagonalDelivery FactorSchedule PanelWindow ParallelNdSeeds
                 PaperTrends RandomTargetedDeliveryFuzz RelaxedLeaf Rma
                 PlatformRuntime AllgathervSweep DistAnalysis DistAnalysisSweep
                 SolveSchedulePin SolveScheduleFuzz SolverFleet
                 SnodeWidthCap SparseZReduction ParserFuzz)

require_suites() {
  local dir="$1" suites
  # `ctest -N` lists "Test #N: [Instance/]Suite.Test[/Param] ...".
  suites="$(ctest --test-dir "$dir" -N |
    sed -n 's/^ *Test *#[0-9]*: \([^ .]*\)\..*/\1/p' | sed 's|.*/||' |
    sort -u)"
  for suite in "${REQUIRED_SUITES[@]}"; do
    if ! grep -qxF "$suite" <<<"$suites"; then
      echo "error: required test suite '$suite' not registered in $dir" >&2
      exit 1
    fi
  done
}

run_config() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [$name] configure ===="
  cmake -B "$dir" -S . "$@" >/dev/null
  echo "==== [$name] build ===="
  cmake --build "$dir" -j "$JOBS"
  echo "==== [$name] required suites ===="
  require_suites "$dir"
  echo "==== [$name] ctest ===="
  ctest --test-dir "$dir" --output-on-failure --stop-on-failure -j "$JOBS"
}

want() { [[ "$1" == all || "$1" == "$2" ]]; }

sel="${1:-all}"
if want "$sel" plain; then
  run_config plain build
fi
if want "$sel" asan; then
  run_config asan build-asan -DSLU3D_SANITIZE=ON -DSLU3D_BUILD_BENCH=OFF \
    -DSLU3D_BUILD_EXAMPLES=OFF
fi
if want "$sel" tsan; then
  # TSAN slows the rank threads ~10x; benches and examples add nothing.
  TSAN_OPTIONS="halt_on_error=1" run_config tsan build-tsan -DSLU3D_TSAN=ON \
    -DSLU3D_BUILD_BENCH=OFF -DSLU3D_BUILD_EXAMPLES=OFF
fi
echo "==== all requested configurations passed ===="
