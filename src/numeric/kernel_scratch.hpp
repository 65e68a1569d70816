// Per-rank scratch arena for the dense kernel substrate and the
// factorization drivers. The simulated MPI runtime runs each rank on its
// own std::thread, so the thread-local instance returned by per_rank() is
// exactly "one arena per rank": the GEMM pack buffers and the supernode
// staging buffers are allocated once per rank and reused across every
// supernode, instead of growing fresh std::vectors on the hot path.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "support/types.hpp"

namespace slu3d {
namespace dense {

/// Cache-line aligned, grow-only buffer of real_t.
class AlignedBuffer {
 public:
  /// Returns a pointer to at least `elems` elements, 64-byte aligned.
  /// Contents are unspecified; growing invalidates previous pointers.
  real_t* acquire(std::size_t elems);

 private:
  struct Free {
    void operator()(void* p) const;
  };
  std::unique_ptr<real_t[], Free> buf_;
  std::size_t cap_ = 0;
};

/// Scratch arena: two aligned pack buffers (A and B panels of the blocked
/// GEMM), a real_t staging buffer (Schur-update blocks before scatter-add)
/// and an index staging buffer (row-position translation). All buffers are
/// grow-only; a span returned by stage()/index_stage() stays valid until
/// the next call to the same method on the same arena. The pack buffers
/// are private to the GEMM driver, so kernel calls never clobber a live
/// staging span.
class KernelScratch {
 public:
  real_t* pack_a(std::size_t elems) { return a_.acquire(elems); }
  real_t* pack_b(std::size_t elems) { return b_.acquire(elems); }

  /// `n` zero-initialized elements (the GEMM accumulation target).
  std::span<real_t> stage_zero(std::size_t n) {
    stage_.assign(n, 0.0);
    return stage_;
  }

  std::span<index_t> index_stage(std::size_t n) {
    idx_.assign(n, 0);
    return idx_;
  }

  /// Borrows an empty real_t buffer from the per-rank pool, retaining the
  /// capacity of earlier uses — the factorization drivers back their
  /// panel-stash storage with these instead of allocating per supernode.
  /// Hand the buffer back with recycle() once its payload is consumed.
  std::vector<real_t> borrow() {
    if (pool_.empty()) return {};
    std::vector<real_t> v = std::move(pool_.back());
    pool_.pop_back();
    v.clear();
    return v;
  }
  void recycle(std::vector<real_t>&& v) { pool_.push_back(std::move(v)); }

  /// This thread's (= this simulated rank's) arena.
  static KernelScratch& per_rank();

 private:
  AlignedBuffer a_, b_;
  std::vector<real_t> stage_;
  std::vector<index_t> idx_;
  std::vector<std::vector<real_t>> pool_;
};

}  // namespace dense
}  // namespace slu3d
