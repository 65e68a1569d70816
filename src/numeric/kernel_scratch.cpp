#include "numeric/kernel_scratch.hpp"

#include <cstdlib>
#include <memory>
#include <new>

namespace slu3d {
namespace dense {

namespace {
constexpr std::size_t kAlign = 64;
}

void AlignedBuffer::Free::operator()(void* p) const { std::free(p); }

real_t* AlignedBuffer::acquire(std::size_t elems) {
  if (elems > cap_) {
    // Grow geometrically so repeated slightly-larger requests settle fast.
    std::size_t want = cap_ + cap_ / 2;
    if (want < elems) want = elems;
    std::size_t bytes = want * sizeof(real_t);
    bytes = (bytes + kAlign - 1) / kAlign * kAlign;
    void* p = std::aligned_alloc(kAlign, bytes);
    if (p == nullptr) throw std::bad_alloc();
    buf_.reset(static_cast<real_t*>(p));
    cap_ = bytes / sizeof(real_t);
  }
  return buf_.get();
}

KernelScratch& KernelScratch::per_rank() {
  thread_local KernelScratch arena;
  return arena;
}

}  // namespace dense
}  // namespace slu3d
