// Over-aligned allocator for the vector lane buffers.  The analysis
// workspace's KernelScratch keeps its parallel arrays on 64-byte
// boundaries so a full cache line (one AVX-512 vector, two AVX2 vectors)
// of lanes loads without a split; the Fast kernel additionally pads the lane count to a vector-width multiple so
// the inner loop has no scalar tail.
#pragma once

#include <cstddef>
#include <limits>
#include <new>
#include <vector>

namespace mcs::util {

template <class T, std::size_t Alignment = 64>
struct AlignedAlloc {
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment must be pow2");
  static_assert(Alignment >= alignof(T), "alignment weaker than T's");

  using value_type = T;

  AlignedAlloc() noexcept = default;
  template <class U>
  AlignedAlloc(const AlignedAlloc<U, Alignment>&) noexcept {}

  template <class U>
  struct rebind {
    using other = AlignedAlloc<U, Alignment>;
  };

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_alloc();
    }
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  friend bool operator==(const AlignedAlloc&, const AlignedAlloc&) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAlloc&, const AlignedAlloc&) noexcept {
    return false;
  }
};

template <class T, std::size_t Alignment = 64>
using AlignedVec = std::vector<T, AlignedAlloc<T, Alignment>>;

}  // namespace mcs::util
