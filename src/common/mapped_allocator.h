#ifndef PROX_COMMON_MAPPED_ALLOCATOR_H_
#define PROX_COMMON_MAPPED_ALLOCATOR_H_

#include <sys/mman.h>

#include <cstddef>
#include <new>

namespace prox {

/// \brief An allocator that maps blocks of kDirectBytes and more straight
/// from the kernel and unmaps them when they are freed; smaller blocks come
/// from operator new.
///
/// glibc maps such blocks too, but freeing one raises its mmap threshold to
/// the block's size (up to 32 MiB) and its trim threshold to twice that,
/// for the whole process. From then on every thread arena may keep that
/// much freed memory resident, so a server that frees a few large scratch
/// buffers per request ends up with a larger resident set. Mapping them
/// here leaves malloc's thresholds at their defaults. The pages are
/// populated at once, since a caller fills the whole block.
template <typename T>
struct MappedAllocator {
  using value_type = T;

  /// glibc's default M_MMAP_THRESHOLD.
  static constexpr std::size_t kDirectBytes = std::size_t{128} << 10;

  MappedAllocator() = default;
  template <typename U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kDirectBytes) return static_cast<T*>(::operator new(bytes));
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kDirectBytes) {
      ::operator delete(p);
    } else {
      munmap(p, bytes);
    }
  }

  template <typename U>
  bool operator==(const MappedAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace prox

#endif  // PROX_COMMON_MAPPED_ALLOCATOR_H_
