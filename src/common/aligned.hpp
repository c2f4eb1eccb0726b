#pragma once

#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/config.hpp"

/// \file aligned.hpp
/// A minimal 64-byte-aligned allocator so matrix columns start on cache-line
/// boundaries (predictable memory access; SIMD-friendly loads).

namespace hodlrx {

template <typename T, std::size_t Align = kAlignment>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = ::operator new[](n * sizeof(T), std::align_val_t(Align));
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete[](p, std::align_val_t(Align));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// Owning, move-only, 64-byte-aligned array whose elements start
/// UNINITIALIZED. It holds the operator-sized panels, which a pool launch
/// fills: each element is written once, and the pool threads take the first
/// page faults instead of a serial zero-fill pass.
template <typename T>
class AlignedBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "AlignedBuffer holds raw, uninitialized elements");

 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(std::size_t n)
      : data_(AlignedAllocator<T>().allocate(n)), size_(n) {}
  AlignedBuffer(AlignedBuffer&& o) noexcept
      : data_(std::move(o.data_)), size_(std::exchange(o.size_, 0)) {}
  AlignedBuffer& operator=(AlignedBuffer&& o) noexcept {
    if (this != &o) {
      data_ = std::move(o.data_);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }

  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }
  std::size_t size() const { return size_; }
  std::size_t bytes() const { return size_ * sizeof(T); }

 private:
  struct Free {
    void operator()(T* p) const { AlignedAllocator<T>().deallocate(p, 0); }
  };
  std::unique_ptr<T[], Free> data_;
  std::size_t size_ = 0;
};

}  // namespace hodlrx
