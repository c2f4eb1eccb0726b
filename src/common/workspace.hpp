#pragma once

#include <cstddef>
#include <new>
#include <vector>

#include "common/aligned.hpp"
#include "common/config.hpp"
#include "common/fault.hpp"

/// \file workspace.hpp
/// Per-thread scratch memory for the packed GEMM engine.
///
/// Packing buffers are needed on every macro-kernel iteration; allocating
/// them per call would put an allocator round-trip on the hot path and (under
/// OpenMP) contend on the heap lock. `WorkspaceArena::local()` hands each
/// thread a small set of reusable 64-byte-aligned buffers that only ever
/// grow, so steady-state packing performs zero allocations.
///
/// Concurrency discipline: the arena is strictly THREAD-CONFINED — local()
/// is the only way to reach one, and the slot table has no mutex on purpose,
/// so there is nothing for the clang thread-safety annotations
/// (common/annotations.hpp) to guard. Never stash a slot pointer where
/// another thread (a pool worker, a deferred stream launch) can see it: a
/// get() on the owning thread may reallocate or drop the buffer under the
/// borrower. Workspace shared across a launch lives in dedicated buffers.

namespace hodlrx {

class WorkspaceArena {
 public:
  /// Buffer roles. Each slot is an independent buffer so a kernel can hold
  /// an A-pack and a B-pack simultaneously.
  enum Slot : std::size_t {
    kPackA = 0,
    kPackB = 1,
    kScratch = 2,
    kNumSlots
  };

  /// The calling thread's arena (created on first use, lives for the
  /// thread's lifetime).
  static WorkspaceArena& local() {
    static thread_local WorkspaceArena arena;
    return arena;
  }

  /// A buffer of at least `count` elements of T, aligned to kAlignment.
  /// Contents are unspecified; the buffer stays valid until the next get()
  /// on the same slot with a larger size.
  ///
  /// Growth is allocation-failure resilient: if the resize throws (real
  /// memory pressure, or the HODLRX_FAULT=workspace.alloc injection site),
  /// the arena releases EVERY slot it holds and retries once — packing
  /// buffers hold no live data between calls, so dropping them is free and
  /// usually returns enough memory for the retry to succeed.
  template <typename T>
  T* get(std::size_t count, Slot slot) {
    auto& buf = slots_[slot];
    const std::size_t bytes = count * sizeof(T);
    if (buf.size() < bytes) {
      buf.clear();  // don't copy old contents on growth
      try {
        if (fault::should_fire(fault::Site::kWorkspaceAlloc))
          throw std::bad_alloc();
        buf.resize(bytes);
      } catch (const std::bad_alloc&) {
        for (auto& b : slots_) {
          b.clear();
          b.shrink_to_fit();
        }
        buf.resize(bytes);  // retry once; a second failure propagates
        fault_stats::detail::add_recovered(fault::Site::kWorkspaceAlloc);
      }
      ++grow_events_;
    }
    return reinterpret_cast<T*>(buf.data());
  }

  /// Total bytes currently held by this thread's arena.
  std::size_t bytes() const {
    std::size_t total = 0;
    for (const auto& b : slots_) total += b.size();
    return total;
  }

  /// Number of times any slot had to (re)allocate; a steady-state kernel
  /// loop should leave this constant.
  std::size_t grow_events() const { return grow_events_; }

 private:
  WorkspaceArena() = default;
  std::vector<std::byte, AlignedAllocator<std::byte>> slots_[kNumSlots];
  std::size_t grow_events_ = 0;
};

}  // namespace hodlrx
