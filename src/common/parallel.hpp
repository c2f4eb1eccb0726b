#pragma once

#include <omp.h>

#include <algorithm>
#include <utility>

#include "common/config.hpp"
#include "common/thread_pool.hpp"

/// \file parallel.hpp
/// Task-parallel wrappers (CP.4: think in tasks, not threads): callers
/// express "run f over [0, n)" and the persistent ThreadPool schedules it.
/// Until PR 2 these forked an OpenMP team per call; they now dispatch onto
/// long-lived pool workers, so a parallel launch costs a condition-variable
/// wake instead of thread churn, and per-thread state (packing arenas)
/// persists across launches. Exceptions thrown by workers are captured and
/// rethrown on the calling thread.

namespace hodlrx {

/// Total threads a parallel construct may use (pool workers + caller).
inline int max_threads() { return ThreadPool::instance().threads(); }

/// Run `f(i)` for i in [0, n) with dynamic scheduling (irregular work, e.g.
/// per-block compression). `f` must be safe to run concurrently.
template <typename F>
void parallel_for(index_t n, F&& f) {
  ThreadPool::instance().parallel_for(n, /*dynamic=*/true,
                                      std::forward<F>(f));
}

/// Static-scheduled variant for uniform, fine-grained work (e.g. a level of
/// equally sized batched problems): each participant takes one contiguous
/// slice of [0, n).
template <typename F>
void parallel_for_static(index_t n, F&& f) {
  ThreadPool::instance().parallel_for(n, /*dynamic=*/false,
                                      std::forward<F>(f));
}

/// True when called from inside a parallel region — the pool's, or a raw
/// OpenMP region (the baseline recursive solver still uses OpenMP tasks).
/// Nested parallel constructs observe this and run inline/serial instead of
/// dispatching pool launches from every worker at once.
inline bool in_parallel() {
  return ThreadPool::in_parallel_region() || omp_in_parallel() != 0;
}

/// Split [0, n) into min(max_threads(), n) contiguous chunks and run
/// f(begin, count) per non-empty chunk (static schedule). The shared
/// column-partition used by every "independent columns" parallelization:
/// gemm_parallel's fallback, the pool-shared-A path, and the stream-mode
/// triangular solves.
template <typename F>
void parallel_chunks(index_t n, F&& f) {
  const index_t nchunks =
      std::min<index_t>(max_threads(), std::max<index_t>(n, index_t{1}));
  parallel_for_static(nchunks, [&](index_t t) {
    const index_t j0 = t * n / nchunks;
    const index_t j1 = (t + 1) * n / nchunks;
    if (j1 > j0) f(j0, j1 - j0);
  });
}

/// dst[0, n) = src[0, n), one contiguous slice per pool thread, so the
/// threads take a fresh destination's first page faults in parallel.
template <typename T>
void parallel_copy(const T* src, index_t n, T* dst) {
  if (n <= 0) return;
  parallel_chunks(n, [&](index_t i0, index_t count) {
    std::copy_n(src + i0, count, dst + i0);
  });
}

}  // namespace hodlrx
