#include "batched/batched_blas.hpp"

#include <algorithm>
#include <atomic>
#include <complex>

#include "batched/batch_kernels.hpp"
#include "batched/interleave.hpp"
#include "common/blocking.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/flops.hpp"
#include "common/parallel.hpp"
#include "common/trsm_kernel.hpp"
#include "common/workspace.hpp"
#include "device/backend.hpp"
#include "device/device.hpp"

namespace hodlrx {

namespace {

/// The widest compiled lane width (batch_kernels.cpp dispatch table).
constexpr index_t kMaxBatchLanes = 16;

/// Across-batch SIMD eligibility of one batched launch: the resolved width
/// (1 = disabled, the bit-for-bit scalar rung) and enough problems to fill
/// at least one full lane group. Uniform shape is structural for the strided
/// entry points (one m/n/k for the whole batch).
template <typename T>
index_t batch_lanes(index_t batch) {
  const index_t w = resolved_blocking<T>().batch_simd_width;
  return (w > 1 && batch >= w) ? w : 1;
}

/// Below this per-problem work (~32^3 multiply-adds) intra-problem threading
/// costs more in fork/join than it recovers; such problems always run one
/// thread per problem.
constexpr index_t kStreamMinWorkPerProblem = 32 * 32 * 32;

/// Stream mode = sequential problems, each using the whole thread pool.
/// kAuto decides on total work (batch x per-problem work), not batch count
/// alone: a level with few LARGE problems streams (so its kernels stop
/// running single-threaded), while few SMALL problems stay batched (the
/// per-problem fork/join would dominate).
bool use_stream_mode(BatchPolicy policy, index_t batch, index_t total_work) {
  switch (policy) {
    case BatchPolicy::kForceBatched: return false;
    case BatchPolicy::kForceStream: return true;
    case BatchPolicy::kAuto: {
      const index_t nt = max_threads();
      if (nt <= 1) return false;  // nothing to win from intra-problem threads
      if (batch >= nt) return false;  // enough problems to fill the pool
      return total_work / batch >= kStreamMinWorkPerProblem;
    }
  }
  return false;
}

}  // namespace

template <typename T>
void gemm_batched(Op opa, Op opb, T alpha,
                  std::span<const ConstMatrixView<T>> a,
                  std::span<const ConstMatrixView<T>> b, T beta,
                  std::span<const MatrixView<T>> c, BatchPolicy policy) {
  const index_t batch = static_cast<index_t>(c.size());
  HODLRX_REQUIRE(a.size() == c.size() && b.size() == c.size(),
                 "gemm_batched: inconsistent batch sizes");
  if (batch == 0) return;
  DeviceContext::global().record_launch();
  index_t total_work = 0;
  for (index_t i = 0; i < batch; ++i)
    total_work += c[i].rows * c[i].cols * op_cols(opa, a[i]);
  if (use_stream_mode(policy, batch, total_work)) {
    for (index_t i = 0; i < batch; ++i)
      gemm_parallel(opa, opb, alpha, a[i], b[i], beta, c[i]);
  } else {
    parallel_for_static(batch, [&](index_t i) {
      gemm(opa, opb, alpha, a[i], b[i], beta, c[i]);
    });
  }
}

template <typename T>
void gemm_strided_batched(Op opa, Op opb, index_t m, index_t n, index_t k,
                          T alpha, const T* a, index_t lda, index_t stride_a,
                          const T* b, index_t ldb, index_t stride_b, T beta,
                          T* c, index_t ldc, index_t stride_c, index_t batch,
                          BatchPolicy policy) {
  if (batch == 0 || m == 0 || n == 0) return;
  // Backend dispatch: with an async stream bound, the launch enqueues and
  // returns; the body re-enters this function on a drain worker (where the
  // in-stream-task flag forces the inline path below). Pointer+stride
  // arguments are PODs, so a by-value capture snapshots the launch.
  if (Stream* strm = deferring_stream()) {
    strm->launch("gemm_strided_batched", [=] {
      gemm_strided_batched<T>(opa, opb, m, n, k, alpha, a, lda, stride_a, b,
                              ldb, stride_b, beta, c, ldc, stride_c, batch,
                              policy);
    });
    return;
  }
  DeviceContext::global().record_launch();
  const index_t ar = (opa == Op::N) ? m : k, ac = (opa == Op::N) ? k : m;
  const index_t br = (opb == Op::N) ? k : n, bc = (opb == Op::N) ? n : k;
  // Across-batch small-GEMM tail: problems at or below one register tile
  // (m <= MR, n <= NR) never fill the packed engine's micro-kernel and
  // would run as short per-column GEMVs, one problem at a time. Interleave
  // lane groups of W problems into lane-major layout instead, so every
  // multiply-add advances W problems at full vector width. op/conj and
  // stride-0 broadcast operands are absorbed by the gather; alpha/beta are
  // fused into the scatter, so C is never staged in.
  {
    const ResolvedBlocking& rb = resolved_blocking<T>();
    const index_t w = batch_lanes<T>(batch);
    if (w > 1 && policy != BatchPolicy::kForceStream && k > 0 &&
        m <= rb.mr && n <= rb.nr && k <= rb.kc) {
      const index_t ngroups = (batch + w - 1) / w;
      batch_simd_stats::detail::add_gemm_groups(
          static_cast<std::uint64_t>(ngroups));
      parallel_for_static(ngroups, [&](index_t gi) {
        const index_t i0 = gi * w;
        const index_t nl = std::min(w, batch - i0);
        T* buf = interleave_workspace<T>(
            static_cast<std::size_t>(m * k + k * n + m * n) * w);
        T* a_il = buf;
        T* b_il = a_il + static_cast<std::size_t>(m) * k * w;
        T* c_il = b_il + static_cast<std::size_t>(k) * n * w;
        const T* asrc[kMaxBatchLanes];
        const T* bsrc[kMaxBatchLanes];
        T* cdst[kMaxBatchLanes];
        for (index_t l = 0; l < nl; ++l) {
          asrc[l] = a + (i0 + l) * stride_a;
          bsrc[l] = b + (i0 + l) * stride_b;
          cdst[l] = c + (i0 + l) * stride_c;
        }
        batch_interleave_op<T>(opa, m, k, asrc, lda, nl, w, a_il);
        batch_interleave_op<T>(opb, k, n, bsrc, ldb, nl, w, b_il);
        small_gemm_batch<T>(m, n, k, a_il, b_il, c_il, w);
        batch_deinterleave_axpby<T>(alpha, m, n, c_il, w, nl, beta, cdst,
                                    ldc);
      });
      FlopCounter::instance().add(
          FlopCounter::kGemm,
          static_cast<std::uint64_t>(batch) *
              FlopCounter::gemm_flops<T>(m, n, k));
      return;
    }
  }
  auto run = [&](index_t i, bool threaded) {
    ConstMatrixView<T> ai(a + i * stride_a, ar, ac, lda);
    ConstMatrixView<T> bi(b + i * stride_b, br, bc, ldb);
    MatrixView<T> ci{c + i * stride_c, m, n, ldc};
    if (threaded)
      gemm_parallel(opa, opb, alpha, ai, bi, beta, ci);
    else
      gemm(opa, opb, alpha, ai, bi, beta, ci);
  };
  if (use_stream_mode(policy, batch, batch * m * n * k)) {
    for (index_t i = 0; i < batch; ++i) run(i, true);
  } else {
    parallel_for_static(batch, [&](index_t i) { run(i, false); });
  }
}

template <typename T>
void getrf_batched(std::span<const MatrixView<T>> a,
                   std::span<index_t* const> ipiv, BatchPolicy policy) {
  HODLRX_REQUIRE(a.size() == ipiv.size(), "getrf_batched: batch mismatch");
  const index_t batch = static_cast<index_t>(a.size());
  if (batch == 0) return;
  DeviceContext::global().record_launch();
  index_t total_work = 0;
  for (index_t i = 0; i < batch; ++i) {
    const index_t p = std::min(a[i].rows, a[i].cols);
    total_work += p * p * p / 3;  // ~getrf multiply-adds
  }
  if (use_stream_mode(policy, batch, total_work)) {
    // Few large problems: run them one after another, each with a blocked
    // right-looking LU whose trailing GEMM update uses the whole pool.
    for (index_t i = 0; i < batch; ++i) getrf_parallel(a[i], ipiv[i]);
  } else {
    parallel_for_static(batch, [&](index_t i) { getrf(a[i], ipiv[i]); });
  }
}

template <typename T>
void trsm_batched(Uplo uplo, Diag diag, std::span<const ConstMatrixView<T>> a,
                  std::span<const MatrixView<T>> b, BatchPolicy policy) {
  HODLRX_REQUIRE(a.size() == b.size(), "trsm_batched: batch mismatch");
  const index_t batch = static_cast<index_t>(b.size());
  if (batch == 0) return;
  // Backend dispatch: the span storage may not outlive the call, so the
  // deferred launch owns copies of the views (the coefficient memory they
  // point at is the caller's device memory, live until synchronization).
  if (Stream* strm = deferring_stream()) {
    std::vector<ConstMatrixView<T>> av(a.begin(), a.end());
    std::vector<MatrixView<T>> bv(b.begin(), b.end());
    strm->launch("trsm_batched", [uplo, diag, av = std::move(av),
                                  bv = std::move(bv), policy] {
      trsm_batched<T>(uplo, diag, std::span<const ConstMatrixView<T>>(av),
                      std::span<const MatrixView<T>>(bv), policy);
    });
    return;
  }
  DeviceContext::global().record_launch();
  index_t total_work = 0;
  for (index_t i = 0; i < batch; ++i)
    total_work += a[i].rows * a[i].rows * b[i].cols;
  if (use_stream_mode(policy, batch, total_work)) {
    // Few large problems: sequential problems, RHS columns of each split
    // across the pool (trsm_left_parallel accounts the flops).
    for (index_t i = 0; i < batch; ++i)
      trsm_left_parallel<T>(uplo, diag, a[i], b[i]);
  } else {
    parallel_for_static(batch, [&](index_t i) {
      trsm_left(uplo, diag, a[i], b[i]);
    });
  }
}

template <typename T>
void getrs_batched(std::span<const ConstMatrixView<T>> lu,
                   std::span<const index_t* const> ipiv,
                   std::span<const MatrixView<T>> b, BatchPolicy policy) {
  HODLRX_REQUIRE(lu.size() == b.size() && ipiv.size() == b.size(),
                 "getrs_batched: batch mismatch");
  const index_t batch = static_cast<index_t>(b.size());
  if (batch == 0) return;
  DeviceContext::global().record_launch();
  index_t total_work = 0;
  for (index_t i = 0; i < batch; ++i)
    total_work += lu[i].rows * lu[i].rows * b[i].cols;
  if (use_stream_mode(policy, batch, total_work)) {
    // Pivots applied once per problem, then blocked L/U solves with the RHS
    // columns split across the pool.
    for (index_t i = 0; i < batch; ++i) getrs_parallel(lu[i], ipiv[i], b[i]);
  } else {
    parallel_for_static(batch,
                        [&](index_t i) { getrs(lu[i], ipiv[i], b[i]); });
  }
}

namespace qr_stats {
namespace {
std::atomic<std::uint64_t> g_cholesky_fallbacks{0};
}  // namespace
std::uint64_t cholesky_fallbacks() {
  return g_cholesky_fallbacks.load(std::memory_order_relaxed);
}
void reset() { g_cholesky_fallbacks.store(0, std::memory_order_relaxed); }
namespace detail {
void add_cholesky_fallbacks(std::uint64_t n) {
  g_cholesky_fallbacks.fetch_add(n, std::memory_order_relaxed);
}
}  // namespace detail
}  // namespace qr_stats

template <typename T>
SvdBatchInfo jacobi_svd_strided_batched(T* a, index_t lda, index_t stride_a,
                                        index_t m, index_t n, real_t<T>* s,
                                        index_t stride_s, T* v, index_t ldv,
                                        index_t stride_v, index_t batch,
                                        bool recover) {
  using R = real_t<T>;
  SvdBatchInfo info;
  if (batch == 0 || n == 0) return info;
  HODLRX_REQUIRE(n <= m && lda >= m && ldv >= n && stride_s >= n &&
                     (batch == 1 || (stride_a > 0 && stride_v > 0)),
                 "jacobi_svd_strided_batched: bad layout (need tall m >= n;"
                 " pass a^H for wide blocks)");
  // The SVD returns host-readable convergence info, so it is a
  // stream-SYNCHRONIZING operation (the cusolver info-query shape): work
  // queued ahead of it on the bound stream completes first, then the
  // decomposition itself runs inline on the caller.
  if (Stream* strm = deferring_stream()) strm->synchronize();
  DeviceContext::global().record_launch();
  svd_stats::detail::add_batched_sweep();
  const R tol = R{32} * eps_v<T>;
  int max_sweeps = svd_max_sweeps();
  // "svd.sweeps" fault: starve the synchronized loop so the batch cannot
  // converge and the recovery re-run below must carry it.
  if (fault::should_fire(fault::Site::kSvdSweeps)) max_sweeps = 1;
  // Per-launch Gram workspace (n x n per problem) carved from the calling
  // thread's arena (kScratch slot; the internal GEMMs use the pack slots)
  // and registered as device memory. Only the sweep launches below touch
  // it; it is dead by finalize time.
  // When the across-batch sweep can engage (batch_lanes > 1 for the full
  // batch), the same carve also holds the accumulated-rotation scratch: one
  // n x n R per problem. One get() call — a second get() on the same slot
  // would invalidate the first pointer.
  const std::size_t gcount =
      static_cast<std::size_t>(batch) * static_cast<std::size_t>(n) * n;
  const std::size_t rcount = batch_lanes<T>(batch) > 1 ? gcount : 0;
  T* g = WorkspaceArena::local().get<T>(gcount + rcount,
                                        WorkspaceArena::kScratch);
  T* r = g + gcount;
  DeviceAllocation da((gcount + rcount) * sizeof(T));
  // V_i <- I in one pool launch.
  DeviceContext::global().record_launch();
  parallel_for_static(batch, [&](index_t i) {
    MatrixView<T> vi{v + i * stride_v, n, n, ldv};
    for (index_t j = 0; j < n; ++j) {
      std::fill_n(vi.data + j * vi.ld, n, T{});
      vi(j, j) = T{1};
    }
  });
  // Active set: converged problems are compacted out, so late sweeps (the
  // convergence tail is uneven across a batch) spend neither Gram flops nor
  // rotation scans on problems that are already done.
  std::vector<index_t> active;
  if (n > 1) {
    active.resize(static_cast<std::size_t>(batch));
    for (index_t i = 0; i < batch; ++i)
      active[static_cast<std::size_t>(i)] = i;
  }
  std::vector<char> rotated(static_cast<std::size_t>(batch));
  std::vector<ConstMatrixView<T>> gav, gbv;
  std::vector<MatrixView<T>> gcv;
  // Accumulated-rotation apply step (across-batch sweeps only): the
  // problems whose R must be applied this sweep.
  std::vector<index_t> rlist;
  while (!active.empty() && info.sweeps < max_sweeps) {
    const index_t nact = static_cast<index_t>(active.size());
    // (a) Refresh the active problems' Gram matrices in ONE batched GEMM
    // launch (the pair dot products of the whole batch at engine speed) ...
    gav.resize(static_cast<std::size_t>(nact));
    gbv.resize(static_cast<std::size_t>(nact));
    gcv.resize(static_cast<std::size_t>(nact));
    for (index_t j = 0; j < nact; ++j) {
      const index_t i = active[static_cast<std::size_t>(j)];
      gav[static_cast<std::size_t>(j)] =
          ConstMatrixView<T>(a + i * stride_a, m, n, lda);
      gbv[static_cast<std::size_t>(j)] = gav[static_cast<std::size_t>(j)];
      gcv[static_cast<std::size_t>(j)] = MatrixView<T>{g + i * n * n, n, n, n};
    }
    gemm_batched<T>(Op::C, Op::N, T{1}, gav, gbv, T{0}, gcv,
                    BatchPolicy::kForceBatched);
    // ... then (b) ONE pool launch rotates every active problem once.
    svd_stats::detail::add_sweep_launch();
    DeviceContext::global().record_launch();
    const index_t lanes = batch_lanes<T>(nact);
    if (lanes > 1) {
      // Across-batch sweep in accumulated-rotation form: lane groups are
      // re-formed from the COMPACTED active set each sweep (the gather
      // pointers index through `active`), so convergence compaction and
      // SIMD lanes compose. Only the small n x n Gram matrix is interleaved
      // — the pair scan rotates it lane-major while accumulating every
      // rotation into a per-lane R, and the tall factor is updated ONCE per
      // sweep as w <- w*R below, at engine speed, instead of being staged
      // through the lane-major layout (where the scalar per-problem column
      // rotation already vectorizes and the staging is pure traffic). The
      // Gram matrix is not scattered back — the next sweep's batched GEMM
      // refreshes it from the rotated factor, and finalize never reads it.
      const index_t ngroups = (nact + lanes - 1) / lanes;
      batch_simd_stats::detail::add_jacobi_groups(
          static_cast<std::uint64_t>(ngroups));
      parallel_for_static(ngroups, [&](index_t gj) {
        const index_t j0 = gj * lanes;
        const index_t nl = std::min(lanes, nact - j0);
        const std::size_t ncnt =
            static_cast<std::size_t>(n) * n * static_cast<std::size_t>(lanes);
        T* buf = interleave_workspace<T>(2 * ncnt);
        T* g_il = buf;
        T* r_il = g_il + ncnt;
        T* gp[kMaxBatchLanes];
        T* rp[kMaxBatchLanes];
        for (index_t l = 0; l < nl; ++l) {
          const index_t i = active[static_cast<std::size_t>(j0 + l)];
          gp[l] = g + i * n * n;
          rp[l] = r + i * n * n;
        }
        batch_interleave<T>(n, n, gp, n, nl, lanes, g_il);
        bool rot[kMaxBatchLanes] = {};
        jacobi_sweep_batch<T>(n, g_il, r_il, tol, lanes, rot);
        batch_deinterleave<T>(n, n, r_il, lanes, nl, rp, n);
        for (index_t l = 0; l < nl; ++l)
          rotated[static_cast<std::size_t>(
              active[static_cast<std::size_t>(j0 + l)])] = rot[l] ? 1 : 0;
      });
      // Apply the accumulated rotations: w_i <- w_i * R_i and v_i <- v_i *
      // R_i for every problem that rotated (R_i = I elsewhere — skipping is
      // exact), in ONE pool launch of the in-place narrow-product kernel
      // (the packed engine would need a separate C plus a copy-back pass,
      // doubling the tall factor's per-sweep traffic).
      rlist.clear();
      for (const index_t i : active)
        if (rotated[static_cast<std::size_t>(i)]) rlist.push_back(i);
      const index_t nrot = static_cast<index_t>(rlist.size());
      if (nrot > 0) {
        DeviceContext::global().record_launch();
        parallel_for_static(nrot, [&](index_t j) {
          const index_t i = rlist[static_cast<std::size_t>(j)];
          const T* ri = r + i * n * n;
          gemm_right_inplace<T>(m, n, a + i * stride_a, lda, ri, n);
          gemm_right_inplace<T>(n, n, v + i * stride_v, ldv, ri, n);
        });
        FlopCounter::instance().add(
            FlopCounter::kGemm,
            static_cast<std::uint64_t>(nrot) *
                (FlopCounter::gemm_flops<T>(m, n, n) +
                 FlopCounter::gemm_flops<T>(n, n, n)));
      }
    } else {
      parallel_for_static(nact, [&](index_t j) {
        const index_t i = active[static_cast<std::size_t>(j)];
        MatrixView<T> wi{a + i * stride_a, m, n, lda};
        MatrixView<T> vi{v + i * stride_v, n, n, ldv};
        MatrixView<T> gi{g + i * n * n, n, n, n};
        rotated[static_cast<std::size_t>(i)] =
            jacobi_sweep_gram<T>(wi, vi, gi, tol) ? 1 : 0;
      });
    }
    ++info.sweeps;
    std::erase_if(active,
                  [&](index_t i) { return !rotated[static_cast<std::size_t>(i)]; });
  }
  if (!active.empty() && recover) {
    // Recovery ladder: the stragglers are compacted out of the batch and
    // finished one at a time through the reference serial sweep loop with a
    // 4x budget, BEFORE the shared finalize pass below (finalize must see
    // fully rotated factors). Healing happens in place, so the batch
    // epilogue and the caller's layout are untouched.
    const int budget = std::max(4 * svd_max_sweeps(), 64);
    std::vector<index_t> still;
    Matrix<T> gram(n, n);
    for (const index_t i : active) {
      MatrixView<T> wi{a + i * stride_a, m, n, lda};
      MatrixView<T> vi{v + i * stride_v, n, n, ldv};
      bool rot = true;
      int sweeps = 0;
      while (rot && sweeps < budget) {
        gemm(Op::C, Op::N, T{1}, ConstMatrixView<T>(wi),
             ConstMatrixView<T>(wi), T{0}, gram.view());
        rot = jacobi_sweep_gram<T>(wi, vi, gram.view(), tol);
        ++sweeps;
      }
      info.sweeps = std::max(info.sweeps, sweeps);
      if (rot) {
        still.push_back(i);
      } else {
        ++info.recovered;
      }
    }
    // One recovery engagement per call (not per problem), so a single
    // injected fault that starves the whole batch still balances to
    // injected == recovered.
    if (info.recovered > 0)
      fault_stats::detail::add_recovered(fault::Site::kSvdSweeps);
    active = std::move(still);
  }
  if (!active.empty()) {
    info.nonconverged = static_cast<index_t>(active.size());
    svd_stats::detail::add_nonconverged(
        static_cast<std::uint64_t>(active.size()));
  }
  // Finalize launch: sort by descending singular value and normalize U.
  DeviceContext::global().record_launch();
  parallel_for_static(batch, [&](index_t i) {
    MatrixView<T> wi{a + i * stride_a, m, n, lda};
    MatrixView<T> vi{v + i * stride_v, n, n, ldv};
    jacobi_finalize<T>(wi, vi, s + i * stride_s);
  });
  return info;
}

#define HODLRX_INSTANTIATE_BATCHED(T)                                        \
  template void gemm_batched<T>(Op, Op, T,                                   \
                                std::span<const ConstMatrixView<T>>,         \
                                std::span<const ConstMatrixView<T>>, T,      \
                                std::span<const MatrixView<T>>, BatchPolicy);\
  template void gemm_strided_batched<T>(                                     \
      Op, Op, index_t, index_t, index_t, T, const T*, index_t, index_t,      \
      const T*, index_t, index_t, T, T*, index_t, index_t, index_t,          \
      BatchPolicy);                                                          \
  template void getrf_batched<T>(std::span<const MatrixView<T>>,             \
                                 std::span<index_t* const>, BatchPolicy);    \
  template void trsm_batched<T>(Uplo, Diag,                                  \
                                std::span<const ConstMatrixView<T>>,         \
                                std::span<const MatrixView<T>>, BatchPolicy);\
  template void getrs_batched<T>(std::span<const ConstMatrixView<T>>,        \
                                 std::span<const index_t* const>,            \
                                 std::span<const MatrixView<T>>,             \
                                 BatchPolicy);                               \
  template SvdBatchInfo jacobi_svd_strided_batched<T>(                       \
      T*, index_t, index_t, index_t, index_t, real_t<T>*, index_t, T*,       \
      index_t, index_t, index_t, bool);

HODLRX_INSTANTIATE_BATCHED(float)
HODLRX_INSTANTIATE_BATCHED(double)
HODLRX_INSTANTIATE_BATCHED(std::complex<float>)
HODLRX_INSTANTIATE_BATCHED(std::complex<double>)

#undef HODLRX_INSTANTIATE_BATCHED

}  // namespace hodlrx
