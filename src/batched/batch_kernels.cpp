#include "batched/batch_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>

#include "batched/interleave.hpp"
#include "common/error.hpp"
#include "common/lapack.hpp"

// GCC will not vectorize the accumulate loops of gemm_right_inplace on its
// own (the accumulator arrays defeat its cost model); the explicit simd
// pragma is worth ~5x there. Spelled with _Pragma so it can sit inside the
// loop nest macros-free.
#if defined(_OPENMP)
#define HODLRX_OMP_SIMD _Pragma("omp simd")
#else
#define HODLRX_OMP_SIMD
#endif

namespace hodlrx {

namespace batch_simd_stats {
namespace {
std::atomic<std::uint64_t> g_jacobi_groups{0}, g_gemm_groups{0};
}  // namespace
std::uint64_t jacobi_sweep_groups() {
  return g_jacobi_groups.load(std::memory_order_relaxed);
}
std::uint64_t gemm_groups() {
  return g_gemm_groups.load(std::memory_order_relaxed);
}
void reset() {
  g_jacobi_groups.store(0, std::memory_order_relaxed);
  g_gemm_groups.store(0, std::memory_order_relaxed);
}
namespace detail {
void add_jacobi_groups(std::uint64_t n) {
  g_jacobi_groups.fetch_add(n, std::memory_order_relaxed);
}
void add_gemm_groups(std::uint64_t n) {
  g_gemm_groups.fetch_add(n, std::memory_order_relaxed);
}
}  // namespace detail
}  // namespace batch_simd_stats

namespace {

/// One compiled body per width: W is a compile-time constant so every
/// `for (int l = 0; l < W; ++l)` lane loop below fully unrolls into one or
/// two vector ops. The i/j loops carry the per-lane accumulations in the
/// same order as the scalar kernels (lapack.cpp), so each lane reproduces
/// the scalar arithmetic exactly.

template <typename T, int W>
void jacobi_sweep_batch_impl(index_t n, T* __restrict__ gm, T* __restrict__ rm,
                             real_t<T> tol, bool* __restrict__ rotated) {
  using R = real_t<T>;
  // R <- I per lane (dead lanes too — their identity is never scattered).
  std::fill_n(rm, static_cast<std::size_t>(n) * n * W, T{});
  for (index_t j = 0; j < n; ++j) {
    T* __restrict__ rjj = rm + (static_cast<std::size_t>(j) * n + j) * W;
    for (int l = 0; l < W; ++l) rjj[l] = T{1};
  }
  // Per-lane deflation scale: the largest Gram diagonal at sweep start
  // (same sampling point as jacobi_sweep_gram; dead lanes get 0, which
  // deflates every pair — their zero Gram never rotates anyway).
  R gmax[W];
  for (int l = 0; l < W; ++l) gmax[l] = R{0};
  for (index_t j = 0; j < n; ++j) {
    const T* __restrict__ gjj = gm + (static_cast<std::size_t>(j) * n + j) * W;
    for (int l = 0; l < W; ++l)
      gmax[l] = std::max(gmax[l], ScalarTraits<T>::real(gjj[l]));
  }
  for (index_t p = 0; p < n - 1; ++p) {
    for (index_t q = p + 1; q < n; ++q) {
      // Per-lane rotation parameters from the Gram matrix — scalar O(W)
      // work per pair, identical formulas to jacobi_sweep_gram. Converged
      // lanes get the identity rotation (c = 1, s = 0): exact no-ops in the
      // full-width column rotations below.
      T cv[W], sv[W];
      bool any = false;
      const T* __restrict__ gpp = gm + (static_cast<std::size_t>(p) * n + p) * W;
      const T* __restrict__ gqq = gm + (static_cast<std::size_t>(q) * n + q) * W;
      const T* __restrict__ gpq = gm + (static_cast<std::size_t>(q) * n + p) * W;
      for (int l = 0; l < W; ++l) {
        // The rotated diagonal entries can round to tiny negatives; clamp
        // so the convergence test never feeds sqrt a negative (same clamp
        // as jacobi_sweep_gram).
        const R alpha = std::max(R{0}, ScalarTraits<T>::real(gpp[l]));
        const R beta = std::max(R{0}, ScalarTraits<T>::real(gqq[l]));
        const JacobiRotation<T> r =
            jacobi_rotation_params<T>(alpha, beta, gpq[l], tol, gmax[l]);
        cv[l] = T{r.c};
        sv[l] = r.s;
        if (r.rotate) {
          rotated[l] = true;
          any = true;
        }
      }
      if (!any) continue;
      T scv[W];
      for (int l = 0; l < W; ++l) scv[l] = conj_s(sv[l]);
      // Accumulate the rotation into R (columns p, q — the same update the
      // scalar kernel applies to v; w and v pick it up through the caller's
      // per-sweep w*R / v*R GEMMs) ...
      T* __restrict__ rp = rm + static_cast<std::size_t>(p) * n * W;
      T* __restrict__ rq = rm + static_cast<std::size_t>(q) * n * W;
      for (index_t i = 0; i < n; ++i) {
        T* __restrict__ xp = rp + static_cast<std::size_t>(i) * W;
        T* __restrict__ xq = rq + static_cast<std::size_t>(i) * W;
        for (int l = 0; l < W; ++l) {
          const T p0 = xp[l], q0 = xq[l];
          xp[l] = cv[l] * p0 - scv[l] * q0;
          xq[l] = sv[l] * p0 + cv[l] * q0;
        }
      }
      // ... and G <- M^H G M, maintained on the UPPER triangle only: the
      // pair scan reads nothing but G(p,p), G(q,q) and G(p,q) with p < q,
      // and the caller never scatters G back (the next sweep's batched GEMM
      // refreshes it from the rotated factor; finalize reads the refreshed
      // copy) — so the Hermitian mirror of every update is skipped and a
      // fired pair moves ~4n lane-vectors (R + G) instead of 6n. The three
      // row ranges below are the upper-triangle images of the full
      // column-pair rotation; the stale lower triangle is never read.
      T* __restrict__ gcp = gm + static_cast<std::size_t>(p) * n * W;
      T* __restrict__ gcq = gm + static_cast<std::size_t>(q) * n * W;
      // Rows i < p: (i,p) and (i,q) both live in the upper triangle — plain
      // column update.
      for (index_t i = 0; i < p; ++i) {
        T* __restrict__ xp = gcp + static_cast<std::size_t>(i) * W;
        T* __restrict__ xq = gcq + static_cast<std::size_t>(i) * W;
        for (int l = 0; l < W; ++l) {
          const T p0 = xp[l], q0 = xq[l];
          xp[l] = cv[l] * p0 - scv[l] * q0;
          xq[l] = sv[l] * p0 + cv[l] * q0;
        }
      }
      // Rows p < i < q: the column-p image is the stored row entry
      // G(p,i) = conj(G(i,p)), so the update is the conjugated pair
      // rotation of a = G(p,i) against b = G(i,q).
      for (index_t i = p + 1; i < q; ++i) {
        T* __restrict__ xa = gm + (static_cast<std::size_t>(i) * n + p) * W;
        T* __restrict__ xb = gcq + static_cast<std::size_t>(i) * W;
        for (int l = 0; l < W; ++l) {
          const T a0 = xa[l], b0 = xb[l];
          xa[l] = cv[l] * a0 - sv[l] * conj_s(b0);
          xb[l] = sv[l] * conj_s(a0) + cv[l] * b0;
        }
      }
      // Rows i > q: both images are stored row entries G(p,i), G(q,i) —
      // the conjugate (row-side) rotation.
      for (index_t i = q + 1; i < n; ++i) {
        T* __restrict__ xp = gm + (static_cast<std::size_t>(i) * n + p) * W;
        T* __restrict__ xq = gm + (static_cast<std::size_t>(i) * n + q) * W;
        for (int l = 0; l < W; ++l) {
          const T p0 = xp[l], q0 = xq[l];
          xp[l] = cv[l] * p0 - sv[l] * q0;
          xq[l] = scv[l] * p0 + cv[l] * q0;
        }
      }
      // Pivot block (p,p), (p,q), (q,q): both half-updates folded into the
      // closed-form 2x2 congruence (c is real, alpha/beta real diagonals).
      {
        T* __restrict__ xpp = gcp + static_cast<std::size_t>(p) * W;
        T* __restrict__ xpq = gcq + static_cast<std::size_t>(p) * W;
        T* __restrict__ xqq = gcq + static_cast<std::size_t>(q) * W;
        for (int l = 0; l < W; ++l) {
          const R al = ScalarTraits<T>::real(xpp[l]);
          const R be = ScalarTraits<T>::real(xqq[l]);
          const T ga = xpq[l];
          const R c = ScalarTraits<T>::real(cv[l]);
          const T s = sv[l];
          const R s2 = ScalarTraits<T>::real(scv[l] * s);
          const R cross =
              R{2} * c * ScalarTraits<T>::real(scv[l] * ga);
          xpp[l] = T{c * c * al + s2 * be - cross};
          xqq[l] = T{s2 * al + c * c * be + cross};
          xpq[l] = (c * s) * T{al - be} + (c * c) * ga - s * (s * conj_s(ga));
        }
      }
    }
  }
}

template <typename T, int W>
void small_gemm_batch_impl(index_t m, index_t n, index_t k,
                           const T* __restrict__ a, const T* __restrict__ b,
                           T* __restrict__ c) {
  for (index_t j = 0; j < n; ++j) {
    const T* __restrict__ bj = b + static_cast<std::size_t>(j) * k * W;
    for (index_t i = 0; i < m; ++i) {
      T acc[W] = {};
      for (index_t kk = 0; kk < k; ++kk) {
        const T* __restrict__ ai = a + (static_cast<std::size_t>(kk) * m + i) * W;
        const T* __restrict__ bk = bj + static_cast<std::size_t>(kk) * W;
        for (int l = 0; l < W; ++l) acc[l] += ai[l] * bk[l];
      }
      T* __restrict__ cij = c + (static_cast<std::size_t>(j) * m + i) * W;
      for (int l = 0; l < W; ++l) cij[l] = acc[l];
    }
  }
}

/// Rows staged per pass of gemm_right_inplace: two AVX-512 registers of
/// doubles — small enough that the per-column accumulator arrays stay in
/// registers across the k loop, large enough to amortize the R broadcasts.
constexpr index_t kInplaceChunk = 16;
/// Output columns accumulated per pass over the staged chunk: each staged
/// column load feeds kInplaceJB fused multiply-adds, so the kernel is
/// FMA-bound instead of load-bound (single-column accumulation tops out at
/// well under half the FMA rate because every k step is two loads per two
/// FMAs). 6 x 2 accumulator registers plus the staged column and broadcasts
/// still fit the 32-register AVX-512 file.
constexpr index_t kInplaceJB = 6;

}  // namespace

template <typename T>
void gemm_right_inplace(index_t m, index_t n, T* a, index_t lda, const T* r,
                        index_t ldr) {
  if (m == 0 || n == 0) return;
  T* stage = interleave_workspace<T>(static_cast<std::size_t>(kInplaceChunk) *
                                     static_cast<std::size_t>(n));
  for (index_t i0 = 0; i0 < m; i0 += kInplaceChunk) {
    const index_t mc = std::min(kInplaceChunk, m - i0);
    // Stage the chunk's rows of every column (zero-padding the tail chunk so
    // the accumulation below always runs the full register-width chunk).
    for (index_t k = 0; k < n; ++k) {
      T* __restrict__ sk = stage + static_cast<std::size_t>(k) * kInplaceChunk;
      std::copy_n(a + k * lda + i0, mc, sk);
      std::fill(sk + mc, sk + kInplaceChunk, T{});
    }
    index_t j = 0;
    for (; j + kInplaceJB <= n; j += kInplaceJB) {
      T acc[kInplaceJB][kInplaceChunk] = {};
      const T* rj[kInplaceJB];
      for (index_t jj = 0; jj < kInplaceJB; ++jj)
        rj[jj] = r + static_cast<std::size_t>(j + jj) * ldr;
      for (index_t k = 0; k < n; ++k) {
        const T* __restrict__ sk =
            stage + static_cast<std::size_t>(k) * kInplaceChunk;
        T b[kInplaceJB];
        for (index_t jj = 0; jj < kInplaceJB; ++jj) b[jj] = rj[jj][k];
        for (index_t jj = 0; jj < kInplaceJB; ++jj) {
          HODLRX_OMP_SIMD
          for (index_t i = 0; i < kInplaceChunk; ++i)
            acc[jj][i] += sk[i] * b[jj];
        }
      }
      for (index_t jj = 0; jj < kInplaceJB; ++jj) {
        T* __restrict__ cj = a + (j + jj) * lda + i0;
        for (index_t i = 0; i < mc; ++i) cj[i] = acc[jj][i];
      }
    }
    for (; j < n; ++j) {
      const T* __restrict__ rj = r + static_cast<std::size_t>(j) * ldr;
      T acc[kInplaceChunk] = {};
      for (index_t k = 0; k < n; ++k) {
        const T b = rj[k];
        const T* __restrict__ sk =
            stage + static_cast<std::size_t>(k) * kInplaceChunk;
        HODLRX_OMP_SIMD
        for (index_t i = 0; i < kInplaceChunk; ++i) acc[i] += sk[i] * b;
      }
      T* __restrict__ cj = a + j * lda + i0;
      for (index_t i = 0; i < mc; ++i) cj[i] = acc[i];
    }
  }
}

template <typename T>
void jacobi_sweep_batch(index_t n, T* gm, T* rm, real_t<T> tol, index_t w,
                        bool* rotated) {
  switch (w) {
    case 2: return jacobi_sweep_batch_impl<T, 2>(n, gm, rm, tol, rotated);
    case 4: return jacobi_sweep_batch_impl<T, 4>(n, gm, rm, tol, rotated);
    case 8: return jacobi_sweep_batch_impl<T, 8>(n, gm, rm, tol, rotated);
    case 16: return jacobi_sweep_batch_impl<T, 16>(n, gm, rm, tol, rotated);
  }
  HODLRX_REQUIRE(false, "jacobi_sweep_batch: unsupported lane width " << w);
}

template <typename T>
void small_gemm_batch(index_t m, index_t n, index_t k, const T* a, const T* b,
                      T* c, index_t w) {
  switch (w) {
    case 2: return small_gemm_batch_impl<T, 2>(m, n, k, a, b, c);
    case 4: return small_gemm_batch_impl<T, 4>(m, n, k, a, b, c);
    case 8: return small_gemm_batch_impl<T, 8>(m, n, k, a, b, c);
    case 16: return small_gemm_batch_impl<T, 16>(m, n, k, a, b, c);
  }
  HODLRX_REQUIRE(false, "small_gemm_batch: unsupported lane width " << w);
}

#define HODLRX_INSTANTIATE_BATCH_KERNELS(T)                                  \
  template void jacobi_sweep_batch<T>(index_t, T*, T*, real_t<T>, index_t,   \
                                      bool*);                                \
  template void small_gemm_batch<T>(index_t, index_t, index_t, const T*,     \
                                    const T*, T*, index_t);                  \
  template void gemm_right_inplace<T>(index_t, index_t, T*, index_t,         \
                                      const T*, index_t);

HODLRX_INSTANTIATE_BATCH_KERNELS(float)
HODLRX_INSTANTIATE_BATCH_KERNELS(double)
HODLRX_INSTANTIATE_BATCH_KERNELS(std::complex<float>)
HODLRX_INSTANTIATE_BATCH_KERNELS(std::complex<double>)

#undef HODLRX_INSTANTIATE_BATCH_KERNELS

}  // namespace hodlrx
