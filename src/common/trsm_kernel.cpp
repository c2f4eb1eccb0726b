#include "common/trsm_kernel.hpp"

#include <algorithm>
#include <complex>

#include "common/blocking.hpp"
#include "common/error.hpp"
#include "common/flops.hpp"
#include "common/gemm_kernel.hpp"
#include "common/parallel.hpp"
#include "common/workspace.hpp"

namespace hodlrx {

namespace {

/// RHS columns per pass of the diagonal-block kernels below. Their 4-column
/// pass and their 1-column tail round complex products differently, so a
/// column's bits depend on which of the two it takes.
constexpr index_t kDiagPassCols = 4;

/// Solve A_kk^{-1} B for one NB x NB LOWER diagonal block, four RHS columns
/// per pass: the four running values stay in registers and the triangle is
/// streamed once per four columns. `inv` is the reciprocal table for
/// NonUnit diagonals (null for Unit).
template <typename T>
void solve_diag_lower(ConstMatrixView<T> a, MatrixView<T> b,
                      const T* __restrict__ inv) {
  const index_t n = a.rows;
  index_t j = 0;
  for (; j + kDiagPassCols <= b.cols; j += kDiagPassCols) {
    T* __restrict__ x0 = b.data + j * b.ld;
    T* __restrict__ x1 = b.data + (j + 1) * b.ld;
    T* __restrict__ x2 = b.data + (j + 2) * b.ld;
    T* __restrict__ x3 = b.data + (j + 3) * b.ld;
    for (index_t k = 0; k < n; ++k) {
      const T* __restrict__ lk = a.data + k * a.ld;
      if (inv) {
        const T ik = inv[k];
        x0[k] *= ik;
        x1[k] *= ik;
        x2[k] *= ik;
        x3[k] *= ik;
      }
      const T v0 = x0[k], v1 = x1[k], v2 = x2[k], v3 = x3[k];
      for (index_t i = k + 1; i < n; ++i) {
        const T lik = lk[i];
        x0[i] -= lik * v0;
        x1[i] -= lik * v1;
        x2[i] -= lik * v2;
        x3[i] -= lik * v3;
      }
    }
  }
  for (; j < b.cols; ++j) {
    T* __restrict__ x = b.data + j * b.ld;
    for (index_t k = 0; k < n; ++k) {
      if (inv) x[k] *= inv[k];
      const T xk = x[k];
      const T* __restrict__ lk = a.data + k * a.ld;
      for (index_t i = k + 1; i < n; ++i) x[i] -= lk[i] * xk;
    }
  }
}

/// UPPER counterpart of solve_diag_lower (bottom-up over the block).
template <typename T>
void solve_diag_upper(ConstMatrixView<T> a, MatrixView<T> b,
                      const T* __restrict__ inv) {
  const index_t n = a.rows;
  index_t j = 0;
  for (; j + kDiagPassCols <= b.cols; j += kDiagPassCols) {
    T* __restrict__ x0 = b.data + j * b.ld;
    T* __restrict__ x1 = b.data + (j + 1) * b.ld;
    T* __restrict__ x2 = b.data + (j + 2) * b.ld;
    T* __restrict__ x3 = b.data + (j + 3) * b.ld;
    for (index_t k = n - 1; k >= 0; --k) {
      const T* __restrict__ uk = a.data + k * a.ld;
      if (inv) {
        const T ik = inv[k];
        x0[k] *= ik;
        x1[k] *= ik;
        x2[k] *= ik;
        x3[k] *= ik;
      }
      const T v0 = x0[k], v1 = x1[k], v2 = x2[k], v3 = x3[k];
      for (index_t i = 0; i < k; ++i) {
        const T uik = uk[i];
        x0[i] -= uik * v0;
        x1[i] -= uik * v1;
        x2[i] -= uik * v2;
        x3[i] -= uik * v3;
      }
    }
  }
  for (; j < b.cols; ++j) {
    T* __restrict__ x = b.data + j * b.ld;
    for (index_t k = n - 1; k >= 0; --k) {
      if (inv) x[k] *= inv[k];
      const T xk = x[k];
      const T* __restrict__ uk = a.data + k * a.ld;
      for (index_t i = 0; i < k; ++i) x[i] -= uk[i] * xk;
    }
  }
}

/// Trailing update C -= A * X without flop accounting: the packed engine
/// above its cutoff, a compact axpy update below it (the rank-NB updates of
/// small solves don't amortize packing). The two round differently, so the
/// choice is made for the whole solve's RHS width `nrhs`, not for C's own
/// columns: a solve split into column chunks (trsm_left_parallel) then runs
/// the same kernel, and returns the same bits, as the unsplit one.
template <typename T>
void update_nn(ConstMatrixView<T> a, ConstMatrixView<T> x, MatrixView<T> c,
               index_t nrhs) {
  if (use_packed_gemm(Op::N, Op::N, c.rows, nrhs, a.cols)) {
    gemm_packed<T>(Op::N, Op::N, T{-1}, a, x, T{1}, c);
    return;
  }
  for (index_t j = 0; j < c.cols; ++j) {
    T* __restrict__ cj = c.data + j * c.ld;
    for (index_t l = 0; l < a.cols; ++l) {
      const T xlj = x(l, j);
      if (xlj == T{}) continue;
      const T* __restrict__ al = a.data + l * a.ld;
      for (index_t i = 0; i < c.rows; ++i) cj[i] -= al[i] * xlj;
    }
  }
}

template <typename T>
void add_trsm_flops(index_t n, index_t nrhs) {
  FlopCounter::instance().add(
      FlopCounter::kTrsm,
      (is_complex_v<T> ? 4ull : 1ull) * static_cast<std::uint64_t>(n) *
          static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(nrhs));
}

}  // namespace

template <typename T>
void trsm_left_reference(Uplo uplo, Diag diag,
                         NoDeduce<ConstMatrixView<T>> a, MatrixView<T> b) {
  const index_t n = a.rows;
  if (uplo == Uplo::Lower) {
    for (index_t j = 0; j < b.cols; ++j) {
      T* __restrict__ x = b.data + j * b.ld;
      for (index_t k = 0; k < n; ++k) {
        if (diag == Diag::NonUnit) x[k] /= a(k, k);
        const T xk = x[k];
        if (xk == T{}) continue;
        const T* __restrict__ lk = a.data + k * a.ld;
        for (index_t i = k + 1; i < n; ++i) x[i] -= lk[i] * xk;
      }
    }
  } else {
    for (index_t j = 0; j < b.cols; ++j) {
      T* __restrict__ x = b.data + j * b.ld;
      for (index_t k = n - 1; k >= 0; --k) {
        if (diag == Diag::NonUnit) x[k] /= a(k, k);
        const T xk = x[k];
        if (xk == T{}) continue;
        const T* __restrict__ uk = a.data + k * a.ld;
        for (index_t i = 0; i < k; ++i) x[i] -= uk[i] * xk;
      }
    }
  }
}

namespace {

/// trsm_left_blocked on `b`, a column chunk of a solve with `nrhs` columns.
template <typename T>
void trsm_blocked_chunk(Uplo uplo, Diag diag, ConstMatrixView<T> a,
                        MatrixView<T> b, index_t nrhs) {
  const index_t n = a.rows;
  const index_t nb = resolved_blocking<T>().trsm_nb;
  if (n <= nb) {
    trsm_left_reference<T>(uplo, diag, a, b);
    return;
  }
  if (b.cols == 0) return;
  // Reciprocal table for NonUnit diagonals, computed once per solve so the
  // inner kernels multiply instead of divide.
  T* inv = nullptr;
  if (diag == Diag::NonUnit) {
    inv = WorkspaceArena::local().get<T>(static_cast<std::size_t>(n),
                                         WorkspaceArena::kScratch);
    for (index_t k = 0; k < n; ++k) inv[k] = T{1} / a(k, k);
  }
  if (uplo == Uplo::Lower) {
    for (index_t k0 = 0; k0 < n; k0 += nb) {
      const index_t kb = std::min(nb, n - k0);
      solve_diag_lower<T>(a.block(k0, k0, kb, kb), b.rows_range(k0, kb),
                          inv ? inv + k0 : nullptr);
      const index_t rem = n - k0 - kb;
      if (rem > 0)
        update_nn<T>(a.block(k0 + kb, k0, rem, kb),
                     ConstMatrixView<T>(b.rows_range(k0, kb)),
                     b.rows_range(k0 + kb, rem), nrhs);
    }
  } else {
    for (index_t k0 = ((n - 1) / nb) * nb;; k0 -= nb) {
      const index_t kb = std::min(nb, n - k0);
      solve_diag_upper<T>(a.block(k0, k0, kb, kb), b.rows_range(k0, kb),
                          inv ? inv + k0 : nullptr);
      if (k0 == 0) break;
      update_nn<T>(a.block(0, k0, k0, kb),
                   ConstMatrixView<T>(b.rows_range(k0, kb)),
                   b.rows_range(0, k0), nrhs);
    }
  }
}

}  // namespace

template <typename T>
void trsm_left_blocked(Uplo uplo, Diag diag, NoDeduce<ConstMatrixView<T>> a,
                       MatrixView<T> b) {
  trsm_blocked_chunk<T>(uplo, diag, a, b, b.cols);
}

template <typename T>
void trsm_left_parallel(Uplo uplo, Diag diag, NoDeduce<ConstMatrixView<T>> a,
                        MatrixView<T> b) {
  const index_t n = a.rows;
  HODLRX_REQUIRE(a.cols == n && b.rows == n,
                 "trsm_left_parallel: shape mismatch");
  if (max_threads() <= 1 || b.cols <= 1 || in_parallel()) {
    trsm_left_blocked<T>(uplo, diag, a, b);
  } else {
    // Chunks start on whole diagonal-kernel passes, so every column takes
    // the same pass, and returns the same bits, as in the unsplit solve.
    const index_t passes = (b.cols + kDiagPassCols - 1) / kDiagPassCols;
    parallel_chunks(passes, [&](index_t p0, index_t np) {
      const index_t j0 = p0 * kDiagPassCols;
      const index_t j1 = std::min((p0 + np) * kDiagPassCols, b.cols);
      trsm_blocked_chunk<T>(uplo, diag, a, b.cols_range(j0, j1 - j0), b.cols);
    });
  }
  add_trsm_flops<T>(n, b.cols);
}

#define HODLRX_INSTANTIATE_TRSM_KERNEL(T)                                    \
  template void trsm_left_reference<T>(Uplo, Diag,                           \
                                       NoDeduce<ConstMatrixView<T>>,         \
                                       MatrixView<T>);                       \
  template void trsm_left_blocked<T>(Uplo, Diag,                             \
                                     NoDeduce<ConstMatrixView<T>>,           \
                                     MatrixView<T>);                         \
  template void trsm_left_parallel<T>(Uplo, Diag,                            \
                                      NoDeduce<ConstMatrixView<T>>,          \
                                      MatrixView<T>);

HODLRX_INSTANTIATE_TRSM_KERNEL(float)
HODLRX_INSTANTIATE_TRSM_KERNEL(double)
HODLRX_INSTANTIATE_TRSM_KERNEL(std::complex<float>)
HODLRX_INSTANTIATE_TRSM_KERNEL(std::complex<double>)

#undef HODLRX_INSTANTIATE_TRSM_KERNEL

}  // namespace hodlrx
