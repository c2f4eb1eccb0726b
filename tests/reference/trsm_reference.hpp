#pragma once

#include "common/lapack.hpp"
#include "common/matrix.hpp"

/// \file trsm_reference.hpp
/// The seed's unblocked triangular solve, kept as the oracle for the
/// register-tiled kernel behind trsm_left/getrs (common/trsm_kernel.hpp):
/// B <- A^{-1} B one RHS column at a time, an axpy sweep over the whole
/// triangle per column, with one division per diagonal entry. Tests and
/// bench_trsm include this header; the library never calls it, and it books
/// no flops.

namespace hodlrx {

template <typename T>
void trsm_left_reference(Uplo uplo, Diag diag, NoDeduce<ConstMatrixView<T>> a,
                         MatrixView<T> b) {
  const index_t n = a.rows;
  for (index_t j = 0; j < b.cols; ++j) {
    T* x = b.data + j * b.ld;
    if (uplo == Uplo::Lower) {
      for (index_t k = 0; k < n; ++k) {
        if (diag == Diag::NonUnit) x[k] /= a(k, k);
        const T xk = x[k];
        if (xk == T{}) continue;
        for (index_t i = k + 1; i < n; ++i) x[i] -= a(i, k) * xk;
      }
    } else {
      for (index_t k = n - 1; k >= 0; --k) {
        if (diag == Diag::NonUnit) x[k] /= a(k, k);
        const T xk = x[k];
        if (xk == T{}) continue;
        for (index_t i = 0; i < k; ++i) x[i] -= a(i, k) * xk;
      }
    }
  }
}

}  // namespace hodlrx
