#pragma once

#include <algorithm>

#include "common/blas.hpp"
#include "common/matrix.hpp"

/// \file lowrank.hpp
/// The low-rank factor pair `A ~= U V^H` used for every HODLR off-diagonal
/// block (paper eq. 5: A(I_a, I_b) = U_a V_b^*).

namespace hodlrx {

template <typename T>
struct LowRankFactor {
  Matrix<T> u;  ///< m x r
  Matrix<T> v;  ///< n x r (the block is u * v^H)

  index_t rank() const { return u.cols(); }
  index_t rows() const { return u.rows(); }
  index_t cols() const { return v.rows(); }

  /// Dense reconstruction u * v^H (validation helper).
  Matrix<T> reconstruct() const {
    Matrix<T> a(rows(), cols());
    if (rank() > 0) gemm(Op::N, Op::C, T{1}, u, v, T{0}, a.view());
    return a;
  }

  std::size_t bytes() const { return u.bytes() + v.bytes(); }
};

/// The ONE truncation rule shared by every re-truncation (rsvd, recompress
/// and recompress_batched): cap the rank at `max_rank`
/// first (< 0 means uncapped), then keep the leading singular values
/// STRICTLY above `tol * s[0]` — the tolerance is RELATIVE to the largest
/// singular value of this block, so a zero block truncates to rank 0 and
/// `tol <= 0` keeps everything up to the cap. `s[0..count)` must be
/// descending. Extracted because rsvd and recompress had drifted (recompress
/// ignored the rank cap entirely).
template <typename R>
index_t truncate_rank(const R* s, index_t count, index_t max_rank, R tol) {
  index_t k = max_rank >= 0 ? std::min(count, max_rank) : count;
  if (tol > R{0} && count > 0) {
    const R cut = tol * s[0];
    index_t kk = 0;
    while (kk < k && s[kk] > cut) ++kk;
    k = kk;
  }
  return k;
}

}  // namespace hodlrx
