#pragma once

#include "common/lapack.hpp"
#include "lowrank/lowrank.hpp"

/// \file rsvd.hpp
/// Randomized low-rank approximation of dense views (Halko-Martinsson-Tropp
/// style): a Gaussian range sketch, optional power iterations for spectral
/// decay, then a small deterministic SVD. HodlrMatrix::build re-compresses
/// a block whose ACA stalled through it; tests use it as an independent
/// check on ACA.

namespace hodlrx {

struct RsvdOptions {
  index_t rank = 0;          ///< target rank (before truncation)
  index_t oversampling = 8;  ///< extra sketch columns
  int power_iterations = 1;  ///< q in (A A^H)^q A
  std::uint64_t seed = 11;
  double tol = 0;            ///< if > 0, truncate singular values < tol*s[0]
};

/// A ~= U diag(s) V^H truncated per options; returned as a LowRankFactor
/// with the singular values folded into U. The sketch width is
/// min(m, n, rank + oversampling). The range GEMMs run through
/// gemm_parallel and the orthonormalizations through geqrf_inplace_parallel
/// and thin_q_inplace_parallel, so one large block uses the whole pool.
template <typename T>
LowRankFactor<T> rsvd(ConstMatrixView<T> a, const RsvdOptions& opt);

}  // namespace hodlrx
