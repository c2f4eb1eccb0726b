#pragma once

#include <span>

#include "batched/batched_blas.hpp"
#include "common/fault.hpp"
#include "lowrank/lowrank.hpp"

/// \file recompress.hpp
/// Rank re-truncation of a low-rank pair A = U V^H. ACA over-estimates
/// ranks slightly; recompression restores near-optimal ones (this is what
/// keeps the paper's per-level rank ladders tight).
///
/// The kernel is Gram/Cholesky based, so every step that touches the tall
/// factors is a GEMM:
///   1. G_U = U^H U and G_V = V^H V (GEMMs), and their Cholesky factors
///      R_U, R_V (potrf_upper): U = Q_U R_U, V = Q_V R_V with Q never formed;
///   2. the r x r core R_U R_V^H = W S Z^H (one-sided Jacobi SVD);
///   3. k from the shared truncate_rank rule (rank cap first, then singular
///      values relative to the block's largest);
///   4. U <- U (R_U^{-1} W_k S_k) and V <- V (R_V^{-1} Z_k): a small
///      triangular solve and one GEMM per side.
/// Because Q_U, Q_V are only implicit, their loss of orthogonality (about
/// kappa^2 eps, kappa the condition number of the column-scaled factor)
/// perturbs the core's singular values by that much RELATIVE to each one,
/// while the product U_k V_k^H is the input product's truncation up to
/// rounding. A factor whose Cholesky pivot falls to 256 eps times its Gram
/// diagonal or below (numerically dependent columns, e.g. duplicates) has
/// no usable R: that block alone falls back to the Householder QR + SVD
/// path below and is counted in qr_stats::cholesky_fallbacks().

namespace hodlrx {

/// What one recompression did: the new rank, and whether its core SVD
/// converged within the sweep budget (svd_max_sweeps). An unconverged core
/// still yields a truncated factor; the caller's breakdown policy decides
/// whether to keep it.
struct RecompressResult {
  index_t rank = 0;
  bool converged = true;
};

/// In-place: factor <- truncated factor. `tol` is relative to the largest
/// singular value of the CORE (truncate_rank semantics); `max_rank < 0`
/// means uncapped.
template <typename T>
RecompressResult recompress(LowRankFactor<T>& factor, real_t<T> tol,
                            index_t max_rank = -1);

/// Batched recompression of factors with UNIFORM outer shape (equal
/// rows/cols; ranks may differ). Gram GEMMs, Cholesky factors and the final
/// products run one pool task per factor side, straight on each factor's own
/// storage; only the r x r cores are zero-padded to the batch's max rank for
/// the sweep-synchronized batched Jacobi SVD (zero padding adds only zero
/// singular values). A block whose Cholesky breaks down is re-truncated by
/// the Householder rung, exactly as recompress would. This is how the
/// construction stage recompresses a uniform tree level without per-block
/// SVD tasks.
///
/// Core SVDs that exhaust the sweep budget follow `on_breakdown`: kRecover
/// re-runs them serially with a larger budget, kReport keeps their
/// unconverged factors, kThrow throws. The returned info counts them
/// (SvdBatchInfo::nonconverged and recovered) for the caller's report,
/// together with unconverged cores of the Householder rung, which is not
/// re-run.
template <typename T>
SvdBatchInfo recompress_batched(
    std::span<LowRankFactor<T>> factors, real_t<T> tol,
    index_t max_rank = -1, OnBreakdown on_breakdown = OnBreakdown::kRecover);

namespace detail {
/// The Householder breakdown rung (same contract as recompress): QR both
/// factors, SVD the core R_U R_V^H, truncate, and form Q_U (W_k S_k) and
/// Q_V Z_k from the explicit thin Qs. Robust to dependent columns.
template <typename T>
RecompressResult recompress_householder(LowRankFactor<T>& factor,
                                        real_t<T> tol, index_t max_rank = -1);
}  // namespace detail

}  // namespace hodlrx
