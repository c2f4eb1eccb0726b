#pragma once

#include <memory>

#include "core/packed.hpp"
#include "device/device.hpp"

/// \file factorization.hpp
/// The two-stage HODLR factorization of the paper:
///   - factor(): Algorithm 1 (serial engine) / Algorithm 3 (batched engine);
///   - solve_inplace(): Algorithm 2 / Algorithm 4, any number of RHS.
///
/// Both engines run the SAME sweep over the packed big-matrix layout and
/// produce bit-comparable factors; they differ only in how the per-node
/// BLAS/LAPACK work is issued (plain single-thread loops vs batched device
/// kernels). The factorization copies only what it overwrites: Ybig (a copy
/// of Ubig, solved in place), the leaf blocks (LU-factored in place), plus
/// its own per-level K-matrix LU factors. It reads Vbig in place from the
/// operator's panels, which it co-owns, so the source HodlrMatrix and
/// PackedHodlr stay valid for residual checks and may also be destroyed
/// first.

namespace hodlrx {

namespace detail {
template <typename T>
struct FactorEngine;

/// The cut level lc of the batched sweeps (factor_batched.cpp): below it
/// one pool task per node of level lc factors or solves its subtree; steps
/// lc-1..0 stay level-synchronous. The rule picks the coarsest level that
/// has at least four subtrees per pool thread and whose largest subtree's
/// rows, `row_bytes` each, fit in the probed L2 cache; the depth, which is
/// the plain level sweep, when no level does. Both sweeps pass the bytes of
/// a row of Y and V (2 * total_cols scalars). The cut never changes a bit of
/// the factors or solutions.
index_t subtree_cut(const ClusterTree& tree, std::size_t row_bytes);

/// For tests and the cut sweep of bench_ablation: every later batched
/// factor and solve cuts at min(lc, depth) instead of subtree_cut's rule;
/// lc < 0 restores the rule.
void force_subtree_cut(index_t lc);
}  // namespace detail

template <typename T>
class HodlrFactorization {
 public:
  /// Factor the packed HODLR matrix. Simulates the paper's workflow: the
  /// packed data is "copied to the device" (transfer recorded), then
  /// factorized on the device. The U and leaf copies run as pool launches.
  ///
  /// The leaf blocks and every K matrix of eq. (11) are factored with
  /// partially pivoted LU; an exact zero pivot leaves no usable factor and
  /// throws under every opt.on_breakdown policy. A non-null `report`
  /// enables pivot-growth tracking (max_pivot_growth) and — with
  /// HODLRX_CHECK_FINITE — a NaN/Inf scan of the factors, which
  /// opt.on_breakdown governs.
  static HodlrFactorization factor(const PackedHodlr<T>& packed,
                                   const FactorOptions& opt = {},
                                   FactorReport* report = nullptr);

  /// Solve A x = b in place for any number of RHS columns (b: n x nrhs).
  void solve_inplace(MatrixView<T> b) const;

  /// solve_inplace plus a true-residual check against the compressed
  /// operator `a` (the matrix this factorization came from). If the
  /// relative residual exceeds `tol`, the breakdown policy of the
  /// factorization's options applies: kThrow throws, kReport records, and
  /// kRecover runs HODLR-preconditioned GMRES refinement per column (this
  /// factorization as the left preconditioner — the paper's "robust
  /// preconditioner" role), reusing the direct solution as the initial
  /// guess. The returned report carries the final residual, whether
  /// refinement engaged, and the GMRES iteration count.
  SolveReport solve_checked(const HodlrMatrix<T>& a, MatrixView<T> b,
                            double tol = 1e-10) const;

  /// Out-of-place convenience solve.
  Matrix<T> solve(ConstMatrixView<T> b) const {
    Matrix<T> x = to_matrix(b);
    solve_inplace(x);
    return x;
  }

  /// log|det(A)| and the unit phase (sign for real T), via the telescoping
  /// factorization of Theorem 5 and Sylvester's determinant identity.
  struct LogDet {
    real_t<T> log_abs = 0;
    T phase = T{1};
  };
  LogDet logdet() const;

  const ClusterTree& tree() const { return tree_; }
  index_t n() const { return tree_.n(); }
  ExecMode mode() const { return opt_.mode; }
  const FactorOptions& options() const { return opt_; }

  /// Bytes the factorization owns: Ybig, the leaf LUs with their pivots and
  /// the K factors. V is the operator's and counted by HodlrMatrix::bytes().
  std::size_t bytes() const { return storage_bytes(); }
  /// Modeled device footprint: bytes() plus the Vbig the solves read.
  std::size_t device_bytes() const {
    return storage_bytes() + panels_->vbig.bytes();
  }
  /// The V panels the factor and solve stages read, shared with the
  /// HodlrMatrix (N x R, ld = N).
  ConstMatrixView<T> vbig() const { return panels_->v(); }

 private:
  HodlrFactorization() = default;
  std::size_t storage_bytes() const;
  friend struct detail::FactorEngine<T>;

  /// One level of factored K matrices (eq. 11): `count` contiguous blocks
  /// of size r2 x r2 (r2 = 2 * level_rank[l+1]).
  struct LevelK {
    index_t r2 = 0;
    index_t count = 0;
    std::vector<T> data;
    std::vector<index_t> ipiv;  ///< r2 pivots per block

    MatrixView<T> block(index_t k) {
      return {data.data() + k * r2 * r2, r2, r2, r2};
    }
    ConstMatrixView<T> block(index_t k) const {
      return {data.data() + k * r2 * r2, r2, r2, r2};
    }
    index_t* pivots(index_t k) { return ipiv.data() + k * r2; }
    const index_t* pivots(index_t k) const { return ipiv.data() + k * r2; }
  };

  ClusterTree tree_;
  FactorOptions opt_;
  std::vector<index_t> level_rank_, col_offset_;
  index_t total_cols_ = 0;
  std::vector<char> level_uniform_;
  bool leaves_uniform_ = false;

  /// The operator's panels: V is read in place, never copied.
  std::shared_ptr<const HodlrPanels<T>> panels_;
  AlignedBuffer<T> ybig_;        ///< N x R, ld = N: Ubig, solved in place
  AlignedBuffer<T> dfac_;        ///< leaf blocks, LU-factored in place
  std::vector<index_t> d_offset_;
  std::vector<index_t> d_ipiv_;  ///< leaf pivots, indexed by global row
  std::vector<LevelK> kfac_;     ///< kfac_[l] for sweep step l = 0..L-1

  DeviceAllocation device_mem_;
};

}  // namespace hodlrx
