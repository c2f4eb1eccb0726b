#include <algorithm>
#include <complex>
#include <vector>

#include "batched/batched_blas.hpp"
#include "common/parallel.hpp"
#include "core/engine_detail.hpp"

/// \file factor_batched.cpp
/// The batched execution engine: Algorithm 3 (factorization stage) and
/// Algorithm 4 (solution stage). Every line of the paper's pseudocode maps
/// to one or two batched device calls:
///   BATCHED-LU-FACTORIZE  -> getrf_batched (partial pivoting)
///   BATCHED-LU-SOLVE      -> getrs_batched
///                            (pivots applied once, then the register-tiled
///                            triangular kernel, reading the LU in place:
///                            the whole solve for n <= trsm_nb, the
///                            diagonal-block solve of a blocked solve with
///                            packed GEMM updates above — see
///                            trsm_kernel.hpp)
///   BATCHED-GEMM          -> gemm_batched, or gemm_strided_batched when the
///                            level's node sizes are uniform (Sec. III-C).
/// Every launch places itself (batched or stream mode) with
/// BatchPolicy::kAuto.

namespace hodlrx::detail {

namespace {

/// Line 9 of Algorithm 3 and line 5 of Algorithm 4: one batched pivoted
/// solve per level, block k of the level against the r2 x cols block of W
/// at row k * r2.
template <typename T, typename LevelK>
void solve_k_level(const LevelK& klev, T* wdata, index_t ldw, index_t cols) {
  const index_t q = klev.count, r2 = klev.r2;
  std::vector<ConstMatrixView<T>> lu(q);
  std::vector<const index_t*> piv(q);
  std::vector<MatrixView<T>> rhs(q);
  for (index_t k = 0; k < q; ++k) {
    lu[k] = klev.block(k);
    piv[k] = klev.pivots(k);
    rhs[k] = MatrixView<T>{wdata + k * r2, r2, cols, ldw};
  }
  getrs_batched<T>(lu, piv, rhs);
}

}  // namespace

template <typename T>
void FactorEngine<T>::run_factor_batched(F& f) {
  const ClusterTree& tree = f.tree_;
  const index_t L = depth(f);
  MatrixView<T> ybig = FactorEngine<T>::ybig(f);
  ConstMatrixView<T> vbig = f.vbig();
  const T* vdata = vbig.data;
  T* ydata = ybig.data;
  const index_t ldv = vbig.ld;
  const index_t ldy = ybig.ld;

  // --- Algorithm 3, lines 2-3: batched leaf LU + leaf panel solves --------
  {
    const index_t leaves = tree.num_leaves();
    std::vector<MatrixView<T>> d(leaves);
    std::vector<index_t*> piv(leaves);
    for (index_t j = 0; j < leaves; ++j) {
      d[j] = leaf_lu(f, j);
      piv[j] = leaf_pivots(f, j);
    }
    getrf_batched<T>(d, piv);
    if (f.total_cols_ > 0) {
      std::vector<ConstMatrixView<T>> lu(leaves);
      std::vector<const index_t*> cpiv(leaves);
      std::vector<MatrixView<T>> rhs(leaves);
      for (index_t j = 0; j < leaves; ++j) {
        lu[j] = d[j];
        cpiv[j] = piv[j];
        const ClusterNode& c = tree.node(tree.leaf(j));
        rhs[j] = ybig.block(c.begin, 0, c.size(), f.total_cols_);
      }
      getrs_batched<T>(lu, cpiv, rhs);
    }
  }

  // One W workspace reused by every level (sized for the largest), instead
  // of a fresh heap allocation per level: the batched engine's level sweep
  // is the hot path, and the per-level W can reach hundreds of MB.
  index_t wmax = 0;
  for (index_t l = L - 1; l >= 0; --l) {
    if (f.level_rank_[l + 1] == 0) continue;
    wmax = std::max(wmax, 2 * f.kfac_[l].count * f.level_rank_[l + 1] *
                              f.col_offset_[l + 1]);
  }
  Matrix<T> wbuf(wmax, 1);

  // --- Algorithm 3, lines 4-11: level sweep -------------------------------
  for (index_t l = L - 1; l >= 0; --l) {
    const index_t r = f.level_rank_[l + 1];
    LevelK& klev = f.kfac_[l];
    if (r == 0) continue;
    const index_t panel = f.col_offset_[l + 1];
    const index_t q = klev.count;             // parents
    const index_t c = 2 * q;                  // children
    const bool uniform = f.level_uniform_[l + 1] != 0;
    const index_t s =
        uniform ? tree.node(ClusterTree::level_begin(l + 1)).size() : 0;
    const index_t r2 = klev.r2;
    T* kdata = klev.data.data();
    const index_t kstride = r2 * r2;

    // Line 5 + 7: T blocks written straight into the K storage,
    // T_a -> K(0,0) and T_b -> K(r,r).
    if (uniform) {
      // left children: begins 2k*s; right children: (2k+1)*s.
      gemm_strided_batched<T>(Op::C, Op::N, r, r, s, T{1},
                              vdata + panel * ldv, ldv, 2 * s,
                              ydata + panel * ldy, ldy, 2 * s, T{0}, kdata,
                              r2, kstride, q);
      gemm_strided_batched<T>(Op::C, Op::N, r, r, s, T{1},
                              vdata + s + panel * ldv, ldv, 2 * s,
                              ydata + s + panel * ldy, ldy, 2 * s, T{0},
                              kdata + r * r2 + r, r2, kstride, q);
    } else {
      std::vector<ConstMatrixView<T>> av(c), bv(c);
      std::vector<MatrixView<T>> cv(c);
      for (index_t k = 0; k < q; ++k) {
        const index_t gamma = ClusterTree::level_begin(l) + k;
        const index_t a = ClusterTree::left_child(gamma);
        const index_t b = ClusterTree::right_child(gamma);
        const ClusterNode& cav = tree.node(a);
        const ClusterNode& cbv = tree.node(b);
        MatrixView<T> kk = klev.block(k);
        av[2 * k] = vbig.block(cav.begin, panel, cav.size(), r);
        bv[2 * k] = ybig.block(cav.begin, panel, cav.size(), r);
        cv[2 * k] = kk.block(0, 0, r, r);
        av[2 * k + 1] = vbig.block(cbv.begin, panel, cbv.size(), r);
        bv[2 * k + 1] = ybig.block(cbv.begin, panel, cbv.size(), r);
        cv[2 * k + 1] = kk.block(r, r, r, r);
      }
      gemm_batched<T>(Op::C, Op::N, T{1}, av, bv, T{0}, cv);
    }
    // Identity blocks of K (cheap elementwise pass).
    parallel_for(q, [&](index_t k) { fill_k_identities(klev.block(k), r); });

    // Line 8: batched LU of all K_gamma at this level.
    {
      std::vector<MatrixView<T>> kb(q);
      std::vector<index_t*> piv(q);
      for (index_t k = 0; k < q; ++k) {
        kb[k] = klev.block(k);
        piv[k] = klev.pivots(k);
      }
      getrf_batched<T>(kb, piv);
    }

    if (panel == 0) continue;

    // Line 6: W = (V^{l+1})^H (.) Ybig(:, prefix), block rows per child.
    T* wdata = wbuf.data();
    const index_t ldw = c * r;
    if (uniform) {
      gemm_strided_batched<T>(Op::C, Op::N, r, panel, s, T{1},
                              vdata + panel * ldv, ldv, s, ydata, ldy, s,
                              T{0}, wdata, ldw, r, c);
    } else {
      std::vector<ConstMatrixView<T>> av(c), bv(c);
      std::vector<MatrixView<T>> cv(c);
      for (index_t k = 0; k < q; ++k) {
        const index_t gamma = ClusterTree::level_begin(l) + k;
        const ClusterNode& cav = tree.node(ClusterTree::left_child(gamma));
        const ClusterNode& cbv = tree.node(ClusterTree::right_child(gamma));
        av[2 * k] = vbig.block(cav.begin, panel, cav.size(), r);
        bv[2 * k] = ConstMatrixView<T>(ydata + cav.begin, cav.size(), panel, ldy);
        av[2 * k + 1] = vbig.block(cbv.begin, panel, cbv.size(), r);
        bv[2 * k + 1] =
            ConstMatrixView<T>(ydata + cbv.begin, cbv.size(), panel, ldy);
        cv[2 * k] = MatrixView<T>{wdata + 2 * k * r, r, panel, ldw};
        cv[2 * k + 1] = MatrixView<T>{wdata + (2 * k + 1) * r, r, panel, ldw};
      }
      gemm_batched<T>(Op::C, Op::N, T{1}, av, bv, T{0}, cv);
    }

    // Line 9: batched K solve, one 2r x panel block per parent.
    solve_k_level(klev, wdata, ldw, panel);

    // Line 10: prefix update, one block per child (solution rows
    // [w_a; w_b]).
    if (uniform) {
      gemm_strided_batched<T>(Op::N, Op::N, s, panel, r, T{-1},
                              ydata + panel * ldy, ldy, s, wdata, ldw, r,
                              T{1}, ydata, ldy, s, c);
    } else {
      std::vector<ConstMatrixView<T>> av(c), bv(c);
      std::vector<MatrixView<T>> cv(c);
      for (index_t t = 0; t < c; ++t) {
        const index_t nu = ClusterTree::level_begin(l + 1) + t;
        const ClusterNode& cn = tree.node(nu);
        av[t] = ybig.block(cn.begin, panel, cn.size(), r);
        bv[t] = ConstMatrixView<T>(wdata + t * r, r, panel, ldw);
        cv[t] = ybig.block(cn.begin, 0, cn.size(), panel);
      }
      gemm_batched<T>(Op::N, Op::N, T{-1}, av, bv, T{1}, cv);
    }
  }
}

template <typename T>
void FactorEngine<T>::run_solve_batched(const F& f, MatrixView<T> x) {
  const ClusterTree& tree = f.tree_;
  const index_t L = depth(f);
  ConstMatrixView<T> ybig = FactorEngine<T>::ybig(f);
  ConstMatrixView<T> vbig = f.vbig();
  const T* vdata = vbig.data;
  const T* ydata = ybig.data;
  const index_t ldv = vbig.ld;
  const index_t ldy = ybig.ld;
  const index_t nrhs = x.cols;

  // --- Algorithm 4, line 2: batched leaf solves (blocked TRSM engine:
  // stream mode runs getrs_parallel, batched mode one blocked getrs per
  // pool slot — no reference column-at-a-time solves on this path) --------
  {
    const index_t leaves = tree.num_leaves();
    std::vector<ConstMatrixView<T>> lu(leaves);
    std::vector<const index_t*> piv(leaves);
    std::vector<MatrixView<T>> rhs(leaves);
    for (index_t j = 0; j < leaves; ++j) {
      lu[j] = leaf_lu(f, j);
      piv[j] = leaf_pivots(f, j);
      const ClusterNode& cn = tree.node(tree.leaf(j));
      rhs[j] = x.block(cn.begin, 0, cn.size(), nrhs);
    }
    getrs_batched<T>(lu, piv, rhs);
  }

  // As in the factorization stage: one W workspace for all levels.
  index_t wmax = 0;
  for (index_t l = L - 1; l >= 0; --l) {
    if (f.level_rank_[l + 1] == 0) continue;
    wmax = std::max(wmax, 2 * f.kfac_[l].count * f.level_rank_[l + 1] * nrhs);
  }
  Matrix<T> wbuf(wmax, 1);

  // --- Algorithm 4, lines 3-7: level sweep --------------------------------
  for (index_t l = L - 1; l >= 0; --l) {
    const index_t r = f.level_rank_[l + 1];
    if (r == 0) continue;
    const LevelK& klev = f.kfac_[l];
    const index_t panel = f.col_offset_[l + 1];
    const index_t q = klev.count;
    const index_t c = 2 * q;
    // The strided launches below are ld-aware (problem i is a row block at
    // element offset i*s or i*2s of the SAME columns, addressed with x.ld),
    // so a submatrix RHS view (x.ld > x.rows) stays on the uniform fast
    // path — it used to silently fall back to per-block gemm_batched.
    const bool uniform = f.level_uniform_[l + 1] != 0;
    const index_t s =
        uniform ? tree.node(ClusterTree::level_begin(l + 1)).size() : 0;

    T* wdata = wbuf.data();
    const index_t ldw = c * r;

    // Line 4: w = (V^{l+1})^H (.) x^{l+1}.
    if (uniform) {
      gemm_strided_batched<T>(Op::C, Op::N, r, nrhs, s, T{1},
                              vdata + panel * ldv, ldv, s, x.data, x.ld, s,
                              T{0}, wdata, ldw, r, c);
    } else {
      std::vector<ConstMatrixView<T>> av(c), bv(c);
      std::vector<MatrixView<T>> cv(c);
      for (index_t k = 0; k < q; ++k) {
        const index_t gamma = ClusterTree::level_begin(l) + k;
        const ClusterNode& ca = tree.node(ClusterTree::left_child(gamma));
        const ClusterNode& cb = tree.node(ClusterTree::right_child(gamma));
        av[2 * k] = vbig.block(ca.begin, panel, ca.size(), r);
        bv[2 * k] = ConstMatrixView<T>(x.block(ca.begin, 0, ca.size(), nrhs));
        av[2 * k + 1] = vbig.block(cb.begin, panel, cb.size(), r);
        bv[2 * k + 1] = ConstMatrixView<T>(x.block(cb.begin, 0, cb.size(), nrhs));
        cv[2 * k] = MatrixView<T>{wdata + 2 * k * r, r, nrhs, ldw};
        cv[2 * k + 1] = MatrixView<T>{wdata + (2 * k + 1) * r, r, nrhs, ldw};
      }
      gemm_batched<T>(Op::C, Op::N, T{1}, av, bv, T{0}, cv);
    }

    // Line 5: batched K solve.
    solve_k_level(klev, wdata, ldw, nrhs);

    // Line 6: x^{l+1} -= Y^{l+1} (.) w^{l+1}.
    if (uniform) {
      gemm_strided_batched<T>(Op::N, Op::N, s, nrhs, r, T{-1},
                              ydata + panel * ldy, ldy, s, wdata, ldw, r,
                              T{1}, x.data, x.ld, s, c);
    } else {
      std::vector<ConstMatrixView<T>> av(c), bv(c);
      std::vector<MatrixView<T>> cv(c);
      for (index_t t = 0; t < c; ++t) {
        const index_t nu = ClusterTree::level_begin(l + 1) + t;
        const ClusterNode& cn = tree.node(nu);
        av[t] = ybig.block(cn.begin, panel, cn.size(), r);
        bv[t] = ConstMatrixView<T>(wdata + t * r, r, nrhs, ldw);
        cv[t] = x.block(cn.begin, 0, cn.size(), nrhs);
      }
      gemm_batched<T>(Op::N, Op::N, T{-1}, av, bv, T{1}, cv);
    }
  }
}

#define HODLRX_INSTANTIATE_BATCHED_ENGINE(T)                              \
  template void FactorEngine<T>::run_factor_batched(                     \
      HodlrFactorization<T>&);                                           \
  template void FactorEngine<T>::run_solve_batched(                      \
      const HodlrFactorization<T>&, MatrixView<T>);

HODLRX_INSTANTIATE_BATCHED_ENGINE(float)
HODLRX_INSTANTIATE_BATCHED_ENGINE(double)
HODLRX_INSTANTIATE_BATCHED_ENGINE(std::complex<float>)
HODLRX_INSTANTIATE_BATCHED_ENGINE(std::complex<double>)

#undef HODLRX_INSTANTIATE_BATCHED_ENGINE

}  // namespace hodlrx::detail
