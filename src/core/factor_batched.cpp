#include <algorithm>
#include <atomic>
#include <complex>
#include <vector>

#include "batched/batched_blas.hpp"
#include "common/hwinfo.hpp"
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
///
/// Both sweeps are cut at a tree level lc (subtree_cut). Below the cut, one
/// pool task per subtree, rooted at a node of level lc, runs the leaf stage
/// of its leaves and steps L-1..lc of its parents, so the subtree's rows
/// stay in cache from its leaves up to the cut instead of every level
/// streaming whole N-row panels. Steps lc-1..0 stay level-synchronous
/// batched launches over the whole level. Both phases call the same two
/// stage functions over a contiguous range of leaves or parents, and the
/// driver calls inside a task run inline, each problem through its own
/// per-problem kernel: the factors and solutions have the same bits at every
/// cut and pool size.

namespace hodlrx::detail {

namespace {

std::atomic<index_t> g_forced_cut{-1};

/// The cut both sweeps of `f` use: the forced one, else subtree_cut's for
/// the subtrees' Y and V rows.
template <typename T>
index_t cut_level(const HodlrFactorization<T>& f) {
  const index_t forced = g_forced_cut.load(std::memory_order_relaxed);
  const ClusterTree& tree = f.tree();
  if (forced >= 0) return std::min(forced, tree.depth());
  return subtree_cut(tree,
                     2 * static_cast<std::size_t>(f.vbig().cols) * sizeof(T));
}

/// Elements of the W workspace of the steps [lo, hi) run by one phase task,
/// whose step l covers 2^(l - lo) parents: 2 * parents * r rows of
/// cols(l) columns, sized for the largest step.
template <typename ColsFn>
std::size_t w_elems(const std::vector<index_t>& level_rank, index_t lo,
                    index_t hi, ColsFn cols) {
  std::size_t w = 0;
  for (index_t l = lo; l < hi; ++l)
    w = std::max(w, static_cast<std::size_t>(2 * (index_t{1} << (l - lo)) *
                                             level_rank[l + 1] * cols(l)));
  return w;
}

/// The cut sweep shared by Algorithms 3 and 4. Subtree phase: the task of
/// node t of level lc runs leaves(first, count) on its leaves, then
/// step(l, k0, count, w) for l = L-1..lc on its parents k0.. of level l.
/// Each task owns its W, allocated from the heap: inside the task gemm packs
/// into the thread's arena pack slots and the TRSM kernel keeps its
/// reciprocal table in the scratch slot. At lc = L no step falls below the
/// cut and the leaf stage runs as one task over every leaf, so its launches
/// stay batched: that cut is the plain level sweep. Top phase: steps
/// lc-1..0 over whole levels, with one W for all of them.
template <typename T, typename ColsFn, typename LeavesFn, typename StepFn>
void cut_sweep(const std::vector<index_t>& level_rank, index_t L, index_t lc,
               ColsFn cols, LeavesFn leaves, StepFn step) {
  const index_t tasks = lc < L ? index_t{1} << lc : 1;
  const index_t per_task = (index_t{1} << L) / tasks;
  const std::size_t wsub = w_elems(level_rank, lc, L, cols);
  parallel_for(tasks, [&](index_t t) {
    AlignedBuffer<T> w(wsub);
    leaves(t * per_task, per_task);
    for (index_t l = L - 1; l >= lc; --l)
      step(l, t << (l - lc), index_t{1} << (l - lc), w.data());
  });
  AlignedBuffer<T> w(w_elems(level_rank, 0, lc, cols));
  for (index_t l = lc - 1; l >= 0; --l)
    step(l, 0, index_t{1} << l, w.data());
}

/// Line 9 of Algorithm 3 and line 5 of Algorithm 4: one batched pivoted
/// solve for `count` parents k0.. of a level, the k-th against the r2 x cols
/// block of W at row k * r2.
template <typename T, typename LevelK>
void solve_k_level(const LevelK& klev, index_t k0, index_t count, T* wdata,
                   index_t ldw, index_t cols) {
  const index_t r2 = klev.r2;
  std::vector<ConstMatrixView<T>> lu(count);
  std::vector<const index_t*> piv(count);
  std::vector<MatrixView<T>> rhs(count);
  for (index_t k = 0; k < count; ++k) {
    lu[k] = klev.block(k0 + k);
    piv[k] = klev.pivots(k0 + k);
    rhs[k] = MatrixView<T>{wdata + k * r2, r2, cols, ldw};
  }
  getrs_batched<T>(lu, piv, rhs);
}

}  // namespace

index_t subtree_cut(const ClusterTree& tree, std::size_t row_bytes) {
  const index_t L = tree.depth();
  const index_t min_subtrees = 4 * static_cast<index_t>(max_threads());
  for (index_t lc = 0; lc < L; ++lc) {
    if (ClusterTree::nodes_at_level(lc) < min_subtrees) continue;
    index_t rows = 0;
    for (index_t k = 0; k < ClusterTree::nodes_at_level(lc); ++k)
      rows = std::max(rows, tree.node(ClusterTree::level_begin(lc) + k).size());
    if (static_cast<std::size_t>(rows) * row_bytes <= hwinfo().l2_bytes)
      return lc;
  }
  return L;
}

void force_subtree_cut(index_t lc) {
  g_forced_cut.store(lc, std::memory_order_relaxed);
}

template <typename T>
void FactorEngine<T>::run_factor_batched(F& f) {
  const ClusterTree& tree = f.tree_;
  MatrixView<T> ybig = FactorEngine<T>::ybig(f);
  ConstMatrixView<T> vbig = f.vbig();
  const T* vdata = vbig.data;
  T* ydata = ybig.data;
  const index_t ldv = vbig.ld;
  const index_t ldy = ybig.ld;

  // --- Algorithm 3, lines 2-3: batched leaf LU + leaf panel solves of the
  // leaves j0..j0+count-1 --------------------------------------------------
  auto leaves = [&](index_t j0, index_t count) {
    std::vector<MatrixView<T>> d(count);
    std::vector<index_t*> piv(count);
    for (index_t j = 0; j < count; ++j) {
      d[j] = leaf_lu(f, j0 + j);
      piv[j] = leaf_pivots(f, j0 + j);
    }
    getrf_batched<T>(d, piv);
    if (f.total_cols_ > 0) {
      std::vector<ConstMatrixView<T>> lu(count);
      std::vector<const index_t*> cpiv(count);
      std::vector<MatrixView<T>> rhs(count);
      for (index_t j = 0; j < count; ++j) {
        lu[j] = d[j];
        cpiv[j] = piv[j];
        const ClusterNode& c = tree.node(tree.leaf(j0 + j));
        rhs[j] = ybig.block(c.begin, 0, c.size(), f.total_cols_);
      }
      getrs_batched<T>(lu, cpiv, rhs);
    }
  };

  // --- Algorithm 3, lines 4-11: step l for the parents k0..k0+q-1 --------
  auto step = [&](index_t l, index_t k0, index_t q, T* wdata) {
    const index_t r = f.level_rank_[l + 1];
    LevelK& klev = f.kfac_[l];
    if (r == 0) return;
    const index_t panel = f.col_offset_[l + 1];
    const index_t c = 2 * q;                  // children
    const index_t t0 = ClusterTree::level_begin(l + 1) + 2 * k0;  // first
    const bool uniform = f.level_uniform_[l + 1] != 0;
    const index_t s = uniform ? tree.node(t0).size() : 0;
    const index_t row0 = 2 * k0 * s;          // first child row (uniform)
    const index_t r2 = klev.r2;
    const index_t kstride = r2 * r2;
    T* kdata = klev.data.data() + k0 * kstride;

    // Line 5 + 7: T blocks written straight into the K storage,
    // T_a -> K(0,0) and T_b -> K(r,r).
    if (uniform) {
      // left children: begins row0 + 2k*s; right children: row0 + (2k+1)*s.
      gemm_strided_batched<T>(Op::C, Op::N, r, r, s, T{1},
                              vdata + row0 + panel * ldv, ldv, 2 * s,
                              ydata + row0 + panel * ldy, ldy, 2 * s, T{0},
                              kdata, r2, kstride, q);
      gemm_strided_batched<T>(Op::C, Op::N, r, r, s, T{1},
                              vdata + row0 + s + panel * ldv, ldv, 2 * s,
                              ydata + row0 + s + panel * ldy, ldy, 2 * s,
                              T{0}, kdata + r * r2 + r, r2, kstride, q);
    } else {
      std::vector<ConstMatrixView<T>> av(c), bv(c);
      std::vector<MatrixView<T>> cv(c);
      for (index_t k = 0; k < q; ++k) {
        const ClusterNode& cav = tree.node(t0 + 2 * k);
        const ClusterNode& cbv = tree.node(t0 + 2 * k + 1);
        MatrixView<T> kk = klev.block(k0 + k);
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
    parallel_for(q, [&](index_t k) { fill_k_identities(klev.block(k0 + k), r); });

    // Line 8: batched LU of the range's K_gamma.
    {
      std::vector<MatrixView<T>> kb(q);
      std::vector<index_t*> piv(q);
      for (index_t k = 0; k < q; ++k) {
        kb[k] = klev.block(k0 + k);
        piv[k] = klev.pivots(k0 + k);
      }
      getrf_batched<T>(kb, piv);
    }

    if (panel == 0) return;

    // Line 6: W = (V^{l+1})^H (.) Ybig(:, prefix), block rows per child.
    const index_t ldw = c * r;
    if (uniform) {
      gemm_strided_batched<T>(Op::C, Op::N, r, panel, s, T{1},
                              vdata + row0 + panel * ldv, ldv, s,
                              ydata + row0, ldy, s, T{0}, wdata, ldw, r, c);
    } else {
      std::vector<ConstMatrixView<T>> av(c), bv(c);
      std::vector<MatrixView<T>> cv(c);
      for (index_t t = 0; t < c; ++t) {
        const ClusterNode& cn = tree.node(t0 + t);
        av[t] = vbig.block(cn.begin, panel, cn.size(), r);
        bv[t] = ConstMatrixView<T>(ydata + cn.begin, cn.size(), panel, ldy);
        cv[t] = MatrixView<T>{wdata + t * r, r, panel, ldw};
      }
      gemm_batched<T>(Op::C, Op::N, T{1}, av, bv, T{0}, cv);
    }

    // Line 9: batched K solve, one 2r x panel block per parent.
    solve_k_level(klev, k0, q, wdata, ldw, panel);

    // Line 10: prefix update, one block per child (solution rows
    // [w_a; w_b]).
    if (uniform) {
      gemm_strided_batched<T>(Op::N, Op::N, s, panel, r, T{-1},
                              ydata + row0 + panel * ldy, ldy, s, wdata, ldw,
                              r, T{1}, ydata + row0, ldy, s, c);
    } else {
      std::vector<ConstMatrixView<T>> av(c), bv(c);
      std::vector<MatrixView<T>> cv(c);
      for (index_t t = 0; t < c; ++t) {
        const ClusterNode& cn = tree.node(t0 + t);
        av[t] = ybig.block(cn.begin, panel, cn.size(), r);
        bv[t] = ConstMatrixView<T>(wdata + t * r, r, panel, ldw);
        cv[t] = ybig.block(cn.begin, 0, cn.size(), panel);
      }
      gemm_batched<T>(Op::N, Op::N, T{-1}, av, bv, T{1}, cv);
    }
  };

  cut_sweep<T>(
      f.level_rank_, depth(f), cut_level(f),
      [&](index_t l) { return f.col_offset_[l + 1]; }, leaves, step);
}

template <typename T>
void FactorEngine<T>::run_solve_batched(const F& f, MatrixView<T> x) {
  const ClusterTree& tree = f.tree_;
  ConstMatrixView<T> ybig = FactorEngine<T>::ybig(f);
  ConstMatrixView<T> vbig = f.vbig();
  const T* vdata = vbig.data;
  const T* ydata = ybig.data;
  const index_t ldv = vbig.ld;
  const index_t ldy = ybig.ld;
  const index_t nrhs = x.cols;

  // --- Algorithm 4, line 2: batched leaf solves of the leaves
  // j0..j0+count-1 ----------------------------------------------------------
  auto leaves = [&](index_t j0, index_t count) {
    std::vector<ConstMatrixView<T>> lu(count);
    std::vector<const index_t*> piv(count);
    std::vector<MatrixView<T>> rhs(count);
    for (index_t j = 0; j < count; ++j) {
      lu[j] = leaf_lu(f, j0 + j);
      piv[j] = leaf_pivots(f, j0 + j);
      const ClusterNode& cn = tree.node(tree.leaf(j0 + j));
      rhs[j] = x.block(cn.begin, 0, cn.size(), nrhs);
    }
    getrs_batched<T>(lu, piv, rhs);
  };

  // --- Algorithm 4, lines 3-7: step l for the parents k0..k0+q-1 ---------
  auto step = [&](index_t l, index_t k0, index_t q, T* wdata) {
    const index_t r = f.level_rank_[l + 1];
    if (r == 0) return;
    const LevelK& klev = f.kfac_[l];
    const index_t panel = f.col_offset_[l + 1];
    const index_t c = 2 * q;
    const index_t t0 = ClusterTree::level_begin(l + 1) + 2 * k0;
    // The strided launches below are ld-aware (problem i is a row block at
    // element offset row0 + i*s of the SAME columns, addressed with x.ld),
    // so a submatrix RHS view (x.ld > x.rows) stays on the uniform fast
    // path — it used to silently fall back to per-block gemm_batched.
    const bool uniform = f.level_uniform_[l + 1] != 0;
    const index_t s = uniform ? tree.node(t0).size() : 0;
    const index_t row0 = 2 * k0 * s;
    const index_t ldw = c * r;

    // Line 4: w = (V^{l+1})^H (.) x^{l+1}.
    if (uniform) {
      gemm_strided_batched<T>(Op::C, Op::N, r, nrhs, s, T{1},
                              vdata + row0 + panel * ldv, ldv, s,
                              x.data + row0, x.ld, s, T{0}, wdata, ldw, r, c);
    } else {
      std::vector<ConstMatrixView<T>> av(c), bv(c);
      std::vector<MatrixView<T>> cv(c);
      for (index_t t = 0; t < c; ++t) {
        const ClusterNode& cn = tree.node(t0 + t);
        av[t] = vbig.block(cn.begin, panel, cn.size(), r);
        bv[t] = ConstMatrixView<T>(x.block(cn.begin, 0, cn.size(), nrhs));
        cv[t] = MatrixView<T>{wdata + t * r, r, nrhs, ldw};
      }
      gemm_batched<T>(Op::C, Op::N, T{1}, av, bv, T{0}, cv);
    }

    // Line 5: batched K solve.
    solve_k_level(klev, k0, q, wdata, ldw, nrhs);

    // Line 6: x^{l+1} -= Y^{l+1} (.) w^{l+1}.
    if (uniform) {
      gemm_strided_batched<T>(Op::N, Op::N, s, nrhs, r, T{-1},
                              ydata + row0 + panel * ldy, ldy, s, wdata, ldw,
                              r, T{1}, x.data + row0, x.ld, s, c);
    } else {
      std::vector<ConstMatrixView<T>> av(c), bv(c);
      std::vector<MatrixView<T>> cv(c);
      for (index_t t = 0; t < c; ++t) {
        const ClusterNode& cn = tree.node(t0 + t);
        av[t] = ybig.block(cn.begin, panel, cn.size(), r);
        bv[t] = ConstMatrixView<T>(wdata + t * r, r, nrhs, ldw);
        cv[t] = x.block(cn.begin, 0, cn.size(), nrhs);
      }
      gemm_batched<T>(Op::N, Op::N, T{-1}, av, bv, T{1}, cv);
    }
  };

  cut_sweep<T>(
      f.level_rank_, depth(f), cut_level(f), [&](index_t) { return nrhs; },
      leaves, step);
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
