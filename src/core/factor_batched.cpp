#include <algorithm>
#include <complex>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "common/task_graph.hpp"
#include "core/engine_detail.hpp"

/// \file factor_batched.cpp
/// The batched execution engine: Algorithm 3 (factorization stage) and
/// Algorithm 4 (solution stage). Every line of the paper's pseudocode maps
/// to one or two batched device calls:
///   BATCHED-LU-FACTORIZE  -> getrf_batched / getrf_nopivot_batched
///   BATCHED-LU-SOLVE      -> getrs_batched / getrs_nopivot_batched
///                            (blocked TRSM engine underneath: pivots applied
///                            once, register-tiled diagonal solves, packed
///                            GEMM trailing updates — see trsm_kernel.hpp)
///   BATCHED-GEMM          -> gemm_batched, or gemm_strided_batched when the
///                            level's node sizes are uniform (Sec. III-C).

namespace hodlrx::detail {

template <typename T>
void FactorEngine<T>::run_factor_batched(F& f, FactorReport* report) {
  if (sched_mode() == SchedMode::kGraph) {
    run_factor_batched_graph(f, report);
    return;
  }
  const ClusterTree& tree = f.tree_;
  const index_t L = depth(f);
  const BatchPolicy policy = f.opt_.policy;
  const bool pivoted = f.opt_.kform == KForm::kPivoted;
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
    getrf_batched<T>(d, piv, policy);
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
      getrs_batched<T>(lu, cpiv, rhs, policy);
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

    // Line 5 + 7: T blocks written straight into the K storage.
    // Pivoted:  T_a -> K(0,0), T_b -> K(r,r).  Identity-diagonal:
    // T_b -> K(0,r), T_a -> K(r,0).
    const index_t off_ta = pivoted ? 0 : r;                    // (0,0) / (r,0)
    const index_t off_tb = pivoted ? (r * r2 + r) : (r * r2);  // (r,r) / (0,r)
    if (uniform) {
      // left children: begins 2k*s; right children: (2k+1)*s.
      gemm_strided_batched<T>(Op::C, Op::N, r, r, s, T{1},
                              vdata + panel * ldv, ldv, 2 * s,
                              ydata + panel * ldy, ldy, 2 * s, T{0},
                              kdata + off_ta, r2, kstride, q, policy);
      gemm_strided_batched<T>(Op::C, Op::N, r, r, s, T{1},
                              vdata + s + panel * ldv, ldv, 2 * s,
                              ydata + s + panel * ldy, ldy, 2 * s, T{0},
                              kdata + off_tb, r2, kstride, q, policy);
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
        cv[2 * k] = pivoted ? kk.block(0, 0, r, r) : kk.block(r, 0, r, r);
        av[2 * k + 1] = vbig.block(cbv.begin, panel, cbv.size(), r);
        bv[2 * k + 1] = ybig.block(cbv.begin, panel, cbv.size(), r);
        cv[2 * k + 1] = pivoted ? kk.block(r, r, r, r) : kk.block(0, r, r, r);
      }
      gemm_batched<T>(Op::C, Op::N, T{1}, av, bv, T{0}, cv, policy);
    }
    // Identity blocks of K (cheap elementwise pass).
    parallel_for(q, [&](index_t k) {
      fill_k_identities(klev.block(k), r, f.opt_.kform);
    });

    // Line 8: batched LU of all K_gamma at this level.
    {
      std::vector<MatrixView<T>> kb(q);
      for (index_t k = 0; k < q; ++k) kb[k] = klev.block(k);
      if (pivoted) {
        std::vector<index_t*> piv(q);
        for (index_t k = 0; k < q; ++k) piv[k] = klev.pivots(k);
        getrf_batched<T>(kb, piv, policy);
      } else if (f.opt_.on_breakdown == OnBreakdown::kThrow) {
        getrf_nopivot_batched<T>(kb, policy);
      } else {
        // Pivot-free batched LU can break down (exact zero pivot). A
        // failure leaves the WHOLE level's blocks half-factored, so the
        // recovery ladder snapshots the level, restores it and re-factors
        // every block WITH pivoting in one batched call (the kb views stay
        // valid — the data vector is copied into, not reassigned). Under
        // kReport the breakdown is recorded and rethrown.
        const std::vector<T> snap(klev.data);
        try {
          getrf_nopivot_batched<T>(kb, policy);
        } catch (const Error& e) {
          if (report != nullptr) {
            ++report->lu_breakdowns;
            report->events.push_back(
                "factor: batched pivot-free LU broke down on level " +
                std::to_string(l) + " (" + e.what() + ")");
          }
          if (f.opt_.on_breakdown != OnBreakdown::kRecover) throw;
          std::copy(snap.begin(), snap.end(), klev.data.begin());
          ensure_pivot_storage(klev);
          std::vector<index_t*> piv(q);
          for (index_t k = 0; k < q; ++k) piv[k] = klev.pivots(k);
          getrf_batched<T>(kb, piv, policy);
          std::fill(klev.pivoted.begin(), klev.pivoted.end(), 1);
          fault_stats::detail::add_recovered(fault::Site::kGetrfPivot);
          if (report != nullptr) {
            report->lu_pivot_retries += q;
            report->events.push_back(
                "factor: level " + std::to_string(l) + " (" +
                std::to_string(q) + " K block(s)) re-factored with partial "
                "pivoting");
          }
        }
      }
    }

    if (panel == 0) continue;

    // Line 6: W = (V^{l+1})^H (.) Ybig(:, prefix), block rows per child.
    T* wdata = wbuf.data();
    const index_t ldw = c * r;
    if (uniform && pivoted) {
      gemm_strided_batched<T>(Op::C, Op::N, r, panel, s, T{1},
                              vdata + panel * ldv, ldv, s, ydata, ldy, s,
                              T{0}, wdata, ldw, r, c, policy);
    } else if (uniform) {  // identity-diagonal: swap the block rows
      gemm_strided_batched<T>(Op::C, Op::N, r, panel, s, T{1},
                              vdata + s + panel * ldv, ldv, 2 * s,
                              ydata + s, ldy, 2 * s, T{0}, wdata, ldw,
                              2 * r, q, policy);
      gemm_strided_batched<T>(Op::C, Op::N, r, panel, s, T{1},
                              vdata + panel * ldv, ldv, 2 * s, ydata, ldy,
                              2 * s, T{0}, wdata + r, ldw, 2 * r, q, policy);
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
        const index_t row_a = pivoted ? 2 * k * r : (2 * k + 1) * r;
        const index_t row_b = pivoted ? (2 * k + 1) * r : 2 * k * r;
        cv[2 * k] = MatrixView<T>{wdata + row_a, r, panel, ldw};
        cv[2 * k + 1] = MatrixView<T>{wdata + row_b, r, panel, ldw};
      }
      gemm_batched<T>(Op::C, Op::N, T{1}, av, bv, T{0}, cv, policy);
    }

    // Line 9: batched K solve, one 2r x panel block per parent. Blocks the
    // recovery ladder re-factored with pivots are grouped into their own
    // batched call (at most two launches per level).
    {
      std::vector<ConstMatrixView<T>> lu_p, lu_n;
      std::vector<const index_t*> piv_p;
      std::vector<MatrixView<T>> rhs_p, rhs_n;
      for (index_t k = 0; k < q; ++k) {
        MatrixView<T> rhs{wdata + 2 * k * r, r2, panel, ldw};
        if (block_pivoted(klev, pivoted, k)) {
          lu_p.push_back(klev.block(k));
          piv_p.push_back(klev.pivots(k));
          rhs_p.push_back(rhs);
        } else {
          lu_n.push_back(klev.block(k));
          rhs_n.push_back(rhs);
        }
      }
      if (!lu_p.empty()) getrs_batched<T>(lu_p, piv_p, rhs_p, policy);
      if (!lu_n.empty()) getrs_nopivot_batched<T>(lu_n, rhs_n, policy);
    }

    // Line 10: prefix update, one block per child (solution order is
    // [w_a; w_b] for both K forms).
    if (uniform) {
      gemm_strided_batched<T>(Op::N, Op::N, s, panel, r, T{-1},
                              ydata + panel * ldy, ldy, s, wdata, ldw, r,
                              T{1}, ydata, ldy, s, c, policy);
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
      gemm_batched<T>(Op::N, Op::N, T{-1}, av, bv, T{1}, cv, policy);
    }
  }
}

/// Dependency-graph variant of the factorization stage (HODLRX_SCHED=graph).
///
/// Instead of one barrier per stage per level, the whole of Algorithm 3 is
/// expressed as a DAG and handed to TaskGraph. The data-flow facts that
/// shape it (panels are packed shallow-first: col_offset_[1] = 0, so level
/// l's sweep reads panel columns [co[l+1], co[l+2]) and its prefix update
/// overwrites everything BELOW them, [0, co[l+1])):
///
///  - T(l) and W(l) read Y columns the nearest deeper level's prefix update
///    last wrote (or, for the deepest ranked level, the leaf solves): the
///    cross-level chain prefix(deeper) -> T/W(shallower) is a TRUE
///    dependency, wired at chunk granularity by ROW OVERLAP — a shallow T
///    chunk starts the moment the deeper prefix chunks covering its rows
///    finish, not when the whole deeper level drains.
///  - Deeper T reads columns at or above co[l+2], disjoint from every
///    shallower prefix write: no anti-dependency edges are needed.
///  - K-LU(l) feeds only Ksolve(l): the K factorizations of all levels
///    overlap the rest of the sweep (and each other) freely.
///
/// Each stage is chunked over its parents/children so independent tiles
/// become independent nodes (node bodies run with the pool's in-region flag
/// set — their internal batched launches execute inline, and all parallelism
/// comes from the graph). W workspaces are per-level slices of one buffer —
/// lifetimes are per-node, not per-level-sweep, because two levels' W/Ksolve
/// stages may be in flight at once.
///
/// Under an asynchronous device backend (HODLRX_BACKEND=host-async) the
/// gph.run() below issues this same DAG onto backend streams: nodes become
/// stream launches, cross-stream chunk dependencies become record/wait event
/// edges, and one synchronize drains the factorization — see
/// TaskGraph::run_on_streams (docs/device-backend.md).
template <typename T>
void FactorEngine<T>::run_factor_batched_graph(F& f, FactorReport* report) {
  const ClusterTree& tree = f.tree_;
  const index_t L = depth(f);
  const BatchPolicy policy = f.opt_.policy;
  const bool pivoted = f.opt_.kform == KForm::kPivoted;
  MatrixView<T> ybig = FactorEngine<T>::ybig(f);
  ConstMatrixView<T> vbig = f.vbig();
  const T* vdata = vbig.data;
  T* ydata = ybig.data;
  const index_t ldv = vbig.ld;
  const index_t ldy = ybig.ld;

  TaskGraph gph;
  Mutex rec_mu;  // serializes report mutations + lazy pivot storage

  const index_t nthreads = max_threads();
  const auto chunks_of = [nthreads](index_t m) {
    return std::max<index_t>(1, std::min<index_t>(m, 4 * nthreads));
  };

  // A graph node together with the contiguous Y row range it wrote; the
  // cross-level prefix -> T/W edges are wired by row-interval overlap.
  struct Span {
    TaskGraph::NodeId node;
    index_t row0, row1;
  };

  // --- leaf stage: LU + panel solve of a chunk of leaves is one node (the
  // solve of leaf j needs only leaf j's factors).
  const index_t leaves = tree.num_leaves();
  const index_t lch = chunks_of(leaves);
  std::vector<Span> leaf_nodes(static_cast<std::size_t>(lch));
  for (index_t ch = 0; ch < lch; ++ch) {
    const index_t j0 = ch * leaves / lch;
    const index_t j1 = (ch + 1) * leaves / lch;
    const ClusterNode& first = tree.node(tree.leaf(j0));
    const ClusterNode& last = tree.node(tree.leaf(j1 - 1));
    leaf_nodes[static_cast<std::size_t>(ch)].row0 = first.begin;
    leaf_nodes[static_cast<std::size_t>(ch)].row1 = last.begin + last.size();
    leaf_nodes[static_cast<std::size_t>(ch)].node = gph.add([&f, &tree, ybig,
                                                             policy, j0, j1] {
      const index_t jn = j1 - j0;
      std::vector<MatrixView<T>> d(static_cast<std::size_t>(jn));
      std::vector<index_t*> piv(static_cast<std::size_t>(jn));
      for (index_t j = j0; j < j1; ++j) {
        d[static_cast<std::size_t>(j - j0)] = leaf_lu(f, j);
        piv[static_cast<std::size_t>(j - j0)] = leaf_pivots(f, j);
      }
      getrf_batched<T>(d, piv, policy);
      if (f.total_cols_ > 0) {
        std::vector<ConstMatrixView<T>> lu(static_cast<std::size_t>(jn));
        std::vector<const index_t*> cpiv(static_cast<std::size_t>(jn));
        std::vector<MatrixView<T>> rhs(static_cast<std::size_t>(jn));
        for (index_t j = j0; j < j1; ++j) {
          const std::size_t i = static_cast<std::size_t>(j - j0);
          lu[i] = d[i];
          cpiv[i] = piv[i];
          const ClusterNode& c = tree.node(tree.leaf(j));
          MatrixView<T> yb = ybig;
          rhs[i] = yb.block(c.begin, 0, c.size(), f.total_cols_);
        }
        getrs_batched<T>(lu, cpiv, rhs, policy);
      }
    }, "leafLU", ch);
    // Audit: the chunk LU-factors its leaves (model the factor/pivot
    // storage as one space in matrix-row units — chunks are disjoint) and
    // panel-solves its Y rows across every column.
    const Span& ls = leaf_nodes[static_cast<std::size_t>(ch)];
    gph.writes(ls.node, f.d_ipiv_.data(), ls.row0, ls.row1);
    if (f.total_cols_ > 0)
      gph.writes(ls.node, ydata, ls.row0, ls.row1, 0, f.total_cols_);
  }

  // Per-level W slices of one buffer (summed, not maxed: two levels' W
  // stages can be live simultaneously).
  std::vector<index_t> woff(static_cast<std::size_t>(L), 0);
  index_t wtot = 0;
  for (index_t l = L - 1; l >= 0; --l) {
    if (f.level_rank_[l + 1] == 0) continue;
    woff[static_cast<std::size_t>(l)] = wtot;
    wtot += 2 * f.kfac_[l].count * f.level_rank_[l + 1] * f.col_offset_[l + 1];
  }
  Matrix<T> wbuf(wtot, 1);

  // T/KLU/W/Ksolve/prefix chunks of one level share chunk boundaries (chunk
  // ch covers the same parents in every stage), so intra-level edges are
  // chunk-to-chunk. `writers` holds the last nodes to have written the Y
  // prefix/panel columns the next shallower level reads: the leaf-solve
  // chunks initially, then each level's prefix chunks.
  std::vector<Span> writers = leaf_nodes;
  // Whether `writers` currently holds prefix chunks (vs the initial leaf
  // solves): prefix -> T/W edges carry the "xlevel" tag so the audit
  // mutation test (test_scheduler) can delete exactly one of them.
  bool writers_are_prefix = false;

  for (index_t l = L - 1; l >= 0; --l) {
    const index_t r = f.level_rank_[l + 1];
    if (r == 0) continue;
    LevelK* const kl = &f.kfac_[l];
    const index_t panel = f.col_offset_[l + 1];
    const index_t q = kl->count;
    const index_t c = 2 * q;
    const bool uniform = f.level_uniform_[l + 1] != 0;
    const index_t s =
        uniform ? tree.node(ClusterTree::level_begin(l + 1)).size() : 0;
    const index_t r2 = kl->r2;
    T* const kdata = kl->data.data();
    const index_t kstride = r2 * r2;
    const index_t off_ta = pivoted ? 0 : r;
    const index_t off_tb = pivoted ? (r * r2 + r) : (r * r2);
    T* const wdata = wbuf.data() + woff[static_cast<std::size_t>(l)];
    const index_t ldw = c * r;
    const index_t qch = chunks_of(q);
    const KForm kform = f.opt_.kform;
    const OnBreakdown on_bd = f.opt_.on_breakdown;

    std::vector<TaskGraph::NodeId> t_nodes(static_cast<std::size_t>(qch)),
        klu_nodes(static_cast<std::size_t>(qch)),
        w_nodes(static_cast<std::size_t>(qch)),
        ks_nodes(static_cast<std::size_t>(qch)),
        pf_nodes(static_cast<std::size_t>(qch));

    for (index_t ch = 0; ch < qch; ++ch) {
      const index_t k0 = ch * q / qch;
      const index_t k1 = (ch + 1) * q / qch;
      const index_t qn = k1 - k0;
      // The chunk's Y row range (parents k0..k1-1 of level l), used by both
      // the audit declarations here and the cross-level edges below.
      const ClusterNode& rn0 = tree.node(ClusterTree::level_begin(l) + k0);
      const ClusterNode& rn1 = tree.node(ClusterTree::level_begin(l) + k1 - 1);
      const index_t row0 = rn0.begin;
      const index_t row1 = rn1.begin + rn1.size();

      // --- T(l) chunk: K assembly GEMMs + identity fill ------------------
      t_nodes[static_cast<std::size_t>(ch)] = gph.add([=, &tree] {
        if (uniform) {
          gemm_strided_batched<T>(Op::C, Op::N, r, r, s, T{1},
                                  vdata + panel * ldv + k0 * 2 * s, ldv, 2 * s,
                                  ydata + panel * ldy + k0 * 2 * s, ldy, 2 * s,
                                  T{0}, kdata + off_ta + k0 * kstride, r2,
                                  kstride, qn, policy);
          gemm_strided_batched<T>(Op::C, Op::N, r, r, s, T{1},
                                  vdata + s + panel * ldv + k0 * 2 * s, ldv,
                                  2 * s, ydata + s + panel * ldy + k0 * 2 * s,
                                  ldy, 2 * s, T{0},
                                  kdata + off_tb + k0 * kstride, r2, kstride,
                                  qn, policy);
        } else {
          ConstMatrixView<T> vb = vbig;
          ConstMatrixView<T> yb(ybig);
          std::vector<ConstMatrixView<T>> av(static_cast<std::size_t>(2 * qn)),
              bv(static_cast<std::size_t>(2 * qn));
          std::vector<MatrixView<T>> cv(static_cast<std::size_t>(2 * qn));
          for (index_t k = k0; k < k1; ++k) {
            const std::size_t i = static_cast<std::size_t>(2 * (k - k0));
            const index_t gamma = ClusterTree::level_begin(l) + k;
            const ClusterNode& cav =
                tree.node(ClusterTree::left_child(gamma));
            const ClusterNode& cbv =
                tree.node(ClusterTree::right_child(gamma));
            MatrixView<T> kk = kl->block(k);
            av[i] = vb.block(cav.begin, panel, cav.size(), r);
            bv[i] = yb.block(cav.begin, panel, cav.size(), r);
            cv[i] = pivoted ? kk.block(0, 0, r, r) : kk.block(r, 0, r, r);
            av[i + 1] = vb.block(cbv.begin, panel, cbv.size(), r);
            bv[i + 1] = yb.block(cbv.begin, panel, cbv.size(), r);
            cv[i + 1] = pivoted ? kk.block(r, r, r, r) : kk.block(0, r, r, r);
          }
          gemm_batched<T>(Op::C, Op::N, T{1}, av, bv, T{0}, cv, policy);
        }
        for (index_t k = k0; k < k1; ++k)
          fill_k_identities(kl->block(k), r, kform);
      }, "T", l, ch);
      // Audit: reads the chunk's Y panel columns, writes its K blocks
      // (block-index units — kdata is a per-level space).
      gph.reads(t_nodes[static_cast<std::size_t>(ch)], ydata, row0, row1,
                panel, panel + r);
      gph.writes(t_nodes[static_cast<std::size_t>(ch)], kdata, k0, k1);

      // --- K-LU(l) chunk (with the per-chunk recovery ladder) ------------
      klu_nodes[static_cast<std::size_t>(ch)] = gph.add([=, &rec_mu] {
        std::vector<MatrixView<T>> kb(static_cast<std::size_t>(qn));
        for (index_t k = k0; k < k1; ++k)
          kb[static_cast<std::size_t>(k - k0)] = kl->block(k);
        if (pivoted) {
          std::vector<index_t*> piv(static_cast<std::size_t>(qn));
          for (index_t k = k0; k < k1; ++k)
            piv[static_cast<std::size_t>(k - k0)] = kl->pivots(k);
          getrf_batched<T>(kb, piv, policy);
        } else if (on_bd == OnBreakdown::kThrow) {
          getrf_nopivot_batched<T>(kb, policy);
        } else {
          // Recovery is per chunk here: snapshot and re-factor only this
          // chunk's blocks. ensure_pivot_storage is shared level state, so
          // it runs under the mutex (concurrent chunks may both break).
          const std::size_t b0 = static_cast<std::size_t>(k0 * kstride);
          const std::vector<T> snap(
              kl->data.begin() + static_cast<std::ptrdiff_t>(b0),
              kl->data.begin() + static_cast<std::ptrdiff_t>(
                                     b0 + static_cast<std::size_t>(
                                              qn * kstride)));
          try {
            getrf_nopivot_batched<T>(kb, policy);
          } catch (const Error& e) {
            if (report != nullptr) {
              MutexLock lk(rec_mu);
              ++report->lu_breakdowns;
              report->events.push_back(
                  "factor: batched pivot-free LU broke down on level " +
                  std::to_string(l) + " (" + e.what() + ")");
            }
            if (on_bd != OnBreakdown::kRecover) throw;
            std::copy(snap.begin(), snap.end(),
                      kl->data.begin() + static_cast<std::ptrdiff_t>(b0));
            {
              MutexLock lk(rec_mu);
              ensure_pivot_storage(*kl);
            }
            std::vector<index_t*> piv(static_cast<std::size_t>(qn));
            for (index_t k = k0; k < k1; ++k)
              piv[static_cast<std::size_t>(k - k0)] = kl->pivots(k);
            getrf_batched<T>(kb, piv, policy);
            for (index_t k = k0; k < k1; ++k)
              kl->pivoted[static_cast<std::size_t>(k)] = 1;
            fault_stats::detail::add_recovered(fault::Site::kGetrfPivot);
            if (report != nullptr) {
              MutexLock lk(rec_mu);
              report->lu_pivot_retries += qn;
              report->events.push_back(
                  "factor: level " + std::to_string(l) + " (" +
                  std::to_string(qn) +
                  " K block(s)) re-factored with partial pivoting");
            }
          }
        }
      }, "K-LU", l, ch);
      // Audit: factors the chunk's K blocks in place. Pivot storage
      // (&kl->ipiv: identity for the level's ipiv+pivoted vectors, which
      // may reallocate) is written per chunk when the level is pivoted
      // up front; the recovery ladder's lazy allocation + pivot writes are
      // serialized by rec_mu, declared as a guarded write over the whole
      // level — mutually non-conflicting, but every unguarded Ksolve read
      // still needs an ordering edge (the all-to-all K-LU -> Ksolve set).
      gph.writes(klu_nodes[static_cast<std::size_t>(ch)], kdata, k0, k1);
      if (pivoted)
        gph.writes(klu_nodes[static_cast<std::size_t>(ch)], &kl->ipiv, k0, k1);
      else if (on_bd != OnBreakdown::kThrow)
        gph.writes_guarded(klu_nodes[static_cast<std::size_t>(ch)], &kl->ipiv,
                           0, q);
      gph.add_edge(t_nodes[static_cast<std::size_t>(ch)],
                   klu_nodes[static_cast<std::size_t>(ch)]);

      if (panel == 0) continue;

      // --- W(l) chunk ----------------------------------------------------
      w_nodes[static_cast<std::size_t>(ch)] = gph.add([=, &tree] {
        if (uniform && pivoted) {
          gemm_strided_batched<T>(Op::C, Op::N, r, panel, s, T{1},
                                  vdata + panel * ldv + 2 * k0 * s, ldv, s,
                                  ydata + 2 * k0 * s, ldy, s, T{0},
                                  wdata + 2 * k0 * r, ldw, r, 2 * qn, policy);
        } else if (uniform) {  // identity-diagonal: swap the block rows
          gemm_strided_batched<T>(Op::C, Op::N, r, panel, s, T{1},
                                  vdata + s + panel * ldv + k0 * 2 * s, ldv,
                                  2 * s, ydata + s + k0 * 2 * s, ldy, 2 * s,
                                  T{0}, wdata + k0 * 2 * r, ldw, 2 * r, qn,
                                  policy);
          gemm_strided_batched<T>(Op::C, Op::N, r, panel, s, T{1},
                                  vdata + panel * ldv + k0 * 2 * s, ldv, 2 * s,
                                  ydata + k0 * 2 * s, ldy, 2 * s, T{0},
                                  wdata + r + k0 * 2 * r, ldw, 2 * r, qn,
                                  policy);
        } else {
          ConstMatrixView<T> vb = vbig;
          std::vector<ConstMatrixView<T>> av(static_cast<std::size_t>(2 * qn)),
              bv(static_cast<std::size_t>(2 * qn));
          std::vector<MatrixView<T>> cv(static_cast<std::size_t>(2 * qn));
          for (index_t k = k0; k < k1; ++k) {
            const std::size_t i = static_cast<std::size_t>(2 * (k - k0));
            const index_t gamma = ClusterTree::level_begin(l) + k;
            const ClusterNode& cav =
                tree.node(ClusterTree::left_child(gamma));
            const ClusterNode& cbv =
                tree.node(ClusterTree::right_child(gamma));
            av[i] = vb.block(cav.begin, panel, cav.size(), r);
            bv[i] = ConstMatrixView<T>(ydata + cav.begin, cav.size(), panel,
                                       ldy);
            av[i + 1] = vb.block(cbv.begin, panel, cbv.size(), r);
            bv[i + 1] = ConstMatrixView<T>(ydata + cbv.begin, cbv.size(),
                                           panel, ldy);
            const index_t row_a = pivoted ? 2 * k * r : (2 * k + 1) * r;
            const index_t row_b = pivoted ? (2 * k + 1) * r : 2 * k * r;
            cv[i] = MatrixView<T>{wdata + row_a, r, panel, ldw};
            cv[i + 1] = MatrixView<T>{wdata + row_b, r, panel, ldw};
          }
          gemm_batched<T>(Op::C, Op::N, T{1}, av, bv, T{0}, cv, policy);
        }
      }, "W", l, ch);
      // Audit: reads the chunk's Y prefix columns, writes its rows of the
      // level's W slice (element-row units within the slice).
      gph.reads(w_nodes[static_cast<std::size_t>(ch)], ydata, row0, row1, 0,
                panel);
      gph.writes(w_nodes[static_cast<std::size_t>(ch)], wdata, 2 * k0 * r,
                 2 * k1 * r, 0, panel);

      // --- Ksolve(l) chunk ----------------------------------------------
      ks_nodes[static_cast<std::size_t>(ch)] = gph.add([=] {
        std::vector<ConstMatrixView<T>> lu_p, lu_n;
        std::vector<const index_t*> piv_p;
        std::vector<MatrixView<T>> rhs_p, rhs_n;
        for (index_t k = k0; k < k1; ++k) {
          MatrixView<T> rhs{wdata + 2 * k * r, r2, panel, ldw};
          if (block_pivoted(*kl, pivoted, k)) {
            lu_p.push_back(kl->block(k));
            piv_p.push_back(kl->pivots(k));
            rhs_p.push_back(rhs);
          } else {
            lu_n.push_back(kl->block(k));
            rhs_n.push_back(rhs);
          }
        }
        if (!lu_p.empty()) getrs_batched<T>(lu_p, piv_p, rhs_p, policy);
        if (!lu_n.empty()) getrs_nopivot_batched<T>(lu_n, rhs_n, policy);
      }, "Ksolve", l, ch);
      // Audit: reads the chunk's factored K blocks and their pivots,
      // solves its W rows in place.
      gph.reads(ks_nodes[static_cast<std::size_t>(ch)], kdata, k0, k1);
      gph.reads(ks_nodes[static_cast<std::size_t>(ch)], &kl->ipiv, k0, k1);
      gph.writes(ks_nodes[static_cast<std::size_t>(ch)], wdata, 2 * k0 * r,
                 2 * k1 * r, 0, panel);
      gph.add_edge(w_nodes[static_cast<std::size_t>(ch)],
                   ks_nodes[static_cast<std::size_t>(ch)]);

      // --- prefix(l) chunk ----------------------------------------------
      pf_nodes[static_cast<std::size_t>(ch)] = gph.add([=, &tree] {
        if (uniform) {
          gemm_strided_batched<T>(Op::N, Op::N, s, panel, r, T{-1},
                                  ydata + panel * ldy + 2 * k0 * s, ldy, s,
                                  wdata + 2 * k0 * r, ldw, r, T{1},
                                  ydata + 2 * k0 * s, ldy, s, 2 * qn, policy);
        } else {
          MatrixView<T> yb = ybig;
          std::vector<ConstMatrixView<T>> av(static_cast<std::size_t>(2 * qn)),
              bv(static_cast<std::size_t>(2 * qn));
          std::vector<MatrixView<T>> cv(static_cast<std::size_t>(2 * qn));
          for (index_t t = 2 * k0; t < 2 * k1; ++t) {
            const std::size_t i = static_cast<std::size_t>(t - 2 * k0);
            const index_t nu = ClusterTree::level_begin(l + 1) + t;
            const ClusterNode& cn = tree.node(nu);
            av[i] = ConstMatrixView<T>(
                yb.block(cn.begin, panel, cn.size(), r));
            bv[i] = ConstMatrixView<T>(wdata + t * r, r, panel, ldw);
            cv[i] = yb.block(cn.begin, 0, cn.size(), panel);
          }
          gemm_batched<T>(Op::N, Op::N, T{-1}, av, bv, T{1}, cv, policy);
        }
      }, "prefix", l, ch);
      // Audit: reads the chunk's Y panel columns and solved W rows,
      // accumulates into its Y prefix columns.
      gph.reads(pf_nodes[static_cast<std::size_t>(ch)], ydata, row0, row1,
                panel, panel + r);
      gph.reads(pf_nodes[static_cast<std::size_t>(ch)], wdata, 2 * k0 * r,
                2 * k1 * r, 0, panel);
      gph.writes(pf_nodes[static_cast<std::size_t>(ch)], ydata, row0, row1, 0,
                 panel);
      gph.add_edge(ks_nodes[static_cast<std::size_t>(ch)],
                   pf_nodes[static_cast<std::size_t>(ch)]);
    }

    // Cross-stage / cross-level edges. T and W read Y columns last written
    // by `writers` (the nearest deeper prefix chunks, or the leaf solves),
    // wired by row overlap so a chunk waits only for the writers covering
    // its own rows. Deeper T reads columns above every shallower prefix
    // write, so no anti-dependency edges are needed.
    for (index_t ch = 0; ch < qch; ++ch) {
      const index_t k0 = ch * q / qch;
      const index_t k1 = (ch + 1) * q / qch;
      const ClusterNode& n0 = tree.node(ClusterTree::level_begin(l) + k0);
      const ClusterNode& n1 = tree.node(ClusterTree::level_begin(l) + k1 - 1);
      const index_t row0 = n0.begin;
      const index_t row1 = n1.begin + n1.size();
      const char* const xtag = writers_are_prefix ? "xlevel" : nullptr;
      for (const Span& w : writers)
        if (w.row0 < row1 && row0 < w.row1) {
          gph.add_edge(w.node, t_nodes[static_cast<std::size_t>(ch)], xtag);
          if (panel > 0)
            gph.add_edge(w.node, w_nodes[static_cast<std::size_t>(ch)], xtag);
        }
      // K-LU -> Ksolve is all-to-all within the level (not chunk-to-
      // chunk): the recovery ladder of ANY chunk may reallocate the
      // level-shared ipiv/pivoted vectors that every Ksolve chunk reads.
      if (panel > 0)
        for (const TaskGraph::NodeId klu : klu_nodes)
          gph.add_edge(klu, ks_nodes[static_cast<std::size_t>(ch)]);
    }
    if (panel > 0) {
      writers.clear();
      writers_are_prefix = true;
      for (index_t ch = 0; ch < qch; ++ch) {
        const index_t k0 = ch * q / qch;
        const index_t k1 = (ch + 1) * q / qch;
        const ClusterNode& n0 = tree.node(ClusterTree::level_begin(l) + k0);
        const ClusterNode& n1 = tree.node(ClusterTree::level_begin(l) + k1 - 1);
        writers.push_back({pf_nodes[static_cast<std::size_t>(ch)], n0.begin,
                           n1.begin + n1.size()});
      }
    }
  }

  gph.run();
}

template <typename T>
void FactorEngine<T>::run_solve_batched(const F& f, MatrixView<T> x) {
  const ClusterTree& tree = f.tree_;
  const index_t L = depth(f);
  const BatchPolicy policy = f.opt_.policy;
  const bool pivoted = f.opt_.kform == KForm::kPivoted;
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
    getrs_batched<T>(lu, piv, rhs, policy);
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
    const index_t r2 = klev.r2;
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
    if (uniform && pivoted) {
      gemm_strided_batched<T>(Op::C, Op::N, r, nrhs, s, T{1},
                              vdata + panel * ldv, ldv, s, x.data, x.ld, s,
                              T{0}, wdata, ldw, r, c, policy);
    } else if (uniform) {
      gemm_strided_batched<T>(Op::C, Op::N, r, nrhs, s, T{1},
                              vdata + s + panel * ldv, ldv, 2 * s,
                              x.data + s, x.ld, 2 * s, T{0}, wdata, ldw,
                              2 * r, q, policy);
      gemm_strided_batched<T>(Op::C, Op::N, r, nrhs, s, T{1},
                              vdata + panel * ldv, ldv, 2 * s, x.data, x.ld,
                              2 * s, T{0}, wdata + r, ldw, 2 * r, q, policy);
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
        const index_t row_a = pivoted ? 2 * k * r : (2 * k + 1) * r;
        const index_t row_b = pivoted ? (2 * k + 1) * r : 2 * k * r;
        cv[2 * k] = MatrixView<T>{wdata + row_a, r, nrhs, ldw};
        cv[2 * k + 1] = MatrixView<T>{wdata + row_b, r, nrhs, ldw};
      }
      gemm_batched<T>(Op::C, Op::N, T{1}, av, bv, T{0}, cv, policy);
    }

    // Line 5: batched K solve (recovered-pivoted blocks grouped into their
    // own batched call, as in the factorization stage).
    {
      std::vector<ConstMatrixView<T>> lu_p, lu_n;
      std::vector<const index_t*> piv_p;
      std::vector<MatrixView<T>> rhs_p, rhs_n;
      for (index_t k = 0; k < q; ++k) {
        MatrixView<T> rhs{wdata + 2 * k * r, r2, nrhs, ldw};
        if (block_pivoted(klev, pivoted, k)) {
          lu_p.push_back(klev.block(k));
          piv_p.push_back(klev.pivots(k));
          rhs_p.push_back(rhs);
        } else {
          lu_n.push_back(klev.block(k));
          rhs_n.push_back(rhs);
        }
      }
      if (!lu_p.empty()) getrs_batched<T>(lu_p, piv_p, rhs_p, policy);
      if (!lu_n.empty()) getrs_nopivot_batched<T>(lu_n, rhs_n, policy);
    }

    // Line 6: x^{l+1} -= Y^{l+1} (.) w^{l+1}.
    if (uniform) {
      gemm_strided_batched<T>(Op::N, Op::N, s, nrhs, r, T{-1},
                              ydata + panel * ldy, ldy, s, wdata, ldw, r,
                              T{1}, x.data, x.ld, s, c, policy);
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
      gemm_batched<T>(Op::N, Op::N, T{-1}, av, bv, T{1}, cv, policy);
    }
  }
}

#define HODLRX_INSTANTIATE_BATCHED_ENGINE(T)                              \
  template void FactorEngine<T>::run_factor_batched(                     \
      HodlrFactorization<T>&, FactorReport*);                            \
  template void FactorEngine<T>::run_factor_batched_graph(               \
      HodlrFactorization<T>&, FactorReport*);                            \
  template void FactorEngine<T>::run_solve_batched(                      \
      const HodlrFactorization<T>&, MatrixView<T>);

HODLRX_INSTANTIATE_BATCHED_ENGINE(float)
HODLRX_INSTANTIATE_BATCHED_ENGINE(double)
HODLRX_INSTANTIATE_BATCHED_ENGINE(std::complex<float>)
HODLRX_INSTANTIATE_BATCHED_ENGINE(std::complex<double>)

#undef HODLRX_INSTANTIATE_BATCHED_ENGINE

}  // namespace hodlrx::detail
