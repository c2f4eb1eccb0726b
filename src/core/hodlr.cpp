#include "core/hodlr.hpp"

#include <algorithm>
#include <complex>
#include <memory>
#include <string>
#include <vector>

#include "batched/batched_blas.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "device/device.hpp"
#include "lowrank/aca.hpp"
#include "lowrank/recompress.hpp"
#include "lowrank/rsvd.hpp"

namespace hodlrx {

namespace {

/// Fold a batched-rsvd sweep's breakdown counters into the report.
/// RsvdBreakdowns counts healed and un-healed problems separately; the
/// report's svd_nonconverged column counts every problem that exhausted the
/// budget (healed or not), svd_recovered the healed subset.
void fold_rsvd_breakdowns(const RsvdBreakdowns& bd, FactorReport* report) {
  if (report == nullptr) return;
  if (bd.svd_nonconverged == 0 && bd.svd_recovered == 0) return;
  report->svd_nonconverged += bd.svd_nonconverged + bd.svd_recovered;
  report->svd_recovered += bd.svd_recovered;
  report->events.push_back(
      "build: batched svd exhausted its sweep budget on " +
      std::to_string(bd.svd_nonconverged + bd.svd_recovered) +
      " problem(s), " + std::to_string(bd.svd_recovered) +
      " recovered by the serial re-run");
}

/// Leaf offsets into dbig (size leaves + 1).
std::vector<index_t> leaf_offsets(const ClusterTree& tree) {
  std::vector<index_t> off(static_cast<std::size_t>(tree.num_leaves()) + 1, 0);
  for (index_t j = 0; j < tree.num_leaves(); ++j) {
    const index_t sz = tree.node(tree.leaf(j)).size();
    off[j + 1] = off[j] + sz * sz;
  }
  return off;
}

/// Node `nu`'s rows of its level panel in `big` (ld = n), first `cols`
/// columns; a null view when there are none (the panels may be empty).
template <typename T>
ConstMatrixView<T> node_block(const PanelLayout& lay, const T* big,
                              index_t nu, index_t cols) {
  const ClusterNode& c = lay.tree.node(nu);
  if (cols == 0) return {nullptr, c.size(), 0, std::max<index_t>(lay.n, 1)};
  return {big + c.begin + lay.col_offset[ClusterTree::level_of(nu)] * lay.n,
          c.size(), cols, lay.n};
}

/// Per-node factors as the compressors produce them, and the leaf storage
/// the leaf tasks fill in place. finalize() turns them into a HodlrMatrix.
template <typename T>
struct Staged {
  explicit Staged(const ClusterTree& t)
      : tree(t),
        d_offset(leaf_offsets(t)),
        u(static_cast<std::size_t>(t.num_nodes())),
        v(static_cast<std::size_t>(t.num_nodes())),
        panels(std::make_shared<HodlrPanels<T>>()) {
    panels->dbig = AlignedBuffer<T>(static_cast<std::size_t>(d_offset.back()));
  }
  /// The j-th leaf's slot in dbig.
  MatrixView<T> leaf(index_t j) {
    const index_t sz = tree.node(tree.leaf(j)).size();
    return {panels->dbig.data() + d_offset[j], sz, sz, sz};
  }

  const ClusterTree& tree;
  std::vector<index_t> d_offset;
  std::vector<Matrix<T>> u, v;  ///< per node id; [0] unused
  std::shared_ptr<HodlrPanels<T>> panels;
};

/// Rows [i0, i0 + rows) of staged factor `f` into its panel slot at `dst`
/// (ld = `ld`, `width` columns): f's columns first, zeros to the right.
template <typename T>
void write_rows(const Matrix<T>& f, index_t i0, index_t rows, T* dst,
                index_t ld, index_t width) {
  for (index_t j = 0; j < width; ++j) {
    T* col = dst + j * ld;
    if (j < f.cols())
      std::copy_n(f.data() + i0 + j * f.rows(), rows, col);
    else
      std::fill_n(col, rows, T{});
  }
}

/// Allocate the level panels once every rank is known and write each staged
/// factor into them exactly once, padding included: one pool launch per
/// level over row slices (so every thread writes, and first-touches, its own
/// rows), after which that level's staged factors are freed.
template <typename T>
HodlrMatrix<T> finalize(Staged<T>&& st) {
  const ClusterTree& tree = st.tree;
  const index_t n = tree.n();
  std::vector<index_t> rank(static_cast<std::size_t>(tree.num_nodes()), 0);
  for (index_t nu = 1; nu < tree.num_nodes(); ++nu) {
    const Matrix<T>& u = st.u[nu];
    const Matrix<T>& v = st.v[nu];
    rank[nu] = u.cols();
    HODLRX_REQUIRE(st.v[ClusterTree::sibling(nu)].cols() == u.cols() &&
                       (u.cols() == 0 || u.rows() == tree.node(nu).size()) &&
                       (v.cols() == 0 || v.rows() == tree.node(nu).size()),
                   "build: inconsistent factors on node " << nu);
  }
  PanelLayout layout = PanelLayout::make(tree, std::move(rank));
  HodlrPanels<T>& p = *st.panels;
  p.n = n;
  p.cols = layout.total_cols;
  const std::size_t size = static_cast<std::size_t>(n) * layout.total_cols;
  p.ubig = AlignedBuffer<T>(size);
  p.vbig = AlignedBuffer<T>(size);
  for (index_t level = 1; level <= tree.depth(); ++level) {
    const index_t begin = ClusterTree::level_begin(level);
    const index_t end = ClusterTree::level_begin(level + 1);
    const index_t width = layout.level_rank[level];
    const index_t col0 = layout.col_offset[level] * n;
    if (width > 0)
      parallel_chunks(n, [&](index_t i0, index_t rows) {
        for (index_t nu = begin; nu < end; ++nu) {
          const ClusterNode& c = tree.node(nu);
          const index_t r0 = std::max(i0, c.begin);
          const index_t r1 = std::min(i0 + rows, c.end);
          if (r0 >= r1) continue;
          write_rows(st.u[nu], r0 - c.begin, r1 - r0,
                     p.ubig.data() + col0 + r0, n, width);
          write_rows(st.v[nu], r0 - c.begin, r1 - r0,
                     p.vbig.data() + col0 + r0, n, width);
        }
      });
    for (index_t nu = begin; nu < end; ++nu) {
      st.u[nu] = Matrix<T>();
      st.v[nu] = Matrix<T>();
    }
  }
  return HodlrMatrix<T>(std::move(layout), std::move(st.panels));
}

/// HODLRX_CHECK_FINITE scan of the compressed representation (leaves and
/// panels) at the end of build.
template <typename T>
void scan_build_finite(const HodlrMatrix<T>& h, OnBreakdown policy,
                       FactorReport* report) {
  if (!check_finite_enabled()) return;
  const HodlrPanels<T>& p = *h.panels();
  const index_t dsize = static_cast<index_t>(p.dbig.size());
  const index_t bad =
      count_nonfinite(p.u()) + count_nonfinite(p.v()) +
      count_nonfinite(ConstMatrixView<T>(p.dbig.data(), dsize, 1,
                                         std::max<index_t>(dsize, 1)));
  if (bad == 0) return;
  if (report != nullptr) {
    report->nonfinite_values += bad;
    report->events.push_back("build: " + std::to_string(bad) +
                             " non-finite value(s) after compression");
  }
  HODLRX_REQUIRE(policy != OnBreakdown::kThrow,
                 "build: " << bad << " non-finite value(s) after compression");
}

/// Size of every node at `level` when the level is UNIFORM (equal sizes,
/// contiguous index ranges — the layout the strided-batched sweeps need);
/// -1 otherwise.
index_t uniform_level_size(const ClusterTree& tree, index_t level) {
  const index_t begin = ClusterTree::level_begin(level);
  const index_t count = ClusterTree::nodes_at_level(level);
  const index_t s = tree.node(begin).size();
  for (index_t t = 0; t < count; ++t) {
    const ClusterNode& c = tree.node(begin + t);
    if (c.size() != s || c.begin != tree.node(begin).begin + t * s) return -1;
  }
  return s;
}

/// RsvdOptions from the build options (the sketch width comes from
/// max_rank + oversampling; see Compressor::kRsvdBatched).
RsvdOptions rsvd_options(const BuildOptions& opt) {
  HODLRX_REQUIRE(opt.max_rank > 0,
                 "Compressor::kRsvdBatched needs max_rank > 0 (the sketch "
                 "width); got " << opt.max_rank);
  RsvdOptions ropt;
  ropt.rank = opt.max_rank;
  ropt.oversampling = opt.rsvd_oversampling;
  ropt.power_iterations = opt.rsvd_power_iterations;
  ropt.tol = opt.tol;
  return ropt;
}

/// Store one uniform-level sweep's factors: pair j's "upper" block
/// A(I_2j, I_2j+1) row-basis lands on node 2j, its column basis on the
/// sibling; vice versa for the "lower" sweep.
template <typename T>
void store_level_factors(Staged<T>& st, index_t begin, index_t q,
                         std::vector<LowRankFactor<T>>&& upper,
                         std::vector<LowRankFactor<T>>&& lower) {
  for (index_t j = 0; j < q; ++j) {
    const index_t nu = begin + 2 * j;   // rows of the upper block
    const index_t sib = nu + 1;         // rows of the lower block
    st.u[nu] = std::move(upper[j].u);
    st.v[sib] = std::move(upper[j].v);
    st.u[sib] = std::move(lower[j].u);
    st.v[nu] = std::move(lower[j].v);
  }
}

/// Batched-rsvd construction from a dense view: every uniform tree level is
/// compressed in TWO strided-batched sweeps (one per sibling side), each
/// sketching all of the level's blocks against ONE shared Gaussian test
/// matrix — the production caller of the batch layer's stride-0 pack-once
/// fast path (see rsvd_strided_batched). Non-uniform levels fall back to an
/// independent rsvd per block.
template <typename T>
void build_from_dense_rsvd(ConstMatrixView<T> a, const ClusterTree& tree,
                           const BuildOptions& opt, Staged<T>& st,
                           FactorReport* report) {
  RsvdOptions ropt = rsvd_options(opt);
  RsvdBreakdowns bd;
  ropt.on_breakdown = opt.on_breakdown;
  ropt.breakdowns = &bd;
  for (index_t level = 1; level <= tree.depth(); ++level) {
    const index_t begin = ClusterTree::level_begin(level);
    const index_t count = ClusterTree::nodes_at_level(level);
    const index_t q = count / 2;  // sibling pairs
    const index_t s = uniform_level_size(tree, level);
    if (s > 0) {
      // Sibling pair j occupies rows/cols [2js, (2j+2)s): both the "upper"
      // blocks A(I_2j, I_2j+1) and the "lower" blocks A(I_2j+1, I_2j) are
      // s x s at a constant stride of 2s(ld + 1) — exactly the layout
      // rsvd_strided_batched wants.
      const index_t b0 = tree.node(begin).begin;
      const index_t stride = 2 * s * (a.ld + 1);
      ropt.seed = opt.seed + 2 * level;
      auto upper = rsvd_strided_batched<T>(a.data + b0 + (b0 + s) * a.ld,
                                           a.ld, stride, s, s, q, ropt);
      ropt.seed = opt.seed + 2 * level + 1;
      auto lower = rsvd_strided_batched<T>(a.data + (b0 + s) + b0 * a.ld,
                                           a.ld, stride, s, s, q, ropt);
      store_level_factors<T>(st, begin, q, std::move(upper), std::move(lower));
    } else {
      ropt.seed = opt.seed + 2 * level;
      parallel_for(count, [&](index_t t) {
        const index_t nu = begin + t;
        const index_t sib = ClusterTree::sibling(nu);
        const ClusterNode& rowc = tree.node(nu);
        const ClusterNode& colc = tree.node(sib);
        LowRankFactor<T> f = rsvd<T>(
            a.block(rowc.begin, colc.begin, rowc.size(), colc.size()), ropt);
        st.u[nu] = std::move(f.u);
        st.v[sib] = std::move(f.v);
      });
    }
  }
  parallel_for(tree.num_leaves(), [&](index_t j) {
    const ClusterNode& c = tree.node(tree.leaf(j));
    copy(a.block(c.begin, c.begin, c.size(), c.size()), st.leaf(j));
  });
  fold_rsvd_breakdowns(bd, report);
}

/// Batched-rsvd construction straight from a MatrixGenerator — the
/// generator-backed path that opens the batched sweep to kernel-defined BIE
/// problems (paper Tables 3-5) WITHOUT ever forming the dense matrix. Every
/// uniform level's off-diagonal blocks are materialized tile-by-tile into a
/// strided "device" workspace shared by the pool (one fill_block per tile,
/// tiles written in parallel), then the whole side is compressed by the same
/// batched rsvd sweep the dense path uses. Peak extra memory is ONE level
/// side — at most (n/2)^2 entries at level 1, a quarter of the dense matrix,
/// reused (not reallocated) by every deeper level. Non-uniform levels
/// materialize and compress block-by-block across the pool.
template <typename T>
void build_from_generator_rsvd(const MatrixGenerator<T>& g,
                               const ClusterTree& tree, const BuildOptions& opt,
                               Staged<T>& st, FactorReport* report) {
  RsvdOptions ropt = rsvd_options(opt);
  RsvdBreakdowns bd;
  ropt.on_breakdown = opt.on_breakdown;
  ropt.breakdowns = &bd;
  std::vector<T, AlignedAllocator<T>> ws;
  DeviceAllocation ws_mem;
  for (index_t level = 1; level <= tree.depth(); ++level) {
    const index_t begin = ClusterTree::level_begin(level);
    const index_t count = ClusterTree::nodes_at_level(level);
    const index_t q = count / 2;  // sibling pairs
    const index_t s = uniform_level_size(tree, level);
    if (s > 0) {
      const index_t b0 = tree.node(begin).begin;
      const std::size_t need = static_cast<std::size_t>(q) * s * s;
      if (ws.size() < need) {
        ws.resize(need);
        ws_mem = DeviceAllocation(need * sizeof(T));
      }
      // One sweep per sibling side: fill the q tiles of the side in
      // parallel (an H2D upload in the device model), then compress them in
      // one batched launch sequence.
      const auto sweep = [&](bool upper_side) {
        parallel_for(q, [&](index_t j) {
          const index_t row0 = b0 + 2 * j * s + (upper_side ? 0 : s);
          const index_t col0 = b0 + 2 * j * s + (upper_side ? s : 0);
          g.fill_block(row0, col0,
                       MatrixView<T>{ws.data() + j * s * s, s, s, s});
        });
        DeviceContext::global().record_h2d(need * sizeof(T));
        ropt.seed = opt.seed + 2 * level + (upper_side ? 0 : 1);
        return rsvd_strided_batched<T>(ws.data(), s, s * s, s, s, q, ropt);
      };
      auto upper = sweep(/*upper_side=*/true);
      auto lower = sweep(/*upper_side=*/false);
      store_level_factors<T>(st, begin, q, std::move(upper), std::move(lower));
    } else {
      ropt.seed = opt.seed + 2 * level;
      parallel_for(count, [&](index_t t) {
        const index_t nu = begin + t;
        const index_t sib = ClusterTree::sibling(nu);
        const ClusterNode& rowc = tree.node(nu);
        const ClusterNode& colc = tree.node(sib);
        Matrix<T> block(rowc.size(), colc.size());
        g.fill_block(rowc.begin, colc.begin, block);
        LowRankFactor<T> f = rsvd<T>(block.view(), ropt);
        st.u[nu] = std::move(f.u);
        st.v[sib] = std::move(f.v);
      });
    }
  }
  parallel_for(tree.num_leaves(), [&](index_t j) {
    const ClusterNode& c = tree.node(tree.leaf(j));
    g.fill_block(c.begin, c.begin, st.leaf(j));
  });
  fold_rsvd_breakdowns(bd, report);
}

}  // namespace

PanelLayout PanelLayout::make(const ClusterTree& tree,
                              std::vector<index_t> node_rank) {
  HODLRX_REQUIRE(static_cast<index_t>(node_rank.size()) == tree.num_nodes(),
                 "PanelLayout: " << node_rank.size() << " ranks for "
                                 << tree.num_nodes() << " nodes");
  PanelLayout p;
  p.tree = tree;
  p.n = tree.n();
  const index_t depth = tree.depth();
  p.node_rank = std::move(node_rank);
  p.level_rank.assign(depth + 1, 0);
  for (index_t nu = 1; nu < tree.num_nodes(); ++nu) {
    index_t& lr = p.level_rank[ClusterTree::level_of(nu)];
    lr = std::max(lr, p.node_rank[nu]);
  }
  p.col_offset.assign(depth + 2, 0);
  for (index_t l = 1; l <= depth; ++l)
    p.col_offset[l + 1] = p.col_offset[l] + p.level_rank[l];
  p.total_cols = p.col_offset[depth + 1];
  p.level_uniform.assign(depth + 1, 1);
  for (index_t l = 0; l <= depth; ++l) {
    const index_t first = ClusterTree::level_begin(l);
    for (index_t i = first; i < ClusterTree::level_begin(l + 1); ++i)
      if (tree.node(i).size() != tree.node(first).size())
        p.level_uniform[l] = 0;
  }
  p.leaves_uniform = p.level_uniform[depth] != 0;
  p.d_offset = leaf_offsets(tree);
  return p;
}

template <typename T>
HodlrMatrix<T>::HodlrMatrix(PanelLayout layout,
                            std::shared_ptr<const HodlrPanels<T>> panels)
    : layout_(std::move(layout)), panels_(std::move(panels)) {
  const std::size_t size =
      static_cast<std::size_t>(layout_.n) * layout_.total_cols;
  HODLRX_REQUIRE(panels_ != nullptr && panels_->n == layout_.n &&
                     panels_->cols == layout_.total_cols &&
                     panels_->ubig.size() == size &&
                     panels_->vbig.size() == size &&
                     panels_->dbig.size() ==
                         static_cast<std::size_t>(layout_.d_offset.back()),
                 "HodlrMatrix: panels do not match the layout");
}

template <typename T>
HodlrMatrix<T> HodlrMatrix<T>::build(const MatrixGenerator<T>& g,
                                     const ClusterTree& tree,
                                     const BuildOptions& opt,
                                     FactorReport* report) {
  HODLRX_REQUIRE(g.rows() == tree.n() && g.cols() == tree.n(),
                 "build: generator is " << g.rows() << "x" << g.cols()
                                        << " but tree has n=" << tree.n());
  Staged<T> st(tree);
  if (opt.compressor == Compressor::kRsvdBatched) {
    build_from_generator_rsvd<T>(g, tree, opt, st, report);
    HodlrMatrix<T> h = finalize(std::move(st));
    scan_build_finite(h, opt.on_breakdown, report);
    return h;
  }

  AcaOptions aopt;
  aopt.tol = opt.tol;
  aopt.max_rank = opt.max_rank;
  aopt.rook_iterations = opt.rook_iterations;
  aopt.seed = opt.seed;

  // Task list: every non-root node `nu` owns the block (I_nu, I_sib(nu));
  // leaves additionally own their diagonal block. All tasks independent.
  // Per-block recompression is DEFERRED on uniform levels: those levels are
  // re-truncated afterwards in one recompress_batched call per level (its
  // core SVDs share one batched Jacobi sweep) instead of one pool task per
  // block.
  std::vector<char> level_batched(tree.depth() + 1, 0);
  if (opt.recompress)
    for (index_t level = 1; level <= tree.depth(); ++level)
      level_batched[level] = uniform_level_size(tree, level) > 0 ? 1 : 0;
  const index_t first = 1;
  const index_t num_offdiag = tree.num_nodes() - 1;
  const index_t num_leaves = tree.num_leaves();
  std::vector<std::string> errors(num_offdiag + num_leaves);
  // Per-task stall flags, resolved serially after the loop (the recovery
  // ladder re-compresses stalled blocks; see below).
  std::vector<char> stalled(num_offdiag, 0);
  parallel_for(num_offdiag + num_leaves, [&](index_t task) {
    try {
      if (task < num_offdiag) {
        const index_t nu = first + task;
        const index_t sib = ClusterTree::sibling(nu);
        const ClusterNode& rowc = tree.node(nu);
        const ClusterNode& colc = tree.node(sib);
        AcaResult<T> res = aca(g, rowc.begin, colc.begin, rowc.size(),
                               colc.size(), aopt);
        if (opt.on_breakdown == OnBreakdown::kThrow)
          HODLRX_REQUIRE(res.converged,
                         "ACA did not converge on block (" << nu << ", " << sib
                                                           << ")");
        if (!res.converged) stalled[task] = 1;
        if (res.converged && opt.recompress && res.factor.rank() > 0 &&
            !level_batched[ClusterTree::level_of(nu)])
          recompress(res.factor, static_cast<real_t<T>>(opt.tol),
                     opt.max_rank);
        // Rows of the block live on nu -> U_nu; columns on sib -> V_sib.
        st.u[nu] = std::move(res.factor.u);
        st.v[sib] = std::move(res.factor.v);
      } else {
        const index_t j = task - num_offdiag;
        const ClusterNode& c = tree.node(tree.leaf(j));
        g.fill_block(c.begin, c.begin, st.leaf(j));
      }
    } catch (const std::exception& e) {
      errors[task] = e.what();
    }
  });
  // Give back every pool thread's ACA cross panels (aca.hpp). Each
  // participant of a static launch over max_threads() indices is a distinct
  // thread, so this reaches every thread once.
  parallel_for_static(max_threads(), [](index_t) { aca_release_panels(); });
  for (const auto& e : errors)
    HODLRX_REQUIRE(e.empty(), "HodlrMatrix::build failed: " << e);
  // Recovery ladder for stalled / non-converged ACA blocks: materialize the
  // block (it never formed during the cross search) and re-compress it
  // through the batched rsvd pipeline, so a stall in the entry-sampling
  // compressor cannot poison the representation. The sketch starts near the
  // rank ACA achieved and doubles until the truncated rank falls below the
  // sketch width (the tol tail was captured) — a full min(m, n)-wide sketch
  // on a large block would be an O(n^3) retry. Under kReport the
  // achieved-rank factor is kept and only recorded. The same holds for a
  // block with NaN or Inf entries under kRecover: rsvd would truncate it to
  // rank 0 and call it recovered, so its non-finite entries are counted.
  RsvdBreakdowns bd;
  for (index_t task = 0; task < num_offdiag; ++task) {
    if (!stalled[task]) continue;
    const index_t nu = first + task;
    const index_t sib = ClusterTree::sibling(nu);
    const ClusterNode& rowc = tree.node(nu);
    const ClusterNode& colc = tree.node(sib);
    if (report != nullptr) {
      ++report->aca_stalls;
      report->events.push_back(
          "build: aca stalled on block (" + std::to_string(nu) + ", " +
          std::to_string(sib) + ") at rank " +
          std::to_string(st.u[nu].cols()));
    }
    if (opt.on_breakdown != OnBreakdown::kRecover) continue;
    Matrix<T> block(rowc.size(), colc.size());
    g.fill_block(rowc.begin, colc.begin, block);
    const index_t bad = count_nonfinite<T>(block);
    if (bad > 0) {
      if (report != nullptr) {
        report->nonfinite_values += bad;
        report->events.push_back(
            "build: block (" + std::to_string(nu) + ", " +
            std::to_string(sib) + ") has " + std::to_string(bad) +
            " non-finite value(s); kept the aca factor of rank " +
            std::to_string(st.u[nu].cols()));
      }
      continue;
    }
    const index_t minmn = std::min(rowc.size(), colc.size());
    index_t sketch =
        opt.max_rank > 0
            ? std::min<index_t>(opt.max_rank, minmn)
            : std::min<index_t>(
                  minmn, std::max<index_t>(64, 2 * st.u[nu].cols()));
    RsvdOptions ropt;
    ropt.oversampling = opt.rsvd_oversampling;
    ropt.power_iterations = std::max(opt.rsvd_power_iterations, 2);
    ropt.tol = opt.tol;
    ropt.seed = opt.seed + static_cast<std::uint64_t>(nu);
    ropt.on_breakdown = opt.on_breakdown;
    ropt.breakdowns = &bd;
    for (;;) {
      ropt.rank = sketch;
      auto fs = rsvd_strided_batched<T>(block.data(), block.rows(), 0,
                                        block.rows(), block.cols(), 1, ropt);
      const bool captured = fs[0].u.cols() < sketch;  // tol tail reached
      st.u[nu] = std::move(fs[0].u);
      st.v[sib] = std::move(fs[0].v);
      if (opt.max_rank > 0 || captured || sketch >= minmn) break;
      sketch = std::min<index_t>(minmn, 2 * sketch);
    }
    fault_stats::detail::add_recovered(fault::Site::kAcaStall);
    if (report != nullptr) {
      ++report->aca_retries;
      report->events.push_back(
          "build: block (" + std::to_string(nu) + ", " + std::to_string(sib) +
          ") re-compressed via rsvd to rank " + std::to_string(st.u[nu].cols()));
    }
  }
  fold_rsvd_breakdowns(bd, report);
  // Batched re-truncation of every uniform level: all of the level's s x s
  // blocks (both sibling sides) share one recompress_batched sweep.
  for (index_t level = 1; level <= tree.depth(); ++level) {
    if (!level_batched[level]) continue;
    const index_t begin = ClusterTree::level_begin(level);
    const index_t count = ClusterTree::nodes_at_level(level);
    std::vector<LowRankFactor<T>> fs(static_cast<std::size_t>(count));
    for (index_t t = 0; t < count; ++t) {
      const index_t nu = begin + t;
      fs[static_cast<std::size_t>(t)].u = std::move(st.u[nu]);
      fs[static_cast<std::size_t>(t)].v =
          std::move(st.v[ClusterTree::sibling(nu)]);
    }
    recompress_batched<T>(fs, static_cast<real_t<T>>(opt.tol), opt.max_rank);
    for (index_t t = 0; t < count; ++t) {
      const index_t nu = begin + t;
      st.u[nu] = std::move(fs[static_cast<std::size_t>(t)].u);
      st.v[ClusterTree::sibling(nu)] = std::move(fs[static_cast<std::size_t>(t)].v);
    }
  }
  HodlrMatrix<T> h = finalize(std::move(st));
  scan_build_finite(h, opt.on_breakdown, report);
  return h;
}

template <typename T>
HodlrMatrix<T> HodlrMatrix<T>::build_from_dense(ConstMatrixView<T> a,
                                                const ClusterTree& tree,
                                                const BuildOptions& opt,
                                                FactorReport* report) {
  HODLRX_REQUIRE(a.rows == tree.n() && a.cols == tree.n(),
                 "build_from_dense: matrix is " << a.rows << "x" << a.cols
                                                << " but tree has n="
                                                << tree.n());
  if (opt.compressor == Compressor::kRsvdBatched) {
    Staged<T> st(tree);
    build_from_dense_rsvd<T>(a, tree, opt, st, report);
    HodlrMatrix<T> h = finalize(std::move(st));
    scan_build_finite(h, opt.on_breakdown, report);
    return h;
  }
  DenseGenerator<T> g(to_matrix(a));
  return build(g, tree, opt, report);
}

template <typename T>
ConstMatrixView<T> HodlrMatrix<T>::u(index_t nu) const {
  return node_block(layout_, panels_->ubig.data(), nu, rank(nu));
}

template <typename T>
ConstMatrixView<T> HodlrMatrix<T>::v(index_t nu) const {
  return node_block(layout_, panels_->vbig.data(), nu,
                    nu == 0 ? 0 : rank(ClusterTree::sibling(nu)));
}

template <typename T>
std::vector<index_t> HodlrMatrix<T>::rank_ladder() const {
  return {layout_.level_rank.begin() + 1, layout_.level_rank.end()};
}

template <typename T>
index_t HodlrMatrix<T>::max_rank() const {
  const std::vector<index_t>& lr = layout_.level_rank;
  return *std::max_element(lr.begin(), lr.end());
}

template <typename T>
void HodlrMatrix<T>::apply(ConstMatrixView<T> x, MatrixView<T> y) const {
  HODLRX_REQUIRE(x.rows == n() && y.rows == n() && x.cols == y.cols,
                 "apply: shape mismatch");
  const ClusterTree& tree = layout_.tree;
  const index_t nn = n(), nrhs = x.cols;
  if (nrhs == 0) return;
  // y = D x on the leaves (disjoint row ranges -> one batched launch).
  if (layout_.leaves_uniform) {
    const index_t s = tree.node(tree.leaf(0)).size();
    gemm_strided_batched<T>(Op::N, Op::N, s, nrhs, s, T{1},
                            panels_->dbig.data(), s, s * s, x.data, x.ld, s,
                            T{0}, y.data, y.ld, s, tree.num_leaves());
  } else {
    const index_t leaves = tree.num_leaves();
    std::vector<ConstMatrixView<T>> av(leaves), bv(leaves);
    std::vector<MatrixView<T>> cv(leaves);
    for (index_t j = 0; j < leaves; ++j) {
      const ClusterNode& c = tree.node(tree.leaf(j));
      av[j] = leaf_block(j);
      bv[j] = x.block(c.begin, 0, c.size(), nrhs);
      cv[j] = y.block(c.begin, 0, c.size(), nrhs);
    }
    gemm_batched<T>(Op::N, Op::N, T{1}, av, bv, T{0}, cv);
  }
  // Off-diagonal blocks, one level at a time: w_t = V_t^H x(I_t) for every
  // node t of the level, stored in the slot of t's SIBLING, so that the
  // update y(I_t) += U_t w_slot(t) = U_t V_sib(t)^H x(I_sib(t)) reads slot t.
  // Padding columns of V and U are zero, so every node uses the level's
  // padded rank.
  index_t wmax = 0;
  for (index_t level = 1; level <= tree.depth(); ++level)
    wmax = std::max(wmax, ClusterTree::nodes_at_level(level) *
                              layout_.level_rank[level] * nrhs);
  Matrix<T> wbuf(wmax, 1);
  T* const w = wbuf.data();
  for (index_t level = 1; level <= tree.depth(); ++level) {
    const index_t r = layout_.level_rank[level];
    if (r == 0) continue;
    const index_t begin = ClusterTree::level_begin(level);
    const index_t count = ClusterTree::nodes_at_level(level);
    const index_t ldw = count * r;
    const T* vpanel = panels_->vbig.data() + layout_.col_offset[level] * nn;
    const T* upanel = panels_->ubig.data() + layout_.col_offset[level] * nn;
    if (layout_.level_uniform[level]) {
      // Node t starts at row t*s; even nodes write odd slots and vice versa.
      const index_t s = tree.node(begin).size();
      gemm_strided_batched<T>(Op::C, Op::N, r, nrhs, s, T{1}, vpanel, nn,
                              2 * s, x.data, x.ld, 2 * s, T{0}, w + r, ldw,
                              2 * r, count / 2);
      gemm_strided_batched<T>(Op::C, Op::N, r, nrhs, s, T{1}, vpanel + s, nn,
                              2 * s, x.data + s, x.ld, 2 * s, T{0}, w, ldw,
                              2 * r, count / 2);
      gemm_strided_batched<T>(Op::N, Op::N, s, nrhs, r, T{1}, upanel, nn, s,
                              w, ldw, r, T{1}, y.data, y.ld, s, count);
    } else {
      std::vector<ConstMatrixView<T>> av(count), bv(count);
      std::vector<MatrixView<T>> cv(count);
      for (index_t t = 0; t < count; ++t) {
        const ClusterNode& c = tree.node(begin + t);
        av[t] = ConstMatrixView<T>(vpanel + c.begin, c.size(), r, nn);
        bv[t] = x.block(c.begin, 0, c.size(), nrhs);
        cv[t] = MatrixView<T>{w + (t ^ 1) * r, r, nrhs, ldw};
      }
      gemm_batched<T>(Op::C, Op::N, T{1}, av, bv, T{0}, cv);
      for (index_t t = 0; t < count; ++t) {
        const ClusterNode& c = tree.node(begin + t);
        av[t] = ConstMatrixView<T>(upanel + c.begin, c.size(), r, nn);
        bv[t] = ConstMatrixView<T>(w + t * r, r, nrhs, ldw);
        cv[t] = y.block(c.begin, 0, c.size(), nrhs);
      }
      gemm_batched<T>(Op::N, Op::N, T{1}, av, bv, T{1}, cv);
    }
  }
}

template <typename T>
Matrix<T> HodlrMatrix<T>::to_dense() const {
  const ClusterTree& tree = layout_.tree;
  Matrix<T> a(n(), n());
  for (index_t j = 0; j < tree.num_leaves(); ++j) {
    const ClusterNode& c = tree.node(tree.leaf(j));
    copy(leaf_block(j), a.block(c.begin, c.begin, c.size(), c.size()));
  }
  for (index_t nu = 1; nu < tree.num_nodes(); ++nu) {
    if (rank(nu) == 0) continue;
    const index_t sib = ClusterTree::sibling(nu);
    const ClusterNode& rowc = tree.node(nu);
    const ClusterNode& colc = tree.node(sib);
    gemm(Op::N, Op::C, T{1}, u(nu), v(sib), T{0},
         a.block(rowc.begin, colc.begin, rowc.size(), colc.size()));
  }
  return a;
}

template class HodlrMatrix<float>;
template class HodlrMatrix<double>;
template class HodlrMatrix<std::complex<float>>;
template class HodlrMatrix<std::complex<double>>;

}  // namespace hodlrx
