#pragma once

#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "lowrank/generator.hpp"
#include "lowrank/lowrank.hpp"
#include "tree/cluster_tree.hpp"

/// \file hodlr.hpp
/// The HODLR matrix representation (Definition 2), stored in the paper's
/// big-matrix layout (Figs. 3 and 4): all U bases in one N x R matrix
/// `ubig`, one column panel per tree level with rows partitioned by the
/// cluster tree; likewise `vbig`; the dense leaf diagonal blocks
/// concatenated in `dbig`.
///
/// Storage convention for a sibling pair (a, b) with blocks
///   A(I_a, I_b) = U_a V_b^H   and   A(I_b, I_a) = U_b V_a^H:
/// node `nu` owns U_nu (|I_nu| x rank(nu)) and V_nu
/// (|I_nu| x rank(sibling(nu))), where rank(nu) is the rank of the block
/// whose ROWS live on nu. Both sit in node nu's rows of the level panel,
/// starting at the panel's first column; a node whose rank is below the
/// level maximum is zero-padded to the right, which is what makes the
/// strided-batched kernels applicable (Sec. III-C).

namespace hodlrx {

/// Where everything lives in the panels: tree, ranks and offsets, O(nodes).
struct PanelLayout {
  ClusterTree tree;
  index_t n = 0;

  /// Exact rank of every node (index 0, the root, is 0).
  std::vector<index_t> node_rank;
  /// level_rank[l] = max over nodes at level l of the block rank (l=1..L;
  /// index 0 unused).
  std::vector<index_t> level_rank;
  /// Panel l occupies columns [col_offset[l], col_offset[l] + level_rank[l]);
  /// col_offset[1] = 0 and col_offset[l+1] = col_offset[l] + level_rank[l].
  /// The "first r*l columns" of Algorithm 3 is the prefix
  /// [0, col_offset[l+1]).
  std::vector<index_t> col_offset;
  index_t total_cols = 0;  ///< R = col_offset[L+1]

  /// Per-level: true when all nodes at that level have the same size, which
  /// enables gemmStridedBatched (paper Sec. III-C). Index by level (0..L).
  std::vector<char> level_uniform;
  bool leaves_uniform = false;

  /// Per-leaf offset into dbig (size leaves+1); leaf j is column-major with
  /// ld = its size.
  std::vector<index_t> d_offset;

  /// The layout of `tree` with the given exact per-node ranks.
  static PanelLayout make(const ClusterTree& tree,
                          std::vector<index_t> node_rank);

  index_t depth() const { return tree.depth(); }
  index_t leaf_size(index_t j) const { return tree.node(tree.leaf(j)).size(); }
};

/// The operator's storage: the N x R panels and the concatenated leaves.
/// One HodlrMatrix build allocates it; PackedHodlr and HodlrFactorization
/// share it read-only, so it outlives whichever of them goes last.
template <typename T>
struct HodlrPanels {
  index_t n = 0, cols = 0;
  AlignedBuffer<T> ubig, vbig;  ///< n x cols each, column-major, ld = n
  AlignedBuffer<T> dbig;        ///< leaf blocks, column-major, concatenated

  ConstMatrixView<T> u() const { return {ubig.data(), n, cols, n}; }
  ConstMatrixView<T> v() const { return {vbig.data(), n, cols, n}; }
  std::size_t bytes() const {
    return ubig.bytes() + vbig.bytes() + dbig.bytes();
  }
};

template <typename T>
class HodlrMatrix {
 public:
  /// Compress `g` (square, indexed compatibly with `tree`) into HODLR form.
  /// Every off-diagonal block runs rook-pivoted ACA in parallel, and every
  /// uniform tree level is then re-truncated in one recompress_batched call
  /// (non-uniform levels per block). The per-node factors are staged, then
  /// written once into the level panels when all ranks are known; leaves are
  /// filled in place.
  ///
  /// Breakdown handling follows opt.on_breakdown. An ACA stall is retried
  /// through an rsvd of the materialized block under kRecover, kept at the
  /// achieved rank under kReport, and thrown under kThrow. A recompression
  /// core SVD that exhausts its sweep budget is re-run serially under
  /// kRecover, kept under kReport, and thrown under kThrow. A non-null
  /// `report` collects per-stage breakdown counters, recovery actions and,
  /// with HODLRX_CHECK_FINITE, a NaN/Inf scan of the compressed
  /// representation.
  static HodlrMatrix build(const MatrixGenerator<T>& g, const ClusterTree& tree,
                           const BuildOptions& opt = {},
                           FactorReport* report = nullptr);

  /// Compress a dense matrix: `build` over a DenseGenerator copy of `a`.
  static HodlrMatrix build_from_dense(ConstMatrixView<T> a,
                                      const ClusterTree& tree,
                                      const BuildOptions& opt = {},
                                      FactorReport* report = nullptr);

  /// Adopt finished storage: `panels` holds `layout`'s panels
  /// (layout.n x layout.total_cols each) and leaves (d_offset.back()).
  HodlrMatrix(PanelLayout layout, std::shared_ptr<const HodlrPanels<T>> panels);

  const ClusterTree& tree() const { return layout_.tree; }
  index_t n() const { return layout_.n; }
  index_t depth() const { return layout_.depth(); }
  const PanelLayout& layout() const { return layout_; }
  const std::shared_ptr<const HodlrPanels<T>>& panels() const {
    return panels_;
  }

  /// The N x R panels of all U (resp. V) bases, ld = N.
  ConstMatrixView<T> ubig() const { return panels_->u(); }
  ConstMatrixView<T> vbig() const { return panels_->v(); }
  /// U basis of node `nu` (empty for the root): its rows of the level panel,
  /// first rank(nu) columns.
  ConstMatrixView<T> u(index_t nu) const;
  /// V basis of node `nu` (empty for the root): rank(sibling(nu)) columns.
  ConstMatrixView<T> v(index_t nu) const;
  /// Rank of the off-diagonal block whose rows live on node `nu`.
  index_t rank(index_t nu) const { return layout_.node_rank[nu]; }
  /// Dense diagonal block of the j-th leaf.
  ConstMatrixView<T> leaf_block(index_t j) const {
    const index_t sz = layout_.leaf_size(j);
    return {panels_->dbig.data() + layout_.d_offset[j], sz, sz, sz};
  }

  /// Maximum off-diagonal rank per level (level 1..L; the paper's appendix
  /// rank ladders). Entry [0] corresponds to level 1.
  std::vector<index_t> rank_ladder() const;
  /// Maximum rank over all blocks (the HODLR rank of Definition 2).
  index_t max_rank() const;

  /// y = A * x for nrhs columns: the leaves in one batched launch, then per
  /// level W = V^H x and y += U W as batched launches over the level's
  /// nodes (strided on uniform levels).
  void apply(ConstMatrixView<T> x, MatrixView<T> y) const;

  /// Dense reconstruction (small-N validation only).
  Matrix<T> to_dense() const;

  /// Bytes of the panels and leaves (the paper's `mem` column counts this
  /// plus the factorization's Y, leaf LUs and K matrices).
  std::size_t bytes() const { return panels_->bytes(); }

 private:
  PanelLayout layout_;
  std::shared_ptr<const HodlrPanels<T>> panels_;
};

}  // namespace hodlrx
