#include "sparse/extended.hpp"

#include <complex>

#include "common/error.hpp"

namespace hodlrx {

template <typename T>
Matrix<T> ExtendedSystem<T>::extend_rhs(ConstMatrixView<T> b) const {
  HODLRX_REQUIRE(b.rows == n_original, "extend_rhs: wrong size");
  Matrix<T> be(matrix.n(), b.cols);
  copy(b, be.block(0, 0, n_original, b.cols));
  return be;
}

template <typename T>
Matrix<T> ExtendedSystem<T>::restrict_solution(ConstMatrixView<T> xe) const {
  return to_matrix(xe.block(0, 0, n_original, xe.cols));
}

template <typename T>
ExtendedSystem<T> build_extended_system(const HodlrMatrix<T>& h) {
  const ClusterTree& tree = h.tree();
  const index_t L = tree.depth();
  ExtendedLayout layout;
  layout.num_leaves = tree.num_leaves();
  layout.num_nodes = tree.num_nodes();

  // Block sizes: leaf sizes, then rank(nu) for every non-root node.
  std::vector<index_t> sizes(layout.num_blocks());
  for (index_t j = 0; j < layout.num_leaves; ++j)
    sizes[layout.leaf_block(j)] = tree.node(tree.leaf(j)).size();
  for (index_t nu = 1; nu < layout.num_nodes; ++nu)
    sizes[layout.w_block(nu)] = h.rank(nu);

  ExtendedSystem<T> sys{layout, BlockSparseMatrix<T>(std::move(sizes)), {},
                        h.n()};
  BlockSparseMatrix<T>& m = sys.matrix;

  for (index_t j = 0; j < layout.num_leaves; ++j) {
    const index_t leaf_nu = tree.leaf(j);
    const ClusterNode& c = tree.node(leaf_nu);
    // Leaf equation: D_j x_j + sum_{nu on path} U_nu(I_leaf rows) w_nu = b_j.
    m.block(layout.leaf_block(j), layout.leaf_block(j)) =
        to_matrix(h.leaf_block(j));
    for (index_t nu = leaf_nu; nu != 0; nu = ClusterTree::parent(nu)) {
      if (h.rank(nu) == 0) continue;
      const ClusterNode& cn = tree.node(nu);
      Matrix<T>& blk = m.block(layout.leaf_block(j), layout.w_block(nu));
      copy(h.u(nu).block(c.begin - cn.begin, 0, c.size(), h.rank(nu)),
           blk.view());
      // Constraint row of w_nu picks up V_mu^H restricted to this leaf when
      // the leaf lies under mu = sibling(nu): handled below from mu's side.
    }
  }

  // Constraint equations: for every non-root nu with sibling mu:
  //   sum_{leaves l under mu} V_mu(I_l rows)^H x_l - w_nu = 0.
  for (index_t nu = 1; nu < layout.num_nodes; ++nu) {
    const index_t r = h.rank(nu);
    if (r == 0) continue;
    const index_t mu = ClusterTree::sibling(nu);
    const ClusterNode& cmu = tree.node(mu);
    // -I on the diagonal of the w block.
    Matrix<T>& diag = m.block(layout.w_block(nu), layout.w_block(nu));
    for (index_t i = 0; i < r; ++i) diag(i, i) = T{-1};
    // V_mu^H spread over the leaves below mu.
    for (index_t j = 0; j < layout.num_leaves; ++j) {
      const ClusterNode& cl = tree.node(tree.leaf(j));
      if (cl.begin < cmu.begin || cl.end > cmu.end) continue;
      Matrix<T>& blk = m.block(layout.w_block(nu), layout.leaf_block(j));
      // blk = V_mu(rows of this leaf)^H  (r x leaf_size).
      ConstMatrixView<T> vpart =
          h.v(mu).block(cl.begin - cmu.begin, 0, cl.size(), r);
      for (index_t jj = 0; jj < cl.size(); ++jj)
        for (index_t ii = 0; ii < r; ++ii)
          blk(ii, jj) = conj_s(vpart(jj, ii));
    }
  }

  // Natural elimination order: leaves left-to-right, then w levels bottom-up.
  sys.elimination_order.reserve(layout.num_blocks());
  for (index_t j = 0; j < layout.num_leaves; ++j)
    sys.elimination_order.push_back(layout.leaf_block(j));
  for (index_t level = L; level >= 1; --level)
    for (index_t nu = ClusterTree::level_begin(level);
         nu < ClusterTree::level_begin(level + 1); ++nu)
      if (h.rank(nu) > 0) sys.elimination_order.push_back(layout.w_block(nu));
  // Zero-rank w blocks are excluded from elimination entirely: their rows
  // and columns are empty.
  return sys;
}

#define HODLRX_INSTANTIATE_EXT(T)                                       \
  template struct ExtendedSystem<T>;                                    \
  template ExtendedSystem<T> build_extended_system<T>(const HodlrMatrix<T>&);

HODLRX_INSTANTIATE_EXT(float)
HODLRX_INSTANTIATE_EXT(double)
HODLRX_INSTANTIATE_EXT(std::complex<float>)
HODLRX_INSTANTIATE_EXT(std::complex<double>)

#undef HODLRX_INSTANTIATE_EXT

}  // namespace hodlrx
