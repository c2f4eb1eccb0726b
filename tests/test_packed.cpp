#include <gtest/gtest.h>

#include <utility>

#include "core/packed.hpp"
#include "test_util.hpp"

namespace hodlrx {
namespace {

using test::rel_error;

template <typename T>
PackedHodlr<T> make_packed(index_t n, index_t leaf, double tol = 1e-10,
                           std::uint64_t seed = 7) {
  Matrix<T> a = test::smooth_test_matrix<T>(n, seed);
  ClusterTree tree = ClusterTree::uniform(n, leaf);
  BuildOptions opt;
  opt.tol = tol;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, opt);
  return PackedHodlr<T>::pack(h);
}

TEST(Packed, PanelOffsetsAreConsistent) {
  auto p = make_packed<double>(256, 16);
  const index_t L = p.depth();
  EXPECT_EQ(p.col_offset[1], 0);
  for (index_t l = 1; l <= L; ++l)
    EXPECT_EQ(p.col_offset[l + 1], p.col_offset[l] + p.level_rank[l]);
  EXPECT_EQ(p.total_cols, p.col_offset[L + 1]);
  EXPECT_EQ(p.ubig().rows, 256);
  EXPECT_EQ(p.ubig().cols, p.total_cols);
  EXPECT_EQ(p.ubig().ld, 256);
}

TEST(Packed, PanelsContainNodeBases) {
  const index_t n = 200, leaf = 25;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 11);
  ClusterTree tree = ClusterTree::uniform(n, leaf);
  BuildOptions opt;
  opt.tol = 1e-10;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, opt);
  const PanelLayout& lay = h.layout();

  for (index_t nu = 1; nu < tree.num_nodes(); ++nu) {
    const index_t level = ClusterTree::level_of(nu);
    const index_t sib = ClusterTree::sibling(nu);
    const ClusterNode& c = tree.node(nu);
    EXPECT_EQ(h.u(nu).cols, h.rank(nu));
    EXPECT_EQ(h.v(nu).cols, h.rank(sib));
    // The first rank(nu) panel columns hold U_nu (rank(sib) hold V_nu); the
    // rest of the level panel is zero padding.
    for (const auto& [big, basis] :
         {std::pair{h.ubig(), h.u(nu)}, std::pair{h.vbig(), h.v(nu)}}) {
      auto panel = big.block(c.begin, lay.col_offset[level], c.size(),
                             lay.level_rank[level]);
      for (index_t j = 0; j < lay.level_rank[level]; ++j)
        for (index_t i = 0; i < c.size(); ++i) {
          if (j < basis.cols) {
            EXPECT_EQ(&panel(i, j), &basis(i, j));
          } else {
            EXPECT_EQ(panel(i, j), 0.0);
          }
        }
    }
    // The panel product of a sibling pair is the compressed block.
    if (h.rank(nu) == 0) continue;
    Matrix<double> blk(c.size(), tree.node(sib).size());
    gemm<double>(Op::N, Op::C, 1.0, h.u(nu), h.v(sib), 0.0, blk.view());
    EXPECT_LE(rel_error<double>(
                  blk.view(), a.view().block(c.begin, tree.node(sib).begin,
                                             c.size(), tree.node(sib).size())),
              1e-8);
  }
}

TEST(Packed, ReconstructionFromPanels) {
  // Rebuild the dense matrix from the HodlrMatrix's padded panels alone and
  // compare with HodlrMatrix::to_dense (they must agree exactly).
  const index_t n = 128, leaf = 16;
  Matrix<std::complex<double>> a =
      test::smooth_test_matrix<std::complex<double>>(n, 13);
  ClusterTree tree = ClusterTree::uniform(n, leaf);
  BuildOptions opt;
  opt.tol = 1e-9;
  auto h = HodlrMatrix<std::complex<double>>::build_from_dense(a, tree, opt);
  const PanelLayout& p = h.layout();

  Matrix<std::complex<double>> rec(n, n);
  for (index_t j = 0; j < tree.num_leaves(); ++j) {
    const ClusterNode& c = tree.node(tree.leaf(j));
    copy(h.leaf_block(j),
         rec.view().block(c.begin, c.begin, c.size(), c.size()));
  }
  using C = std::complex<double>;
  for (index_t nu = 1; nu < tree.num_nodes(); ++nu) {
    const index_t level = ClusterTree::level_of(nu);
    const index_t sib = ClusterTree::sibling(nu);
    const ClusterNode& rc = tree.node(nu);
    const ClusterNode& cc = tree.node(sib);
    const index_t r = p.level_rank[level];
    if (r == 0) continue;
    // Padded blocks multiply to the same product as the exact ones.
    gemm<C>(Op::N, Op::C, C{1},
            h.ubig().block(rc.begin, p.col_offset[level], rc.size(), r),
            h.vbig().block(cc.begin, p.col_offset[level], cc.size(), r),
            C{0}, rec.view().block(rc.begin, cc.begin, rc.size(), cc.size()));
  }
  EXPECT_LE(rel_error(rec, h.to_dense()), 1e-14);
}

TEST(Packed, UniformityFlags) {
  auto p1 = make_packed<double>(256, 16);  // power of two: uniform everywhere
  for (index_t l = 0; l <= p1.depth(); ++l) EXPECT_TRUE(p1.level_uniform[l]);
  EXPECT_TRUE(p1.leaves_uniform);

  auto p2 = make_packed<double>(100, 16);  // odd splits: not uniform
  bool any_nonuniform = false;
  for (index_t l = 0; l <= p2.depth(); ++l)
    if (!p2.level_uniform[l]) any_nonuniform = true;
  EXPECT_TRUE(any_nonuniform);
}

TEST(Packed, NodeRankMetadata) {
  const index_t n = 160;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 17);
  ClusterTree tree = ClusterTree::uniform(n, 20);
  BuildOptions opt;
  opt.tol = 1e-9;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, opt);
  PackedHodlr<double> p = PackedHodlr<double>::pack(h);
  for (index_t nu = 1; nu < tree.num_nodes(); ++nu)
    EXPECT_EQ(p.node_rank[nu], h.rank(nu));
}

TEST(Packed, DbigOffsets) {
  auto p = make_packed<double>(250, 30);
  const index_t leaves = p.tree.num_leaves();
  index_t acc = 0;
  for (index_t j = 0; j < leaves; ++j) {
    EXPECT_EQ(p.d_offset[j], acc);
    const index_t sz = p.tree.node(p.tree.leaf(j)).size();
    acc += sz * sz;
  }
  EXPECT_EQ(p.d_offset[leaves], acc);
  EXPECT_EQ(static_cast<index_t>(p.panels->dbig.size()), acc);
}

/// pack() is a handle: it allocates no operator-sized buffer, so its panel
/// and leaf pointers are the HodlrMatrix's.
TEST(Packed, PackSharesThePanels) {
  const index_t n = 200;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 19);
  ClusterTree tree = ClusterTree::uniform(n, 25);
  BuildOptions opt;
  opt.tol = 1e-10;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, opt);
  PackedHodlr<double> p = PackedHodlr<double>::pack(h);
  ASSERT_GT(p.total_cols, 0);
  EXPECT_EQ(p.panels.get(), h.panels().get());
  EXPECT_EQ(p.ubig().data, h.ubig().data);
  EXPECT_EQ(p.vbig().data, h.vbig().data);
  EXPECT_EQ(p.panels->dbig.data(), h.leaf_block(0).data);
  EXPECT_EQ(p.bytes(), h.bytes());
}

}  // namespace
}  // namespace hodlrx
