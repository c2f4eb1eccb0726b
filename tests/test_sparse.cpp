#include <gtest/gtest.h>

#include "common/lapack.hpp"
#include "sparse/block_lu.hpp"
#include "test_util.hpp"

namespace hodlrx {
namespace {

using test::rel_error;

TEST(BlockSparseMatrix, BasicStorage) {
  BlockSparseMatrix<double> m({2, 3, 1});
  EXPECT_EQ(m.n(), 6);
  EXPECT_EQ(m.block_offset(1), 2);
  EXPECT_FALSE(m.has(0, 1));
  m.block(0, 1)(1, 2) = 5.0;
  EXPECT_TRUE(m.has(0, 1));
  EXPECT_EQ(m.num_stored_blocks(), 1u);
  auto row = m.row_pattern(0);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0], 1);
  auto col = m.col_pattern(1);
  ASSERT_EQ(col.size(), 1u);
  EXPECT_EQ(col[0], 0);
  Matrix<double> d = m.to_dense();
  EXPECT_EQ(d(1, 2 + 2), 5.0);
}

template <typename T>
void check_extended_equivalence(index_t n, index_t leaf) {
  // The extended system must be EXACTLY equivalent to the compressed HODLR
  // matrix: eliminating the w unknowns recovers tilde-A x = b.
  Matrix<T> a = test::smooth_test_matrix<T>(n, 301 + n);
  ClusterTree tree = ClusterTree::uniform(n, leaf);
  BuildOptions bopt;
  bopt.tol = 1e-11;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
  Matrix<T> ad = h.to_dense();

  ExtendedSystem<T> sys = build_extended_system(h);
  // Dense check of the embedding: solve the extended system densely and
  // compare with the dense solve of tilde-A.
  Matrix<T> be(sys.matrix.n(), 2);
  Matrix<T> b = random_matrix<T>(n, 2, 307);
  copy<T>(b.view(), be.view().block(0, 0, n, 2));
  Matrix<T> ext = sys.matrix.to_dense();
  Matrix<T> xe = dense_solve<T>(ext, be);
  Matrix<T> x_ref = dense_solve<T>(ad, b);
  EXPECT_LE(rel_error<T>(xe.view().block(0, 0, n, 2), x_ref.view()), 1e-9);
}

TEST(Extended, EmbeddingIsEquivalentDouble) {
  check_extended_equivalence<double>(96, 12);
  check_extended_equivalence<double>(128, 16);
}

TEST(Extended, EmbeddingIsEquivalentComplex) {
  check_extended_equivalence<std::complex<double>>(100, 13);
}

template <typename T>
void check_block_lu(index_t n, index_t leaf, bool parallel) {
  Matrix<T> a = test::smooth_test_matrix<T>(n, 311 + n);
  ClusterTree tree = ClusterTree::uniform(n, leaf);
  BuildOptions bopt;
  bopt.tol = 1e-11;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
  typename BlockSparseLU<T>::Options opt;
  opt.parallel = parallel;
  BlockSparseLU<T> lu = BlockSparseLU<T>::factor(build_extended_system(h), opt);
  Matrix<T> b = random_matrix<T>(n, 3, 313);
  Matrix<T> x = lu.solve(b);
  EXPECT_LE(test::dense_relres<T>(a, x, b), 1e-8);
}

TEST(BlockLU, SequentialSolve) {
  check_block_lu<double>(128, 16, false);
  check_block_lu<double>(200, 25, false);
  check_block_lu<std::complex<double>>(96, 12, false);
}

TEST(BlockLU, ParallelSolveMatches) {
  check_block_lu<double>(256, 32, true);
  check_block_lu<std::complex<double>>(128, 16, true);
}

TEST(BlockLU, ParallelAndSequentialIdentical) {
  using T = double;
  const index_t n = 160;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 331);
  ClusterTree tree = ClusterTree::uniform(n, 20);
  BuildOptions bopt;
  bopt.tol = 1e-11;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
  typename BlockSparseLU<T>::Options po;
  po.parallel = true;
  BlockSparseLU<T> ls = BlockSparseLU<T>::factor(build_extended_system(h), {});
  BlockSparseLU<T> lp = BlockSparseLU<T>::factor(build_extended_system(h), po);
  Matrix<T> b = random_matrix<T>(n, 1, 337);
  EXPECT_LE(rel_error(ls.solve(b), lp.solve(b)), 1e-12);
}

TEST(BlockLU, FillStaysInPathCliques) {
  // The natural order must produce bounded fill: every fill block connects
  // two nodes whose paths share a leaf, so the count is O(leaves * L^2).
  using T = double;
  const index_t n = 512;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 341);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions bopt;
  bopt.tol = 1e-9;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
  BlockSparseLU<T> lu = BlockSparseLU<T>::factor(build_extended_system(h), {});
  const index_t leaves = tree.num_leaves();
  const index_t L = tree.depth();
  // Generous bound: a few L^2 blocks per leaf.
  EXPECT_LE(lu.num_fill_blocks(),
            static_cast<std::size_t>(8 * leaves * (L + 1) * (L + 1)));
}

TEST(Extended, RhsExtendRestrictRoundTrip) {
  using T = double;
  const index_t n = 64;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 351);
  ClusterTree tree = ClusterTree::uniform(n, 16);
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, {});
  ExtendedSystem<T> sys = build_extended_system(h);
  Matrix<T> b = random_matrix<T>(n, 2, 353);
  Matrix<T> be = sys.extend_rhs(b);
  EXPECT_GE(be.rows(), n);
  Matrix<T> back = sys.restrict_solution(be);
  EXPECT_LE(rel_error(back, b), 1e-15);
}

}  // namespace
}  // namespace hodlrx
