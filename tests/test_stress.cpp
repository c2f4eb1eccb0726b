#include <gtest/gtest.h>

#include "core/factorization.hpp"
#include "kernels/kernels.hpp"
#include "test_util.hpp"

/// Failure injection and hostile-input coverage: the library must either
/// work or throw a typed error — never corrupt silently.

namespace hodlrx {
namespace {

TEST(Stress, SingularLeafBlockThrows) {
  // Zero out one leaf diagonal block (in the input: a built HodlrMatrix is
  // read-only): the leaf LU must throw.
  const index_t n = 64;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 801);
  ClusterTree tree = ClusterTree::uniform(n, 16);
  const ClusterNode& leaf = tree.node(tree.leaf(1));
  for (index_t j = leaf.begin; j < leaf.end; ++j)
    for (index_t i = leaf.begin; i < leaf.end; ++i) a(i, j) = 0.0;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, {});
  PackedHodlr<double> p = PackedHodlr<double>::pack(h);
  for (ExecMode mode : {ExecMode::kSerial, ExecMode::kBatched}) {
    FactorOptions opt;
    opt.mode = mode;
    EXPECT_THROW(HodlrFactorization<double>::factor(p, opt), Error);
  }
}

TEST(Stress, NearSingularStillSolves) {
  // A nearly rank-deficient (but invertible) matrix: pivoted LU must cope.
  const index_t n = 96;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 803);
  for (index_t j = 0; j < n; ++j) a(n - 1, j) = a(0, j) + 1e-8 * a(1, j);
  a(n - 1, n - 1) += 1.0;  // keep invertible
  ClusterTree tree = ClusterTree::uniform(n, 16);
  BuildOptions bopt;
  bopt.tol = 1e-12;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, bopt);
  auto f = HodlrFactorization<double>::factor(PackedHodlr<double>::pack(h), {});
  Matrix<double> b = random_matrix<double>(n, 1, 805);
  Matrix<double> x = f.solve(b);
  EXPECT_LE(test::dense_relres<double>(a, x, b), 1e-6);
}

TEST(Stress, HighlyNonUniformTree) {
  // Hand-built tree with very skewed splits (sizes 1 vs large).
  const index_t n = 100;
  std::vector<ClusterNode> nodes = {
      {0, 100},           // root
      {0, 3},  {3, 100},  // level 1: tiny/huge
      {0, 1},  {1, 3}, {3, 50}, {50, 100}};  // level 2
  ClusterTree tree = ClusterTree::from_ranges(std::move(nodes), 2);
  Matrix<double> a = test::smooth_test_matrix<double>(n, 807);
  BuildOptions bopt;
  bopt.tol = 1e-11;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, bopt);
  for (ExecMode mode : {ExecMode::kSerial, ExecMode::kBatched}) {
    FactorOptions opt;
    opt.mode = mode;
    auto f = HodlrFactorization<double>::factor(PackedHodlr<double>::pack(h),
                                                opt);
    Matrix<double> b = random_matrix<double>(n, 2, 809);
    Matrix<double> x = f.solve(b);
    EXPECT_LE(test::dense_relres<double>(a, x, b), 1e-8);
  }
}

TEST(Stress, SingleIndexLeaves) {
  // Depth chosen so every leaf has exactly one index (1x1 leaf LUs).
  const index_t n = 32;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 811);
  ClusterTree tree = ClusterTree::with_depth(n, 5);
  BuildOptions bopt;
  bopt.tol = 1e-12;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, bopt);
  auto f = HodlrFactorization<double>::factor(PackedHodlr<double>::pack(h), {});
  Matrix<double> b = random_matrix<double>(n, 1, 813);
  EXPECT_LE(test::dense_relres<double>(a, f.solve(b), b), 1e-9);
}

TEST(Stress, ManySolvesReuseFactorization) {
  const index_t n = 128;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 815);
  ClusterTree tree = ClusterTree::uniform(n, 16);
  BuildOptions bopt;
  bopt.tol = 1e-11;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, bopt);
  auto f = HodlrFactorization<double>::factor(PackedHodlr<double>::pack(h), {});
  for (int i = 0; i < 10; ++i) {
    Matrix<double> b = random_matrix<double>(n, 1, 900 + i);
    EXPECT_LE(test::dense_relres<double>(a, f.solve(b), b), 1e-8);
  }
}

TEST(Stress, WideMultiRhsBlock) {
  // nrhs much larger than N exercises the column-chunked solve paths.
  const index_t n = 64, nrhs = 300;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 821);
  ClusterTree tree = ClusterTree::uniform(n, 16);
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, {});
  auto f = HodlrFactorization<double>::factor(PackedHodlr<double>::pack(h), {});
  Matrix<double> b = random_matrix<double>(n, nrhs, 823);
  Matrix<double> x = f.solve(b);
  EXPECT_LE(test::dense_relres<double>(a, x, b), 1e-9);
}

TEST(Stress, ZeroColumnSolveIsNoop) {
  const index_t n = 64;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 825);
  ClusterTree tree = ClusterTree::uniform(n, 16);
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, {});
  auto f = HodlrFactorization<double>::factor(PackedHodlr<double>::pack(h), {});
  Matrix<double> b(n, 0);
  f.solve_inplace(b.view());  // must not crash
}

TEST(Stress, StridedRhsViews) {
  // Solve into a column slice of a larger array (non-contiguous ld).
  const index_t n = 128;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 827);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions bopt;
  bopt.tol = 1e-11;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, bopt);
  auto f = HodlrFactorization<double>::factor(PackedHodlr<double>::pack(h), {});
  Matrix<double> big = random_matrix<double>(n + 40, 3, 829);
  MatrixView<double> rhs = big.view().block(11, 1, n, 2);
  Matrix<double> b_copy = to_matrix(ConstMatrixView<double>(rhs));
  f.solve_inplace(rhs);
  EXPECT_LE(test::dense_relres<double>(a, ConstMatrixView<double>(rhs),
                                       b_copy),
            1e-8);
}

TEST(Stress, IllConditionedDiagonalScaling) {
  // Wildly scaled rows/cols: pivoted LU keeps the residual small.
  const index_t n = 96;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 831);
  for (index_t i = 0; i < n; ++i) {
    const double s = std::pow(10.0, double(i % 7) - 3);
    for (index_t j = 0; j < n; ++j) a(i, j) *= s;
  }
  ClusterTree tree = ClusterTree::uniform(n, 16);
  BuildOptions bopt;
  bopt.tol = 1e-13;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, bopt);
  auto f = HodlrFactorization<double>::factor(PackedHodlr<double>::pack(h), {});
  Matrix<double> b = random_matrix<double>(n, 1, 833);
  Matrix<double> x = f.solve(b);
  // Residual measured against the compressed operator is the right metric
  // under row scaling.
  Matrix<double> r(n, 1);
  h.apply(x, r.view());
  axpy(-1.0, ConstMatrixView<double>(b), r.view());
  EXPECT_LE(norm_fro<double>(r) / norm_fro<double>(b), 1e-9);
}

TEST(Stress, RecompressionDisabledStillCorrect) {
  const index_t n = 200;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 835);
  ClusterTree tree = ClusterTree::uniform(n, 25);
  BuildOptions bopt;
  bopt.tol = 1e-10;
  bopt.recompress = false;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, bopt);
  auto f = HodlrFactorization<double>::factor(PackedHodlr<double>::pack(h), {});
  Matrix<double> b = random_matrix<double>(n, 1, 837);
  EXPECT_LE(test::dense_relres<double>(a, f.solve(b), b), 1e-7);
}

TEST(Stress, MaxRankCapThrowsWhenInsufficient) {
  // A full-rank random matrix cannot be compressed at rank 3: under the
  // kThrow breakdown policy build must surface the ACA failure rather than
  // silently truncate. (The default kRecover policy instead keeps a
  // best-effort rank-3 approximation and records the stall in the
  // FactorReport — covered by test_faults.cpp.)
  const index_t n = 64;
  Matrix<double> a = random_matrix<double>(n, n, 839);
  for (index_t i = 0; i < n; ++i) a(i, i) += 8.0;
  ClusterTree tree = ClusterTree::uniform(n, 16);
  BuildOptions bopt;
  bopt.tol = 1e-12;
  bopt.max_rank = 3;
  bopt.on_breakdown = OnBreakdown::kThrow;
  EXPECT_THROW(HodlrMatrix<double>::build_from_dense(a, tree, bopt), Error);
}

}  // namespace
}  // namespace hodlrx
