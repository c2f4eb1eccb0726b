#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "core/hodlr.hpp"
#include "kernels/kernels.hpp"
#include "test_util.hpp"

namespace hodlrx {
namespace {

using test::rel_error;

template <typename T>
class HodlrTyped : public ::testing::Test {};
using HodlrTypes = ::testing::Types<float, double, std::complex<float>,
                                   std::complex<double>>;
TYPED_TEST_SUITE(HodlrTyped, HodlrTypes);

/// Compression tolerance and the matching reconstruction bound per precision.
template <typename T>
constexpr double build_tol = std::is_same_v<real_t<T>, float> ? 1e-5 : 1e-10;
template <typename T>
constexpr double approx_bound =
    std::is_same_v<real_t<T>, float> ? 1e-3 : 1e-8;

TYPED_TEST(HodlrTyped, BuildApproximatesDense) {
  using T = TypeParam;
  for (index_t n : {64, 100, 256}) {
    Matrix<T> a = test::smooth_test_matrix<T>(n, 70 + n);
    ClusterTree tree = ClusterTree::uniform(n, 16);
    BuildOptions opt;
    opt.tol = build_tol<T>;
    HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, opt);
    EXPECT_LE(rel_error(h.to_dense(), a), approx_bound<T>) << "n=" << n;
  }
}

/// The per-level batched apply against the dense reconstruction of the
/// same operator, on a uniform tree, a k-d tree (irregular levels, the
/// gemm_batched path) and a matrix whose level-1 blocks are zero (a rank-0
/// level between ranked ones); plus the uniform case against the input.
TYPED_TEST(HodlrTyped, ApplyMatchesDense) {
  using T = TypeParam;
  const double same_op = std::is_same_v<real_t<T>, float> ? 1e-5 : 1e-13;
  const index_t n = 200, nrhs = 3;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 77);
  BuildOptions opt;
  opt.tol = build_tol<T>;
  Matrix<T> x = random_matrix<T>(n, nrhs, 78);
  const auto check = [&](const Matrix<T>& input, const ClusterTree& tree,
                         const char* what) {
    HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(input, tree, opt);
    Matrix<T> y(n, nrhs), y_ref(n, nrhs);
    h.apply(x, y.view());
    gemm<T>(Op::N, Op::N, T{1}, h.to_dense(), x, T{0}, y_ref.view());
    EXPECT_LE(rel_error(y, y_ref), same_op) << what;
    return std::pair{std::move(h), std::move(y)};
  };

  const ClusterTree uniform = ClusterTree::uniform(n, 32);
  auto [h, y] = check(a, uniform, "uniform tree");
  Matrix<T> y_in(n, nrhs);
  gemm<T>(Op::N, Op::N, T{1}, a, x, T{0}, y_in.view());
  EXPECT_LE(rel_error(y, y_in), approx_bound<T>);

  const ClusterTree kd =
      build_kd_tree(uniform_random_points(n, 2, -1, 1, 79), 24).tree;
  bool irregular = false;
  for (index_t l = 0; l <= kd.depth(); ++l) {
    const index_t first = ClusterTree::level_begin(l);
    for (index_t nu = first; nu < ClusterTree::level_begin(l + 1); ++nu)
      irregular |= kd.node(nu).size() != kd.node(first).size();
  }
  EXPECT_TRUE(irregular) << "the k-d tree must exercise irregular levels";
  check(a, kd, "k-d tree");

  Matrix<T> split = a;
  const ClusterNode& c1 = uniform.node(1);
  const ClusterNode& c2 = uniform.node(2);
  for (index_t j = c2.begin; j < c2.end; ++j)
    for (index_t i = c1.begin; i < c1.end; ++i) split(i, j) = split(j, i) = T{};
  auto [hz, yz] = check(split, uniform, "rank-0 level 1");
  EXPECT_EQ(hz.layout().level_rank[1], 0);
  EXPECT_GT(hz.layout().level_rank[2], 0);
}

TEST(Hodlr, GaussianKernelRanksAreSmall) {
  const index_t n = 512;
  PointSet pts = uniform_random_points(n, 1, -1, 1, 5);
  GeometricTree g = build_kd_tree(pts, 64);
  GaussianKernel<double> k(std::move(g.points), 0.5, 1e-2);
  BuildOptions opt;
  opt.tol = 1e-10;
  HodlrMatrix<double> h = HodlrMatrix<double>::build(k, g.tree, opt);
  // 1-D Gaussian kernel blocks have tiny numerical rank.
  EXPECT_LE(h.max_rank(), 30);
  const auto ladder = h.rank_ladder();
  EXPECT_EQ(static_cast<index_t>(ladder.size()), g.tree.depth());
}

TEST(Hodlr, DepthZeroIsDense) {
  const index_t n = 24;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 80);
  ClusterTree tree = ClusterTree::with_depth(n, 0);
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, {});
  EXPECT_LE(rel_error(h.to_dense(), a), 1e-14);
  EXPECT_EQ(h.max_rank(), 0);
}

TEST(Hodlr, BlockDiagonalHasRankZero) {
  const index_t n = 64;
  Matrix<double> a(n, n);
  for (index_t i = 0; i < n; ++i) a(i, i) = 2.0 + i;
  ClusterTree tree = ClusterTree::uniform(n, 16);
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, {});
  EXPECT_EQ(h.max_rank(), 0);
  EXPECT_LE(rel_error(h.to_dense(), a), 1e-15);
}

TEST(Hodlr, NonPowerOfTwoSizes) {
  for (index_t n : {97, 130, 255}) {
    Matrix<double> a = test::smooth_test_matrix<double>(n, 90 + n);
    ClusterTree tree = ClusterTree::uniform(n, 20);
    BuildOptions opt;
    opt.tol = 1e-10;
    HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, opt);
    EXPECT_LE(rel_error(h.to_dense(), a), 1e-8) << n;
  }
}

TEST(Hodlr, BytesIsPlausible) {
  const index_t n = 256;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 99);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions opt;
  opt.tol = 1e-8;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, opt);
  EXPECT_GT(h.bytes(), 0u);
  EXPECT_LT(h.bytes(), a.bytes());  // compression actually compresses
}

TEST(Hodlr, MismatchedTreeThrows) {
  Matrix<double> a = test::smooth_test_matrix<double>(32, 1);
  ClusterTree tree = ClusterTree::uniform(64, 16);
  EXPECT_THROW(HodlrMatrix<double>::build_from_dense(a, tree, {}), Error);
}

}  // namespace
}  // namespace hodlrx
