#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "batched/batch_kernels.hpp"
#include "common/blocking.hpp"
#include "common/gemm_kernel.hpp"
#include "core/factorization.hpp"
#include "kernels/kernels.hpp"
#include "test_util.hpp"

namespace hodlrx {
namespace {

using test::rel_error;

struct FactorCase {
  index_t n;
  index_t leaf;
  ExecMode mode;
};

std::string case_name(const ::testing::TestParamInfo<FactorCase>& info) {
  const FactorCase& c = info.param;
  std::string s = "n" + std::to_string(c.n) + "_leaf" + std::to_string(c.leaf);
  s += c.mode == ExecMode::kSerial ? "_serial" : "_batched";
  return s;
}

class FactorizationSweep : public ::testing::TestWithParam<FactorCase> {};

TEST_P(FactorizationSweep, SolveMatchesDense) {
  const FactorCase& c = GetParam();
  using T = double;
  Matrix<T> a = test::smooth_test_matrix<T>(c.n, 7 + c.n);
  ClusterTree tree = ClusterTree::uniform(c.n, c.leaf);
  BuildOptions bopt;
  bopt.tol = 1e-12;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
  PackedHodlr<T> p = PackedHodlr<T>::pack(h);

  FactorOptions fopt;
  fopt.mode = c.mode;
  HodlrFactorization<T> f = HodlrFactorization<T>::factor(p, fopt);

  Matrix<T> b = random_matrix<T>(c.n, 4, 17 + c.n);
  Matrix<T> x = f.solve(b);
  // Residual against the dense matrix (compression 1e-12 dominates).
  EXPECT_LE(test::dense_relres<T>(a, x, b), 1e-8) << case_name({GetParam(), 0});
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, FactorizationSweep,
    ::testing::Values(
        FactorCase{64, 16, ExecMode::kSerial},
        FactorCase{64, 16, ExecMode::kBatched},
        FactorCase{100, 12, ExecMode::kSerial},
        FactorCase{100, 12, ExecMode::kBatched},
        FactorCase{256, 16, ExecMode::kSerial},
        FactorCase{256, 16, ExecMode::kBatched},
        FactorCase{256, 32, ExecMode::kBatched},
        FactorCase{255, 20, ExecMode::kSerial},
        FactorCase{255, 20, ExecMode::kBatched},
        FactorCase{512, 64, ExecMode::kBatched}),
    case_name);

template <typename T>
class FactorTyped : public ::testing::Test {};
using FactorTypes = ::testing::Types<float, double, std::complex<float>,
                                     std::complex<double>>;
TYPED_TEST_SUITE(FactorTyped, FactorTypes);

TYPED_TEST(FactorTyped, AllScalarTypes) {
  using T = TypeParam;
  using R = real_t<T>;
  const index_t n = 192;
  const double tol = std::is_same_v<R, float> ? 1e-5 : 1e-11;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 23);
  ClusterTree tree = ClusterTree::uniform(n, 24);
  BuildOptions bopt;
  bopt.tol = tol;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
  PackedHodlr<T> p = PackedHodlr<T>::pack(h);
  for (ExecMode mode : {ExecMode::kSerial, ExecMode::kBatched}) {
    FactorOptions fopt;
    fopt.mode = mode;
    HodlrFactorization<T> f = HodlrFactorization<T>::factor(p, fopt);
    Matrix<T> b = random_matrix<T>(n, 2, 29);
    Matrix<T> x = f.solve(b);
    EXPECT_LE(test::dense_relres<T>(a, x, b),
              R(std::is_same_v<R, float> ? 2e-3 : 1e-8));
  }
}

TEST(Factorization, SerialAndBatchedProduceSameSolution) {
  using T = double;
  const index_t n = 300;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 31);
  ClusterTree tree = ClusterTree::uniform(n, 25);
  BuildOptions bopt;
  bopt.tol = 1e-11;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
  PackedHodlr<T> p = PackedHodlr<T>::pack(h);

  FactorOptions so;
  so.mode = ExecMode::kSerial;
  FactorOptions bo;
  bo.mode = ExecMode::kBatched;
  HodlrFactorization<T> fs = HodlrFactorization<T>::factor(p, so);
  HodlrFactorization<T> fb = HodlrFactorization<T>::factor(p, bo);
  Matrix<T> b = random_matrix<T>(n, 3, 37);
  Matrix<T> xs = fs.solve(b);
  Matrix<T> xb = fb.solve(b);
  // Same algorithm, same data, different execution engines: results agree
  // to roundoff accumulation.
  EXPECT_LE(rel_error(xs, xb), 1e-12);
}

TEST(Factorization, MultiRhsMatchesSingleRhs) {
  using T = double;
  const index_t n = 160, nrhs = 7;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 41);
  ClusterTree tree = ClusterTree::uniform(n, 16);
  BuildOptions bopt;
  bopt.tol = 1e-11;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
  HodlrFactorization<T> f =
      HodlrFactorization<T>::factor(PackedHodlr<T>::pack(h), {});
  Matrix<T> b = random_matrix<T>(n, nrhs, 43);
  Matrix<T> x_all = f.solve(b);
  for (index_t j = 0; j < nrhs; ++j) {
    Matrix<T> xj = f.solve(b.view().block(0, j, n, 1));
    EXPECT_LE(rel_error<T>(xj.view(), x_all.view().block(0, j, n, 1)), 1e-13);
  }
}

TEST(Factorization, DepthZeroDegeneratesToDenseLU) {
  using T = double;
  const index_t n = 48;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 51);
  ClusterTree tree = ClusterTree::with_depth(n, 0);
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, {});
  for (ExecMode mode : {ExecMode::kSerial, ExecMode::kBatched}) {
    FactorOptions fopt;
    fopt.mode = mode;
    HodlrFactorization<T> f =
        HodlrFactorization<T>::factor(PackedHodlr<T>::pack(h), fopt);
    Matrix<T> b = random_matrix<T>(n, 2, 53);
    Matrix<T> x = f.solve(b);
    EXPECT_LE(test::dense_relres<T>(a, x, b), 1e-12);
  }
}

TEST(Factorization, BlockDiagonalRankZeroLevels) {
  using T = double;
  const index_t n = 128;
  Matrix<T> a(n, n);
  for (index_t i = 0; i < n; ++i) a(i, i) = 3.0 + 0.01 * i;
  // Add dense diagonal leaf blocks so leaves are nontrivial.
  ClusterTree tree = ClusterTree::uniform(n, 16);
  for (index_t j = 0; j < tree.num_leaves(); ++j) {
    const ClusterNode& c = tree.node(tree.leaf(j));
    for (index_t jj = c.begin; jj < c.end; ++jj)
      for (index_t ii = c.begin; ii < c.end; ++ii)
        a(ii, jj) += 0.1 / (1.0 + std::abs(ii - jj));
  }
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, {});
  EXPECT_EQ(h.max_rank(), 0);
  for (ExecMode mode : {ExecMode::kSerial, ExecMode::kBatched}) {
    FactorOptions fopt;
    fopt.mode = mode;
    HodlrFactorization<T> f =
        HodlrFactorization<T>::factor(PackedHodlr<T>::pack(h), fopt);
    Matrix<T> b = random_matrix<T>(n, 1, 59);
    Matrix<T> x = f.solve(b);
    EXPECT_LE(test::dense_relres<T>(a, x, b), 1e-13);
  }
}

TEST(Factorization, MemoryBytesTracked) {
  using T = double;
  const index_t n = 256;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 71);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, {});
  PackedHodlr<T> p = PackedHodlr<T>::pack(h);
  DeviceContext::global().reset_counters();
  {
    HodlrFactorization<T> f = HodlrFactorization<T>::factor(p, {});
    EXPECT_GT(f.bytes(), 0u);
    // V is the operator's (counted by h.bytes()), but the modeled device
    // footprint still holds it next to the factorization's own storage.
    EXPECT_EQ(f.device_bytes(), f.bytes() + h.panels()->vbig.bytes());
    EXPECT_EQ(DeviceContext::global().live_bytes(), f.device_bytes());
    EXPECT_GE(DeviceContext::global().h2d_bytes(), p.bytes());
  }
  EXPECT_EQ(DeviceContext::global().live_bytes(), 0u);
}

/// The factorization reads V in place (its V pointer is the HodlrMatrix's)
/// and co-owns the panels: made from a temporary pack of a HodlrMatrix that
/// is then destroyed, it solves bit-identically to one whose HodlrMatrix is
/// still alive, on both engines.
TEST(Factorization, OutlivesItsHodlrMatrix) {
  using T = double;
  const index_t n = 300;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 79);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions bopt;
  bopt.tol = 1e-11;
  const HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
  Matrix<T> b = random_matrix<T>(n, 2, 83);
  for (ExecMode mode : {ExecMode::kSerial, ExecMode::kBatched}) {
    FactorOptions fopt;
    fopt.mode = mode;
    const auto f_ref =
        HodlrFactorization<T>::factor(PackedHodlr<T>::pack(h), fopt);
    EXPECT_EQ(f_ref.vbig().data, h.vbig().data);
    auto owner = std::make_unique<HodlrMatrix<T>>(
        HodlrMatrix<T>::build_from_dense(a, tree, bopt));
    const auto f =
        HodlrFactorization<T>::factor(PackedHodlr<T>::pack(*owner), fopt);
    EXPECT_EQ(f.vbig().data, owner->vbig().data);
    owner.reset();
    const Matrix<T> x = f.solve(b);
    const Matrix<T> x_ref = f_ref.solve(b);
    EXPECT_EQ(std::memcmp(x.data(), x_ref.data(), x.bytes()), 0);
  }
}

/// Regression for the ld-aware uniform fast path of run_solve_batched: a
/// submatrix RHS view (x.ld > x.rows) must produce the same solution as a
/// contiguous RHS AND stay on the uniform strided launches. Before the fix
/// an `x.ld == x.rows` condition silently dropped such views to the
/// per-block gemm_batched fallback. Both paths issue the same launches, so
/// the test watches the across-batch small-GEMM tail, which only
/// gemm_strided_batched runs: with four lanes and level ranks capped at the
/// compact tile's MR (4 for double), the w = V^H x launches of the levels
/// with at least four children take it.
TEST(Factorization, StridedRhsViewStaysOnUniformFastPath) {
  using T = double;
  const index_t n = 256, nrhs = 3;
  {
    test::ScopedEnv width("HODLRX_BATCH_SIMD", "4");
    blocking_detail::refresh_for_testing();
    Matrix<T> a = test::smooth_test_matrix<T>(n, 83);
    ClusterTree tree = ClusterTree::uniform(n, 32);
    BuildOptions bopt;
    bopt.tol = 1e-6;
    bopt.max_rank = GemmTiles<T>::kCompact.mr;
    HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
    HodlrFactorization<T> f =
        HodlrFactorization<T>::factor(PackedHodlr<T>::pack(h), {});
    Matrix<T> b = random_matrix<T>(n, nrhs, 89);

    Matrix<T> xc = to_matrix(b.view());
    batch_simd_stats::reset();
    f.solve_inplace(xc.view());
    const std::uint64_t contiguous_groups = batch_simd_stats::gemm_groups();

    // The same RHS inside a larger buffer: n rows at offset 5, ld = n + 13.
    Matrix<T> big(n + 13, nrhs + 2);
    MatrixView<T> xs = big.block(5, 1, n, nrhs);
    copy<T>(b.view(), xs);
    batch_simd_stats::reset();
    f.solve_inplace(xs);
    const std::uint64_t strided_groups = batch_simd_stats::gemm_groups();

    EXPECT_LE(rel_error<T>(ConstMatrixView<T>(xs), xc.view()), 1e-13);
    EXPECT_GT(contiguous_groups, 0u);
    EXPECT_EQ(strided_groups, contiguous_groups)
        << "a submatrix RHS view must stay on the uniform strided fast path";
  }
  blocking_detail::refresh_for_testing();
}

/// A 1-RHS solve and a 1-column apply are matrix-vector products at every
/// level. The top levels here are large enough (r * s >= 16384) for the
/// packed engine's size cutoff, yet none of their products may pack: the
/// GEMV kernel reads V and Y once, where packing would copy them first.
TEST(Factorization, OneRhsSolveAndApplyNeverPack) {
  const index_t n = 8192;
  GeometricTree g = build_kd_tree(uniform_random_points(n, 1, -1, 1, 11), 64);
  GaussianKernel<double> k(std::move(g.points), 0.5, 1e-2);
  BuildOptions bopt;
  bopt.tol = 1e-10;
  HodlrMatrix<double> h = HodlrMatrix<double>::build(k, g.tree, bopt);
  const index_t s1 = g.tree.node(ClusterTree::level_begin(1)).size();
  ASSERT_GE(h.layout().level_rank[1] * s1, 16384);
  HodlrFactorization<double> f =
      HodlrFactorization<double>::factor(PackedHodlr<double>::pack(h), {});
  Matrix<double> b = random_matrix<double>(n, 1, 12);
  Matrix<double> x = to_matrix(b.view());
  Matrix<double> ax(n, 1);

  gemm_stats::reset();
  f.solve_inplace(x.view());
  h.apply(x, ax.view());
  EXPECT_EQ(gemm_stats::a_packs(), 0u);
  EXPECT_EQ(gemm_stats::b_packs(), 0u);
  EXPECT_LE(rel_error(ax, b), 1e-8);
}

TEST(Factorization, WrongRhsSizeThrows) {
  using T = double;
  const index_t n = 64;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 73);
  ClusterTree tree = ClusterTree::uniform(n, 16);
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, {});
  HodlrFactorization<T> f =
      HodlrFactorization<T>::factor(PackedHodlr<T>::pack(h), {});
  Matrix<T> b(n + 1, 1);
  EXPECT_THROW(f.solve_inplace(b.view()), Error);
}

}  // namespace
}  // namespace hodlrx
