#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "batched/batched_blas.hpp"
#include "bie/contour.hpp"
#include "bie/helmholtz.hpp"
#include "bie/laplace.hpp"
#include "common/gemm_kernel.hpp"
#include "core/hodlr.hpp"
#include "lowrank/aca.hpp"
#include "lowrank/id.hpp"
#include "lowrank/recompress.hpp"
#include "lowrank/rsvd.hpp"
#include "test_util.hpp"

namespace hodlrx {
namespace {

using test::rel_error;

template <typename T>
class LowrankTyped : public ::testing::Test {};
using LowrankTypes = ::testing::Types<double, std::complex<double>>;
TYPED_TEST_SUITE(LowrankTyped, LowrankTypes);

TYPED_TEST(LowrankTyped, AcaReachesTolerance) {
  using T = TypeParam;
  // Off-diagonal block of a smooth kernel: numerically low rank.
  Matrix<T> full = test::smooth_test_matrix<T>(200, 9);
  DenseGenerator<T> g(to_matrix(full.view()));
  AcaOptions opt;
  opt.tol = 1e-10;
  AcaResult<T> res = aca<T>(g, 0, 100, 100, 100, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.factor.rank(), 60);
  Matrix<T> rec = res.factor.reconstruct();
  Matrix<T> blk = to_matrix(full.view().block(0, 100, 100, 100));
  EXPECT_LE(rel_error(rec, blk), 1e-8);
}

TYPED_TEST(LowrankTyped, AcaExactRankMatrix) {
  using T = TypeParam;
  const index_t m = 50, n = 40, r = 4;
  Matrix<T> u = random_matrix<T>(m, r, 1);
  Matrix<T> v = random_matrix<T>(n, r, 2);
  Matrix<T> a(m, n);
  gemm<T>(Op::N, Op::C, T{1}, u, v, T{0}, a.view());
  DenseGenerator<T> g(to_matrix(a.view()));
  AcaOptions opt;
  opt.tol = 1e-12;
  AcaResult<T> res = aca<T>(g, 0, 0, m, n, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.factor.rank(), r + 2);
  EXPECT_LE(rel_error(res.factor.reconstruct(), a), 1e-10);
}

/// T's single-precision counterpart. The typed ACA tests below run T and
/// this type, so they cover all four scalar types.
template <typename T>
using SinglePrecision =
    std::conditional_t<is_complex_v<T>, std::complex<float>, float>;

/// A block whose exact rank exceeds twice the initial panel capacity, so
/// the cross panels grow at least twice (from empty: the thread's panels are
/// released first). A second call reuses the grown panels and must give the
/// same bits.
template <typename T>
void expect_aca_panels_grow() {
  using R = real_t<T>;
  constexpr bool kSingle = std::is_same_v<R, float>;
  const index_t m = 90, n = 80, r = 2 * kAcaInitialCrosses + 5;
  Matrix<T> u = random_matrix<T>(m, r, 61);
  Matrix<T> v = random_matrix<T>(n, r, 62);
  Matrix<T> a(m, n);
  gemm<T>(Op::N, Op::C, T{1}, u, v, T{0}, a.view());
  DenseGenerator<T> g(to_matrix(a.view()));
  AcaOptions opt;
  opt.tol = kSingle ? 1e-5 : 1e-12;
  aca_release_panels();
  const AcaResult<T> res = aca<T>(g, 0, 0, m, n, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.factor.rank(), r);
  EXPECT_LE(res.factor.rank(), r + 2);
  EXPECT_LE(rel_error(res.factor.reconstruct(), a), kSingle ? 1e-4 : 1e-10);
  const AcaResult<T> again = aca<T>(g, 0, 0, m, n, opt);
  ASSERT_EQ(again.factor.rank(), res.factor.rank());
  EXPECT_EQ(std::memcmp(again.factor.u.data(), res.factor.u.data(),
                        res.factor.u.bytes()),
            0);
  EXPECT_EQ(std::memcmp(again.factor.v.data(), res.factor.v.data(),
                        res.factor.v.bytes()),
            0);
}

TYPED_TEST(LowrankTyped, AcaPanelsGrowPastInitialCapacity) {
  expect_aca_panels_grow<TypeParam>();
  expect_aca_panels_grow<SinglePrecision<TypeParam>>();
}

/// A = x y^T with x_0 = 1 the unique largest |x_i|, and |y_3| = |y_7| = 2
/// the largest |y_j|: the first pivot row (row 0 = y) ties at columns 3 and
/// 7, and the lower index must win. The first cross's u is then the
/// residual of column 3, which is A(:, 3) itself.
template <typename T>
void expect_aca_tie_takes_lowest_index() {
  const index_t m = 40, n = 24;
  std::vector<T> x(m), y(n);
  for (index_t i = 0; i < m; ++i) x[i] = T(1) / T(static_cast<float>(1 + i));
  for (index_t j = 0; j < n; ++j) y[j] = T(0.25f + 0.01f * static_cast<float>(j));
  y[3] = T(2);
  if constexpr (is_complex_v<T>)
    y[7] = T(0, 2);
  else
    y[7] = T(-2);
  Matrix<T> a(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) a(i, j) = x[i] * y[j];
  DenseGenerator<T> g(to_matrix(a.view()));
  const AcaResult<T> res = aca<T>(g, 0, 0, m, n, AcaOptions{});
  ASSERT_GE(res.factor.rank(), 1);
  for (index_t i = 0; i < m; ++i)
    ASSERT_EQ(res.factor.u(i, 0), a(i, 3)) << "row " << i;
}

TYPED_TEST(LowrankTyped, AcaPivotTieTakesLowestIndex) {
  expect_aca_tie_takes_lowest_index<TypeParam>();
  expect_aca_tie_takes_lowest_index<SinglePrecision<TypeParam>>();
}

/// A NaN or Inf column in an off-diagonal block must end the cross search
/// as a stall, never as convergence: aca() reports it, build() throws under
/// kThrow and counts it under kRecover. The recovery rung must not report
/// the block as healed: it counts the block's non-finite entries and skips
/// the rsvd retry.
template <typename T>
void expect_aca_nonfinite_stalls(real_t<T> bad) {
  const index_t n = 256;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 5);
  for (index_t i = 0; i < n; ++i) a(i, 128) = T(bad);
  DenseGenerator<T> g(std::move(a));
  const AcaResult<T> res = aca<T>(g, 0, 128, 128, 128, AcaOptions{});
  EXPECT_TRUE(res.stalled);
  EXPECT_FALSE(res.converged);

  const ClusterTree tree = ClusterTree::with_depth(n, 1);
  BuildOptions bopt;
  bopt.on_breakdown = OnBreakdown::kThrow;
  EXPECT_THROW(HodlrMatrix<T>::build(g, tree, bopt), std::exception);
  bopt.on_breakdown = OnBreakdown::kRecover;
  FactorReport rep;
  EXPECT_NO_THROW(HodlrMatrix<T>::build(g, tree, bopt, &rep));
  EXPECT_GE(rep.aca_stalls, 1);
  EXPECT_GE(rep.nonfinite_values, 1);
  EXPECT_EQ(rep.aca_retries, 0);
}

TYPED_TEST(LowrankTyped, AcaNonFiniteColumnStalls) {
  using T = TypeParam;
  using S = SinglePrecision<T>;
  expect_aca_nonfinite_stalls<T>(std::numeric_limits<real_t<T>>::quiet_NaN());
  expect_aca_nonfinite_stalls<T>(std::numeric_limits<real_t<T>>::infinity());
  expect_aca_nonfinite_stalls<S>(std::numeric_limits<real_t<S>>::quiet_NaN());
  expect_aca_nonfinite_stalls<S>(-std::numeric_limits<real_t<S>>::infinity());
}

TEST(Aca, ZeroBlockGivesRankZero) {
  Matrix<double> a(30, 20);
  DenseGenerator<double> g(std::move(a));
  AcaOptions opt;
  AcaResult<double> res = aca<double>(g, 0, 0, 30, 20, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.factor.rank(), 0);
}

TEST(Aca, MaxRankCapReported) {
  // A well-conditioned random matrix is NOT low rank; the cap must trip.
  Matrix<double> a = random_matrix<double>(40, 40, 3);
  DenseGenerator<double> g(std::move(a));
  AcaOptions opt;
  opt.tol = 1e-14;
  opt.max_rank = 5;
  AcaResult<double> res = aca<double>(g, 0, 0, 40, 40, opt);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.factor.rank(), 5);
}

TEST(Aca, SingleRowColumn) {
  Matrix<double> a = random_matrix<double>(1, 17, 4);
  DenseGenerator<double> g(to_matrix(a.view()));
  AcaOptions opt;
  AcaResult<double> res = aca<double>(g, 0, 0, 1, 17, opt);
  EXPECT_LE(rel_error(res.factor.reconstruct(), a), 1e-13);
}

TYPED_TEST(LowrankTyped, RsvdMatchesTruncatedSvd) {
  using T = TypeParam;
  using R = real_t<T>;
  // Compare against the OPTIMAL rank-k truncation from a full SVD: the
  // randomized sketch with power iterations must come within a small factor.
  const index_t n = 60, k = 12;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 13);
  SVDResult<T> svd = jacobi_svd<T>(a);
  Matrix<T> uk = to_matrix(svd.u.view().block(0, 0, n, k));
  for (index_t j = 0; j < k; ++j)
    scale_inplace(T{svd.s[j]}, uk.view().block(0, j, n, 1));
  Matrix<T> best(n, n);
  gemm<T>(Op::N, Op::C, T{1}, uk, svd.v.view().block(0, 0, n, k), T{0},
          best.view());
  const R best_err = rel_error(best, a);

  RsvdOptions opt;
  opt.rank = k;
  opt.power_iterations = 2;
  LowRankFactor<T> lr = rsvd<T>(a, opt);
  EXPECT_EQ(lr.rank(), k);
  EXPECT_LE(rel_error(lr.reconstruct(), a), 3 * best_err + R(1e-12));
}

TYPED_TEST(LowrankTyped, RsvdTolTruncation) {
  using T = TypeParam;
  const index_t m = 50, r = 6;
  Matrix<T> u = random_matrix<T>(m, r, 21);
  Matrix<T> v = random_matrix<T>(m, r, 22);
  Matrix<T> a(m, m);
  gemm<T>(Op::N, Op::C, T{1}, u, v, T{0}, a.view());
  RsvdOptions opt;
  opt.rank = 20;
  opt.tol = 1e-10;
  opt.power_iterations = 2;
  LowRankFactor<T> lr = rsvd<T>(a, opt);
  EXPECT_EQ(lr.rank(), r);
}

TYPED_TEST(LowrankTyped, RsvdStridedBatchedSharedSketchPackOnce) {
  using T = TypeParam;
  // Five m x n rank-r blocks laid out side by side (stride m*n, lda = m).
  const index_t m = 60, n = 60, r = 6, batch = 5;
  Matrix<T> big(m, n * batch);
  for (index_t i = 0; i < batch; ++i) {
    Matrix<T> u = random_matrix<T>(m, r, 700 + i);
    Matrix<T> v = random_matrix<T>(n, r, 800 + i);
    gemm<T>(Op::N, Op::C, T{1}, u, v, T{0},
            big.view().block(0, i * n, m, n));
  }
  RsvdOptions opt;
  opt.rank = 10;
  opt.tol = 1e-10;
  opt.power_iterations = 2;
  gemm_stats::reset();
  qr_stats::reset();
  svd_stats::reset();
  auto factors =
      rsvd_strided_batched<T>(big.data(), m, m * n, m, n, batch, opt);
  // The WHOLE sweep sketches against ONE shared Gaussian matrix: exactly one
  // full pack for the launch, zero per-problem packs of the shared operand.
  EXPECT_EQ(gemm_stats::shared_packs(), 1u)
      << "batched rsvd must hit the stride-0 pack-once fast path";
  // And the QR tail is batched, not per-block pool tasks: one orthonormalize
  // after the sketch plus two per power iteration, each one geqrf sweep and
  // one thin-Q sweep.
  const auto sweeps = static_cast<std::uint64_t>(1 + 2 * opt.power_iterations);
  EXPECT_EQ(qr_stats::geqrf_batched_sweeps(), sweeps)
      << "the rsvd QR tail must issue batched geqrf launches";
  EXPECT_EQ(qr_stats::thin_q_batched_sweeps(), sweeps);
  // PR 4: the SVD/truncation tail is batched too — ZERO per-block pool
  // tasks anywhere in the sweep.
  EXPECT_EQ(svd_stats::batched_sweeps(), 1u)
      << "the truncation tail must run through the batched Jacobi engine";
  EXPECT_EQ(svd_stats::serial_svds(), 0u)
      << "the batched rsvd sweep must perform zero per-block SVD tasks";
  ASSERT_EQ(factors.size(), static_cast<std::size_t>(batch));
  for (index_t i = 0; i < batch; ++i) {
    EXPECT_EQ(factors[i].rank(), r) << "problem " << i;
    EXPECT_LE(rel_error<T>(factors[i].reconstruct().view(),
                           big.block(0, i * n, m, n)),
              1e-8)
        << "problem " << i;
  }
}

TYPED_TEST(LowrankTyped, HodlrBuildFromDenseRsvdBatched) {
  using T = TypeParam;
  const index_t n = 256, depth = 3;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 17);
  ClusterTree tree = ClusterTree::with_depth(n, depth);
  BuildOptions opt;
  opt.compressor = Compressor::kRsvdBatched;
  opt.max_rank = 64;
  opt.tol = 1e-10;
  opt.rsvd_power_iterations = 2;
  gemm_stats::reset();
  svd_stats::reset();
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a.view(), tree, opt);
  // Levels 2 and 3 have >= 2 sibling pairs, so each of their two sweeps
  // (upper/lower blocks) packs the shared Gaussian exactly once; level 1 is
  // a batch of one and takes the ordinary path. 2 levels x 2 sweeps = 4.
  EXPECT_EQ(gemm_stats::shared_packs(), 4u)
      << "uniform-level sweeps must each pack their shared sketch once";
  // End-to-end contract of the batched compressor: every sweep's SVD tail
  // is a batched launch sequence and NO block ever falls back to a serial
  // per-block jacobi_svd pool task. 3 levels x 2 sweeps = 6.
  EXPECT_EQ(svd_stats::batched_sweeps(), 6u);
  EXPECT_EQ(svd_stats::serial_svds(), 0u)
      << "kRsvdBatched must perform zero per-block SVD pool tasks";
  EXPECT_LE(rel_error<T>(h.to_dense().view(), a.view()), 1e-7);
}

TEST(RsvdStridedBatched, DegenerateShapes) {
  RsvdOptions opt;
  opt.rank = 4;
  auto empty = rsvd_strided_batched<double>(nullptr, 0, 0, 0, 0, 3, opt);
  ASSERT_EQ(empty.size(), 3u);
  for (const auto& f : empty) EXPECT_EQ(f.rank(), 0);
  EXPECT_TRUE(rsvd_strided_batched<double>(nullptr, 0, 0, 0, 0, 0, opt)
                  .empty());
}

TYPED_TEST(LowrankTyped, RecompressReducesRankKeepsProduct) {
  using T = TypeParam;
  const index_t m = 64, n = 48, true_r = 5, padded_r = 20;
  Matrix<T> u0 = random_matrix<T>(m, true_r, 31);
  Matrix<T> v0 = random_matrix<T>(n, true_r, 32);
  // Inflate to rank 20 with redundant columns.
  LowRankFactor<T> lr;
  lr.u = Matrix<T>(m, padded_r);
  lr.v = Matrix<T>(n, padded_r);
  // Duplicate columns: U = [u0 u0 u0 u0], V = [v0 v0 v0 v0] / 4 keeps the
  // product equal to u0 v0^H while inflating the stored rank.
  for (index_t c = 0; c < padded_r; ++c) {
    const index_t src = c % true_r;
    copy<T>(u0.view().block(0, src, m, 1), lr.u.view().block(0, c, m, 1));
    copy<T>(v0.view().block(0, src, n, 1), lr.v.view().block(0, c, n, 1));
  }
  const T scale = T{1} / T{static_cast<real_t<T>>(padded_r / true_r)};
  scale_inplace(scale, lr.v.view());
  Matrix<T> before = lr.reconstruct();
  const std::uint64_t fallbacks0 = qr_stats::cholesky_fallbacks();
  const index_t new_rank = recompress(lr, real_t<T>(1e-12));
  EXPECT_EQ(new_rank, true_r);
  EXPECT_LE(rel_error(lr.reconstruct(), before), 1e-10);
  EXPECT_EQ(qr_stats::cholesky_fallbacks(), fallbacks0 + 1)
      << "duplicated columns must break the Gram Cholesky and take the "
         "Householder rung";
}

/// Differential test of the Gram/Cholesky kernel against the Householder
/// rung on the factors the build actually recompresses: ACA factors of the
/// off-diagonal blocks of levels 1-3 of a BIE operator. Same ranks,
/// reconstructions within 1e-10, and no block may fall back.
template <typename T>
void expect_gram_matches_householder(const MatrixGenerator<T>& g) {
  const ClusterTree tree = ClusterTree::uniform(g.rows(), 64);
  const real_t<T> tol(1e-12);
  const std::uint64_t fallbacks0 = qr_stats::cholesky_fallbacks();
  index_t blocks = 0;
  for (index_t level = 1; level <= 3; ++level) {
    for (LowRankFactor<T>& gram : test::aca_level<T>(g, tree, level)) {
      LowRankFactor<T> hh{to_matrix(gram.u.view()), to_matrix(gram.v.view())};
      const index_t kg = recompress<T>(gram, tol);
      const index_t kh = detail::recompress_householder<T>(hh, tol);
      EXPECT_EQ(kg, kh) << "level " << level;
      EXPECT_LE(rel_error(gram.reconstruct(), hh.reconstruct()), 1e-10)
          << "level " << level;
      ++blocks;
    }
  }
  EXPECT_EQ(blocks, 14);
  EXPECT_EQ(qr_stats::cholesky_fallbacks(), fallbacks0)
      << "well-conditioned ACA factors must stay on the Gram path";
}

TEST(Recompress, GramMatchesHouseholderLaplaceBie) {
  const bie::BlobContour contour;
  expect_gram_matches_householder<double>(bie::LaplaceExteriorBIE<double>(
      bie::discretize(contour, 2048), {0.0, 0.0}));
}

TEST(Recompress, GramMatchesHouseholderHelmholtzBie) {
  const bie::BlobContour contour;
  expect_gram_matches_householder<std::complex<double>>(
      bie::HelmholtzCombinedBIE<std::complex<double>>(
          bie::discretize(contour, 1024), 20.0, 20.0, 6));
}

TEST(Recompress, RankZeroPassthrough) {
  LowRankFactor<double> lr;
  lr.u = Matrix<double>(10, 0);
  lr.v = Matrix<double>(8, 0);
  EXPECT_EQ(recompress(lr, 1e-10), 0);
}

TYPED_TEST(LowrankTyped, ColumnIdReconstructs) {
  using T = TypeParam;
  const index_t m = 40, n = 30, r = 6;
  Matrix<T> u = random_matrix<T>(m, r, 41);
  Matrix<T> v = random_matrix<T>(n, r, 42);
  Matrix<T> a(m, n);
  gemm<T>(Op::N, Op::C, T{1}, u, v, T{0}, a.view());
  ColumnID<T> cid = column_id<T>(a, real_t<T>(1e-10), -1);
  EXPECT_EQ(static_cast<index_t>(cid.skeleton.size()), r);
  // A ~= A(:, skel) * interp.
  Matrix<T> askel(m, r);
  for (index_t c = 0; c < r; ++c)
    copy<T>(a.view().block(0, cid.skeleton[c], m, 1),
            askel.view().block(0, c, m, 1));
  Matrix<T> rec(m, n);
  gemm<T>(Op::N, Op::N, T{1}, askel, cid.interp, T{0}, rec.view());
  EXPECT_LE(rel_error(rec, a), 1e-9);
}

TYPED_TEST(LowrankTyped, RowIdReconstructs) {
  using T = TypeParam;
  const index_t m = 35, n = 45, r = 5;
  Matrix<T> u = random_matrix<T>(m, r, 51);
  Matrix<T> v = random_matrix<T>(n, r, 52);
  Matrix<T> a(m, n);
  gemm<T>(Op::N, Op::C, T{1}, u, v, T{0}, a.view());
  RowID<T> rid = row_id<T>(a, real_t<T>(1e-10), -1);
  EXPECT_EQ(static_cast<index_t>(rid.skeleton.size()), r);
  Matrix<T> askel(r, n);
  for (index_t c = 0; c < r; ++c)
    for (index_t j = 0; j < n; ++j) askel(c, j) = a(rid.skeleton[c], j);
  Matrix<T> rec(m, n);
  gemm<T>(Op::N, Op::N, T{1}, rid.interp, askel, T{0}, rec.view());
  EXPECT_LE(rel_error(rec, a), 1e-9);
}

}  // namespace
}  // namespace hodlrx
