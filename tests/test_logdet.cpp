#include <gtest/gtest.h>

#include "common/lapack.hpp"
#include "core/factorization.hpp"
#include "test_util.hpp"

namespace hodlrx {
namespace {

/// Reference log|det| and phase from a dense LU.
template <typename T>
std::pair<real_t<T>, T> dense_logdet(const Matrix<T>& a) {
  Matrix<T> lu = to_matrix(a.view());
  std::vector<index_t> ipiv(a.rows());
  getrf(lu.view(), ipiv.data());
  real_t<T> log_abs = 0;
  T phase = T{1};
  for (index_t k = 0; k < a.rows(); ++k) {
    const T u = lu(k, k);
    log_abs += std::log(abs_s(u));
    phase *= u / T{abs_s(u)};
    if (ipiv[k] != k) phase = -phase;
  }
  return {log_abs, phase};
}

template <typename T>
void check_logdet(index_t n, index_t leaf, ExecMode mode, double tol) {
  Matrix<T> a = test::smooth_test_matrix<T>(n, 101 + n);
  ClusterTree tree = ClusterTree::uniform(n, leaf);
  BuildOptions bopt;
  bopt.tol = 1e-12;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
  // Compare against the determinant of the COMPRESSED matrix (exact match
  // modulo roundoff), not the original.
  Matrix<T> ad = h.to_dense();
  auto [ref_log, ref_phase] = dense_logdet(ad);

  FactorOptions fopt;
  fopt.mode = mode;
  auto f = HodlrFactorization<T>::factor(PackedHodlr<T>::pack(h), fopt);
  auto ld = f.logdet();
  EXPECT_NEAR(ld.log_abs, ref_log, tol * std::abs(ref_log) + tol);
  EXPECT_LE(abs_s(ld.phase - ref_phase), 1e-6);
}

TEST(LogDet, MatchesDensePivoted) {
  check_logdet<double>(96, 12, ExecMode::kSerial, 1e-10);
  check_logdet<double>(200, 25, ExecMode::kBatched, 1e-10);
  check_logdet<double>(256, 16, ExecMode::kBatched, 1e-10);
}

TEST(LogDet, ComplexPhase) {
  check_logdet<std::complex<double>>(128, 16, ExecMode::kBatched, 1e-9);
  check_logdet<std::complex<double>>(100, 14, ExecMode::kSerial, 1e-9);
}

TEST(LogDet, NegativeDeterminantSign) {
  // Force a negative determinant: flip the sign of one row of a smooth
  // SPD-ish matrix (odd permutation-like change).
  const index_t n = 64;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 131);
  for (index_t j = 0; j < n; ++j) a(3, j) = -a(3, j);
  ClusterTree tree = ClusterTree::uniform(n, 16);
  BuildOptions bopt;
  bopt.tol = 1e-12;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, bopt);
  auto [ref_log, ref_phase] = dense_logdet(h.to_dense());
  EXPECT_LT(ref_phase, 0);  // sanity: determinant really is negative
  auto f = HodlrFactorization<double>::factor(PackedHodlr<double>::pack(h), {});
  auto ld = f.logdet();
  EXPECT_NEAR(ld.phase, ref_phase, 1e-9);
  EXPECT_NEAR(ld.log_abs, ref_log, 1e-8);
}

TEST(LogDet, GaussianProcessScale) {
  // logdet of a GP covariance: positive-definite, so phase must be +1.
  const index_t n = 256;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 137);
  // Symmetrize to make it a plausible covariance.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < j; ++i) a(i, j) = a(j, i);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions bopt;
  bopt.tol = 1e-12;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, bopt);
  auto f = HodlrFactorization<double>::factor(PackedHodlr<double>::pack(h), {});
  auto ld = f.logdet();
  auto [ref_log, ref_phase] = dense_logdet(h.to_dense());
  EXPECT_NEAR(ld.phase, 1.0, 1e-9);
  EXPECT_NEAR(ref_phase, 1.0, 1e-9);
  EXPECT_NEAR(ld.log_abs, ref_log, 1e-8 * std::abs(ref_log));
}

}  // namespace
}  // namespace hodlrx
