#include <gtest/gtest.h>

#include "common/lapack.hpp"
#include "reference/lapack_reference.hpp"
#include "test_util.hpp"

namespace hodlrx {
namespace {

using test::rel_error;

template <typename T>
class LapackTyped : public ::testing::Test {};
using LapackTypes = ::testing::Types<float, double, std::complex<float>,
                                     std::complex<double>>;
TYPED_TEST_SUITE(LapackTyped, LapackTypes);

/// Reconstruct P*L*U from getrf output and compare with the original.
template <typename T>
void check_lu_reconstruction(const Matrix<T>& a0, const Matrix<T>& lu,
                             const std::vector<index_t>& ipiv) {
  const index_t n = a0.rows();
  Matrix<T> l = Matrix<T>::identity(n);
  Matrix<T> u(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j + 1; i < n; ++i) l(i, j) = lu(i, j);
    for (index_t i = 0; i <= j; ++i) u(i, j) = lu(i, j);
  }
  Matrix<T> pa = to_matrix(a0.view());
  laswp(pa.view(), ipiv.data(), n, /*forward=*/true);
  Matrix<T> rec(n, n);
  gemm<T>(Op::N, Op::N, T{1}, l, u, T{0}, rec.view());
  EXPECT_LE(rel_error(rec, pa),
            real_t<T>(std::is_same_v<real_t<T>, float> ? 1e-4 : 1e-12));
}

TYPED_TEST(LapackTyped, GetrfReconstruction) {
  using T = TypeParam;
  for (index_t n : {1, 2, 7, 33, 64, 100, 200}) {
    Matrix<T> a = random_matrix<T>(n, n, 100 + n);
    for (index_t i = 0; i < n; ++i) a(i, i) += T{4};
    Matrix<T> lu = to_matrix(a.view());
    std::vector<index_t> ipiv(n);
    getrf(lu.view(), ipiv.data());
    check_lu_reconstruction(a, lu, ipiv);
  }
}

TYPED_TEST(LapackTyped, GetrsSolves) {
  using T = TypeParam;
  using R = real_t<T>;
  const index_t n = 80, nrhs = 5;
  Matrix<T> a = random_matrix<T>(n, n, 17);
  for (index_t i = 0; i < n; ++i) a(i, i) += T{6};
  Matrix<T> b = random_matrix<T>(n, nrhs, 18);
  Matrix<T> x = dense_solve<T>(a, b);
  EXPECT_LE(test::dense_relres<T>(a, x, b),
            R(std::is_same_v<R, float> ? 1e-4 : 1e-12));
}

TEST(Lapack, GetrfSingularThrows) {
  Matrix<double> a(3, 3);  // exactly zero matrix
  std::vector<index_t> ipiv(3);
  EXPECT_THROW(getrf(a.view(), ipiv.data()), Error);
}

TEST(Lapack, PivotingHandlesZeroDiagonal) {
  // [[0, 1], [1, 0]] is singular without pivoting, fine with it.
  Matrix<double> a(2, 2);
  a(0, 1) = 1;
  a(1, 0) = 1;
  Matrix<double> b(2, 1);
  b(0, 0) = 3;
  b(1, 0) = 4;
  Matrix<double> x = dense_solve<double>(a, b);
  EXPECT_NEAR(x(0, 0), 4.0, 1e-14);
  EXPECT_NEAR(x(1, 0), 3.0, 1e-14);
}

TYPED_TEST(LapackTyped, TrsmLowerUpper) {
  using T = TypeParam;
  using R = real_t<T>;
  const index_t n = 30;
  Matrix<T> a = random_matrix<T>(n, n, 23);
  for (index_t i = 0; i < n; ++i) a(i, i) += T{8};
  Matrix<T> b = random_matrix<T>(n, 4, 24);

  // Lower unit solve.
  Matrix<T> l = Matrix<T>::identity(n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < n; ++i) l(i, j) = a(i, j);
  Matrix<T> x = to_matrix(b.view());
  trsm_left<T>(Uplo::Lower, Diag::Unit, l, x.view());
  EXPECT_LE(test::dense_relres<T>(l, x, b),
            R(std::is_same_v<R, float> ? 1e-4 : 1e-12));

  // Upper non-unit solve.
  Matrix<T> u(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= j; ++i) u(i, j) = a(i, j);
  Matrix<T> y = to_matrix(b.view());
  trsm_left<T>(Uplo::Upper, Diag::NonUnit, u, y.view());
  EXPECT_LE(test::dense_relres<T>(u, y, b),
            R(std::is_same_v<R, float> ? 1e-3 : 1e-11));
}

TYPED_TEST(LapackTyped, QrOrthonormalAndReconstructs) {
  using T = TypeParam;
  using R = real_t<T>;
  const R tol = std::is_same_v<R, float> ? R(1e-4) : R(1e-12);
  for (auto [m, n] : {std::pair<index_t, index_t>{40, 12},
                      {12, 12},
                      {15, 40}}) {
    Matrix<T> a = random_matrix<T>(m, n, 31 + m);
    QRFactors<T> qr = geqrf<T>(a);
    Matrix<T> q = thin_q(qr);
    Matrix<T> r = r_factor(qr);
    const index_t k = std::min(m, n);
    // Q^H Q = I.
    Matrix<T> qtq(k, k);
    gemm<T>(Op::C, Op::N, T{1}, q, q, T{0}, qtq.view());
    EXPECT_LE(rel_error(qtq, Matrix<T>::identity(k)), tol);
    // Q R = A.
    Matrix<T> rec(m, n);
    gemm<T>(Op::N, Op::N, T{1}, q, r, T{0}, rec.view());
    EXPECT_LE(rel_error(rec, a), tol);
  }
}

/// Deterministic QR test blocks: dense random, rank-deficient (every odd
/// column duplicates its left neighbor) and exactly zero, in turn. For the
/// rank-deficient blocks the exhausted trailing columns are roundoff noise,
/// so the reflector directions (and with them the signs of R) legitimately
/// depend on the summation order; only reconstruction and orthonormality
/// are asserted for those.
template <typename T>
std::vector<Matrix<T>> qr_blocks(index_t m, index_t n, std::uint64_t seed) {
  std::vector<Matrix<T>> blocks;
  for (index_t i = 0; i < 4; ++i) {
    if (i == 3) {
      blocks.emplace_back(m, n);  // zero block
      continue;
    }
    Matrix<T> a = random_matrix<T>(m, n, seed + i);
    if (i == 2)
      for (index_t j = 1; j < n; j += 2)
        copy<T>(a.view().block(0, j - 1, m, 1), a.view().block(0, j, m, 1));
    blocks.push_back(std::move(a));
  }
  return blocks;
}

/// Upper-triangular R (k x n) out of a compact factor array.
template <typename T>
Matrix<T> extract_r(ConstMatrixView<T> f) {
  const index_t k = std::min(f.rows, f.cols);
  Matrix<T> r(k, f.cols);
  for (index_t j = 0; j < f.cols; ++j)
    for (index_t i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = f(i, j);
  return r;
}

/// The blocked in-place drivers, serial and pool-parallel (the pair rsvd
/// runs), against the unblocked reference across shapes that straddle the
/// panel width (m < n, m = n, tall, one column).
TYPED_TEST(LapackTyped, QrInplaceBlockedMatchesReference) {
  using T = TypeParam;
  using R = real_t<T>;
  const R tol = std::is_same_v<R, float> ? R(5e-4) : R(1e-11);
  const index_t shapes[][2] = {{96, 33}, {48, 48}, {24, 40}, {50, 1},
                               {1, 7},   {17, 16}, {5, 5}};
  for (const bool parallel : {false, true}) {
    std::uint64_t seed = 100;
    for (auto& [m, n] : shapes) {
      const std::vector<Matrix<T>> blocks = qr_blocks<T>(m, n, seed += 10);
      for (index_t bi = 0; bi < 4; ++bi) {
        SCOPED_TRACE(::testing::Message() << m << "x" << n << " block " << bi
                                          << " parallel=" << parallel);
        const Matrix<T>& a = blocks[bi];
        const bool r_comparable = bi != 2;
        QRFactors<T> ref = geqrf_reference<T>(a.view());
        Matrix<T> f = to_matrix(a.view());
        std::vector<T> tau(std::min(m, n));
        if (parallel)
          geqrf_inplace_parallel<T>(f.view(), tau.data());
        else
          geqrf_inplace<T>(f.view(), tau.data());
        if (r_comparable) {
          EXPECT_LE(rel_error(extract_r<T>(f.view()),
                              extract_r<T>(ref.factors.view())),
                    tol);
        }
        // Q from the blocked path reproduces the block and is orthonormal.
        const index_t k = std::min(m, n);
        Matrix<T> q = to_matrix(f.view().block(0, 0, m, k));
        if (parallel)
          thin_q_inplace_parallel<T>(q.view(), tau.data());
        else
          thin_q_inplace<T>(q.view(), tau.data());
        Matrix<T> qtq(k, k);
        gemm<T>(Op::C, Op::N, T{1}, q, q, T{0}, qtq.view());
        EXPECT_LE(rel_error(qtq, Matrix<T>::identity(k)), tol);
        Matrix<T> rec(m, n);
        gemm<T>(Op::N, Op::N, T{1}, q, extract_r<T>(f.view()), T{0},
                rec.view());
        EXPECT_LE(rel_error(rec, a), tol);
        // And the blocked thin Q agrees with the reference per-reflector one.
        if (r_comparable) {
          EXPECT_LE(rel_error(q, thin_q_reference<T>(ref)), tol);
        }
      }
    }
  }
}

TYPED_TEST(LapackTyped, Geqp3RevealsRank) {
  using T = TypeParam;
  using R = real_t<T>;
  // Build an exactly rank-5 matrix.
  const index_t m = 30, n = 25, r = 5;
  Matrix<T> u = random_matrix<T>(m, r, 41);
  Matrix<T> v = random_matrix<T>(n, r, 42);
  Matrix<T> a(m, n);
  gemm<T>(Op::N, Op::C, T{1}, u, v, T{0}, a.view());
  CPQRFactors<T> qp = geqp3<T>(a, R(1e-5), -1);
  EXPECT_EQ(qp.rank, r);
}

TYPED_TEST(LapackTyped, JacobiSvdReconstructs) {
  using T = TypeParam;
  using R = real_t<T>;
  const R tol = std::is_same_v<R, float> ? R(2e-4) : R(1e-12);
  for (auto [m, n] : {std::pair<index_t, index_t>{20, 10},
                      {10, 20},
                      {12, 12}}) {
    Matrix<T> a = random_matrix<T>(m, n, 51 + m);
    SVDResult<T> svd = jacobi_svd<T>(a);
    const index_t k = std::min(m, n);
    // Descending singular values.
    for (index_t i = 1; i < k; ++i) EXPECT_GE(svd.s[i - 1], svd.s[i]);
    // U S V^H = A.
    Matrix<T> us = to_matrix(svd.u.view());
    for (index_t j = 0; j < k; ++j)
      scale_inplace(T{svd.s[j]}, us.view().block(0, j, m, 1));
    Matrix<T> rec(m, n);
    gemm<T>(Op::N, Op::C, T{1}, us, svd.v, T{0}, rec.view());
    EXPECT_LE(rel_error(rec, a), tol);
  }
}

TEST(Lapack, JacobiSvdMatchesFrobenius) {
  Matrix<double> a = random_matrix<double>(15, 8, 61);
  SVDResult<double> svd = jacobi_svd<double>(a);
  double s2 = 0;
  for (double s : svd.s) s2 += s * s;
  EXPECT_NEAR(std::sqrt(s2), norm_fro(a), 1e-12);
}

TEST(Lapack, LaswpRoundTrip) {
  Matrix<double> a = random_matrix<double>(6, 3, 71);
  Matrix<double> b = to_matrix(a.view());
  std::vector<index_t> ipiv = {3, 4, 2, 5, 4, 5};
  laswp(b.view(), ipiv.data(), 6, true);
  laswp(b.view(), ipiv.data(), 6, false);
  EXPECT_LE(rel_error(a, b), 1e-15);
}

/// laswp on an interior view (ld > rows) with pivots that send several
/// rows to the same target must give the bytes of swapping whole rows one
/// interchange at a time, in both directions, and leave the rest of the
/// parent matrix alone.
TEST(Lapack, LaswpColumnOrderMatchesRowByRow) {
  using C = std::complex<double>;
  const index_t rows = 9, cols = 5;
  Matrix<C> big = random_matrix<C>(rows + 4, cols + 3, 72);
  const std::vector<index_t> ipiv = {6, 6, 2, 6, 8, 8, 7, 8};
  const auto row_by_row = [&](MatrixView<C> b, bool forward) {
    const index_t npiv = static_cast<index_t>(ipiv.size());
    for (index_t t = 0; t < npiv; ++t) {
      const index_t k = forward ? t : npiv - 1 - t;
      for (index_t j = 0; j < b.cols; ++j) std::swap(b(k, j), b(ipiv[k], j));
    }
  };
  for (bool forward : {true, false}) {
    Matrix<C> got = to_matrix(big.view());
    Matrix<C> expect = to_matrix(big.view());
    laswp(got.view().block(2, 1, rows, cols), ipiv.data(),
          static_cast<index_t>(ipiv.size()), forward);
    row_by_row(expect.view().block(2, 1, rows, cols), forward);
    for (index_t j = 0; j < big.cols(); ++j)
      for (index_t i = 0; i < big.rows(); ++i)
        EXPECT_EQ(got(i, j), expect(i, j))
            << "forward=" << forward << " at (" << i << ", " << j << ")";
  }
}

}  // namespace
}  // namespace hodlrx
