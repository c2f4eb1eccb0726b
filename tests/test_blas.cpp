#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/flops.hpp"
#include "test_util.hpp"

namespace hodlrx {
namespace {

using test::rel_error;

/// Reference gemm: straightforward triple loop with accessor semantics.
template <typename T>
Matrix<T> gemm_ref(Op opa, Op opb, T alpha, const Matrix<T>& a,
                   const Matrix<T>& b, T beta, const Matrix<T>& c0) {
  auto at = [&](index_t i, index_t l) {
    return opa == Op::N ? a(i, l) : (opa == Op::T ? a(l, i) : conj_s(a(l, i)));
  };
  auto bt = [&](index_t l, index_t j) {
    return opb == Op::N ? b(l, j) : (opb == Op::T ? b(j, l) : conj_s(b(j, l)));
  };
  const index_t m = op_rows(opa, a.view()), n = op_cols(opb, b.view());
  const index_t k = op_cols(opa, a.view());
  Matrix<T> c = to_matrix(c0.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      T s{};
      for (index_t l = 0; l < k; ++l) s += at(i, l) * bt(l, j);
      c(i, j) = alpha * s + beta * c(i, j);
    }
  return c;
}

template <typename T>
class BlasTyped : public ::testing::Test {};
using BlasTypes = ::testing::Types<float, double, std::complex<float>,
                                   std::complex<double>>;
TYPED_TEST_SUITE(BlasTyped, BlasTypes);

TYPED_TEST(BlasTyped, GemmAllOpCombos) {
  using T = TypeParam;
  using R = real_t<T>;
  const R tol = std::is_same_v<R, float> ? R(1e-4) : R(1e-12);
  Rng rng(5);
  for (Op opa : {Op::N, Op::T, Op::C}) {
    for (Op opb : {Op::N, Op::T, Op::C}) {
      const index_t m = 17, n = 13, k = 21;
      Matrix<T> a(opa == Op::N ? m : k, opa == Op::N ? k : m);
      Matrix<T> b(opb == Op::N ? k : n, opb == Op::N ? n : k);
      Matrix<T> c(m, n);
      rng.fill_uniform<T>(a);
      rng.fill_uniform<T>(b);
      rng.fill_uniform<T>(c);
      Matrix<T> expect = gemm_ref<T>(opa, opb, T{2}, a, b, T{-1}, c);
      gemm<T>(opa, opb, T{2}, a, b, T{-1}, c.view());
      EXPECT_LE(rel_error(c, expect), tol)
          << "opa=" << static_cast<char>(opa)
          << " opb=" << static_cast<char>(opb);
    }
  }
}

TYPED_TEST(BlasTyped, GemmBetaZeroIgnoresGarbage) {
  using T = TypeParam;
  Matrix<T> a(4, 4), b(4, 4), c(4, 4);
  Rng rng(6);
  rng.fill_uniform<T>(a);
  rng.fill_uniform<T>(b);
  // Poison C with NaN-free garbage; beta = 0 must overwrite it.
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 4; ++i) c(i, j) = T{1e30f};
  Matrix<T> expect = gemm_ref<T>(Op::N, Op::N, T{1}, a, b, T{0},
                                 Matrix<T>(4, 4));
  gemm<T>(Op::N, Op::N, T{1}, a, b, T{0}, c.view());
  EXPECT_LE(rel_error(c, expect), real_t<T>(1e-5));
}

TYPED_TEST(BlasTyped, GemmParallelMatchesSerial) {
  using T = TypeParam;
  const index_t m = 64, n = 96, k = 33;
  Matrix<T> a = random_matrix<T>(m, k, 7);
  Matrix<T> b = random_matrix<T>(k, n, 8);
  Matrix<T> c1 = random_matrix<T>(m, n, 9);
  Matrix<T> c2 = to_matrix(c1.view());
  gemm<T>(Op::N, Op::N, T{1}, a, b, T{1}, c1.view());
  gemm_parallel<T>(Op::N, Op::N, T{1}, a, b, T{1}, c2.view());
  EXPECT_LE(rel_error(c1, c2), real_t<T>(1e-5));
}

TYPED_TEST(BlasTyped, GemmOnStridedViews) {
  using T = TypeParam;
  Matrix<T> big = random_matrix<T>(20, 20, 10);
  Matrix<T> c(5, 5);
  // Multiply two interior sub-blocks.
  auto a = big.view().block(2, 3, 5, 7);
  auto b = big.view().block(9, 11, 7, 5);
  gemm<T>(Op::N, Op::N, T{1}, a, b, T{0}, c.view());
  Matrix<T> ad = to_matrix(ConstMatrixView<T>(a));
  Matrix<T> bd = to_matrix(ConstMatrixView<T>(b));
  Matrix<T> expect = gemm_ref<T>(Op::N, Op::N, T{1}, ad, bd, T{0},
                                 Matrix<T>(5, 5));
  EXPECT_LE(rel_error(c, expect), real_t<T>(1e-5));
}

TEST(Blas, GemmShapeMismatchThrows) {
  Matrix<double> a(3, 4), b(5, 2), c(3, 2);
  EXPECT_THROW(gemm<double>(Op::N, Op::N, 1.0, a, b, 0.0, c.view()), Error);
}

TEST(Blas, GemmEmptyKIsScale) {
  Matrix<double> a(3, 0), b(0, 2), c(3, 2);
  c(0, 0) = 2.0;
  gemm<double>(Op::N, Op::N, 1.0, a, b, 3.0, c.view());
  EXPECT_EQ(c(0, 0), 6.0);
  gemm<double>(Op::N, Op::N, 1.0, a, b, 0.0, c.view());
  EXPECT_EQ(c(0, 0), 0.0);
}

TEST(Blas, Gemv) {
  Matrix<double> a = random_matrix<double>(6, 4, 11);
  std::vector<double> x = {1, -2, 3, 0.5}, y(6, 1.0);
  gemv<double>(Op::N, 2.0, a, x.data(), -1.0, y.data());
  for (index_t i = 0; i < 6; ++i) {
    double s = 0;
    for (index_t l = 0; l < 4; ++l) s += a(i, l) * x[l];
    EXPECT_NEAR(y[i], 2 * s - 1.0, 1e-13);
  }
}

/// gemv against an element loop for every op, on sizes around the
/// kernel's four-column passes and 64-byte lane steps, on an interior view
/// (ld > rows), with alpha not in {0, 1} and beta in {0, 1, other}. With
/// beta = 0, y starts as NaN and must be overwritten.
TYPED_TEST(BlasTyped, GemvMatchesElementLoop) {
  using T = TypeParam;
  using R = real_t<T>;
  const R tol = std::is_same_v<R, float> ? R(1e-5) : R(1e-13);
  const auto scalar = [](double re, double im) {
    if constexpr (is_complex_v<T>) {
      return T(static_cast<R>(re), static_cast<R>(im));
    } else {
      return static_cast<T>(re);
    }
  };
  const T alpha = scalar(0.75, -0.5);
  const T nan = scalar(std::nan(""), std::nan(""));
  const index_t dims[] = {0, 1, 3, 4, 5, 7, 8, 9, 33, 1000};
  Rng rng(13);
  for (Op op : {Op::N, Op::T, Op::C}) {
    for (index_t m : dims) {
      for (index_t k : dims) {
        const index_t rows = op == Op::N ? m : k, cols = op == Op::N ? k : m;
        Matrix<T> abig(rows + 3, cols);
        rng.fill_uniform<T>(abig);
        const ConstMatrixView<T> a(abig.data() + 1, rows, cols, rows + 3);
        std::vector<T> x(static_cast<std::size_t>(k));
        for (T& v : x) v = scalar(rng.uniform<double>(-1, 1), 0.5);
        for (T beta : {T{0}, T{1}, scalar(-1.25, 0.5)}) {
          std::vector<T> y(static_cast<std::size_t>(m), nan);
          if (beta != T{})
            for (T& v : y) v = scalar(rng.uniform<double>(-1, 1), -0.25);
          Matrix<T> expect(m, 1);
          for (index_t i = 0; i < m; ++i) {
            T s{};
            for (index_t l = 0; l < k; ++l) {
              const T ail = op == Op::N ? a(i, l)
                            : op == Op::T ? a(l, i)
                                          : conj_s(a(l, i));
              s += ail * x[l];
            }
            expect(i, 0) = beta == T{} ? alpha * s : alpha * s + beta * y[i];
          }
          gemv<T>(op, alpha, a, x.data(), beta, y.data());
          EXPECT_LE(rel_error<T>(ConstMatrixView<T>(y.data(), m, 1, m),
                                 expect.view()),
                    tol)
              << "op=" << static_cast<char>(op) << " m=" << m << " k=" << k
              << " beta=" << beta;
        }
      }
    }
  }
}

TEST(Blas, NormsAndAxpy) {
  Matrix<double> a(2, 2);
  a(0, 0) = 3;
  a(1, 1) = 4;
  EXPECT_DOUBLE_EQ(norm_fro(a), 5.0);
  EXPECT_DOUBLE_EQ(norm_max(a), 4.0);
  Matrix<double> b(2, 2);
  axpy<double>(2.0, a, b.view());
  EXPECT_DOUBLE_EQ(b(0, 0), 6.0);
  scale_inplace(0.5, b.view());
  EXPECT_DOUBLE_EQ(b(0, 0), 3.0);
}

TEST(Blas, DotcConjugatesFirstArg) {
  using C = std::complex<double>;
  std::vector<C> x = {C(1, 2)}, y = {C(3, -1)};
  const C d = dotc(x.data(), y.data(), 1);
  EXPECT_NEAR(std::abs(d - C(1, -2) * C(3, -1)), 0.0, 1e-15);
}

TEST(Blas, FlopCounting) {
  FlopCounter::instance().reset();
  Matrix<double> a = random_matrix<double>(10, 10, 1);
  Matrix<double> b = random_matrix<double>(10, 10, 2);
  Matrix<double> c(10, 10);
  gemm<double>(Op::N, Op::N, 1.0, a, b, 0.0, c.view());
  EXPECT_EQ(FlopCounter::instance().get(FlopCounter::kGemm), 2000u);
  FlopCounter::instance().reset();
  EXPECT_EQ(FlopCounter::instance().total(), 0u);
}

}  // namespace
}  // namespace hodlrx
