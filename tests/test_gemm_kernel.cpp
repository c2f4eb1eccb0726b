#include <gtest/gtest.h>

#include "batched/batched_blas.hpp"
#include "common/gemm_kernel.hpp"
#include "common/workspace.hpp"
#include "test_util.hpp"

/// Cross-checks of the packed, register-tiled GEMM engine against a plain
/// element-accessor reference, over every op pair, all four scalar types,
/// odd/edge shapes, degenerate alpha/beta, submatrix views with ld > rows,
/// whole-operand A-packs, and strided batches with a shared (stride 0)
/// operand.

namespace hodlrx {
namespace {

using test::rel_error;

template <typename T>
Matrix<T> gemm_ref(Op opa, Op opb, T alpha, ConstMatrixView<T> a,
                   ConstMatrixView<T> b, T beta, ConstMatrixView<T> c0) {
  auto at = [&](index_t i, index_t l) {
    return opa == Op::N ? a(i, l) : (opa == Op::T ? a(l, i) : conj_s(a(l, i)));
  };
  auto bt = [&](index_t l, index_t j) {
    return opb == Op::N ? b(l, j) : (opb == Op::T ? b(j, l) : conj_s(b(j, l)));
  };
  const index_t m = op_rows(opa, a), n = op_cols(opb, b);
  const index_t k = op_cols(opa, a);
  Matrix<T> c = to_matrix(c0);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      T s{};
      for (index_t l = 0; l < k; ++l) s += at(i, l) * bt(l, j);
      c(i, j) = alpha * s + beta * c(i, j);
    }
  return c;
}

template <typename T>
real_t<T> tol() {
  return std::is_same_v<real_t<T>, float> ? real_t<T>(2e-3) : real_t<T>(1e-11);
}

template <typename T>
class GemmKernelTyped : public ::testing::Test {};
using GemmTypes = ::testing::Types<float, double, std::complex<float>,
                                   std::complex<double>>;
TYPED_TEST_SUITE(GemmKernelTyped, GemmTypes);

/// The engine itself (bypassing the size-cutoff dispatch) for every op pair
/// and a sweep of odd/edge shapes, including dimensions of 1 and shapes that
/// straddle the MR/NR register-tile boundaries.
TYPED_TEST(GemmKernelTyped, AllOpPairsEdgeShapes) {
  using T = TypeParam;
  Rng rng(42);
  // Shapes drawn from {1, 7, 8, 63, 64, 129}: below/at/above the MR/NR
  // register tiles and the 64-wide cache lines, plus degenerate dims of 1.
  const struct { index_t m, n, k; } shapes[] = {
      {1, 1, 1},    {7, 8, 63},   {8, 7, 64},  {63, 129, 7},
      {64, 64, 64}, {129, 63, 8}, {1, 129, 64}, {129, 1, 63}, {63, 64, 129}};
  for (Op opa : {Op::N, Op::T, Op::C}) {
    for (Op opb : {Op::N, Op::T, Op::C}) {
      for (const auto& s : shapes) {
        Matrix<T> a(opa == Op::N ? s.m : s.k, opa == Op::N ? s.k : s.m);
        Matrix<T> b(opb == Op::N ? s.k : s.n, opb == Op::N ? s.n : s.k);
        Matrix<T> c(s.m, s.n);
        rng.fill_uniform<T>(a);
        rng.fill_uniform<T>(b);
        rng.fill_uniform<T>(c);
        Matrix<T> expect = gemm_ref<T>(opa, opb, T{2}, a, b, T{-1}, c);
        gemm_packed<T>(opa, opb, T{2}, a, b, T{-1}, c.view());
        EXPECT_LE(rel_error(c, expect), tol<T>())
            << "opa=" << static_cast<char>(opa)
            << " opb=" << static_cast<char>(opb) << " m=" << s.m
            << " n=" << s.n << " k=" << s.k;
      }
    }
  }
}

/// alpha in {0, 1, -2} x beta in {0, 1, -2}; beta = 0 must overwrite
/// whatever is in C (including huge garbage values).
TYPED_TEST(GemmKernelTyped, AlphaBetaCombos) {
  using T = TypeParam;
  Rng rng(7);
  const index_t m = 64, n = 63, k = 65;
  Matrix<T> a(m, k), b(n, k);  // exercised as (N, C)
  rng.fill_uniform<T>(a);
  rng.fill_uniform<T>(b);
  for (T alpha : {T{0}, T{1}, T{-2}}) {
    for (T beta : {T{0}, T{1}, T{-2}}) {
      Matrix<T> c(m, n);
      rng.fill_uniform<T>(c);
      if (beta == T{}) {
        for (index_t j = 0; j < n; ++j)
          for (index_t i = 0; i < m; ++i) c(i, j) = T{1e30f};
      }
      Matrix<T> c0 = to_matrix(c.view());
      if (beta == T{}) c0.set_zero();
      Matrix<T> expect = gemm_ref<T>(Op::N, Op::C, alpha, a, b, beta, c0);
      gemm_packed<T>(Op::N, Op::C, alpha, a, b, beta, c.view());
      EXPECT_LE(rel_error(c, expect), tol<T>());
    }
  }
}

/// Operands and C as interior sub-blocks of larger matrices (ld > rows).
TYPED_TEST(GemmKernelTyped, SubmatrixViews) {
  using T = TypeParam;
  Matrix<T> abig = random_matrix<T>(150, 150, 3);
  Matrix<T> bbig = random_matrix<T>(150, 150, 4);
  Matrix<T> cbig = random_matrix<T>(150, 150, 5);
  // C(70x40) = op(A)(70x90) * op(B)(90x40) on interior blocks.
  auto a = ConstMatrixView<T>(abig.view().block(3, 5, 90, 70));   // used as C
  auto b = ConstMatrixView<T>(bbig.view().block(11, 2, 90, 40));  // used as N
  MatrixView<T> c = cbig.view().block(40, 60, 70, 40);
  Matrix<T> expect = gemm_ref<T>(Op::C, Op::N, T{1}, a, b, T{2},
                                 ConstMatrixView<T>(c));
  gemm_packed<T>(Op::C, Op::N, T{1}, a, b, T{2}, c);
  EXPECT_LE(rel_error(to_matrix(ConstMatrixView<T>(c)), expect), tol<T>());
}

/// The dispatch in gemm() must agree with the engine above the cutoff,
/// including the transposed combos that used to run the generic loop.
TYPED_TEST(GemmKernelTyped, DispatchedGemmMatchesReference) {
  using T = TypeParam;
  Rng rng(21);
  for (Op opa : {Op::N, Op::C}) {
    for (Op opb : {Op::T, Op::C}) {
      const index_t m = 140, n = 73, k = 97;
      Matrix<T> a(opa == Op::N ? m : k, opa == Op::N ? k : m);
      Matrix<T> b(opb == Op::N ? k : n, opb == Op::N ? n : k);
      Matrix<T> c(m, n);
      rng.fill_uniform<T>(a);
      rng.fill_uniform<T>(b);
      rng.fill_uniform<T>(c);
      Matrix<T> expect = gemm_ref<T>(opa, opb, T{-1}, a, b, T{2}, c);
      gemm<T>(opa, opb, T{-1}, a, b, T{2}, c.view());
      EXPECT_LE(rel_error(c, expect), tol<T>());
    }
  }
}

/// Prepacked whole-A multiplies, with k crossing the KC cache-block boundary
/// so multiple tiles are exercised, and a second pack into the same slot.
TYPED_TEST(GemmKernelTyped, PrepackedMatchesReference) {
  using T = TypeParam;
  constexpr index_t KC = GemmBlocking<T>::KC;
  const index_t m = 65, n = 70, k = KC + 44;  // 2 k-tiles
  Matrix<T> a = random_matrix<T>(k, m, 31);  // used as op C -> m x k
  Matrix<T> b = random_matrix<T>(k, n, 32);
  Matrix<T> c = random_matrix<T>(m, n, 33);
  Matrix<T> expect = gemm_ref<T>(Op::C, Op::N, T{2}, a, b, T{-1}, c);

  // A smaller pack first, so the second one must grow the slot.
  PackedMatrix<T> ap;
  pack_a_full_into<T>(Op::N, b.view().block(0, 0, 3, 5), ap);
  pack_a_full_into<T>(Op::C, a, ap);
  EXPECT_EQ(ap.rows(), m);
  EXPECT_EQ(ap.cols(), k);
  gemm_prepacked_a<T>(ap, T{2}, Op::N, b, T{-1}, c.view());
  EXPECT_LE(rel_error(c, expect), tol<T>());
}

/// Strided-batched with stride_b == 0: every problem multiplies the same B.
/// Numerics must match per-problem reference gemms.
TYPED_TEST(GemmKernelTyped, StridedBatchedSharedB) {
  using T = TypeParam;
  const index_t m = 48, n = 40, k = 56, batch = 5;
  Matrix<T> a = random_matrix<T>(m, k * batch, 51);  // problems side by side
  Matrix<T> b = random_matrix<T>(k, n, 52);
  Matrix<T> c(m, n * batch);
  Rng rng(53);
  rng.fill_uniform<T>(c.view());
  Matrix<T> c0 = to_matrix(c.view());

  gemm_strided_batched<T>(Op::N, Op::N, m, n, k, T{1}, a.data(), m, m * k,
                          b.data(), k, 0, T{-1}, c.data(), m, m * n, batch);

  for (index_t i = 0; i < batch; ++i) {
    Matrix<T> expect = gemm_ref<T>(
        Op::N, Op::N, T{1}, a.view().block(0, i * k, m, k), b, T{-1},
        c0.view().block(0, i * n, m, n));
    EXPECT_LE(rel_error<T>(ConstMatrixView<T>(c.block(0, i * n, m, n)),
                           expect.view()),
              tol<T>())
        << "problem " << i;
  }
}

/// Strided-batched with stride_a == 0 (shared left operand), transposed.
TYPED_TEST(GemmKernelTyped, StridedBatchedSharedA) {
  using T = TypeParam;
  const index_t m = 32, n = 36, k = 44, batch = 4;
  Matrix<T> a = random_matrix<T>(k, m, 61);  // op C -> m x k, shared
  Matrix<T> b = random_matrix<T>(k, n * batch, 62);
  Matrix<T> c(m, n * batch);

  gemm_strided_batched<T>(Op::C, Op::N, m, n, k, T{1}, a.data(), k, 0,
                          b.data(), k, k * n, T{0}, c.data(), m, m * n,
                          batch);

  for (index_t i = 0; i < batch; ++i) {
    Matrix<T> expect =
        gemm_ref<T>(Op::C, Op::N, T{1}, a, b.view().block(0, i * n, k, n),
                    T{0}, Matrix<T>(m, n));
    EXPECT_LE(rel_error<T>(ConstMatrixView<T>(c.block(0, i * n, m, n)),
                           expect.view()),
              tol<T>());
  }
}

/// The workspace arena must stop growing once the engine reaches steady
/// state: repeated multiplies reuse the same per-thread buffers.
TEST(GemmKernel, WorkspaceReusedAcrossCalls) {
  Matrix<double> a = random_matrix<double>(100, 100, 71);
  Matrix<double> b = random_matrix<double>(100, 100, 72);
  Matrix<double> c(100, 100);
  gemm_packed<double>(Op::N, Op::N, 1.0, a, b, 0.0, c.view());
  const std::size_t grown = WorkspaceArena::local().grow_events();
  for (int rep = 0; rep < 5; ++rep)
    gemm_packed<double>(Op::T, Op::C, 1.0, a, b, 0.5, c.view());
  EXPECT_EQ(WorkspaceArena::local().grow_events(), grown)
      << "packing buffers must be reused, not reallocated per call";
}

/// Empty-k and zero-sized problems through the engine's degenerate paths.
TEST(GemmKernel, DegenerateShapes) {
  Matrix<double> a(5, 0), b(0, 4), c(5, 4);
  c(0, 0) = 3.0;
  gemm_packed<double>(Op::N, Op::N, 1.0, a, b, 2.0, c.view());
  EXPECT_EQ(c(0, 0), 6.0);
  gemm_packed<double>(Op::N, Op::N, 1.0, a, b, 0.0, c.view());
  EXPECT_EQ(c(0, 0), 0.0);
  Matrix<double> e(0, 0);
  gemm_packed<double>(Op::N, Op::N, 1.0, e, e, 0.0, e.view());  // no crash
}

}  // namespace
}  // namespace hodlrx
