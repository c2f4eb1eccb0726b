#include <gtest/gtest.h>

#include <cstring>

#include "batched/batched_blas.hpp"
#include "device/device.hpp"
#include "test_util.hpp"

namespace hodlrx {
namespace {

using test::rel_error;

template <typename T>
class BatchedTyped : public ::testing::Test {};
using BatchedTypes = ::testing::Types<float, double, std::complex<float>,
                                      std::complex<double>>;
TYPED_TEST_SUITE(BatchedTyped, BatchedTypes);

TYPED_TEST(BatchedTyped, GemmBatchedMatchesLoop) {
  using T = TypeParam;
  const index_t batch = 37;  // larger than thread count -> batched mode
  std::vector<Matrix<T>> a, b, c_batched, c_ref;
  for (index_t i = 0; i < batch; ++i) {
    const index_t m = 5 + i % 7, n = 3 + i % 5, k = 4 + i % 6;
    a.push_back(random_matrix<T>(m, k, 100 + i));
    b.push_back(random_matrix<T>(k, n, 200 + i));
    c_batched.push_back(random_matrix<T>(m, n, 300 + i));
    c_ref.push_back(to_matrix(c_batched.back().view()));
  }
  std::vector<ConstMatrixView<T>> av, bv;
  std::vector<MatrixView<T>> cv;
  for (index_t i = 0; i < batch; ++i) {
    av.push_back(a[i]);
    bv.push_back(b[i]);
    cv.push_back(c_batched[i]);
    gemm<T>(Op::N, Op::N, T{2}, a[i], b[i], T{1}, c_ref[i].view());
  }
  gemm_batched<T>(Op::N, Op::N, T{2}, av, bv, T{1}, cv);
  for (index_t i = 0; i < batch; ++i)
    EXPECT_LE(rel_error(c_batched[i], c_ref[i]), real_t<T>(1e-5));
}

TYPED_TEST(BatchedTyped, GemmBatchedStreamModeMatches) {
  using T = TypeParam;
  const index_t batch = 3;  // fewer than threads -> stream mode under kAuto
  std::vector<Matrix<T>> a, b, c1, c2;
  for (index_t i = 0; i < batch; ++i) {
    a.push_back(random_matrix<T>(50, 40, 10 + i));
    b.push_back(random_matrix<T>(40, 30, 20 + i));
    c1.push_back(Matrix<T>(50, 30));
    c2.push_back(Matrix<T>(50, 30));
  }
  std::vector<ConstMatrixView<T>> av(a.begin(), a.end()),
      bv(b.begin(), b.end());
  std::vector<MatrixView<T>> cv1(c1.begin(), c1.end()),
      cv2(c2.begin(), c2.end());
  gemm_batched<T>(Op::N, Op::N, T{1}, av, bv, T{0}, cv1,
                  BatchPolicy::kForceStream);
  gemm_batched<T>(Op::N, Op::N, T{1}, av, bv, T{0}, cv2,
                  BatchPolicy::kForceBatched);
  for (index_t i = 0; i < batch; ++i)
    EXPECT_LE(rel_error(c1[i], c2[i]), real_t<T>(1e-5));
}

TYPED_TEST(BatchedTyped, GemmStridedBatched) {
  using T = TypeParam;
  struct Shape {
    index_t m, n, k, batch;
    T alpha, beta;
    bool shared_b;  // stride_b = 0: one B for the whole batch
  };
  // The base case, then edge shapes: degenerate 1x1, problems within one
  // register tile in batches of 9 and 17 (more than any SIMD register holds
  // lanes), an uneven mid-size, a shape past the register tile and a
  // stride-0 B. Every problem must be bitwise the per-problem gemm: its bits
  // may not depend on the batch it runs in.
  const Shape shapes[] = {{6, 4, 5, 10, T{1}, T{0}, false},
                          {1, 1, 1, 3, T{2}, T{1}, false},
                          {3, 2, 4, 9, T{2}, T{1}, false},
                          {3, 2, 4, 17, T{2}, T{1}, false},
                          {7, 5, 6, 4, T{2}, T{1}, false},
                          {33, 21, 17, 3, T{2}, T{1}, false},
                          {6, 4, 5, 8, T{2}, T{1}, true}};
  for (const Shape& sh : shapes) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << sh.m << " n=" << sh.n << " k=" << sh.k
                 << " batch=" << sh.batch << " shared_b=" << sh.shared_b);
    const index_t m = sh.m, n = sh.n, k = sh.k, batch = sh.batch;
    const index_t stride_b = sh.shared_b ? 0 : k * n;
    std::vector<T> a(m * k * batch), b(k * n * (sh.shared_b ? 1 : batch)),
        c(m * n * batch);
    auto flat = [](std::vector<T>& v) {
      const index_t len = static_cast<index_t>(v.size());
      return MatrixView<T>{v.data(), len, 1, len};
    };
    Rng rng(33);
    rng.fill_uniform<T>(flat(a));
    rng.fill_uniform<T>(flat(b));
    rng.fill_uniform<T>(flat(c));
    std::vector<T> c_ref = c;
    gemm_strided_batched<T>(Op::N, Op::N, m, n, k, sh.alpha, a.data(), m,
                            m * k, b.data(), k, stride_b, sh.beta, c.data(), m,
                            m * n, batch);
    for (index_t i = 0; i < batch; ++i) {
      ConstMatrixView<T> ai(a.data() + i * m * k, m, k, m);
      ConstMatrixView<T> bi(b.data() + i * stride_b, k, n, k);
      MatrixView<T> ci{c_ref.data() + i * m * n, m, n, m};
      gemm<T>(Op::N, Op::N, sh.alpha, ai, bi, sh.beta, ci);
      EXPECT_EQ(std::memcmp(c.data() + i * m * n, ci.data,
                            static_cast<std::size_t>(m * n) * sizeof(T)),
                0)
          << "problem " << i;
    }
  }
}

TYPED_TEST(BatchedTyped, GetrfGetrsBatched) {
  using T = TypeParam;
  using R = real_t<T>;
  const index_t batch = 25;
  std::vector<Matrix<T>> a0, lu, b, x;
  std::vector<std::vector<index_t>> piv(batch);
  for (index_t i = 0; i < batch; ++i) {
    const index_t n = 8 + i % 9;
    a0.push_back(random_matrix<T>(n, n, 40 + i));
    for (index_t d = 0; d < n; ++d) a0.back()(d, d) += T{5};
    lu.push_back(to_matrix(a0.back().view()));
    b.push_back(random_matrix<T>(n, 3, 50 + i));
    x.push_back(to_matrix(b.back().view()));
    piv[i].assign(n, 0);
  }
  std::vector<MatrixView<T>> luv(lu.begin(), lu.end());
  std::vector<index_t*> pv;
  for (auto& p : piv) pv.push_back(p.data());
  getrf_batched<T>(luv, pv);

  std::vector<ConstMatrixView<T>> luc(lu.begin(), lu.end());
  std::vector<const index_t*> pvc(pv.begin(), pv.end());
  std::vector<MatrixView<T>> xv(x.begin(), x.end());
  getrs_batched<T>(luc, pvc, xv);
  for (index_t i = 0; i < batch; ++i)
    EXPECT_LE(test::dense_relres<T>(a0[i], x[i], b[i]),
              R(std::is_same_v<R, float> ? 1e-4 : 1e-12));
}

/// Stream mode (getrf_parallel's blocked LU with a pool-parallel trailing
/// update, then getrs_parallel) against batched mode (one blocked getrf and
/// getrs per pool slot), on problems wider than the 64-column LU block so
/// the blocked driver's trailing updates run.
TYPED_TEST(BatchedTyped, GetrfGetrsStreamMatchesBatched) {
  using T = TypeParam;
  using R = real_t<T>;
  const R tol = std::is_same_v<R, float> ? R(1e-4) : R(1e-12);
  const index_t sizes[] = {100, 150, 129};
  std::vector<Matrix<T>> a0, b, x[2];
  for (index_t i = 0; i < 3; ++i) {
    a0.push_back(random_matrix<T>(sizes[i], sizes[i], 80 + i));
    for (index_t d = 0; d < sizes[i]; ++d) a0.back()(d, d) += T{8};
    b.push_back(random_matrix<T>(sizes[i], 5, 90 + i));
  }
  int slot = 0;
  for (BatchPolicy pol :
       {BatchPolicy::kForceBatched, BatchPolicy::kForceStream}) {
    std::vector<Matrix<T>> lu;
    std::vector<std::vector<index_t>> piv;
    for (index_t i = 0; i < 3; ++i) {
      lu.push_back(to_matrix(a0[i].view()));
      piv.emplace_back(sizes[i], 0);
      x[slot].push_back(to_matrix(b[i].view()));
    }
    std::vector<MatrixView<T>> luv(lu.begin(), lu.end());
    std::vector<index_t*> pv;
    for (auto& p : piv) pv.push_back(p.data());
    getrf_batched<T>(luv, pv, pol);
    std::vector<ConstMatrixView<T>> luc(lu.begin(), lu.end());
    std::vector<const index_t*> pvc(pv.begin(), pv.end());
    std::vector<MatrixView<T>> xv(x[slot].begin(), x[slot].end());
    getrs_batched<T>(luc, pvc, xv, pol);
    ++slot;
  }
  for (index_t i = 0; i < 3; ++i) {
    EXPECT_LE(test::dense_relres<T>(a0[i], x[1][i], b[i]), tol);
    EXPECT_LE(rel_error(x[1][i], x[0][i]), tol);
  }
}

TEST(Batched, EmptyBatchIsNoop) {
  std::vector<ConstMatrixView<double>> a, b;
  std::vector<MatrixView<double>> c;
  gemm_batched<double>(Op::N, Op::N, 1.0, a, b, 0.0, c);  // must not crash
  std::vector<MatrixView<double>> lu;
  std::vector<index_t*> piv;
  getrf_batched<double>(lu, piv);
}

TEST(Batched, LaunchCounterCountsCalls) {
  DeviceContext::global().reset_counters();
  Matrix<double> a = random_matrix<double>(4, 4, 1);
  Matrix<double> b = random_matrix<double>(4, 4, 2);
  Matrix<double> c(4, 4);
  std::vector<ConstMatrixView<double>> av = {a, a, a}, bv = {b, b, b};
  std::vector<Matrix<double>> cs(3, Matrix<double>(4, 4));
  std::vector<MatrixView<double>> cv(cs.begin(), cs.end());
  gemm_batched<double>(Op::N, Op::N, 1.0, av, bv, 0.0, cv);
  EXPECT_EQ(DeviceContext::global().launches(), 1u);
  gemm_batched<double>(Op::N, Op::N, 1.0, av, bv, 0.0, cv);
  EXPECT_EQ(DeviceContext::global().launches(), 2u);
}

}  // namespace
}  // namespace hodlrx
