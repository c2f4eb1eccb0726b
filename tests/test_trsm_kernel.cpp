#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "batched/batched_blas.hpp"
#include "common/blocking.hpp"
#include "common/gemm_kernel.hpp"
#include "common/parallel.hpp"
#include "common/trsm_kernel.hpp"
#include "common/workspace.hpp"
#include "reference/trsm_reference.hpp"
#include "test_util.hpp"

/// Cross-checks of the register-tiled TRSM/GETRS engine against the seed's
/// column-at-a-time solve (tests/reference) over all uplo/diag combinations
/// x 4 scalar types x edge shapes,
/// plus the persistent thread pool's invariants (no per-launch thread
/// re-creation, exception propagation, nested inlining) and the
/// runtime-blocking environment overrides.
///
/// This binary pins its environment BEFORE any engine state is initialized:
/// a small diagonal-block size so modest shapes exercise multiple blocks, a
/// non-default GEMM MC so the override path is proven functional, and a pool
/// of 4 threads so the parallel paths run even on single-core machines.

namespace hodlrx {
namespace {

using test::rel_error;

const bool g_env_ready = [] {
  setenv("HODLRX_TRSM_NB", "24", 1);
  setenv("HODLRX_GEMM_MC", "160", 1);
  setenv("HODLRX_NUM_THREADS", "4", 1);
  // Pin the static rung: this binary asserts exact compiled defaults for
  // the knobs it does NOT override, which the probed model would replace.
  // The adaptive resolver has its own suite (test_blocking.cpp).
  setenv("HODLRX_AUTOTUNE", "off", 1);
  return true;
}();

template <typename T>
real_t<T> tol() {
  return std::is_same_v<real_t<T>, float> ? real_t<T>(2e-3) : real_t<T>(1e-11);
}

/// The shared well-conditioned generator, keyed by Uplo.
template <typename T>
Matrix<T> triangular_matrix(index_t n, Uplo uplo, std::uint64_t seed) {
  return random_triangular_matrix<T>(n, uplo == Uplo::Lower, seed);
}

template <typename T>
class TrsmKernelTyped : public ::testing::Test {};
using TrsmTypes = ::testing::Types<float, double, std::complex<float>,
                                   std::complex<double>>;
TYPED_TEST_SUITE(TrsmKernelTyped, TrsmTypes);

/// Blocked vs reference over every uplo/diag pair and shapes below, at, and
/// well above the (env-shrunk) diagonal-block size, including n = 0/1 and
/// assorted RHS widths.
TYPED_TEST(TrsmKernelTyped, BlockedMatchesReferenceAllUploDiag) {
  using T = TypeParam;
  ASSERT_TRUE(g_env_ready);
  ASSERT_EQ(resolved_blocking<T>().trsm_nb, 24)
      << "HODLRX_TRSM_NB override not seen";
  const index_t shapes[] = {0, 1, 5, 23, 24, 25, 64, 150};
  const index_t widths[] = {1, 3, 4, 9, 33};
  std::uint64_t seed = 1000;
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    for (Diag diag : {Diag::Unit, Diag::NonUnit}) {
      for (index_t n : shapes) {
        for (index_t nrhs : widths) {
          Matrix<T> a = triangular_matrix<T>(n, uplo, ++seed);
          Matrix<T> b = random_matrix<T>(n, nrhs, ++seed);
          Matrix<T> expect = to_matrix(b.view());
          trsm_left_reference<T>(uplo, diag, a, expect.view());
          trsm_left_blocked<T>(uplo, diag, a, b.view());
          EXPECT_LE(rel_error(b, expect), tol<T>())
              << "uplo=" << static_cast<char>(uplo)
              << " diag=" << static_cast<char>(diag) << " n=" << n
              << " nrhs=" << nrhs;
        }
      }
    }
  }
}

/// The pool-parallel solve (RHS columns split across threads) must agree
/// with the oracle.
TYPED_TEST(TrsmKernelTyped, ParallelMatchesReference) {
  using T = TypeParam;
  const index_t n = 130, nrhs = 37;
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    Matrix<T> a = triangular_matrix<T>(n, uplo, 77);
    Matrix<T> b = random_matrix<T>(n, nrhs, 78);
    Matrix<T> expect = to_matrix(b.view());
    trsm_left_reference<T>(uplo, Diag::NonUnit, a, expect.view());
    trsm_left_parallel<T>(uplo, Diag::NonUnit, a, b.view());
    EXPECT_LE(rel_error(b, expect), tol<T>());
  }
}

/// Splitting the RHS columns across the pool must not change a single bit:
/// a column's bits do not depend on which register tile it lands in, and
/// each chunk's trailing updates pick the packed or the compact kernel from
/// the WHOLE RHS width. With nb = 24 and 145 RHS on 4 threads, the last
/// lower update of n = 40 and n = 130 (16 and 10 rows) is packed for the
/// whole width but below the cutoff for one 36-column chunk; n = 20 runs
/// the kernel alone, 7 RHS stay compact and n = 300 with 400 RHS stays
/// packed throughout. Then every chunk boundary: RHS widths 1 .. 4 NR + 4
/// put the 4-thread chunk starts on every column offset modulo NR, run at 4
/// pool threads and nested inside a pool task (how a 1-thread pool runs
/// it), and for a kernel-only solve every split point of the RHS into two
/// separate solves returns the unsplit bytes.
TYPED_TEST(TrsmKernelTyped, ParallelIsBitwiseBlocked) {
  using T = TypeParam;
  ASSERT_TRUE(g_env_ready);
  ASSERT_GT(max_threads(), 1);
  constexpr index_t NR = TrsmTile<T>::NR;
  std::uint64_t seed = 800;
  auto same_bytes = [](const Matrix<T>& x, const Matrix<T>& y) {
    return std::memcmp(x.data(), y.data(), x.bytes()) == 0;
  };
  auto check = [&](index_t n, index_t nrhs, Uplo uplo, Diag diag) {
    SCOPED_TRACE(::testing::Message()
                 << "n=" << n << " nrhs=" << nrhs << " uplo="
                 << (uplo == Uplo::Lower ? "L" : "U")
                 << " diag=" << (diag == Diag::Unit ? "unit" : "non-unit"));
    Matrix<T> a = triangular_matrix<T>(n, uplo, ++seed);
    Matrix<T> blocked = random_matrix<T>(n, nrhs, ++seed);
    Matrix<T> parallel = to_matrix(blocked.view());
    Matrix<T> nested = to_matrix(blocked.view());
    trsm_left_blocked<T>(uplo, diag, a, blocked.view());
    trsm_left_parallel<T>(uplo, diag, a, parallel.view());
    EXPECT_TRUE(same_bytes(blocked, parallel)) << "4 pool threads";
    parallel_for(2, [&](index_t i) {
      if (i == 0) trsm_left_parallel<T>(uplo, diag, a, nested.view());
    });
    EXPECT_TRUE(same_bytes(blocked, nested)) << "inside a pool task";
  };
  const index_t shapes[][2] = {{40, 145}, {130, 145}, {20, 145}, {130, 7},
                               {300, 400}};
  for (const auto& [n, nrhs] : shapes)
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
      for (Diag diag : {Diag::Unit, Diag::NonUnit}) check(n, nrhs, uplo, diag);
  for (index_t n : {20, 130})
    for (index_t nrhs = 1; nrhs <= 4 * NR + 4; ++nrhs)
      for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
        check(n, nrhs, uplo, Diag::NonUnit);
  // Kernel-only solve (n <= nb = 24): no trailing update, so two separate
  // solves split at any column give the bytes of the whole.
  const index_t n = 21, nrhs = 2 * NR + 3;
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    Matrix<T> a = triangular_matrix<T>(n, uplo, ++seed);
    Matrix<T> whole = random_matrix<T>(n, nrhs, ++seed);
    const Matrix<T> b0 = to_matrix(whole.view());
    trsm_left_blocked<T>(uplo, Diag::NonUnit, a, whole.view());
    for (index_t split = 1; split < nrhs; ++split) {
      Matrix<T> parts = to_matrix(b0.view());
      trsm_left_blocked<T>(uplo, Diag::NonUnit, a,
                           parts.view().cols_range(0, split));
      trsm_left_blocked<T>(uplo, Diag::NonUnit, a,
                           parts.view().cols_range(split, nrhs - split));
      EXPECT_TRUE(same_bytes(whole, parts)) << "split at column " << split;
    }
  }
}

/// The register-tiled kernel against the seed oracle over every uplo/diag
/// pair, row counts around the vector height MR and the diagonal-block size,
/// and RHS widths around the column tile NR. A's other triangle (and its
/// diagonal, for Unit) holds NaN, which the solve must never read into a
/// result. B is an interior view of a larger buffer (ld > n), and the guard
/// entries around it must come back untouched. Run at this binary's
/// nb = 24 (blocked above 24 rows) and at nb = 256 (the kernel alone).
TYPED_TEST(TrsmKernelTyped, KernelMatchesReferenceOnInteriorViews) {
  using T = TypeParam;
  ASSERT_TRUE(g_env_ready);
  constexpr index_t NR = TrsmTile<T>::NR;
  const index_t shapes[] = {1, 2, 7, 8, 9, 15, 16, 17, 47, 48, 49, 63, 64,
                            65, 130};
  const index_t widths[] = {0, 1, NR - 1, NR, NR + 1, 13, 145};
  const T nan{std::numeric_limits<real_t<T>>::quiet_NaN()};
  constexpr index_t kGuard = 3;
  for (const char* nb : {"24", "256"}) {
    test::ScopedEnv env("HODLRX_TRSM_NB", nb);
    blocking_detail::refresh_for_testing();
    std::uint64_t seed = 3000;
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
      for (Diag diag : {Diag::Unit, Diag::NonUnit})
        for (index_t n : shapes)
          for (index_t nrhs : widths) {
            SCOPED_TRACE(::testing::Message()
                         << "nb=" << nb << " n=" << n << " nrhs=" << nrhs
                         << " uplo=" << (uplo == Uplo::Lower ? "L" : "U")
                         << " diag=" << (diag == Diag::Unit ? "unit" : "non"));
            Matrix<T> a = triangular_matrix<T>(n, uplo, ++seed);
            for (index_t j = 0; j < n; ++j)
              for (index_t i = 0; i < n; ++i) {
                const bool other = uplo == Uplo::Lower ? i < j : i > j;
                if (other || (i == j && diag == Diag::Unit)) a(i, j) = nan;
              }
            Matrix<T> buf =
                random_matrix<T>(n + 2 * kGuard, nrhs + 2 * kGuard, ++seed);
            const Matrix<T> before = to_matrix(buf.view());
            MatrixView<T> b = buf.view().block(kGuard, kGuard, n, nrhs);
            Matrix<T> expect = to_matrix(ConstMatrixView<T>(b));
            trsm_left_reference<T>(uplo, diag, a, expect.view());
            trsm_left_blocked<T>(uplo, diag, a, b);
            EXPECT_LE(rel_error<T>(ConstMatrixView<T>(b), expect.view()),
                      tol<T>());
            index_t touched = 0;
            for (index_t j = 0; j < buf.cols(); ++j)
              for (index_t i = 0; i < buf.rows(); ++i) {
                const bool inside = i >= kGuard && i < kGuard + n &&
                                    j >= kGuard && j < kGuard + nrhs;
                if (!inside && std::memcmp(&buf(i, j), &before(i, j),
                                           sizeof(T)) != 0)
                  ++touched;
              }
            EXPECT_EQ(touched, 0) << "guard entries around B changed";
          }
  }
  blocking_detail::refresh_for_testing();
  EXPECT_EQ(resolved_blocking<T>().trsm_nb, 24);
}

/// A and B in exact allocations (no slack after the last element) with
/// n % MR != 0, so a read past the partial row block's storage is a heap
/// overflow under AddressSanitizer. The kernel alone (nb = 256) and blocked
/// (nb = 24).
TYPED_TEST(TrsmKernelTyped, PartialRowBlockStaysInsideExactAllocation) {
  using T = TypeParam;
  constexpr index_t MR = TrsmTile<T>::MR;
  constexpr index_t NR = TrsmTile<T>::NR;
  const index_t shapes[] = {1, MR - 1, MR + 1, 2 * MR + 3, 3 * MR - 1, 53};
  for (const char* nb : {"24", "256"}) {
    test::ScopedEnv env("HODLRX_TRSM_NB", nb);
    blocking_detail::refresh_for_testing();
    std::uint64_t seed = 5000;
    for (index_t n : shapes) {
      if (n % MR == 0) continue;
      for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
        for (Diag diag : {Diag::Unit, Diag::NonUnit}) {
          const index_t nrhs = NR + 1;
          const Matrix<T> a0 = triangular_matrix<T>(n, uplo, ++seed);
          const Matrix<T> b0 = random_matrix<T>(n, nrhs, ++seed);
          std::vector<T> a(a0.data(), a0.data() + n * n);
          std::vector<T> b(b0.data(), b0.data() + n * nrhs);
          Matrix<T> expect = to_matrix(b0.view());
          trsm_left_reference<T>(uplo, diag, a0, expect.view());
          trsm_left_blocked<T>(uplo, diag,
                               ConstMatrixView<T>{a.data(), n, n, n},
                               MatrixView<T>{b.data(), n, nrhs, n});
          EXPECT_LE(rel_error<T>(ConstMatrixView<T>{b.data(), n, nrhs, n},
                                 expect.view()),
                    tol<T>())
              << "nb=" << nb << " n=" << n;
        }
    }
  }
  blocking_detail::refresh_for_testing();
}

/// Blocked solves on strided sub-views (ld > rows) — the layout every
/// factorization-internal panel solve uses.
TYPED_TEST(TrsmKernelTyped, SubmatrixViews) {
  using T = TypeParam;
  const index_t n = 70, nrhs = 11;
  Matrix<T> abig(150, 150);
  Rng rng(5);
  rng.fill_uniform<T>(abig.view());
  MatrixView<T> asub = abig.view().block(9, 13, n, n);
  const T scale = T{static_cast<real_t<T>>(1.0 / n)};
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      if (i == j)
        asub(i, j) += T{2};
      else
        asub(i, j) *= scale;
    }
  Matrix<T> bbig = random_matrix<T>(100, 60, 6);
  MatrixView<T> b = bbig.view().block(17, 3, n, nrhs);
  Matrix<T> expect = to_matrix(ConstMatrixView<T>(b));
  trsm_left_reference<T>(Uplo::Lower, Diag::NonUnit, ConstMatrixView<T>(asub),
                         expect.view());
  trsm_left_blocked<T>(Uplo::Lower, Diag::NonUnit, ConstMatrixView<T>(asub),
                       b);
  EXPECT_LE(rel_error<T>(ConstMatrixView<T>(b), expect.view()), tol<T>());
}

/// getrs / getrs_parallel (blocked, pivots applied once) against a manual
/// reference solve built from laswp + the oracle.
TYPED_TEST(TrsmKernelTyped, GetrsMatchesReferenceSolve) {
  using T = TypeParam;
  const index_t n = 150, nrhs = 9;
  Matrix<T> a = random_matrix<T>(n, n, 91);
  for (index_t i = 0; i < n; ++i) a(i, i) += T{4};
  Matrix<T> lu = to_matrix(a.view());
  std::vector<index_t> ipiv(n);
  getrf<T>(lu.view(), ipiv.data());

  Matrix<T> b = random_matrix<T>(n, nrhs, 92);
  Matrix<T> expect = to_matrix(b.view());
  laswp<T>(expect.view(), ipiv.data(), n, /*forward=*/true);
  trsm_left_reference<T>(Uplo::Lower, Diag::Unit, lu, expect.view());
  trsm_left_reference<T>(Uplo::Upper, Diag::NonUnit, lu, expect.view());

  Matrix<T> x1 = to_matrix(b.view());
  getrs<T>(lu, ipiv.data(), x1.view());
  EXPECT_LE(rel_error(x1, expect), tol<T>());

  Matrix<T> x2 = to_matrix(b.view());
  getrs_parallel<T>(lu, ipiv.data(), x2.view());
  EXPECT_LE(rel_error(x2, expect), tol<T>());

  // And the actual residual: A x = b.
  Matrix<T> r = to_matrix(b.view());
  gemm<T>(Op::N, Op::N, T{-1}, a, x1, T{1}, r.view());
  EXPECT_LE(norm_fro(r) / norm_fro(b), 100 * eps_v<T>* n);
}

/// Batched LU solve in stream mode (getrs_parallel per problem) against the
/// plain batched mode.
TYPED_TEST(TrsmKernelTyped, GetrsBatchedStreamMatchesBatched) {
  using T = TypeParam;
  const index_t batch = 3, n = 96, nrhs = 17;
  std::vector<Matrix<T>> lu(batch);
  std::vector<std::vector<index_t>> piv(batch, std::vector<index_t>(n));
  for (index_t i = 0; i < batch; ++i) {
    lu[i] = random_matrix<T>(n, n, 500 + i);
    for (index_t d = 0; d < n; ++d) lu[i](d, d) += T{4};
    getrf<T>(lu[i].view(), piv[i].data());
  }
  std::vector<Matrix<T>> b1(batch), b2(batch);
  std::vector<ConstMatrixView<T>> luv;
  std::vector<const index_t*> pv;
  std::vector<MatrixView<T>> bv1, bv2;
  for (index_t i = 0; i < batch; ++i) {
    b1[i] = random_matrix<T>(n, nrhs, 600 + i);
    b2[i] = to_matrix(b1[i].view());
    luv.push_back(lu[i]);
    pv.push_back(piv[i].data());
    bv1.push_back(b1[i]);
    bv2.push_back(b2[i]);
  }
  getrs_batched<T>(luv, pv, bv1, BatchPolicy::kForceBatched);
  getrs_batched<T>(luv, pv, bv2, BatchPolicy::kForceStream);
  for (index_t i = 0; i < batch; ++i)
    EXPECT_LE(rel_error(b1[i], b2[i]), tol<T>());
}

/// --- persistent pool invariants ------------------------------------------

TEST(ThreadPool, EnvControlsSizeAndNoPerLaunchThreadCreation) {
  ASSERT_TRUE(g_env_ready);
  ThreadPool& pool = ThreadPool::instance();
  EXPECT_EQ(pool.threads(), 4) << "HODLRX_NUM_THREADS override not seen";
  EXPECT_EQ(max_threads(), 4);

  // Warm up, then hammer launches: the worker count must never change.
  std::atomic<index_t> sum{0};
  parallel_for(16, [&](index_t i) { sum += i; });
  const std::uint64_t created = pool.threads_created();
  EXPECT_EQ(created, 3u);  // 4 participants = 3 workers + the caller
  const std::uint64_t launches0 = pool.launches();
  for (int rep = 0; rep < 100; ++rep) {
    parallel_for_static(8, [&](index_t i) { sum += i; });
  }
  EXPECT_EQ(pool.threads_created(), created)
      << "launches must reuse the persistent workers, not spawn threads";
  EXPECT_GE(pool.launches(), launches0 + 100);
  EXPECT_EQ(sum.load(), 16 * 15 / 2 + 100 * (8 * 7 / 2));
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  EXPECT_THROW(
      parallel_for(64,
                   [&](index_t i) {
                     if (i == 33) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  std::atomic<int> count{0};
  parallel_for(4, [&](index_t) {
    EXPECT_TRUE(in_parallel() || max_threads() == 1);
    parallel_for(4, [&](index_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 16);
}

/// Per-thread packing arenas persist across launches: repeated blocked
/// solves must stop growing the calling thread's arena after the first.
TEST(ThreadPool, WorkspaceArenaSteadyStateAcrossSolves) {
  Matrix<double> a = triangular_matrix<double>(200, Uplo::Lower, 7);
  Matrix<double> b = random_matrix<double>(200, 64, 8);
  trsm_left_blocked<double>(Uplo::Lower, Diag::NonUnit, a, b.view());
  const std::size_t grown = WorkspaceArena::local().grow_events();
  for (int rep = 0; rep < 5; ++rep)
    trsm_left_blocked<double>(Uplo::Lower, Diag::NonUnit, a, b.view());
  EXPECT_EQ(WorkspaceArena::local().grow_events(), grown);
}

/// --- gemm_parallel's pool-shared A-pack ----------------------------------

TEST(GemmParallelSharedA, PacksAOncePerLaunch) {
  const index_t n = 512;
  Matrix<double> a = random_matrix<double>(n, n, 11);
  Matrix<double> b = random_matrix<double>(n, n, 12);
  Matrix<double> c1(n, n), c2(n, n);
  gemm<double>(Op::N, Op::N, 1.0, a, b, 0.0, c1.view());
  gemm_stats::reset();
  gemm_parallel<double>(Op::N, Op::N, 1.0, a, b, 0.0, c2.view());
  EXPECT_EQ(gemm_stats::pool_packs(), 1u)
      << "gemm_parallel must pack A once into the pool-shared slot";
  EXPECT_EQ(gemm_stats::a_packs(), 0u)
      << "column chunks must reuse the shared A-pack, not re-pack";
  EXPECT_LE(rel_error(c2, c1), 1e-11);
}

/// The GEMM cache-blocking override must be live and must not perturb
/// numerics (tile offsets and consumers agree on the runtime values).
TEST(RuntimeBlocking, GemmMcOverrideSeenAndCorrect) {
  ASSERT_TRUE(g_env_ready);
  EXPECT_EQ(resolved_blocking<double>().mc, 160);
  EXPECT_EQ(resolved_blocking<float>().mc, 160);
  EXPECT_EQ(resolved_blocking<double>().kc, GemmBlocking<double>::KC)
      << "unset vars must keep their compiled defaults";
  const index_t m = 200, n = 50, k = 333;  // m spans two 160-wide MC tiles
  Matrix<double> a = random_matrix<double>(m, k, 21);
  Matrix<double> b = random_matrix<double>(k, n, 22);
  Matrix<double> c1(m, n), c2(m, n);
  gemm_packed<double>(Op::N, Op::N, 1.0, a, b, 0.0, c1.view());
  // Element-accessor reference.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      double s = 0;
      for (index_t l = 0; l < k; ++l) s += a(i, l) * b(l, j);
      c2(i, j) = s;
    }
  EXPECT_LE(rel_error(c1, c2), 1e-11);
}

}  // namespace
}  // namespace hodlrx
