#include <gtest/gtest.h>

#include <complex>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "batched/batched_blas.hpp"
#include "bie/contour.hpp"
#include "bie/helmholtz.hpp"
#include "bie/laplace.hpp"
#include "common/parallel.hpp"
#include "common/thread_pool.hpp"
#include "device/device.hpp"
#include "lowrank/lowrank.hpp"
#include "lowrank/recompress.hpp"
#include "reference/lapack_reference.hpp"
#include "test_util.hpp"

/// Property tests of the Jacobi SVD machinery: the blocked serial driver
/// (jacobi_svd / jacobi_svd_inplace, Gram-per-sweep) and the
/// sweep-synchronized strided-batched driver must agree with the seed's
/// reference one-sided Jacobi over randomized shapes — tall, square, wide
/// (the flip path), one column, rank-deficient and exactly zero blocks —
/// for all four scalar types. Also asserts the engine's launch-shape
/// invariants (batched sweeps counted, zero pool thread churn), the
/// HODLRX_SVD_SWEEPS budget/non-convergence reporting, the shared
/// truncate_rank rule, batched-vs-serial recompression agreement, and the
/// Gram/Cholesky recompression kernel against its Householder rung.

namespace hodlrx {
namespace {

using test::rel_error;

template <typename T>
real_t<T> tol() {
  return std::is_same_v<real_t<T>, float> ? real_t<T>(5e-4) : real_t<T>(1e-11);
}

/// Deterministic blocks covering the degenerate structures the compressor
/// feeds the engine: dense random, rank-deficient (duplicated columns), and
/// exactly zero.
template <typename T>
std::vector<Matrix<T>> make_blocks(index_t m, index_t n, index_t batch,
                                   std::uint64_t seed) {
  std::vector<Matrix<T>> blocks;
  for (index_t i = 0; i < batch; ++i) {
    if (i % 4 == 3) {
      blocks.emplace_back(m, n);  // zero block
    } else {
      Matrix<T> a = random_matrix<T>(m, n, seed + i);
      if (i % 4 == 2 && n >= 2) {
        for (index_t j = 1; j < n; j += 2)
          copy<T>(a.view().block(0, j - 1, m, 1), a.view().block(0, j, m, 1));
      }
      blocks.push_back(std::move(a));
    }
  }
  return blocks;
}

/// ||Q^H Q - I|| over the columns with nonzero singular values (zero
/// singular values leave zero columns by contract).
template <typename T>
real_t<T> ortho_error(ConstMatrixView<T> q, index_t k) {
  if (k == 0) return real_t<T>{0};
  ConstMatrixView<T> qk = q.block(0, 0, q.rows, k);
  Matrix<T> g(k, k);
  gemm<T>(Op::C, Op::N, T{1}, qk, qk, T{0}, g.view());
  return rel_error<T>(g.view(), Matrix<T>::identity(k).view());
}

/// Reconstruct U diag(s) V^H.
template <typename T>
Matrix<T> reconstruct(ConstMatrixView<T> u, const real_t<T>* s,
                      ConstMatrixView<T> v) {
  Matrix<T> us = to_matrix(u);
  for (index_t j = 0; j < us.cols(); ++j)
    scale_inplace(T{s[j]}, us.view().block(0, j, us.rows(), 1));
  Matrix<T> rec(u.rows, v.rows);
  gemm<T>(Op::N, Op::C, T{1}, ConstMatrixView<T>(us), v, T{0}, rec.view());
  return rec;
}

template <typename T>
index_t positive_count(const std::vector<real_t<T>>& s, real_t<T> floor) {
  index_t k = 0;
  while (k < static_cast<index_t>(s.size()) && s[k] > floor) ++k;
  return k;
}

template <typename T>
class SvdBatchedTyped : public ::testing::Test {};
using SvdTypes = ::testing::Types<float, double, std::complex<float>,
                                  std::complex<double>>;
TYPED_TEST_SUITE(SvdBatchedTyped, SvdTypes);

/// The blocked serial driver vs the seed reference across shapes — in
/// particular the WIDE flip path (rows < cols), which factors a^H and swaps
/// U <-> V. Singular values must agree; U/V must be orthonormal on the
/// numerically nonzero part and reconstruct the block.
TYPED_TEST(SvdBatchedTyped, SerialMatchesReferenceIncludingWideFlip) {
  using T = TypeParam;
  using R = real_t<T>;
  const index_t shapes[][2] = {{24, 24}, {40, 12}, {12, 40}, {8, 20},
                               {1, 9},   {9, 1},   {5, 5}};
  std::uint64_t seed = 300;
  for (auto& [m, n] : shapes) {
    std::vector<Matrix<T>> blocks = make_blocks<T>(m, n, 4, seed += 20);
    for (const Matrix<T>& a : blocks) {
      SVDResult<T> got = jacobi_svd<T>(a);
      SVDResult<T> ref = jacobi_svd_reference<T>(a.view());
      EXPECT_TRUE(got.converged) << m << "x" << n;
      ASSERT_EQ(got.s.size(), ref.s.size());
      const R scale = std::max<R>(ref.s.empty() ? R{0} : ref.s[0], R{1});
      for (std::size_t j = 0; j < got.s.size(); ++j)
        EXPECT_NEAR(got.s[j], ref.s[j], tol<T>() * scale)
            << m << "x" << n << " s[" << j << "]";
      const index_t k = positive_count<T>(got.s, tol<T>() * scale);
      EXPECT_LE(ortho_error<T>(got.u.view(), k), 10 * tol<T>())
          << m << "x" << n;
      EXPECT_LE(ortho_error<T>(got.v.view(), k), 10 * tol<T>())
          << m << "x" << n;
      EXPECT_LE(rel_error<T>(reconstruct<T>(got.u, got.s.data(), got.v).view(),
                             a.view()),
                10 * tol<T>())
          << m << "x" << n;
    }
  }
}

/// The sweep-synchronized batched driver must match the per-block reference
/// on every problem of a mixed batch (padded, non-contiguous stride), for
/// all four scalar types, and give each problem bitwise the U, s and V it
/// gets as a batch of one: a problem's bits may not depend on its batch.
TYPED_TEST(SvdBatchedTyped, StridedBatchedMatchesPerBlockReference) {
  using T = TypeParam;
  using R = real_t<T>;
  const index_t cases[][3] = {{48, 16, 9},  {32, 32, 9},  {20, 1, 9},
                              {7, 5, 9},    {48, 16, 17}, {32, 32, 17},
                              {20, 1, 17},  {7, 5, 17}};  // m, n, batch
  std::uint64_t seed = 5000;
  for (auto& [m, n, batch] : cases) {
    const index_t stride = m * n + 5;  // padded, non-contiguous
    std::vector<Matrix<T>> blocks = make_blocks<T>(m, n, batch, seed += 40);
    std::vector<T> buf(static_cast<std::size_t>(stride) * batch, T{});
    for (index_t i = 0; i < batch; ++i)
      copy<T>(blocks[i].view(),
              MatrixView<T>{buf.data() + i * stride, m, n, m});
    std::vector<R> sig(static_cast<std::size_t>(n) * batch);
    std::vector<T> v(static_cast<std::size_t>(n) * n * batch);
    svd_stats::reset();
    const SvdBatchInfo info = jacobi_svd_strided_batched<T>(
        buf.data(), m, stride, m, n, sig.data(), n, v.data(), n, n * n,
        batch);
    EXPECT_EQ(info.nonconverged, 0);
    EXPECT_EQ(svd_stats::batched_sweeps(), 1u);
    EXPECT_GE(svd_stats::sweep_launches(), n > 1 ? 1u : 0u);
    EXPECT_EQ(svd_stats::serial_svds(), 0u)
        << "the batched path must not fall back to per-block jacobi_svd";
    for (index_t i = 0; i < batch; ++i) {
      SVDResult<T> ref = jacobi_svd_reference<T>(blocks[i].view());
      const R scale = std::max<R>(ref.s.empty() ? R{0} : ref.s[0], R{1});
      for (index_t j = 0; j < n; ++j)
        EXPECT_NEAR(sig[i * n + j], ref.s[j], tol<T>() * scale)
            << "problem " << i << " s[" << j << "] of " << m << "x" << n;
      ConstMatrixView<T> ui(buf.data() + i * stride, m, n, m);
      ConstMatrixView<T> vi(v.data() + i * n * n, n, n, n);
      EXPECT_LE(rel_error<T>(
                    reconstruct<T>(ui, sig.data() + i * n, vi).view(),
                    blocks[i].view()),
                10 * tol<T>())
          << "problem " << i << " of " << m << "x" << n;
      Matrix<T> u1 = to_matrix(blocks[i].view()), v1(n, n);
      std::vector<R> s1(static_cast<std::size_t>(n));
      jacobi_svd_strided_batched<T>(u1.data(), m, m * n, m, n, s1.data(), n,
                                    v1.data(), n, n * n, 1);
      EXPECT_EQ(std::memcmp(u1.data(), ui.data, u1.bytes()), 0)
          << "U of problem " << i << " of " << batch;
      EXPECT_EQ(std::memcmp(s1.data(), sig.data() + i * n, n * sizeof(R)), 0)
          << "s of problem " << i << " of " << batch;
      EXPECT_EQ(std::memcmp(v1.data(), vi.data, v1.bytes()), 0)
          << "V of problem " << i << " of " << batch;
    }
  }
}

/// Zero-rank and empty-block edges: an all-zero batch converges in one
/// sweep with s = 0 everywhere (and zero U columns by contract); degenerate
/// shapes are no-ops; layout misuse throws.
TEST(SvdBatched, ZeroRankAndEmptyEdges) {
  using T = double;
  const index_t m = 12, n = 6, batch = 3;
  std::vector<T> buf(static_cast<std::size_t>(m) * n * batch, T{});
  std::vector<double> sig(static_cast<std::size_t>(n) * batch, -1.0);
  std::vector<T> v(static_cast<std::size_t>(n) * n * batch);
  const SvdBatchInfo info = jacobi_svd_strided_batched<T>(
      buf.data(), m, m * n, m, n, sig.data(), n, v.data(), n, n * n, batch);
  EXPECT_EQ(info.nonconverged, 0);
  for (double s : sig) EXPECT_EQ(s, 0.0);
  for (T x : buf) EXPECT_EQ(x, 0.0);  // zero U columns for zero s
  for (index_t i = 0; i < batch; ++i)  // V is still a (permuted) identity
    EXPECT_LE(test::rel_error<T>(
                  ConstMatrixView<T>(v.data() + i * n * n, n, n, n),
                  Matrix<T>::identity(n).view()),
              1e-14);

  // Degenerate shapes: no-ops, not crashes.
  std::vector<double> s1(4);
  jacobi_svd_strided_batched<double>(nullptr, 1, 0, 0, 0, s1.data(), 4,
                                     nullptr, 1, 0, 3);
  jacobi_svd_strided_batched<double>(nullptr, 1, 0, 5, 0, s1.data(), 1,
                                     nullptr, 1, 0, 3);
  std::vector<T> a(12), vv(9);
  jacobi_svd_strided_batched<double>(a.data(), 4, 12, 4, 3, s1.data(), 3,
                                     vv.data(), 3, 9, 0);
  // lda < m and wide (m < n) inputs are layout misuse.
  EXPECT_THROW(jacobi_svd_strided_batched<double>(a.data(), 2, 12, 4, 3,
                                                  s1.data(), 3, vv.data(), 3,
                                                  9, 1),
               Error);
  EXPECT_THROW(jacobi_svd_strided_batched<double>(a.data(), 3, 12, 3, 4,
                                                  s1.data(), 4, vv.data(), 4,
                                                  16, 1),
               Error);
}

/// The sweep budget comes from HODLRX_SVD_SWEEPS through the shared env
/// parser (reread per call), and exhausting it is never silent: the result
/// reports converged = false and svd_stats counts it, in every build type.
TEST(SvdBatched, SweepBudgetEnvOverrideAndNonConvergenceReporting) {
  unsetenv("HODLRX_SVD_SWEEPS");    // hermetic against the caller's env
  ASSERT_EQ(svd_max_sweeps(), 42);  // default
  setenv("HODLRX_SVD_SWEEPS", "1", /*overwrite=*/1);
  EXPECT_EQ(svd_max_sweeps(), 1);
  Matrix<double> a = random_matrix<double>(16, 12, 999);
  svd_stats::reset();
  SVDResult<double> r = jacobi_svd<double>(a);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.sweeps, 1);
  EXPECT_EQ(svd_stats::nonconverged(), 1u);
  unsetenv("HODLRX_SVD_SWEEPS");
  EXPECT_EQ(svd_max_sweeps(), 42);
  // With the default budget the same block converges and reports it.
  SVDResult<double> ok = jacobi_svd<double>(a);
  EXPECT_TRUE(ok.converged);
  EXPECT_GT(ok.sweeps, 1);
}

/// A block of recompress_batched that leaves the Gram path is re-truncated
/// by the Householder rung, whose core SVD is not re-run: starved to one
/// sweep under kReport, the returned count still includes it, so it equals
/// svd_stats' count of exhausted SVDs.
TEST(SvdBatched, RecompressBatchedCountsHouseholderCores) {
  test::ScopedEnv env("HODLRX_SVD_SWEEPS", "1");
  const index_t m = 48, n = 36, batch = 3;
  std::vector<LowRankFactor<double>> fs(batch);
  for (index_t i = 0; i < batch; ++i) {
    LowRankFactor<double>& f = fs[static_cast<std::size_t>(i)];
    f.u = random_matrix<double>(m, 6, 500 + i);
    f.v = random_matrix<double>(n, 6, 600 + i);
  }
  // Duplicated columns: problem 1 breaks the Gram Cholesky.
  copy<double>(fs[1].u.view().block(0, 0, m, 1), fs[1].u.view().block(0, 2, m, 1));
  qr_stats::reset();
  const std::uint64_t before = svd_stats::nonconverged();
  const SvdBatchInfo info =
      recompress_batched<double>(fs, 1e-12, -1, OnBreakdown::kReport);
  ASSERT_EQ(qr_stats::cholesky_fallbacks(), 1u);
  EXPECT_GT(info.nonconverged, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(info.nonconverged),
            svd_stats::nonconverged() - before);
}

/// The ONE truncation rule shared by rsvd and recompress.
TEST(SvdBatched, TruncateRankRule) {
  const double s[] = {10.0, 5.0, 1.0, 1e-9, 0.0};
  EXPECT_EQ(truncate_rank<double>(s, 5, -1, 0.0), 5);     // no cap, no tol
  EXPECT_EQ(truncate_rank<double>(s, 5, 3, 0.0), 3);      // cap only
  EXPECT_EQ(truncate_rank<double>(s, 5, -1, 1e-6), 3);    // tol only
  EXPECT_EQ(truncate_rank<double>(s, 5, 2, 1e-6), 2);     // cap wins
  EXPECT_EQ(truncate_rank<double>(s, 5, -1, 0.2), 2);     // s[k] > tol*s[0]
  EXPECT_EQ(truncate_rank<double>(s, 5, 0, 1e-6), 0);     // zero cap
  EXPECT_EQ(truncate_rank<double>(s, 0, -1, 1e-6), 0);    // empty
  const double z[] = {0.0, 0.0};
  EXPECT_EQ(truncate_rank<double>(z, 2, -1, 1e-6), 0);    // zero block
  EXPECT_EQ(truncate_rank<double>(z, 2, -1, 0.0), 2);     // tol off keeps cap
}

/// Batched recompression must agree with the serial one on a batch of
/// uniform-shape factors with differing (inflated) ranks: same new ranks,
/// same reconstructions.
TYPED_TEST(SvdBatchedTyped, RecompressBatchedMatchesSerial) {
  using T = TypeParam;
  using R = real_t<T>;
  const R rtol = std::is_same_v<R, float> ? R(2e-3) : R(1e-10);
  const index_t m = 40, n = 32, batch = 6;
  std::vector<LowRankFactor<T>> fs(batch), serial(batch);
  for (index_t i = 0; i < batch; ++i) {
    const index_t true_r = 1 + i % 4;       // varying true ranks
    const index_t padded_r = true_r + 2 * (i % 3);  // varying inflation
    Matrix<T> u0 = random_matrix<T>(m, true_r, 60 + i);
    Matrix<T> v0 = random_matrix<T>(n, true_r, 90 + i);
    LowRankFactor<T>& f = fs[static_cast<std::size_t>(i)];
    f.u = Matrix<T>(m, padded_r);
    f.v = Matrix<T>(n, padded_r);
    for (index_t c = 0; c < padded_r; ++c) {
      // Redundant trailing columns with a zero partner keep the product
      // equal to u0 v0^H while inflating the stored rank.
      const index_t src = c % true_r;
      copy<T>(u0.view().block(0, src, m, 1), f.u.view().block(0, c, m, 1));
      if (c < true_r)
        copy<T>(v0.view().block(0, src, n, 1), f.v.view().block(0, c, n, 1));
    }
    serial[static_cast<std::size_t>(i)].u = to_matrix(f.u.view());
    serial[static_cast<std::size_t>(i)].v = to_matrix(f.v.view());
  }
  std::vector<Matrix<T>> before(batch);
  for (index_t i = 0; i < batch; ++i)
    before[static_cast<std::size_t>(i)] =
        fs[static_cast<std::size_t>(i)].reconstruct();

  qr_stats::reset();
  recompress_batched<T>(fs, std::is_same_v<R, float> ? R(1e-5) : R(1e-12));
  // Every problem with redundant (duplicated) columns — i % 3 != 0 — breaks
  // the Gram Cholesky and takes the Householder rung; the others do not.
  EXPECT_EQ(qr_stats::cholesky_fallbacks(), 4u);
  for (index_t i = 0; i < batch; ++i) {
    LowRankFactor<T>& s = serial[static_cast<std::size_t>(i)];
    const index_t k =
        recompress<T>(s, std::is_same_v<R, float> ? R(1e-5) : R(1e-12)).rank;
    EXPECT_EQ(fs[static_cast<std::size_t>(i)].rank(), k) << "problem " << i;
    EXPECT_LE(rel_error<T>(fs[static_cast<std::size_t>(i)].reconstruct(),
                           before[static_cast<std::size_t>(i)]),
              rtol)
        << "problem " << i;
  }
  // The max_rank cap applies in both (the pre-PR-4 recompress ignored it).
  LowRankFactor<T> capped;
  capped.u = random_matrix<T>(m, 8, 777);
  capped.v = random_matrix<T>(n, 8, 778);
  std::vector<LowRankFactor<T>> one(1);
  one[0].u = to_matrix(capped.u.view());
  one[0].v = to_matrix(capped.v.view());
  EXPECT_EQ(recompress<T>(capped, R{0}, 3).rank, 3);
  recompress_batched<T>(one, R{0}, 3);
  EXPECT_EQ(one[0].rank(), 3);
}

/// A batch mixing well-conditioned factors with ONE factor whose U has
/// duplicated columns: only that problem falls back to the Householder
/// rung, and every rank and product matches serial recompress.
TYPED_TEST(SvdBatchedTyped, RecompressBatchedMixedBatchFallsBackPerBlock) {
  using T = TypeParam;
  using R = real_t<T>;
  const R tol = std::is_same_v<R, float> ? R(1e-5) : R(1e-12);
  const R rtol = std::is_same_v<R, float> ? R(2e-3) : R(1e-10);
  const index_t m = 48, n = 36, batch = 5, bad = 2;
  std::vector<LowRankFactor<T>> fs(batch), serial(batch);
  std::vector<Matrix<T>> before(batch);
  for (index_t i = 0; i < batch; ++i) {
    LowRankFactor<T>& f = fs[static_cast<std::size_t>(i)];
    f.u = random_matrix<T>(m, 3 + i, 300 + i);
    f.v = random_matrix<T>(n, 3 + i, 400 + i);
    if (i == bad)
      copy<T>(f.u.view().block(0, 0, m, 1), f.u.view().block(0, 2, m, 1));
    serial[static_cast<std::size_t>(i)] = {to_matrix(f.u.view()),
                                           to_matrix(f.v.view())};
    before[static_cast<std::size_t>(i)] = f.reconstruct();
  }
  qr_stats::reset();
  recompress_batched<T>(fs, tol);
  EXPECT_EQ(qr_stats::cholesky_fallbacks(), 1u)
      << "only the duplicated-column problem may leave the Gram path";
  for (index_t i = 0; i < batch; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    EXPECT_EQ(fs[s].rank(), recompress<T>(serial[s], tol).rank)
        << "problem " << i;
    EXPECT_EQ(fs[s].rank(), i == bad ? 2 + i : 3 + i) << "problem " << i;
    EXPECT_LE(rel_error<T>(fs[s].reconstruct(), before[s]), rtol)
        << "problem " << i;
  }
  EXPECT_EQ(qr_stats::cholesky_fallbacks(), 2u)
      << "serial recompress falls back on the same problem";
}

/// Differential test of the batched Gram kernel against the Householder
/// rung on whole tree levels of ACA factors (the batches HodlrMatrix::build
/// recompresses): identical ranks, reconstructions within 1e-10, and zero
/// fallbacks.
template <typename T>
void expect_batched_gram_matches_householder(const MatrixGenerator<T>& g,
                                             index_t levels) {
  const ClusterTree tree = ClusterTree::uniform(g.rows(), 64);
  const real_t<T> tol(1e-12);
  qr_stats::reset();
  for (index_t level = 1; level <= levels; ++level) {
    std::vector<LowRankFactor<T>> fs = test::aca_level<T>(g, tree, level);
    std::vector<LowRankFactor<T>> hh;
    for (const LowRankFactor<T>& f : fs)
      hh.push_back({to_matrix(f.u.view()), to_matrix(f.v.view())});
    recompress_batched<T>(fs, tol);
    for (std::size_t i = 0; i < fs.size(); ++i) {
      EXPECT_EQ(fs[i].rank(),
                detail::recompress_householder<T>(hh[i], tol).rank)
          << "level " << level << " block " << i;
      EXPECT_LE(rel_error<T>(fs[i].reconstruct(), hh[i].reconstruct()), 1e-10)
          << "level " << level << " block " << i;
    }
  }
  EXPECT_EQ(qr_stats::cholesky_fallbacks(), 0u);
}

TEST(SvdBatched, RecompressBatchedGramMatchesHouseholderLaplaceBie) {
  const bie::BlobContour contour;
  expect_batched_gram_matches_householder<double>(
      bie::LaplaceExteriorBIE<double>(bie::discretize(contour, 2048),
                                      {0.0, 0.0}),
      4);
}

TEST(SvdBatched, RecompressBatchedGramMatchesHouseholderHelmholtzBie) {
  const bie::BlobContour contour;
  expect_batched_gram_matches_householder<std::complex<double>>(
      bie::HelmholtzCombinedBIE<std::complex<double>>(
          bie::discretize(contour, 1024), 20.0, 20.0, 6),
      3);
}

/// The batched sweep must issue device launches and must NOT create pool
/// threads mid-sweep — the PR 2 pool invariant extended to the SVD engine.
TEST(SvdBatched, SweepLaunchesBatchedKernelsWithoutThreadChurn) {
  ThreadPool& pool = ThreadPool::instance();
  const index_t m = 96, n = 16, batch = 24;
  std::vector<double> buf(static_cast<std::size_t>(m) * n * batch);
  for (index_t i = 0; i < batch; ++i) {
    Matrix<double> a = random_matrix<double>(m, n, 177 + i);
    copy<double>(a.view(),
                 MatrixView<double>{buf.data() + i * m * n, m, n, m});
  }
  std::vector<double> sig(static_cast<std::size_t>(n) * batch);
  std::vector<double> v(static_cast<std::size_t>(n) * n * batch);
  const std::uint64_t created = pool.threads_created();
  const std::uint64_t launches0 = DeviceContext::global().launches();
  const SvdBatchInfo info = jacobi_svd_strided_batched<double>(
      buf.data(), m, m * n, m, n, sig.data(), n, v.data(), n, n * n, batch);
  EXPECT_EQ(info.nonconverged, 0);
  EXPECT_GT(DeviceContext::global().launches(), launches0 + 3)
      << "init + per-sweep Gram/rotation + finalize must be recorded as "
         "batched launches";
  EXPECT_EQ(pool.threads_created(), created)
      << "a batched-SVD sweep must not create threads";
}

}  // namespace
}  // namespace hodlrx
