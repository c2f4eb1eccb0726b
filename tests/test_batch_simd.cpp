#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <vector>

#include "batched/batch_kernels.hpp"
#include "batched/batched_blas.hpp"
#include "batched/interleave.hpp"
#include "common/blocking.hpp"
#include "common/hwinfo.hpp"
#include "common/lapack.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "test_util.hpp"

/// Property tests of the across-batch SIMD layer (interleave.hpp +
/// batch_kernels.hpp) and its dispatch inside the batched drivers:
///   - the problem-major <-> lane-major transpose pair round-trips exactly,
///     zero-fills dead lanes, absorbs op()/conj during the gather and fuses
///     alpha/beta into the scatter,
///   - the across-batch Jacobi sweep and small-GEMM kernels agree with
///     their per-problem scalar references for all four scalar types,
///   - HODLRX_BATCH_SIMD=1 keeps every across-batch counter at zero (the
///     drivers run the untouched per-problem code path) and the strided
///     drivers produce the same results under both widths.
///
/// This binary owns its environment: tests that touch the resolver start
/// from a clean slate (all blocking variables unset) and re-resolve through
/// the test-only refresh hook.

namespace hodlrx {
namespace {

using test::rel_error;

const bool g_env_ready = [] {
  // Four pool threads so the batched paths fork even on 1-CPU CI.
  setenv("HODLRX_NUM_THREADS", "4", 1);
  return true;
}();

constexpr const char* kBlockingVars[] = {
    "HODLRX_AUTOTUNE", "HODLRX_GEMM_TILE",  "HODLRX_GEMM_MC",
    "HODLRX_GEMM_KC",  "HODLRX_GEMM_NC",    "HODLRX_TRSM_NB",
    "HODLRX_QR_NB",    "HODLRX_BATCH_SIMD"};

/// Clean-slate guard (the test_blocking idiom): clears every blocking
/// variable on entry AND exit and re-resolves, so tests cannot leak state.
class ScopedBatchEnv {
 public:
  ScopedBatchEnv() {
    clear();
    refresh();
  }
  ~ScopedBatchEnv() {
    clear();
    refresh();
  }
  void set(const char* name, const std::string& value) {
    setenv(name, value.c_str(), 1);
  }
  void refresh() { blocking_detail::refresh_for_testing(); }
  static void clear() {
    for (const char* v : kBlockingVars) unsetenv(v);
  }
};

template <typename T>
real_t<T> tol() {
  return std::is_same_v<real_t<T>, float> ? real_t<T>(5e-4) : real_t<T>(1e-11);
}

/// Mixed batch covering the degenerate structures the compressor feeds the
/// engine: dense random, rank-deficient (duplicated columns), zero.
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

template <typename T>
class BatchSimdTyped : public ::testing::Test {};
using AllTypes = ::testing::Types<float, double, std::complex<float>,
                                  std::complex<double>>;
TYPED_TEST_SUITE(BatchSimdTyped, AllTypes);

/// --- interleave / deinterleave -------------------------------------------

/// Round trip through the lane-major layout is exact, including a partial
/// last group (nlanes < w), a column stride larger than rows, and sentinel
/// padding that must survive untouched.
TYPED_TEST(BatchSimdTyped, InterleaveRoundTripExact) {
  using T = TypeParam;
  const index_t rows = 13, cols = 5, ld = 17;
  for (index_t w : {index_t{2}, index_t{4}, index_t{8}}) {
    for (index_t nlanes : {w, w - 1, index_t{1}}) {
      std::vector<Matrix<T>> src;
      std::vector<const T*> sp;
      for (index_t l = 0; l < nlanes; ++l) {
        Matrix<T> a(ld, cols);  // extra rows = in-band padding
        Rng rng(900 + 10 * static_cast<std::uint64_t>(w) + l);
        rng.fill_uniform(a.view());
        src.push_back(std::move(a));
        sp.push_back(src.back().view().data);
      }
      std::vector<T> buf(static_cast<std::size_t>(rows * cols * w),
                         T{real_t<T>(-77)});
      batch_interleave<T>(rows, cols, sp.data(), ld, nlanes, w, buf.data());
      // Spot-check the addressing law and the zero-fill of dead lanes.
      for (index_t j = 0; j < cols; ++j)
        for (index_t i = 0; i < rows; ++i)
          for (index_t l = 0; l < w; ++l) {
            const T want = l < nlanes ? src[l](i, j) : T{};
            EXPECT_EQ(buf[static_cast<std::size_t>((i + j * rows) * w + l)],
                      want)
                << "w=" << w << " lane " << l << " (" << i << "," << j << ")";
          }
      // Scatter back into sentinel-filled destinations: values restored
      // exactly, padding rows untouched.
      std::vector<Matrix<T>> dst;
      std::vector<T*> dp;
      for (index_t l = 0; l < nlanes; ++l) {
        Matrix<T> d(ld, cols);
        for (index_t j = 0; j < cols; ++j)
          for (index_t i = 0; i < ld; ++i) d(i, j) = T{real_t<T>(42)};
        dst.push_back(std::move(d));
        dp.push_back(dst.back().view().data);
      }
      batch_deinterleave<T>(rows, cols, buf.data(), w, nlanes, dp.data(), ld);
      for (index_t l = 0; l < nlanes; ++l)
        for (index_t j = 0; j < cols; ++j)
          for (index_t i = 0; i < ld; ++i) {
            const T want = i < rows ? src[l](i, j) : T{real_t<T>(42)};
            EXPECT_EQ(dst[l](i, j), want) << "lane " << l;
          }
    }
  }
}

/// batch_interleave_op absorbs transpose/conjugation during the gather, the
/// way the GEMM packing routines do.
TYPED_TEST(BatchSimdTyped, InterleaveOpAbsorbsTransposeAndConjugation) {
  using T = TypeParam;
  const index_t m = 6, n = 9, w = 4, nlanes = 3;
  std::vector<Matrix<T>> src;
  std::vector<const T*> sp;
  for (index_t l = 0; l < nlanes; ++l) {
    src.push_back(random_matrix<T>(m, n, 1200 + l));
    sp.push_back(src.back().view().data);
  }
  for (Op op : {Op::N, Op::T, Op::C}) {
    const index_t rows = op == Op::N ? m : n;
    const index_t cols = op == Op::N ? n : m;
    std::vector<T> buf(static_cast<std::size_t>(rows * cols * w), T{});
    batch_interleave_op<T>(op, rows, cols, sp.data(), m, nlanes, w,
                           buf.data());
    for (index_t l = 0; l < nlanes; ++l)
      for (index_t j = 0; j < cols; ++j)
        for (index_t i = 0; i < rows; ++i) {
          T want = op == Op::N ? src[l](i, j) : src[l](j, i);
          if (op == Op::C) want = conj_s(want);
          EXPECT_EQ(buf[static_cast<std::size_t>((i + j * rows) * w + l)],
                    want)
              << "op=" << static_cast<int>(op) << " lane " << l;
        }
  }
}

/// The fused scatter applies dst = alpha * lane + beta * dst, and beta == 0
/// overwrites without reading (gemm's beta semantics).
TYPED_TEST(BatchSimdTyped, DeinterleaveAxpbyFusesTheUpdate) {
  using T = TypeParam;
  const index_t rows = 7, cols = 4, w = 4, nlanes = 2;
  std::vector<Matrix<T>> lanes;
  std::vector<const T*> sp;
  for (index_t l = 0; l < nlanes; ++l) {
    lanes.push_back(random_matrix<T>(rows, cols, 1300 + l));
    sp.push_back(lanes.back().view().data);
  }
  std::vector<T> buf(static_cast<std::size_t>(rows * cols * w), T{});
  batch_interleave<T>(rows, cols, sp.data(), rows, nlanes, w, buf.data());
  const T alpha = T{real_t<T>(2.5)}, beta = T{real_t<T>(-1.5)};
  for (int overwrite = 0; overwrite < 2; ++overwrite) {
    std::vector<Matrix<T>> dst, want;
    std::vector<T*> dp;
    for (index_t l = 0; l < nlanes; ++l) {
      Matrix<T> d = random_matrix<T>(rows, cols, 1400 + l);
      Matrix<T> e(rows, cols);
      for (index_t j = 0; j < cols; ++j)
        for (index_t i = 0; i < rows; ++i)
          e(i, j) = overwrite ? alpha * lanes[l](i, j)
                              : alpha * lanes[l](i, j) + beta * d(i, j);
      dst.push_back(std::move(d));
      want.push_back(std::move(e));
      dp.push_back(dst.back().view().data);
    }
    batch_deinterleave_axpby<T>(alpha, rows, cols, buf.data(), w, nlanes,
                                overwrite ? T{} : beta, dp.data(), rows);
    for (index_t l = 0; l < nlanes; ++l)
      EXPECT_LE(rel_error<T>(dst[l].view(), want[l].view()),
                8 * eps_v<real_t<T>>)
          << "lane " << l << " overwrite=" << overwrite;
  }
}

/// --- across-batch kernels vs their scalar references ---------------------

/// One lane-major accumulated-rotation Jacobi sweep matches the scalar
/// jacobi_sweep_gram reference per lane: same rotated flags, same swept Gram
/// matrix, and applying the accumulated rotation (w0*R, v0*R — what the
/// driver does once per sweep as batched GEMMs) reproduces the sequentially
/// rotated factors.
TYPED_TEST(BatchSimdTyped, JacobiSweepBatchMatchesScalarSweep) {
  using T = TypeParam;
  using R = real_t<T>;
  const index_t m = 24, n = 8, w = 4, nlanes = 3;
  const R jtol = R{8} * eps_v<R>;
  std::vector<Matrix<T>> wm = make_blocks<T>(m, n, nlanes, 3100);
  std::vector<Matrix<T>> vm, gm;
  for (const Matrix<T>& b : wm) {
    vm.push_back(Matrix<T>::identity(n));
    Matrix<T> g(n, n);
    gemm<T>(Op::C, Op::N, T{1}, b.view(), b.view(), T{0}, g.view());
    gm.push_back(std::move(g));
  }
  // Scalar reference sweep, per problem.
  std::vector<Matrix<T>> rw, rv, rg;
  std::vector<bool> rrot;
  for (index_t l = 0; l < nlanes; ++l) {
    rw.push_back(to_matrix(wm[l].view()));
    rv.push_back(to_matrix(vm[l].view()));
    rg.push_back(to_matrix(gm[l].view()));
    rrot.push_back(
        jacobi_sweep_gram<T>(rw.back().view(), rv.back().view(),
                             rg.back().view(), jtol));
  }
  // Across-batch sweep: only the Gram matrix goes through the lane-major
  // layout; the factors pick the sweep up through the accumulated R.
  std::vector<T> gb(static_cast<std::size_t>(n * n * w), T{});
  std::vector<T> rb(static_cast<std::size_t>(n * n * w), T{});
  std::vector<const T*> gp;
  for (index_t l = 0; l < nlanes; ++l) gp.push_back(gm[l].view().data);
  batch_interleave<T>(n, n, gp.data(), n, nlanes, w, gb.data());
  bool rot[8] = {};
  jacobi_sweep_batch<T>(n, gb.data(), rb.data(), jtol, w, rot);
  std::vector<Matrix<T>> gg(nlanes, Matrix<T>(n, n));
  std::vector<Matrix<T>> gr(nlanes, Matrix<T>(n, n));
  std::vector<T*> ggp, grp;
  for (index_t l = 0; l < nlanes; ++l) {
    ggp.push_back(gg[l].view().data);
    grp.push_back(gr[l].view().data);
  }
  batch_deinterleave<T>(n, n, gb.data(), w, nlanes, ggp.data(), n);
  batch_deinterleave<T>(n, n, rb.data(), w, nlanes, grp.data(), n);
  for (index_t l = 0; l < nlanes; ++l) {
    EXPECT_EQ(rot[l], rrot[l]) << "lane " << l;
    // The batch sweep maintains G's UPPER triangle only (the scan never
    // reads below the diagonal and the drivers refresh G from the factor);
    // splice the reference lower triangle in before comparing.
    for (index_t j = 0; j < n; ++j)
      for (index_t i = j + 1; i < n; ++i) gg[l](i, j) = rg[l](i, j);
    EXPECT_LE(rel_error<T>(gg[l].view(), rg[l].view()), tol<T>())
        << "G lane " << l;
    Matrix<T> wr(m, n), vr(n, n);
    gemm<T>(Op::N, Op::N, T{1}, wm[l].view(), gr[l].view(), T{0}, wr.view());
    gemm<T>(Op::N, Op::N, T{1}, vm[l].view(), gr[l].view(), T{0}, vr.view());
    EXPECT_LE(rel_error<T>(wr.view(), rw[l].view()), tol<T>())
        << "W lane " << l;
    EXPECT_LE(rel_error<T>(vr.view(), rv[l].view()), tol<T>())
        << "V lane " << l;
  }
  // Dead lanes (zero Gram): no rotations, and R stays the exact identity.
  for (index_t l = nlanes; l < w; ++l) {
    EXPECT_FALSE(rot[l]);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i)
        EXPECT_EQ(rb[static_cast<std::size_t>((j * n + i) * w + l)],
                  i == j ? T{1} : T{})
            << "dead lane " << l;
  }
}

/// The lane-major small-GEMM kernel plus the fused alpha/beta scatter equals
/// per-problem gemm for every op combination the dispatcher can feed it.
TYPED_TEST(BatchSimdTyped, SmallGemmBatchMatchesGemm) {
  using T = TypeParam;
  const index_t m = 3, n = 2, k = 7, w = 4, nlanes = 3;
  const T alpha = T{real_t<T>(1.25)}, beta = T{real_t<T>(0.5)};
  const Op ops[][2] = {{Op::N, Op::N}, {Op::T, Op::N}, {Op::N, Op::C},
                       {Op::C, Op::T}};
  std::uint64_t seed = 4000;
  for (auto& [opa, opb] : ops) {
    const index_t am = opa == Op::N ? m : k, an = opa == Op::N ? k : m;
    const index_t bm = opb == Op::N ? k : n, bn = opb == Op::N ? n : k;
    std::vector<Matrix<T>> av, bv, cv, want;
    std::vector<const T*> ap, bp;
    std::vector<T*> cp;
    for (index_t l = 0; l < nlanes; ++l) {
      av.push_back(random_matrix<T>(am, an, seed += 3));
      bv.push_back(random_matrix<T>(bm, bn, seed += 3));
      cv.push_back(random_matrix<T>(m, n, seed += 3));
      want.push_back(to_matrix(cv.back().view()));
      gemm<T>(opa, opb, alpha, av.back().view(), bv.back().view(), beta,
              want.back().view());
      ap.push_back(av.back().view().data);
      bp.push_back(bv.back().view().data);
      cp.push_back(cv.back().view().data);
    }
    std::vector<T> ab(static_cast<std::size_t>(m * k * w), T{});
    std::vector<T> bb(static_cast<std::size_t>(k * n * w), T{});
    std::vector<T> cb(static_cast<std::size_t>(m * n * w), T{});
    batch_interleave_op<T>(opa, m, k, ap.data(), am, nlanes, w, ab.data());
    batch_interleave_op<T>(opb, k, n, bp.data(), bm, nlanes, w, bb.data());
    small_gemm_batch<T>(m, n, k, ab.data(), bb.data(), cb.data(), w);
    batch_deinterleave_axpby<T>(alpha, m, n, cb.data(), w, nlanes, beta,
                                cp.data(), m);
    for (index_t l = 0; l < nlanes; ++l)
      EXPECT_LE(rel_error<T>(cv[l].view(), want[l].view()), tol<T>())
          << "ops " << static_cast<int>(opa) << "," << static_cast<int>(opb)
          << " lane " << l;
  }
}

/// The in-place narrow right product (the Jacobi driver's accumulated-
/// rotation apply) matches out-of-place gemm, including ragged row counts
/// (partial staging chunks) and single-column edge shapes.
TYPED_TEST(BatchSimdTyped, GemmRightInplaceMatchesGemm) {
  using T = TypeParam;
  const std::pair<index_t, index_t> shapes[] = {
      {33, 7}, {16, 8}, {5, 3}, {70, 20}, {1, 1}, {48, 16}};
  std::uint64_t seed = 6100;
  for (const auto& [m, n] : shapes) {
    Matrix<T> a = random_matrix<T>(m, n, seed += 11);
    Matrix<T> r = random_matrix<T>(n, n, seed += 11);
    Matrix<T> want(m, n);
    gemm<T>(Op::N, Op::N, T{1}, a.view(), r.view(), T{0}, want.view());
    gemm_right_inplace<T>(m, n, a.view().data, m, r.view().data, n);
    EXPECT_LE(rel_error<T>(a.view(), want.view()), tol<T>())
        << m << "x" << n;
  }
}

/// --- width resolution ------------------------------------------------------

/// HODLRX_BATCH_SIMD override > hwinfo probe > 1, with rounding to the
/// supported widths (powers of two up to 16).
TEST(BatchSimdWidth, ResolutionPrecedenceAndRounding) {
  ScopedBatchEnv env;
  // Probe rung: width follows the hardware vector register width.
  const ResolvedBlocking& rb = resolved_blocking<double>();
  const std::size_t sb = hwinfo().simd_bytes;
  if (sb == 0) {
    EXPECT_EQ(rb.batch_simd_width, 1);
  } else {
    index_t expect = 1;
    while (expect * 2 <= static_cast<index_t>(sb / sizeof(double)) &&
           expect * 2 <= 16)
      expect *= 2;
    EXPECT_EQ(rb.batch_simd_width, expect);
  }
  // Wider element type -> narrower batch width from the same registers.
  if (sb >= 2 * sizeof(double)) {
    EXPECT_EQ(resolved_blocking<float>().batch_simd_width,
              2 * resolved_blocking<double>().batch_simd_width);
  }
  // Env override is absolute and rounds down to a supported width.
  env.set("HODLRX_BATCH_SIMD", "8");
  env.refresh();
  EXPECT_EQ(resolved_blocking<double>().batch_simd_width, 8);
  EXPECT_EQ(resolved_blocking<double>().batch_src, BlockingSource::kEnv);
  env.set("HODLRX_BATCH_SIMD", "5");
  env.refresh();
  EXPECT_EQ(resolved_blocking<double>().batch_simd_width, 4) << "5 -> 4";
  env.set("HODLRX_BATCH_SIMD", "100");
  env.refresh();
  EXPECT_EQ(resolved_blocking<double>().batch_simd_width, 16)
      << "clamped to the widest supported lane count";
  env.set("HODLRX_BATCH_SIMD", "1");
  env.refresh();
  EXPECT_EQ(resolved_blocking<double>().batch_simd_width, 1);
  ScopedBatchEnv::clear();
  // Static rung (autotune off): scalar width.
  env.set("HODLRX_AUTOTUNE", "off");
  env.refresh();
  EXPECT_EQ(resolved_blocking<double>().batch_simd_width, 1);
  EXPECT_EQ(resolved_blocking<double>().batch_src, BlockingSource::kStatic);
}

/// --- driver dispatch under both widths -------------------------------------

/// HODLRX_BATCH_SIMD=1 is the bit-for-bit scalar fallback: every across-batch
/// counter stays at zero (the drivers run the untouched per-problem path) and
/// repeated runs are bitwise identical.
TYPED_TEST(BatchSimdTyped, ForcedWidthOneRunsTheScalarPathExactly) {
  using T = TypeParam;
  ScopedBatchEnv env;
  env.set("HODLRX_BATCH_SIMD", "1");
  env.refresh();
  const index_t m = 24, n = 6, batch = 9;
  std::vector<Matrix<T>> blocks = make_blocks<T>(m, n, batch, 5100);
  const index_t stride_a = m * n;
  std::vector<T> a1(static_cast<std::size_t>(stride_a * batch));
  for (index_t i = 0; i < batch; ++i)
    copy<T>(blocks[i].view(),
            MatrixView<T>{a1.data() + i * stride_a, m, n, m});
  batch_simd_stats::reset();
  // The tiny-GEMM dispatcher stays scalar at width 1.
  std::vector<T> c(static_cast<std::size_t>(4 * batch), T{});
  std::vector<T> g(static_cast<std::size_t>(2 * n), T{real_t<T>(1)});
  gemm_strided_batched<T>(Op::N, Op::N, 2, 2, n, T{1}, a1.data(), m,
                          stride_a, g.data(), n, 0, T{0}, c.data(), 2, 4,
                          batch);
  EXPECT_EQ(batch_simd_stats::gemm_groups(), 0u);
  // So does the Jacobi dispatcher, and two runs are bitwise identical.
  std::vector<T> a2 = a1;
  std::vector<real_t<T>> s1(static_cast<std::size_t>(n * batch)), s2 = s1;
  std::vector<T> v1(static_cast<std::size_t>(n * n * batch)), v2 = v1;
  const SvdBatchInfo info1 = jacobi_svd_strided_batched<T>(
      a1.data(), m, stride_a, m, n, s1.data(), n, v1.data(), n, n * n, batch);
  const SvdBatchInfo info2 = jacobi_svd_strided_batched<T>(
      a2.data(), m, stride_a, m, n, s2.data(), n, v2.data(), n, n * n, batch);
  EXPECT_EQ(info1.nonconverged, 0);
  EXPECT_EQ(info2.nonconverged, 0);
  EXPECT_EQ(batch_simd_stats::jacobi_sweep_groups(), 0u);
  EXPECT_EQ(std::memcmp(a1.data(), a2.data(), a1.size() * sizeof(T)), 0)
      << "scalar fallback must be deterministic";
  EXPECT_EQ(std::memcmp(v1.data(), v2.data(), v1.size() * sizeof(T)), 0);
  EXPECT_EQ(std::memcmp(s1.data(), s2.data(), s1.size() * sizeof(real_t<T>)),
            0);
}

/// The across-batch Jacobi sweep converges to the same SVD as the forced
/// scalar path: same singular values, orthonormal factors, reconstruction.
TYPED_TEST(BatchSimdTyped, JacobiSvdStridedBatchedAgreesAcrossWidths) {
  using T = TypeParam;
  using R = real_t<T>;
  const index_t m = 32, n = 8, batch = 18;
  std::vector<Matrix<T>> blocks = make_blocks<T>(m, n, batch, 5300);
  const index_t stride_a = m * n, stride_v = n * n;
  std::vector<T> a0(static_cast<std::size_t>(stride_a * batch));
  for (index_t i = 0; i < batch; ++i)
    copy<T>(blocks[i].view(),
            MatrixView<T>{a0.data() + i * stride_a, m, n, m});
  ScopedBatchEnv env;
  auto run = [&](const char* width, std::vector<T>& a, std::vector<R>& s,
                 std::vector<T>& v) {
    ScopedBatchEnv::clear();
    if (width) env.set("HODLRX_BATCH_SIMD", width);
    env.refresh();
    return jacobi_svd_strided_batched<T>(a.data(), m, stride_a, m, n,
                                         s.data(), n, v.data(), n, stride_v,
                                         batch);
  };
  std::vector<T> as = a0, av = a0;
  std::vector<R> ss(static_cast<std::size_t>(n * batch)), sv = ss;
  std::vector<T> vs(static_cast<std::size_t>(stride_v * batch)), vv = vs;
  const SvdBatchInfo is = run("1", as, ss, vs);
  batch_simd_stats::reset();
  const SvdBatchInfo iv = run(nullptr, av, sv, vv);
  EXPECT_EQ(is.nonconverged, 0);
  EXPECT_EQ(iv.nonconverged, 0);
  if (resolved_blocking<T>().batch_simd_width > 1 &&
      batch >= resolved_blocking<T>().batch_simd_width) {
    EXPECT_GT(batch_simd_stats::jacobi_sweep_groups(), 0u);
  }
  const R stol = 20 * tol<T>();
  for (index_t i = 0; i < batch; ++i) {
    const R scale = std::max<R>(ss[static_cast<std::size_t>(i * n)], R{1});
    for (index_t j = 0; j < n; ++j)
      EXPECT_NEAR(sv[static_cast<std::size_t>(i * n + j)],
                  ss[static_cast<std::size_t>(i * n + j)], stol * scale)
          << "problem " << i << " s[" << j << "]";
    // U diag(s) V^H reconstructs the block under both widths.
    ConstMatrixView<T> u{av.data() + i * stride_a, m, n, m};
    Matrix<T> us = to_matrix(u);
    for (index_t j = 0; j < n; ++j)
      scale_inplace(T{sv[static_cast<std::size_t>(i * n + j)]},
                    us.view().block(0, j, m, 1));
    Matrix<T> rec(m, n);
    ConstMatrixView<T> vvi{vv.data() + i * stride_v, n, n, n};
    gemm<T>(Op::N, Op::C, T{1}, us.view(), vvi, T{0}, rec.view());
    EXPECT_LE(rel_error<T>(rec.view(), blocks[i].view()), stol)
        << "problem " << i;
  }
}

/// The uniform-tiny-shape rung of gemm_strided_batched routes through the
/// across-batch kernel and agrees with per-problem gemm, including the
/// stride-0 shared-operand broadcast.
TYPED_TEST(BatchSimdTyped, GemmStridedBatchedTinyShapesAcrossWidths) {
  using T = TypeParam;
  const index_t m = 2, n = 3, k = 16, batch = 21;
  const T alpha = T{real_t<T>(1.5)}, beta = T{real_t<T>(-0.5)};
  std::vector<T> a(static_cast<std::size_t>(m * k * batch));
  std::vector<T> b(static_cast<std::size_t>(k * n));  // shared, stride 0
  std::vector<T> c0(static_cast<std::size_t>(m * n * batch));
  Rng rng(5400);
  auto fill = [&](std::vector<T>& x) {
    rng.fill_uniform(MatrixView<T>{x.data(), static_cast<index_t>(x.size()),
                                   1, static_cast<index_t>(x.size())});
  };
  fill(a);
  fill(b);
  fill(c0);
  // Reference: per-problem gemm on the scalar path.
  std::vector<T> want = c0;
  for (index_t i = 0; i < batch; ++i) {
    ConstMatrixView<T> ai{a.data() + i * m * k, m, k, m};
    ConstMatrixView<T> bi{b.data(), k, n, k};
    MatrixView<T> ci{want.data() + i * m * n, m, n, m};
    gemm<T>(Op::N, Op::N, alpha, ai, bi, beta, ci);
  }
  ScopedBatchEnv env;
  std::vector<T> got = c0;
  batch_simd_stats::reset();
  gemm_strided_batched<T>(Op::N, Op::N, m, n, k, alpha, a.data(), m, m * k,
                          b.data(), k, 0, beta, got.data(), m, m * n, batch);
  if (resolved_blocking<T>().batch_simd_width > 1 &&
      batch >= resolved_blocking<T>().batch_simd_width) {
    EXPECT_GT(batch_simd_stats::gemm_groups(), 0u);
  }
  for (index_t i = 0; i < batch; ++i) {
    ConstMatrixView<T> gi{got.data() + i * m * n, m, n, m};
    ConstMatrixView<T> wi{want.data() + i * m * n, m, n, m};
    EXPECT_LE(rel_error<T>(gi, wi), tol<T>()) << "problem " << i;
  }
}

}  // namespace
}  // namespace hodlrx
