/// Microbenchmarks of the batched device engine — the substrate claims of
/// Sec. III-C: batching many small operations into one call, the strided
/// fast path, the stream-mode crossover for small batches of large problems,
/// and the batched factor/solve kernels on the persistent thread pool.
///
/// Self-contained driver (no google-benchmark dependency) that emits
/// BENCH_micro_batched.json like the other benches, so batched throughput is
/// tracked across PRs. The SVD section additionally emits
/// BENCH_svd_batched.json: the sweep-synchronized batched Jacobi truncation
/// tail against the per-block serial tail at a canonical batched shape.
///
/// Flags: --repeats N (default 3), --max-n N (cap problem sizes),
/// --svd-only (run ONLY the SVD section; pins the pool to one thread unless
/// HODLRX_NUM_THREADS is set, so the recorded speedup is the single-thread
/// algorithmic win, not parallelism). --interleave-only (also single-thread
/// by default) runs ONLY the across-batch SIMD stage benches — lane-major
/// Jacobi sweep and small-GEMM tail vs their per-problem scalar kernels,
/// plus the Jacobi driver at the resolved width vs HODLRX_BATCH_SIMD=1 —
/// and emits BENCH_batch_simd.json.

#include <cstdlib>

#include "bench_util.hpp"

#include "batched/batch_kernels.hpp"
#include "batched/batched_blas.hpp"
#include "batched/interleave.hpp"
#include "common/lapack.hpp"
#include "common/parallel.hpp"
#include "common/trsm_kernel.hpp"
#include "lowrank/lowrank.hpp"
// The seed Jacobi SVD, the baseline of the SVD tail rows (a test oracle).
#include "../tests/reference/lapack_reference.hpp"

using namespace hodlrx;

namespace {

struct GemmBatchFixture {
  std::vector<Matrix<double>> a, b, c;
  std::vector<ConstMatrixView<double>> av, bv;
  std::vector<MatrixView<double>> cv;

  GemmBatchFixture(index_t batch, index_t m, index_t n, index_t k) {
    for (index_t i = 0; i < batch; ++i) {
      a.push_back(random_matrix<double>(m, k, 100 + i));
      b.push_back(random_matrix<double>(k, n, 200 + i));
      c.push_back(Matrix<double>(m, n));
      av.push_back(a.back());
      bv.push_back(b.back());
      cv.push_back(c.back());
    }
  }
};

using bench::time_best;
using bench::time_best_with_setup;

void emit(bench::JsonArrayWriter& out, const char* name, index_t batch,
          index_t s, double seconds, double work_flops) {
  const double gf = work_flops / seconds / 1e9;
  const double items = static_cast<double>(batch) / seconds;
  std::printf("%-28s batch=%5lld s=%4lld  %10.2f GF/s  %12.0f problems/s\n",
              name, static_cast<long long>(batch), static_cast<long long>(s),
              gf, items);
  out.begin_record();
  out.field("case", name);
  out.field("batch", batch);
  out.field("s", s);
  out.field("gflops", gf);
  out.field("problems_per_sec", items);
  out.end_record();
}

void bench_gemm_small(index_t batch, index_t s, int repeats,
                      bench::JsonArrayWriter& out) {
  GemmBatchFixture f(batch, s, s, s);
  const double work = 2.0 * batch * s * s * s;
  emit(out, "gemm_loop_of_small", batch, s, time_best(repeats, [&] {
         for (index_t i = 0; i < batch; ++i)
           gemm<double>(Op::N, Op::N, 1.0, f.av[i], f.bv[i], 0.0, f.cv[i]);
       }),
       work);
  emit(out, "gemm_batched", batch, s, time_best(repeats, [&] {
         gemm_batched<double>(Op::N, Op::N, 1.0, f.av, f.bv, 0.0, f.cv);
       }),
       work);
  Matrix<double> a = random_matrix<double>(s, s * batch, 1);
  Matrix<double> b = random_matrix<double>(s, s * batch, 2);
  Matrix<double> c(s, s * batch);
  emit(out, "gemm_strided_batched", batch, s, time_best(repeats, [&] {
         gemm_strided_batched<double>(Op::N, Op::N, s, s, s, 1.0, a.data(), s,
                                      s * s, b.data(), s, s * s, 0.0,
                                      c.data(), s, s * s, batch);
       }),
       work);
}

void bench_gemm_stream(index_t batch, index_t s, int repeats,
                       bench::JsonArrayWriter& out) {
  GemmBatchFixture f(batch, s, s, s);
  const double work = 2.0 * batch * s * s * s;
  emit(out, "gemm_batched_large", batch, s, time_best(repeats, [&] {
         gemm_batched<double>(Op::N, Op::N, 1.0, f.av, f.bv, 0.0, f.cv,
                              BatchPolicy::kForceBatched);
       }),
       work);
  emit(out, "gemm_stream_large", batch, s, time_best(repeats, [&] {
         gemm_batched<double>(Op::N, Op::N, 1.0, f.av, f.bv, 0.0, f.cv,
                              BatchPolicy::kForceStream);
       }),
       work);
}

void bench_getrf(index_t batch, index_t s, int repeats,
                 bench::JsonArrayWriter& out) {
  std::vector<Matrix<double>> a0;
  for (index_t i = 0; i < batch; ++i) {
    a0.push_back(random_matrix<double>(s, s, 300 + i));
    for (index_t d = 0; d < s; ++d) a0.back()(d, d) += 4.0;
  }
  std::vector<std::vector<index_t>> piv(batch, std::vector<index_t>(s));
  std::vector<Matrix<double>> a(batch);
  std::vector<MatrixView<double>> av(batch);
  std::vector<index_t*> pv(batch);
  const double work = 2.0 / 3.0 * batch * s * s * s;
  // The matrix restore runs outside the timed section (getrf consumes its
  // input in place), matching the old PauseTiming/ResumeTiming protocol.
  emit(out, "getrf_batched", batch, s,
       time_best_with_setup(
           repeats,
           [&] {
             for (index_t i = 0; i < batch; ++i) {
               a[i] = to_matrix(a0[i].view());
               av[i] = a[i];
               pv[i] = piv[i].data();
             }
           },
           [&] { getrf_batched<double>(av, pv); }),
       work);
}

void bench_solves(index_t batch, index_t s, index_t nrhs, int repeats,
                  bench::JsonArrayWriter& out) {
  std::vector<Matrix<double>> lu;
  std::vector<std::vector<index_t>> piv(batch, std::vector<index_t>(s));
  for (index_t i = 0; i < batch; ++i) {
    lu.push_back(random_matrix<double>(s, s, 500 + i));
    for (index_t d = 0; d < s; ++d) lu.back()(d, d) += 4.0;
    getrf<double>(lu.back().view(), piv[i].data());
  }
  std::vector<Matrix<double>> b0;
  for (index_t i = 0; i < batch; ++i)
    b0.push_back(random_matrix<double>(s, nrhs, 600 + i));
  std::vector<Matrix<double>> b = b0;
  std::vector<ConstMatrixView<double>> luv(lu.begin(), lu.end());
  std::vector<const index_t*> pv;
  for (auto& p : piv) pv.push_back(p.data());
  std::vector<MatrixView<double>> bv(b.begin(), b.end());
  auto restore = [&] {
    for (index_t i = 0; i < batch; ++i) copy<double>(b0[i].view(), bv[i]);
  };
  emit(out, "getrs_batched", batch, s,
       time_best_with_setup(repeats, restore,
                            [&] { getrs_batched<double>(luv, pv, bv); }),
       2.0 * batch * s * s * nrhs);
  emit(out, "trsm_batched", batch, s,
       time_best_with_setup(
           repeats, restore,
           [&] { trsm_batched<double>(Uplo::Lower, Diag::Unit, luv, bv); }),
       static_cast<double>(batch) * s * s * nrhs);
}

/// Sink keeping bench results alive across the timed lambdas.
volatile double g_sink = 0.0;

/// The batched SVD/truncation tail vs the per-block serial tail: `batch`
/// small problems B_i of l x n (wide) plus orthonormal bases Q_i (m x l)
/// the truncated factors multiply. Three contenders, all producing the
/// truncated factors U_i = Q_i W_ik S_ik, V_i = Uh_ik:
///   - svd_tail_reference_loop: per-block seed Jacobi (scalar pair dot
///     products) + per-block truncation gemm;
///   - svd_tail_blocked_loop: per-block blocked serial driver (one Gram
///     GEMM per sweep) + per-block gemm;
///   - svd_tail_batched: sweep-synchronized jacobi_svd_strided_batched on
///     the transposed problems + ONE strided truncation-GEMM launch.
void bench_svd(index_t batch, index_t l, index_t n, index_t m, int repeats,
               bench::JsonArrayWriter& out) {
  const double tol = 1e-10;
  // The B blocks (l x n wide) and their tall transposes Bh = B^H; in the
  // real sweep Bh comes straight out of a strided GEMM, so forming it here
  // is setup, not timed work.
  Matrix<double> b0(l, n * batch);
  Matrix<double> bh0(n, l * batch);
  for (index_t i = 0; i < batch; ++i) {
    Matrix<double> bi = random_matrix<double>(l, n, 4200 + i);
    copy<double>(bi.view(), b0.view().block(0, i * n, l, n));
    copy<double>(transpose(bi.view(), /*conjugate=*/true).view(),
                 bh0.view().block(0, i * l, n, l));
  }
  // Orthonormal bases Q_i (m x l).
  Matrix<double> q = random_matrix<double>(m, l * batch, 4299);
  {
    std::vector<double> tau(static_cast<std::size_t>(l));
    for (index_t i = 0; i < batch; ++i) {
      MatrixView<double> qi = q.view().block(0, i * l, m, l);
      geqrf_inplace<double>(qi, tau.data());
      thin_q_inplace<double>(qi, tau.data());
    }
  }
  // Nominal flop count: one Jacobi sweep's rotations plus the truncation
  // product (the GF/s column is for trend-tracking; the speedup is exact).
  const double work_flops = static_cast<double>(batch) *
                            (6.0 * n * l * l + 2.0 * m * l * l);

  const auto serial_tail = [&](auto svd_fn) {
    for (index_t i = 0; i < batch; ++i) {
      SVDResult<double> svd =
          svd_fn(ConstMatrixView<double>(b0.data() + i * l * n, l, n, l));
      const index_t k = truncate_rank<double>(
          svd.s.data(), static_cast<index_t>(svd.s.size()), -1, tol);
      Matrix<double> wk = to_matrix(svd.u.block(0, 0, svd.u.rows(), k));
      for (index_t j = 0; j < k; ++j)
        scale_inplace(svd.s[j], wk.block(0, j, wk.rows(), 1));
      Matrix<double> u(m, k);
      if (k > 0)
        gemm<double>(Op::N, Op::N, 1.0,
                     ConstMatrixView<double>(q.data() + i * m * l, m, l, m),
                     ConstMatrixView<double>(wk), 0.0, u.view());
      g_sink = g_sink + (k > 0 ? u(0, 0) : 0.0);
    }
  };
  const double t_ref = time_best(repeats, [&] {
    serial_tail([](ConstMatrixView<double> b) {
      return jacobi_svd_reference<double>(b);
    });
  });
  emit(out, "svd_tail_reference_loop", batch, l, t_ref, work_flops);
  const double t_blocked = time_best(repeats, [&] {
    serial_tail(
        [](ConstMatrixView<double> b) { return jacobi_svd<double>(b); });
  });
  emit(out, "svd_tail_blocked_loop", batch, l, t_blocked, work_flops);

  Matrix<double> bh(n, l * batch);  // work copy: the batched SVD is in-place
  auto restore = [&] { copy<double>(bh0.view(), bh.view()); };
  const double t_batched = time_best_with_setup(repeats, restore, [&] {
    std::vector<double> sig(static_cast<std::size_t>(l) * batch);
    Matrix<double> w(l, l * batch);
    jacobi_svd_strided_batched<double>(bh.data(), n, n * l, n, l, sig.data(),
                                       l, w.data(), l, l * l, batch);
    std::vector<index_t> ks(static_cast<std::size_t>(batch));
    for (index_t i = 0; i < batch; ++i)
      ks[static_cast<std::size_t>(i)] =
          truncate_rank<double>(sig.data() + i * l, l, -1, tol);
    parallel_for_static(batch, [&](index_t i) {
      for (index_t j = 0; j < ks[static_cast<std::size_t>(i)]; ++j)
        scale_inplace(sig[static_cast<std::size_t>(i * l + j)],
                      MatrixView<double>{w.data() + i * l * l + j * l, l, 1,
                                         l});
    });
    Matrix<double> uf(m, l * batch);
    gemm_strided_batched<double>(Op::N, Op::N, m, l, l, 1.0, q.data(), m,
                                 m * l, w.data(), l, l * l, 0.0, uf.data(),
                                 m, m * l, batch);
    g_sink = g_sink + uf(0, 0);
  });
  emit(out, "svd_tail_batched", batch, l, t_batched, work_flops);

  std::printf("%-28s batch=%5lld l=%4lld  %10.2fx vs reference "
              "(blocked loop %.2fx) on %d threads\n",
              "svd_tail_speedup", static_cast<long long>(batch),
              static_cast<long long>(l), t_ref / t_batched, t_ref / t_blocked,
              max_threads());
  out.begin_record();
  out.field("case", "svd_tail_speedup");
  out.field("batch", batch);
  out.field("l", l);
  out.field("n", n);
  out.field("m", m);
  out.field("threads", static_cast<index_t>(max_threads()));
  out.field("speedup_batched_vs_reference", t_ref / t_batched);
  out.field("speedup_blocked_vs_reference", t_ref / t_blocked);
  out.end_record();
}

void emit_stage(bench::JsonArrayWriter& out, const char* name, index_t batch,
                index_t m, index_t n, index_t width, double t_scalar,
                double t_batch) {
  std::printf("%-28s batch=%5lld %4lldx%-4lld w=%2lld  %8.2fx vs per-problem "
              "(%.3g ms -> %.3g ms)\n",
              name, static_cast<long long>(batch), static_cast<long long>(m),
              static_cast<long long>(n), static_cast<long long>(width),
              t_scalar / t_batch, t_scalar * 1e3, t_batch * 1e3);
  out.begin_record();
  out.field("case", name);
  out.field("batch", batch);
  out.field("m", m);
  out.field("n", n);
  out.field("width", width);
  out.field("t_scalar_s", t_scalar);
  out.field("t_batch_s", t_batch);
  out.field("speedup", t_scalar / t_batch);
  out.end_record();
}

/// Stage-level across-batch SIMD kernels against the per-problem scalar
/// kernels they replace, on ONE thread: the lane-major Jacobi sweep vs a
/// jacobi_sweep_gram loop, and the lane-major small-GEMM tail vs a gemm
/// loop. The interleave / deinterleave staging transposes are INSIDE the
/// timed region — the reported speedup is what the batched drivers actually
/// gain. The Jacobi shape is `batch` tall m x n problems.
void bench_interleave_stages(index_t batch, index_t m, index_t n, int repeats,
                             bench::JsonArrayWriter& out) {
  const index_t w = resolved_blocking<double>().batch_simd_width;
  if (w < 2 || w > 16) {
    std::printf("resolved batch width %lld: across-batch kernels disabled; "
                "skipping stage benches\n", static_cast<long long>(w));
    return;
  }

  // --- Jacobi sweep stage -------------------------------------------------
  {
    const double jtol = 32 * eps_v<double>;
    Matrix<double> w0 = random_matrix<double>(m, n * batch, 7200);
    Matrix<double> v0(n, n * batch), g0(n, n * batch);
    for (index_t i = 0; i < batch; ++i) {
      for (index_t d = 0; d < n; ++d) v0(d, i * n + d) = 1.0;
      gemm<double>(Op::C, Op::N, 1.0,
                   ConstMatrixView<double>(w0.view().block(0, i * n, m, n)),
                   ConstMatrixView<double>(w0.view().block(0, i * n, m, n)),
                   0.0, g0.view().block(0, i * n, n, n));
    }
    Matrix<double> wm(m, n * batch), vm(n, n * batch), gm(n, n * batch);
    // Accumulated-rotation scratch of the batch leg: one R per problem.
    Matrix<double> rm(n, n * batch);
    auto restore = [&] {
      copy<double>(w0.view(), wm.view());
      copy<double>(v0.view(), vm.view());
      copy<double>(g0.view(), gm.view());
    };
    const double t_scalar = time_best_with_setup(repeats, restore, [&] {
      for (index_t i = 0; i < batch; ++i)
        jacobi_sweep_gram<double>(wm.view().block(0, i * n, m, n),
                                  vm.view().block(0, i * n, n, n),
                                  gm.view().block(0, i * n, n, n), jtol);
    });
    const double t_batch = time_best_with_setup(repeats, restore, [&] {
      // The driver's sequence: interleave the Gram matrices, run the
      // accumulated-rotation pair scan lane-major, scatter each lane's R,
      // then apply w <- w*R and v <- v*R with the in-place narrow-product
      // kernel.
      for (index_t g = 0; g < batch; g += w) {
        const index_t nlanes = std::min(w, batch - g);
        double* buf = interleave_workspace<double>(
            static_cast<std::size_t>(2 * n * n) * w);
        double* gb = buf;
        double* rb = gb + n * n * w;
        const double* gsrc[16];
        double* rdst[16];
        for (index_t l = 0; l < nlanes; ++l) {
          gsrc[l] = gm.data() + (g + l) * n * n;
          rdst[l] = rm.data() + (g + l) * n * n;
        }
        batch_interleave<double>(n, n, gsrc, n, nlanes, w, gb);
        bool rotated[16] = {};
        jacobi_sweep_batch<double>(n, gb, rb, jtol, w, rotated);
        batch_deinterleave<double>(n, n, rb, w, nlanes, rdst, n);
      }
      for (index_t i = 0; i < batch; ++i) {
        const double* ri = rm.data() + i * n * n;
        gemm_right_inplace<double>(m, n, wm.data() + i * m * n, m, ri, n);
        gemm_right_inplace<double>(n, n, vm.data() + i * n * n, n, ri, n);
      }
    });
    emit_stage(out, "jacobi_sweep_stage", batch, m, n, w, t_scalar, t_batch);
  }

  // --- small-GEMM tail stage ----------------------------------------------
  {
    const index_t sm = 4, sn = 4, sk = 32;
    Matrix<double> a = random_matrix<double>(sm, sk * batch, 7300);
    Matrix<double> b = random_matrix<double>(sk, sn * batch, 7301);
    Matrix<double> c(sm, sn * batch);
    const double t_scalar = time_best(repeats, [&] {
      for (index_t i = 0; i < batch; ++i)
        gemm<double>(Op::N, Op::N, 1.0,
                     ConstMatrixView<double>(a.view().block(0, i * sk, sm, sk)),
                     ConstMatrixView<double>(b.view().block(0, i * sn, sk, sn)),
                     0.0, c.view().block(0, i * sn, sm, sn));
    });
    const double t_batch = time_best(repeats, [&] {
      for (index_t g = 0; g < batch; g += w) {
        const index_t nlanes = std::min(w, batch - g);
        double* buf = interleave_workspace<double>(
            static_cast<std::size_t>(sm * sk + sk * sn + sm * sn) * w);
        double* ab = buf;
        double* bb = ab + sm * sk * w;
        double* cb = bb + sk * sn * w;
        const double* asrc[16];
        const double* bsrc[16];
        double* cdst[16];
        for (index_t l = 0; l < nlanes; ++l) {
          asrc[l] = a.data() + (g + l) * sm * sk;
          bsrc[l] = b.data() + (g + l) * sk * sn;
          cdst[l] = c.data() + (g + l) * sm * sn;
        }
        batch_interleave<double>(sm, sk, asrc, sm, nlanes, w, ab);
        batch_interleave<double>(sk, sn, bsrc, sk, nlanes, w, bb);
        small_gemm_batch<double>(sm, sn, sk, ab, bb, cb, w);
        batch_deinterleave_axpby<double>(1.0, sm, sn, cb, w, nlanes, 0.0,
                                         cdst, sm);
      }
    });
    g_sink = g_sink + c(0, 0);
    emit_stage(out, "small_gemm_stage", batch, sm, sn, w, t_scalar, t_batch);
  }
}

/// Driver-level cross-check of the same win: the full strided-batched
/// Jacobi driver under the RESOLVED batch width vs HODLRX_BATCH_SIMD=1 (the
/// bit-for-bit scalar fallback), so BENCH_batch_simd.json records both the
/// isolated stage speedup and what survives end-to-end dispatch.
void bench_interleave_drivers(index_t batch, index_t m, index_t n,
                              int repeats, bench::JsonArrayWriter& out) {
  const index_t w = resolved_blocking<double>().batch_simd_width;
  Matrix<double> a0 = random_matrix<double>(m, n * batch, 7400);
  Matrix<double> a(m, n * batch);
  auto restore = [&] { copy<double>(a0.view(), a.view()); };
  std::vector<double> sig(static_cast<std::size_t>(n) * batch);
  Matrix<double> v(n, n * batch);
  auto svd_leg = [&] {
    return time_best_with_setup(repeats, restore, [&] {
      jacobi_svd_strided_batched<double>(a.data(), m, m * n, m, n, sig.data(),
                                         n, v.data(), n, n * n, batch);
    });
  };
  const double t_svd = svd_leg();
  setenv("HODLRX_BATCH_SIMD", "1", /*overwrite=*/1);
  blocking_detail::refresh_for_testing();
  const double t_svd1 = svd_leg();
  unsetenv("HODLRX_BATCH_SIMD");
  blocking_detail::refresh_for_testing();
  emit_stage(out, "jacobi_driver_vs_width1", batch, m, n, w, t_svd1, t_svd);
}

}  // namespace

int main(int argc, char** argv) {
  // --svd-only / --interleave-only run just that section; either pins the
  // pool to ONE thread (unless the caller overrides) BEFORE first pool use,
  // so the emitted speedup isolates the engine's algorithmic win from
  // parallelism.
  bool svd_only = false, interleave_only = false;
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && !std::strcmp(argv[i], "--svd-only"))
      svd_only = true;
    else if (i > 0 && !std::strcmp(argv[i], "--interleave-only"))
      interleave_only = true;
    else
      rest.push_back(argv[i]);
  }
  if (svd_only || interleave_only)
    setenv("HODLRX_NUM_THREADS", "1", /*overwrite=*/0);
  bench::Args args = bench::Args::parse(static_cast<int>(rest.size()),
                                        rest.data());
  if (interleave_only) {
    // Across-batch SIMD kernels vs the per-problem scalar tails, one
    // thread, on 64 problems of 256x32.
    bench::JsonArrayWriter il_out("BENCH_batch_simd.json");
    bench::emit_blocking_records(il_out);
    std::printf("== across-batch SIMD stages vs per-problem tails "
                "(%d threads) ==\n", max_threads());
    bench_interleave_stages(64, 256, 32, args.repeats, il_out);
    bench_interleave_drivers(64, 256, 32, args.repeats, il_out);
    std::printf("wrote BENCH_batch_simd.json\n");
    return 0;
  }
  {
    bench::JsonArrayWriter svd_out("BENCH_svd_batched.json");
    bench::emit_blocking_records(svd_out);
    std::printf("== batched SVD engine vs per-block tail (%d threads) ==\n",
                max_threads());
    // 64 small problems of 32x256 plus their 256x32 bases, and a second,
    // smaller shape.
    bench_svd(64, 32, 256, 256, args.repeats, svd_out);
    bench_svd(256, 16, 128, 128, args.repeats, svd_out);
    std::printf("wrote BENCH_svd_batched.json\n");
  }
  if (svd_only) return 0;
  index_t small = 24, big = 512, lu_s = 64;
  if (args.max_n > 0) {
    big = std::min(big, args.max_n);
    lu_s = std::min(lu_s, args.max_n);
    small = std::min(small, args.max_n);
  }
  std::printf("== bench_micro_batched: batched engine on the persistent "
              "pool (%d threads) ==\n", max_threads());
  bench::JsonArrayWriter out("BENCH_micro_batched.json");
  bench::emit_blocking_records(out);
  // Many small problems: batching wins by avoiding per-call overhead.
  bench_gemm_small(256, small, args.repeats, out);
  bench_gemm_small(1024, small, args.repeats, out);
  // Few large problems: stream mode (intra-op threads) wins.
  bench_gemm_stream(2, big, args.repeats, out);
  bench_getrf(256, lu_s, args.repeats, out);
  bench_solves(256, lu_s, lu_s, args.repeats, out);
  out.close();
  std::printf("wrote BENCH_micro_batched.json\n");
  return 0;
}
