/// Microbenchmark of the register-tiled TRSM/GETRS engine against the
/// seed's column-at-a-time solve (the test oracle,
/// tests/reference/trsm_reference.hpp), per scalar type, plus the batched
/// dispatcher in both execution modes and getrs on the HODLR factorization's
/// leaf and K-block shapes. Emits BENCH_trsm.json so the solve-stage perf
/// trajectory is tracked across PRs alongside BENCH_gemm.json.
///
/// Flags: --repeats N (default 3), --max-n N (cap the large dimension).

#include "bench_util.hpp"

#include "../tests/reference/trsm_reference.hpp"
#include "batched/batched_blas.hpp"
#include "common/trsm_kernel.hpp"

using namespace hodlrx;

namespace {

using bench::time_best;

double gflops(index_t n, index_t nrhs, double seconds,
              bool complex_scalar = false) {
  // n^2 * nrhs multiply-adds per triangular solve (FlopCounter convention).
  const double mul = complex_scalar ? 4.0 : 1.0;
  return mul * static_cast<double>(n) * n * nrhs / seconds / 1e9;
}

/// Well-conditioned triangular test matrix (random_triangular_matrix, shared
/// with the tests so bench and suite exercise the same problem class).
template <typename T>
Matrix<T> triangular_matrix(index_t n, Uplo uplo, std::uint64_t seed) {
  return random_triangular_matrix<T>(n, uplo == Uplo::Lower, seed);
}

template <typename T>
void run_trsm_case(const char* name, Uplo uplo, index_t n, index_t nrhs,
                   int repeats, bench::JsonArrayWriter& out) {
  Matrix<T> a = triangular_matrix<T>(n, uplo, 11);
  Matrix<T> b0 = random_matrix<T>(n, nrhs, 12);
  Matrix<T> b(n, nrhs);
  auto restore = [&] { copy<T>(b0.view(), b.view()); };
  const double t_oracle = bench::time_best_with_setup(repeats, restore, [&] {
    trsm_left_reference<T>(uplo, Diag::NonUnit, a, b.view());
  });
  const double t_kernel = bench::time_best_with_setup(repeats, restore, [&] {
    trsm_left_blocked<T>(uplo, Diag::NonUnit, a, b.view());
  });
  const double g_oracle = gflops(n, nrhs, t_oracle, is_complex_v<T>);
  const double g_kernel = gflops(n, nrhs, t_kernel, is_complex_v<T>);
  std::printf("%-22s %s %c %5lldx%5lld  oracle %8.2f GF/s  kernel %8.2f GF/s"
              "  speedup %5.2fx\n",
              name, scalar_name<T>(), uplo == Uplo::Lower ? 'L' : 'U',
              static_cast<long long>(n), static_cast<long long>(nrhs), g_oracle,
              g_kernel, t_oracle / t_kernel);
  out.begin_record();
  out.field("case", name);
  out.field("type", scalar_name<T>());
  out.field("uplo", uplo == Uplo::Lower ? "L" : "U");
  out.field("n", n);
  out.field("nrhs", nrhs);
  out.field("oracle_gflops", g_oracle);
  out.field("kernel_gflops", g_kernel);
  out.field("speedup", t_oracle / t_kernel);
  out.end_record();
}

template <typename T>
void run_getrs_case(index_t n, index_t nrhs, int repeats,
                    bench::JsonArrayWriter& out) {
  Matrix<T> a = random_matrix<T>(n, n, 21);
  for (index_t i = 0; i < n; ++i) a(i, i) += T{4};
  std::vector<index_t> ipiv(n);
  getrf<T>(a.view(), ipiv.data());
  Matrix<T> b0 = random_matrix<T>(n, nrhs, 22);
  Matrix<T> b(n, nrhs);
  auto restore = [&] { copy<T>(b0.view(), b.view()); };
  const double t_oracle = bench::time_best_with_setup(repeats, restore, [&] {
    laswp<T>(b.view(), ipiv.data(), n, true);
    trsm_left_reference<T>(Uplo::Lower, Diag::Unit, a, b.view());
    trsm_left_reference<T>(Uplo::Upper, Diag::NonUnit, a, b.view());
  });
  const double t_kernel = bench::time_best_with_setup(
      repeats, restore, [&] { getrs<T>(a, ipiv.data(), b.view()); });
  const double g_oracle = gflops(n, 2 * nrhs, t_oracle, is_complex_v<T>);
  const double g_kernel = gflops(n, 2 * nrhs, t_kernel, is_complex_v<T>);
  std::printf("%-22s %s   %5lldx%5lld  oracle %8.2f GF/s  kernel %8.2f GF/s"
              "  speedup %5.2fx\n",
              "getrs", scalar_name<T>(), static_cast<long long>(n),
              static_cast<long long>(nrhs), g_oracle, g_kernel,
              t_oracle / t_kernel);
  out.begin_record();
  out.field("case", "getrs");
  out.field("type", scalar_name<T>());
  out.field("n", n);
  out.field("nrhs", nrhs);
  out.field("oracle_gflops", g_oracle);
  out.field("kernel_gflops", g_kernel);
  out.field("speedup", t_oracle / t_kernel);
  out.end_record();
}

void run_batched_case(index_t batch, index_t n, index_t nrhs, int repeats,
                      bench::JsonArrayWriter& out) {
  std::vector<Matrix<double>> a;
  std::vector<Matrix<double>> b0;
  for (index_t i = 0; i < batch; ++i) {
    a.push_back(triangular_matrix<double>(n, Uplo::Lower, 100 + i));
    b0.push_back(random_matrix<double>(n, nrhs, 200 + i));
  }
  std::vector<Matrix<double>> b = b0;
  std::vector<ConstMatrixView<double>> av(a.begin(), a.end());
  std::vector<MatrixView<double>> bv(b.begin(), b.end());
  auto restore = [&] {
    for (index_t i = 0; i < batch; ++i) copy<double>(b0[i].view(), bv[i]);
  };
  const double t_oracle = bench::time_best_with_setup(repeats, restore, [&] {
    for (index_t i = 0; i < batch; ++i)
      trsm_left_reference<double>(Uplo::Lower, Diag::NonUnit, av[i], bv[i]);
  });
  const double t_batched = bench::time_best_with_setup(repeats, restore, [&] {
    trsm_batched<double>(Uplo::Lower, Diag::NonUnit, av, bv,
                         BatchPolicy::kForceBatched);
  });
  const double work = static_cast<double>(batch) * n * n * nrhs;
  std::printf("trsm_batched          d   batch=%lld n=%lld  loop-of-oracle "
              "%8.2f GF/s  batched %8.2f GF/s\n",
              static_cast<long long>(batch), static_cast<long long>(n),
              work / t_oracle / 1e9, work / t_batched / 1e9);
  out.begin_record();
  out.field("case", "trsm_batched");
  out.field("type", "d");
  out.field("batch", batch);
  out.field("n", n);
  out.field("nrhs", nrhs);
  out.field("oracle_gflops", work / t_oracle / 1e9);
  out.field("kernel_gflops", work / t_batched / 1e9);
  out.field("speedup", t_oracle / t_batched);
  out.end_record();
}

/// getrs on one HODLR shape: an n x n leaf or K-block LU (ld n) against
/// nrhs columns of a panel with leading dimension `ld`, as Algorithm 3
/// solves a leaf against its rows of Ubig (ld = N) and a K block against
/// its W panel. One solve takes microseconds, so each side keeps the best
/// of at least 20 timed calls, restoring B before each.
void run_hodlr_getrs_case(const char* name, index_t n, index_t nrhs,
                          index_t ld, int repeats,
                          bench::JsonArrayWriter& out) {
  Matrix<double> a = random_matrix<double>(n, n, 31);
  for (index_t i = 0; i < n; ++i) a(i, i) += 4.0;
  std::vector<index_t> ipiv(n);
  getrf<double>(a.view(), ipiv.data());
  Matrix<double> b0 = random_matrix<double>(n, nrhs, 32);
  std::vector<double> panel(static_cast<std::size_t>(ld * (nrhs - 1) + n));
  MatrixView<double> b{panel.data(), n, nrhs, ld};
  auto restore = [&] { copy<double>(b0.view(), b); };
  const int samples = std::max(20, 10 * repeats);
  const double t_oracle = bench::time_best_with_setup(samples, restore, [&] {
    laswp<double>(b, ipiv.data(), n, true);
    trsm_left_reference<double>(Uplo::Lower, Diag::Unit, a, b);
    trsm_left_reference<double>(Uplo::Upper, Diag::NonUnit, a, b);
  });
  const double t_kernel = bench::time_best_with_setup(
      samples, restore, [&] { getrs<double>(a, ipiv.data(), b); });
  const double g_oracle = gflops(n, 2 * nrhs, t_oracle);
  const double g_kernel = gflops(n, 2 * nrhs, t_kernel);
  std::printf("%-22s d   %5lldx%5lld ld %6lld  oracle %8.2f GF/s  kernel "
              "%8.2f GF/s  speedup %5.2fx\n",
              name, static_cast<long long>(n), static_cast<long long>(nrhs),
              static_cast<long long>(ld), g_oracle, g_kernel,
              t_oracle / t_kernel);
  out.begin_record();
  out.field("case", name);
  out.field("type", "d");
  out.field("n", n);
  out.field("nrhs", nrhs);
  out.field("ld", ld);
  out.field("oracle_gflops", g_oracle);
  out.field("kernel_gflops", g_kernel);
  out.field("speedup", t_oracle / t_kernel);
  out.end_record();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::Args::parse(argc, argv);
  index_t big = 1024, mid = 512;
  if (args.max_n > 0) {
    big = std::min(big, args.max_n);
    mid = std::min(mid, args.max_n);
  }
  std::printf("== bench_trsm: register-tiled solve engine vs the oracle "
              "(single thread for like-for-like) ==\n");
  bench::JsonArrayWriter out("BENCH_trsm.json");
  bench::emit_blocking_records(out);

  run_trsm_case<double>("trsm", Uplo::Lower, big, big, args.repeats, out);
  run_trsm_case<double>("trsm", Uplo::Upper, big, big, args.repeats, out);
  run_trsm_case<float>("trsm", Uplo::Lower, big, big, args.repeats, out);
  run_trsm_case<std::complex<float>>("trsm", Uplo::Lower, mid, mid,
                                     args.repeats, out);
  run_trsm_case<std::complex<double>>("trsm", Uplo::Lower, mid, mid,
                                      args.repeats, out);
  run_getrs_case<double>(big, big, args.repeats, out);
  run_batched_case(/*batch=*/256, /*n=*/64, /*nrhs=*/64, args.repeats, out);
  // Algorithm 3's leaf solves (line 3: a leaf LU against its rows of Ubig,
  // ld = N) and the solve stage's leaf solves (32 RHS and 1 RHS) ...
  run_hodlr_getrs_case("getrs_leaf", 64, 145, 65536, args.repeats, out);
  run_hodlr_getrs_case("getrs_leaf", 49, 240, 50000, args.repeats, out);
  run_hodlr_getrs_case("getrs_leaf", 48, 240, 50000, args.repeats, out);
  run_hodlr_getrs_case("getrs_leaf", 64, 32, 65536, args.repeats, out);
  run_hodlr_getrs_case("getrs_leaf", 64, 1, 65536, args.repeats, out);
  // ... and its K-block solves (line 9: K_gamma against its W panel).
  run_hodlr_getrs_case("getrs_k", 20, 135, 20, args.repeats, out);
  run_hodlr_getrs_case("getrs_k", 32, 224, 32, args.repeats, out);
  run_hodlr_getrs_case("getrs_k", 58, 32, 58, args.repeats, out);
  out.close();
  std::printf("wrote BENCH_trsm.json\n");
  return 0;
}
