/// Microbenchmark of the packed, register-tiled GEMM engine against the
/// seed's naive kernels (replicated here verbatim as the baseline), and the
/// GEMV kernel in GB/s on the 1-RHS solve's shapes. Emits BENCH_gemm.json so
/// the perf trajectory is tracked across PRs.
///
/// Flags: --repeats N (default 3), --max-n N (cap the large dimension).

#include "bench_util.hpp"

#include "batched/batched_blas.hpp"
#include "common/gemm_kernel.hpp"

using namespace hodlrx;

namespace {

/// The seed's gemm_nn: row-blocked axpy loops, no packing, no register tile.
template <typename T>
void seed_gemm_nn(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
                  MatrixView<T> c) {
  const index_t m = c.rows, n = c.cols, k = a.cols;
  constexpr index_t kRowBlock = 768;
  for (index_t ii = 0; ii < m; ii += kRowBlock) {
    const index_t mb = std::min(kRowBlock, m - ii);
    for (index_t j = 0; j < n; ++j) {
      T* __restrict__ cj = c.data + ii + j * c.ld;
      if (beta == T{}) {
        for (index_t i = 0; i < mb; ++i) cj[i] = T{};
      } else if (beta != T{1}) {
        for (index_t i = 0; i < mb; ++i) cj[i] *= beta;
      }
      for (index_t l = 0; l < k; ++l) {
        const T blj = alpha * b.data[l + j * b.ld];
        if (blj == T{}) continue;
        const T* __restrict__ al = a.data + ii + l * a.ld;
        for (index_t i = 0; i < mb; ++i) cj[i] += al[i] * blj;
      }
    }
  }
}

/// The seed's generic fallback (element accessors), which served every
/// combination with opb != N.
template <typename T>
void seed_gemm_generic(Op opa, Op opb, T alpha, ConstMatrixView<T> a,
                       ConstMatrixView<T> b, T beta, MatrixView<T> c) {
  const index_t m = c.rows, n = c.cols, k = op_cols(opa, a);
  auto at = [&](index_t i, index_t l) -> T {
    switch (opa) {
      case Op::N: return a(i, l);
      case Op::T: return a(l, i);
      default: return conj_s(a(l, i));
    }
  };
  auto bt = [&](index_t l, index_t j) -> T {
    switch (opb) {
      case Op::N: return b(l, j);
      case Op::T: return b(j, l);
      default: return conj_s(b(j, l));
    }
  };
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      T s{};
      for (index_t l = 0; l < k; ++l) s += at(i, l) * bt(l, j);
      T& cij = c(i, j);
      cij = (beta == T{}) ? alpha * s : alpha * s + beta * cij;
    }
}

using bench::time_best;

double gflops(index_t m, index_t n, index_t k, double seconds,
              bool complex_scalar = false) {
  const double mul = complex_scalar ? 8.0 : 2.0;
  return mul * static_cast<double>(m) * n * k / seconds / 1e9;
}

struct Case {
  const char* name;
  Op opa, opb;
  index_t m, n, k;
};

template <typename T>
void run_case(const Case& cs, int repeats, bench::JsonArrayWriter& out) {
  Matrix<T> a = random_matrix<T>(cs.opa == Op::N ? cs.m : cs.k,
                                 cs.opa == Op::N ? cs.k : cs.m, 11);
  Matrix<T> b = random_matrix<T>(cs.opb == Op::N ? cs.k : cs.n,
                                 cs.opb == Op::N ? cs.n : cs.k, 12);
  Matrix<T> c(cs.m, cs.n);
  const bool nn = cs.opa == Op::N && cs.opb == Op::N;
  const double t_seed = time_best(repeats, [&] {
    if (nn)
      seed_gemm_nn<T>(T{1}, a, b, T{0}, c.view());
    else
      seed_gemm_generic<T>(cs.opa, cs.opb, T{1}, a, b, T{0}, c.view());
  });
  const double t_packed = time_best(repeats, [&] {
    gemm_packed<T>(cs.opa, cs.opb, T{1}, a, b, T{0}, c.view());
  });
  const double g_seed = gflops(cs.m, cs.n, cs.k, t_seed, is_complex_v<T>);
  const double g_packed = gflops(cs.m, cs.n, cs.k, t_packed, is_complex_v<T>);
  std::printf("%-24s %c%c %5lldx%5lldx%5lld  seed %8.2f GF/s  packed %8.2f"
              " GF/s  speedup %5.2fx\n",
              cs.name, static_cast<char>(cs.opa), static_cast<char>(cs.opb),
              static_cast<long long>(cs.m), static_cast<long long>(cs.n),
              static_cast<long long>(cs.k), g_seed, g_packed,
              t_seed / t_packed);
  out.begin_record();
  out.field("case", cs.name);
  out.field("type", scalar_name<T>());
  out.field("opa", std::string(1, static_cast<char>(cs.opa)));
  out.field("opb", std::string(1, static_cast<char>(cs.opb)));
  out.field("m", cs.m);
  out.field("n", cs.n);
  out.field("k", cs.k);
  out.field("seed_gflops", g_seed);
  out.field("packed_gflops", g_packed);
  out.field("speedup", t_seed / t_packed);
  out.end_record();
}

/// One matrix-vector product y = op(A) x, A rows x cols inside a buffer of
/// leading dimension ld, through the seed loops (seed_gemm_nn for Op::N,
/// the element-accessor loop for Op::C), the packed engine and gemv().
struct GemvCase {
  const char* name;
  Op opa;
  index_t rows, cols, ld;
};

template <typename T>
void run_gemv_case(const GemvCase& cs, int repeats,
                   bench::JsonArrayWriter& out) {
  Matrix<T> abuf = random_matrix<T>(cs.ld, cs.cols, 31);
  ConstMatrixView<T> a(abuf.data(), cs.rows, cs.cols, cs.ld);
  const index_t xlen = op_cols(cs.opa, a), ylen = op_rows(cs.opa, a);
  Matrix<T> x = random_matrix<T>(xlen, 1, 32);
  Matrix<T> y(ylen, 1);
  // GB/s over the bytes of A, x and y, each moved once. Small shapes repeat
  // inside one timed sample so that it moves at least 4 MiB.
  const double bytes =
      static_cast<double>(sizeof(T)) * (cs.rows * cs.cols + xlen + ylen);
  const int iters = std::max(1, static_cast<int>((1 << 22) / bytes));
  const auto gbs = [&](auto&& f) {
    return bytes * iters / time_best(repeats, [&] {
             for (int it = 0; it < iters; ++it) f();
           }) / 1e9;
  };
  const double g_seed = gbs([&] {
    if (cs.opa == Op::N)
      seed_gemm_nn<T>(T{1}, a, x, T{0}, y.view());
    else
      seed_gemm_generic<T>(cs.opa, Op::N, T{1}, a, x, T{0}, y.view());
  });
  const double g_packed = gbs([&] {
    gemm_packed<T>(cs.opa, Op::N, T{1}, a, x, T{0}, y.view());
  });
  const double g_gemv =
      gbs([&] { gemv<T>(cs.opa, T{1}, a, x.data(), T{0}, y.data()); });
  std::printf("%-24s %c  %5lldx%3lld ld %5lld  seed %7.2f GB/s  packed %7.2f"
              " GB/s  gemv %7.2f GB/s\n",
              cs.name, static_cast<char>(cs.opa),
              static_cast<long long>(cs.rows), static_cast<long long>(cs.cols),
              static_cast<long long>(cs.ld), g_seed, g_packed, g_gemv);
  out.begin_record();
  out.field("case", cs.name);
  out.field("type", scalar_name<T>());
  out.field("opa", std::string(1, static_cast<char>(cs.opa)));
  out.field("rows", cs.rows);  // A as stored: rows x cols, leading dim ld
  out.field("cols", cs.cols);
  out.field("ld", cs.ld);
  out.field("seed_gbs", g_seed);
  out.field("packed_gbs", g_packed);
  out.field("gemv_gbs", g_gemv);
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
  std::printf("== bench_gemm: packed engine vs seed kernels "
              "(single thread for like-for-like) ==\n");
  bench::JsonArrayWriter out("BENCH_gemm.json");
  bench::emit_blocking_records(out);

  run_case<double>({"d_nn_large", Op::N, Op::N, big, big, big}, args.repeats,
                   out);
  run_case<double>({"d_nc_generic", Op::N, Op::C, mid, mid, mid},
                   args.repeats, out);
  run_case<double>({"d_cc_generic", Op::C, Op::C, mid, mid, mid},
                   args.repeats, out);
  run_case<float>({"s_nn_large", Op::N, Op::N, big, big, big}, args.repeats,
                  out);
  run_case<std::complex<double>>({"z_cn", Op::C, Op::N, mid / 2, mid / 2,
                                  mid / 2},
                                 args.repeats, out);
  // The 1-RHS solve's level products: V^H x (Op::C) and x -= Y w (Op::N) on
  // s x r blocks of an N x R panel (ld = 65536), plus one square matrix.
  for (Op op : {Op::N, Op::C}) {
    const bool n = op == Op::N;
    run_gemv_case<double>({n ? "d_gemv_n_64x10" : "d_gemv_c_64x10", op, 64,
                           10, 65536},
                          args.repeats, out);
    run_gemv_case<double>({n ? "d_gemv_n_2048x10" : "d_gemv_c_2048x10", op,
                           2048, 10, 65536},
                          args.repeats, out);
    run_gemv_case<double>({n ? "d_gemv_n_16384x19" : "d_gemv_c_16384x19", op,
                           16384, 19, 65536},
                          args.repeats, out);
    run_gemv_case<double>({n ? "d_gemv_n_square" : "d_gemv_c_square", op,
                           big, big, big},
                          args.repeats, out);
  }
  out.close();
  std::printf("wrote BENCH_gemm.json\n");
  return 0;
}
