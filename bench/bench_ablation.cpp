/// Ablations for the design choices the paper calls out in Sec. III-C:
///   1. Batched level sweeps vs per-node launches under injected kernel
///      launch latency (the launch-amortization argument for the big-matrix
///      data structure): we count launches and model GPU-like latencies.
///   2. Single vs double precision (the ~2x claim of Sec. IV-B).
///   3. Dense LU crossover at small N (the O(N^3) baseline of Sec. I-A).
///   4. The subtree cut of the batched sweeps: factor and 32-RHS solve
///      times at every cut level, the rule's cut marked. Run with
///      HODLRX_NUM_THREADS=1 for the one-thread figures.

#include "baseline/dense_solver.hpp"
#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "kernels/kernels.hpp"

using namespace hodlrx;

namespace {

template <typename T>
std::pair<HodlrMatrix<T>, PackedHodlr<T>> setup(index_t n, double tol) {
  PointSet pts = uniform_random_points(n, 1, -1, 1, 29);
  GeometricTree g = build_kd_tree(pts, 64);
  ExponentialKernel<T> kernel(std::move(g.points), 1.0, 1e-2);
  BuildOptions opt;
  opt.tol = tol;
  HodlrMatrix<T> h = HodlrMatrix<T>::build(kernel, g.tree, opt);
  PackedHodlr<T> p = PackedHodlr<T>::pack(h);
  return {std::move(h), std::move(p)};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::Args::parse(argc, argv);
  const index_t n = args.full ? (1 << 17) : (1 << 15);

  std::printf("== Ablations (exponential kernel, N=%lld, tol 1e-10) ==\n\n",
              static_cast<long long>(n));
  auto [h, p] = setup<double>(n, 1e-10);
  Matrix<double> b = random_matrix<double>(n, 1, 31);

  // --- 1. launch counting: batched sweep vs per-node recursive ------------
  {
    DeviceContext::global().reset_counters();
    auto f = HodlrFactorization<double>::factor(p, {});
    const auto batched_launches = DeviceContext::global().launches();
    // Below the subtree cut every task issues its own launches for its
    // subtree's leaves and levels; the levels above it launch once each.
    std::printf("[1] device launches, batched factorization: %llu "
                "(subtree cut at level %lld of %lld)\n",
                static_cast<unsigned long long>(batched_launches),
                static_cast<long long>(detail::subtree_cut(
                    h.tree(), 2 * static_cast<std::size_t>(p.total_cols) *
                                 sizeof(double))),
                static_cast<long long>(h.tree().depth()));
    // Per-node execution would launch ~4 kernels per node:
    const unsigned long long per_node =
        4ull * static_cast<unsigned long long>(h.tree().num_nodes());
    std::printf("    per-node execution would need ~%llu launches "
                "(%.0fx more)\n",
                per_node, double(per_node) / double(batched_launches));
    for (double latency_us : {0.0, 5.0, 20.0}) {
      DeviceContext::global().set_launch_latency_us(latency_us);
      WallTimer t;
      auto f2 = HodlrFactorization<double>::factor(p, {});
      const double tf = t.seconds();
      std::printf("    tf with %4.0f us/launch latency: %.4f s  "
                  "(per-node at same latency would add ~%.3f s)\n",
                  latency_us, tf, per_node * latency_us * 1e-6);
    }
    DeviceContext::global().set_launch_latency_us(0.0);
  }

  // --- 2. float vs double -------------------------------------------------
  {
    std::printf("\n[2] precision (paper Sec. IV-B: ~2x from single):\n");
    auto [hf, pf] = setup<float>(n, 1e-5);
    auto [hd, pd] = setup<double>(n, 1e-5);
    Matrix<float> bf = random_matrix<float>(n, 1, 31);
    bench::SolverStats sf = bench::bench_packed(
        hf, pf, ExecMode::kBatched, ConstMatrixView<float>(bf), args.repeats);
    bench::SolverStats sd = bench::bench_packed(
        hd, pd, ExecMode::kBatched, ConstMatrixView<double>(b), args.repeats);
    std::printf("    double: tf %.4f s  ts %.5f s  mem %.4f GB\n", sd.tf,
                sd.ts, sd.mem_gb);
    std::printf("    float : tf %.4f s  ts %.5f s  mem %.4f GB  "
                "(speedup %.2fx, mem %.2fx)\n",
                sf.tf, sf.ts, sf.mem_gb, sd.tf / sf.tf,
                sd.mem_gb / sf.mem_gb);
  }

  // --- 3. dense crossover --------------------------------------------------
  {
    std::printf("\n[3] dense LU baseline crossover:\n");
    for (index_t nn : {512, 2048, 8192}) {
      auto [hs, ps] = setup<double>(nn, 1e-10);
      Matrix<double> bs = random_matrix<double>(nn, 1, 37);
      bench::SolverStats fast = bench::bench_packed(
          hs, ps, ExecMode::kBatched, ConstMatrixView<double>(bs), 1);
      Matrix<double> dense = hs.to_dense();
      WallTimer t;
      DenseSolver<double> ds = DenseSolver<double>::factor(dense);
      const double dense_tf = t.seconds();
      std::printf("    N=%6lld  hodlr tf %.4f s   dense tf %.4f s   "
                  "ratio %.1fx\n",
                  static_cast<long long>(nn), fast.tf, dense_tf,
                  dense_tf / fast.tf);
    }
  }
  // --- 4. subtree cut sweep ----------------------------------------------
  {
    const index_t depth = h.tree().depth();
    const index_t rule = detail::subtree_cut(
        h.tree(), 2 * static_cast<std::size_t>(p.total_cols) * sizeof(double));
    std::printf("\n[4] subtree cut of the batched sweeps (%d pool threads; "
                "cut %lld is the plain level sweep):\n",
                max_threads(), static_cast<long long>(depth));
    Matrix<double> b32 = random_matrix<double>(n, 32, 41);
    for (index_t lc = 0; lc <= depth; ++lc) {
      detail::force_subtree_cut(lc);
      bench::SolverStats st = bench::bench_packed(
          h, p, ExecMode::kBatched, ConstMatrixView<double>(b32),
          args.repeats);
      std::printf("    cut %2lld  tf %.4f s  32-RHS ts %.4f s%s\n",
                  static_cast<long long>(lc), st.tf, st.ts,
                  lc == rule ? "  <- rule" : "");
    }
    detail::force_subtree_cut(-1);
  }
  return 0;
}
