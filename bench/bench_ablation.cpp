/// Ablations for the design choices the paper calls out in Sec. III-C:
///   1. Batched level sweeps vs per-node launches under injected kernel
///      launch latency (the launch-amortization argument for the big-matrix
///      data structure): we count launches and model GPU-like latencies.
///   2. Single vs double precision (the ~2x claim of Sec. IV-B).
///   3. Dense LU crossover at small N (the O(N^3) baseline of Sec. I-A).

#include "baseline/dense_solver.hpp"
#include "bench_util.hpp"
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
    std::printf("[1] device launches, batched factorization: %llu\n",
                static_cast<unsigned long long>(batched_launches));
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
  return 0;
}
