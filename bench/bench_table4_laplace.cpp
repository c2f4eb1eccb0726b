/// Reproduces paper Table IV and Fig. 7 (Sec. IV-B): the completed
/// double-layer BIE for the exterior Laplace problem (eq. 21) on the smooth
/// contour, 2nd-order (trapezoidal) discretization. Four solver columns:
///   serial HODLR (Alg. 1/2, one thread) | serial block-sparse |
///   parallel block-sparse | GPU HODLR (Alg. 3/4, batched).
/// (a) high accuracy: tol 1e-12, double precision;
/// (b) --low: tol 1e-5, single precision (the paper's Table IV b).
/// Default sweep N = 2^12 .. 2^15; --full extends to 2^18 (block-sparse
/// dominates the runtime there).

#include "bench_util.hpp"
#include "bie/laplace.hpp"

using namespace hodlrx;

template <typename T>
void run(const bench::Args& args, double tol) {
  const index_t n_lo = 1 << 12;
  index_t n_hi = args.full ? (1 << 18) : (1 << 15);
  if (args.max_n > 0) n_hi = args.max_n;

  std::printf("%10s  %20s  %20s  %20s  %20s  %9s\n", "N",
              "SerialHODLR tf    ts", "SerBlkSprs tf     ts",
              "ParBlkSprs tf     ts", "GPU HODLR tf      ts", "relres");
  for (index_t n = n_lo; n <= n_hi; n *= 2) {
    bie::BlobContour contour;
    bie::ContourDiscretization d = bie::discretize(contour, n);
    bie::LaplaceExteriorBIE<T> gen(d, {0.0, 0.0});
    ClusterTree tree = ClusterTree::uniform(n, 64);
    BuildOptions bopt;
    bopt.tol = tol;
    HodlrMatrix<T> h = HodlrMatrix<T>::build(gen, tree, bopt);
    PackedHodlr<T> p = PackedHodlr<T>::pack(h);
    Matrix<T> b = random_matrix<T>(n, 1, 11);

    bench::SolverStats sh = bench::bench_packed(h, p, ExecMode::kSerial,
                                                ConstMatrixView<T>(b),
                                                args.repeats);
    bench::SolverStats bs = bench::bench_block_sparse(
        h, ConstMatrixView<T>(b), args.repeats, /*parallel=*/false);
    bench::SolverStats bp = bench::bench_block_sparse(
        h, ConstMatrixView<T>(b), args.repeats, /*parallel=*/true);
    bench::SolverStats gpu = bench::bench_packed(
        h, p, ExecMode::kBatched, ConstMatrixView<T>(b), args.repeats);

    std::printf(
        "%10lld  %9.3e %9.3e  %9.3e %9.3e  %9.3e %9.3e  %9.3e %9.3e  %9.2e\n",
        static_cast<long long>(n), sh.tf, sh.ts, bs.tf, bs.ts, bp.tf, bp.ts,
        gpu.tf, gpu.ts, gpu.relres);
    std::printf("      mem[GB]: serialH %.4f  serBS %.4f  parBS %.4f  "
                "gpuH %.4f\n",
                sh.mem_gb, bs.mem_gb, bp.mem_gb, gpu.mem_gb);
  }
}

int main(int argc, char** argv) {
  bench::Args args = bench::Args::parse(argc, argv);
  bench::JsonArrayWriter out("BENCH_table4_laplace.json");
  bench::emit_blocking_records(out);
  if (!args.low_accuracy) {
    std::printf(
        "== Table IV(a) / Fig. 7(a,b): Laplace BIE, tol 1e-12, double ==\n");
    run<double>(args, 1e-12);
    std::printf("\n");
  }
  std::printf(
      "== Table IV(b) / Fig. 7(c,d): Laplace BIE, tol 1e-5, SINGLE "
      "precision ==\n");
  run<float>(args, 1e-5);
  std::printf(
      "\nShape checks vs the paper: GPU HODLR fastest on both stages; the\n"
      "serial block-sparse solver beats the serial HODLR solver in tf; all\n"
      "columns scale near-linearly; --low runs ~2x faster in float.\n");
  return 0;
}
