/// Quickstart: compress a kernel matrix into HODLR form, factor it with the
/// batched engine, solve a linear system, and compute its log-determinant.
///
///   1. make a point set and a cluster tree (geometry-aware bisection);
///   2. define the matrix implicitly through a kernel generator;
///   3. HodlrMatrix::build compresses every off-diagonal block (ACA) into
///      the paper's big-matrix form;
///   4. PackedHodlr::pack hands those panels to the factorization (no copy);
///   5. HodlrFactorization::factor runs Algorithm 3; solve runs Algorithm 4.

#include "common/random.hpp"
#include <cstdio>

#include "core/factorization.hpp"
#include "kernels/kernels.hpp"

using namespace hodlrx;

int main() {
  const index_t n = 20000;

  // 1. Points and tree.
  PointSet pts = uniform_random_points(n, 1, -1.0, 1.0, /*seed=*/42);
  GeometricTree geo = build_kd_tree(pts, /*leaf_size=*/64);

  // 2. Implicit matrix: Gaussian kernel plus a small ridge.
  GaussianKernel<double> kernel(std::move(geo.points), /*scale=*/0.5,
                                /*diag_shift=*/1e-2);

  // 3. Compress. tol controls the accuracy/speed trade-off (Sec. I of the
  //    paper: high tol -> fast direct solver, low tol -> preconditioner).
  BuildOptions build_opt;
  build_opt.tol = 1e-10;
  HodlrMatrix<double> h = HodlrMatrix<double>::build(kernel, geo.tree, build_opt);
  std::printf("HODLR: N=%lld, depth=%lld, max off-diagonal rank=%lld, "
              "%.1f MB (dense would be %.1f MB)\n",
              (long long)h.n(), (long long)h.depth(), (long long)h.max_rank(),
              h.bytes() / 1e6, double(n) * n * sizeof(double) / 1e6);

  // 4-5. Pack + factor + solve.
  PackedHodlr<double> packed = PackedHodlr<double>::pack(h);
  HodlrFactorization<double> f = HodlrFactorization<double>::factor(packed, {});

  Matrix<double> b = random_matrix<double>(n, 1, 7);
  Matrix<double> x = f.solve(b);

  // Residual against the compressed operator.
  Matrix<double> r(n, 1);
  h.apply(x, r.view());
  axpy(-1.0, ConstMatrixView<double>(b), r.view());
  std::printf("relative residual ||b - A x|| / ||b|| = %.2e\n",
              norm_fro<double>(r) / norm_fro<double>(b));

  // Bonus: log-determinant (Theorem 5 of the paper).
  auto ld = f.logdet();
  std::printf("log|det A| = %.6f (sign %+.0f)\n", ld.log_abs, ld.phase);
  return 0;
}
