#include "lowrank/rsvd.hpp"

#include <algorithm>
#include <complex>
#include <vector>

#include "common/random.hpp"

namespace hodlrx {

namespace {

/// Overwrite `x` (rows >= cols) with an orthonormal basis of its range.
template <typename T>
void orthonormalize(MatrixView<T> x, std::vector<T>& tau) {
  tau.resize(static_cast<std::size_t>(x.cols));
  geqrf_inplace_parallel<T>(x, tau.data());
  thin_q_inplace_parallel<T>(x, tau.data());
}

}  // namespace

template <typename T>
LowRankFactor<T> rsvd(ConstMatrixView<T> a, const RsvdOptions& opt) {
  using R = real_t<T>;
  const index_t m = a.rows, n = a.cols;
  const index_t l = std::min({m, n, opt.rank + opt.oversampling});
  LowRankFactor<T> out;
  if (l == 0) {
    out.u = Matrix<T>(m, 0);
    out.v = Matrix<T>(n, 0);
    return out;
  }
  // Range basis Q of the sketch Y = A G, refined by the power iterations
  // Z = A^H Q, Y = A Q(Z).
  std::vector<T> tau;
  Matrix<T> g = random_matrix<T>(n, l, opt.seed);
  Matrix<T> q(m, l);
  gemm_parallel(Op::N, Op::N, T{1}, a, ConstMatrixView<T>(g), T{0}, q.view());
  orthonormalize<T>(q.view(), tau);
  Matrix<T> z(n, l);
  for (int it = 0; it < opt.power_iterations; ++it) {
    gemm_parallel(Op::C, Op::N, T{1}, a, ConstMatrixView<T>(q), T{0},
                  z.view());
    orthonormalize<T>(z.view(), tau);
    gemm_parallel(Op::N, Op::N, T{1}, a, ConstMatrixView<T>(z), T{0},
                  q.view());
    orthonormalize<T>(q.view(), tau);
  }
  // The small problem B = Q^H A = W S V^H, truncated: U = Q W_k S_k, V = V_k.
  Matrix<T> b(l, n);
  gemm_parallel(Op::C, Op::N, T{1}, ConstMatrixView<T>(q), a, T{0}, b.view());
  SVDResult<T> svd = jacobi_svd<T>(b);
  const index_t k =
      truncate_rank<R>(svd.s.data(), static_cast<index_t>(svd.s.size()),
                       opt.rank > 0 ? opt.rank : -1, static_cast<R>(opt.tol));
  out.u = Matrix<T>(m, k);
  out.v = Matrix<T>(n, k);
  if (k > 0) {
    Matrix<T> wk = to_matrix(svd.u.block(0, 0, svd.u.rows(), k));
    for (index_t j = 0; j < k; ++j)
      scale_inplace(T{svd.s[j]}, wk.block(0, j, wk.rows(), 1));
    gemm_parallel(Op::N, Op::N, T{1}, ConstMatrixView<T>(q),
                  ConstMatrixView<T>(wk), T{0}, out.u.view());
    copy(svd.v.block(0, 0, n, k), out.v.block(0, 0, n, k));
  }
  return out;
}

#define HODLRX_INSTANTIATE_RSVD(T) \
  template LowRankFactor<T> rsvd<T>(ConstMatrixView<T>, const RsvdOptions&);

HODLRX_INSTANTIATE_RSVD(float)
HODLRX_INSTANTIATE_RSVD(double)
HODLRX_INSTANTIATE_RSVD(std::complex<float>)
HODLRX_INSTANTIATE_RSVD(std::complex<double>)

#undef HODLRX_INSTANTIATE_RSVD

}  // namespace hodlrx
