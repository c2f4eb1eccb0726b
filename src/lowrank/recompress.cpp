#include "lowrank/recompress.hpp"

#include <algorithm>
#include <complex>
#include <vector>

#include "batched/batched_blas.hpp"
#include "common/error.hpp"
#include "common/lapack.hpp"
#include "common/parallel.hpp"
#include "device/device.hpp"

namespace hodlrx {

namespace {

/// Cholesky breakdown threshold of the Gram path, relative to each Gram
/// diagonal entry (potrf_upper's rtol). The Laplace, RPY and Helmholtz ACA
/// factors of the pipeline benchmark keep pivot ratios of 3e-3 or more.
template <typename T>
real_t<T> breakdown_rtol() {
  return real_t<T>{256} * eps_v<T>;
}

/// R (r x r upper, written into `r`) with X = Q R for an implicit Q whose
/// columns are orthonormal up to O(kappa^2 eps): the Cholesky factor of the
/// Gram matrix X^H X. False when the Cholesky breaks down.
template <typename T>
bool gram_cholesky(ConstMatrixView<T> x, MatrixView<T> r) {
  gemm(Op::C, Op::N, T{1}, x, x, T{0}, r);
  return potrf_upper<T>(r, breakdown_rtol<T>()) < 0;
}

/// The truncated side X R^{-1} B written straight from the original panel:
/// `b` (r x k) is overwritten by R^{-1} B, then one m x r x k GEMM.
template <typename T>
Matrix<T> truncated_side(ConstMatrixView<T> x, ConstMatrixView<T> r,
                         MatrixView<T> b) {
  trsm_left<T>(Uplo::Upper, Diag::NonUnit, r, b);
  Matrix<T> out(x.rows, b.cols);
  gemm(Op::N, Op::N, T{1}, x, ConstMatrixView<T>(b), T{0}, out.view());
  return out;
}

/// Fold the singular values into the first k columns of W.
template <typename T>
void scale_columns(MatrixView<T> w, const real_t<T>* s) {
  for (index_t j = 0; j < w.cols; ++j)
    scale_inplace(T{s[j]}, w.block(0, j, w.rows, 1));
}

}  // namespace

template <typename T>
RecompressResult recompress(LowRankFactor<T>& factor, real_t<T> tol,
                            index_t max_rank) {
  using R = real_t<T>;
  const index_t r = factor.rank();
  if (r == 0) return {};
  Matrix<T> ru(r, r), rv(r, r);
  if (!gram_cholesky<T>(factor.u, ru.view()) ||
      !gram_cholesky<T>(factor.v, rv.view())) {
    qr_stats::detail::add_cholesky_fallbacks(1);
    return detail::recompress_householder<T>(factor, tol, max_rank);
  }
  Matrix<T> core(r, r);
  gemm(Op::N, Op::C, T{1}, ConstMatrixView<T>(ru), ConstMatrixView<T>(rv),
       T{0}, core.view());
  SVDResult<T> svd = jacobi_svd<T>(core);
  const index_t k = truncate_rank<R>(svd.s.data(), r, max_rank, tol);
  Matrix<T> wk = to_matrix(svd.u.block(0, 0, r, k));
  scale_columns<T>(wk.view(), svd.s.data());
  Matrix<T> zk = to_matrix(svd.v.block(0, 0, r, k));
  factor.u = truncated_side<T>(factor.u, ru, wk.view());
  factor.v = truncated_side<T>(factor.v, rv, zk.view());
  return {k, svd.converged};
}

template <typename T>
SvdBatchInfo recompress_batched(std::span<LowRankFactor<T>> factors,
                                real_t<T> tol, index_t max_rank,
                                OnBreakdown on_breakdown) {
  using R = real_t<T>;
  const index_t batch = static_cast<index_t>(factors.size());
  if (batch == 0) return {};
  const index_t m = factors[0].rows(), n = factors[0].cols();
  index_t rhat = 0;
  std::vector<index_t> rank(static_cast<std::size_t>(batch));
  for (index_t i = 0; i < batch; ++i) {
    const LowRankFactor<T>& f = factors[static_cast<std::size_t>(i)];
    HODLRX_REQUIRE(f.rows() == m && f.cols() == n,
                   "recompress_batched: factors must share one outer shape");
    rank[static_cast<std::size_t>(i)] = f.rank();
    rhat = std::max(rhat, f.rank());
  }
  if (rhat == 0) return {};
  HODLRX_REQUIRE(rhat <= std::min(m, n),
                 "recompress_batched: rank " << rhat << " exceeds block "
                                             << m << "x" << n);
  const index_t slot = rhat * rhat;

  // One launch, one task per factor side (task 2i: U_i, 2i+1: V_i): Gram
  // GEMM and Cholesky into a zero-initialized rhat x rhat slot, so each R
  // arrives zero-padded.
  Matrix<T> ru(rhat, rhat * batch), rv(rhat, rhat * batch);
  std::vector<char> ok(static_cast<std::size_t>(2 * batch));
  DeviceContext::global().record_launch();
  parallel_for(2 * batch, [&](index_t t) {
    const index_t i = t / 2, r = rank[static_cast<std::size_t>(i)];
    const LowRankFactor<T>& f = factors[static_cast<std::size_t>(i)];
    const bool left = t % 2 == 0;
    MatrixView<T> rt{(left ? ru : rv).data() + i * slot, r, r, rhat};
    ok[static_cast<std::size_t>(t)] =
        gram_cholesky<T>(left ? f.u.view() : f.v.view(), rt) ? 1 : 0;
  });
  // A block that broke down on either side leaves the Gram path: its slots
  // are zeroed (a zero core converges at once) and it is re-truncated by the
  // serial Householder rung at the end, one pool task per block.
  std::vector<index_t> fallback;
  for (index_t i = 0; i < batch; ++i) {
    if (ok[static_cast<std::size_t>(2 * i)] &&
        ok[static_cast<std::size_t>(2 * i + 1)])
      continue;
    fallback.push_back(i);
    std::fill_n(ru.data() + i * slot, slot, T{});
    std::fill_n(rv.data() + i * slot, slot, T{});
  }

  // Cores C_i = Ru_i Rv_i^H in one strided GEMM launch, then the batched
  // Jacobi SVD: core_i becomes W_i, z_i the right vectors Z_i.
  Matrix<T> core(rhat, rhat * batch);
  gemm_strided_batched<T>(Op::N, Op::C, rhat, rhat, rhat, T{1}, ru.data(),
                          rhat, slot, rv.data(), rhat, slot, T{0}, core.data(),
                          rhat, slot, batch);
  std::vector<R> sig(static_cast<std::size_t>(rhat) * batch);
  Matrix<T> z(rhat, rhat * batch);
  SvdBatchInfo info = jacobi_svd_strided_batched<T>(
      core.data(), rhat, slot, rhat, rhat, sig.data(), rhat, z.data(), rhat,
      slot, batch, /*recover=*/on_breakdown == OnBreakdown::kRecover);
  HODLRX_REQUIRE(on_breakdown != OnBreakdown::kThrow || info.nonconverged == 0,
                 "recompress_batched: " << info.nonconverged << " of " << batch
                                        << " core SVD(s) did not converge");

  // Shared truncation rule per problem. A padded core's extra singular
  // values are exact zeros, and the kept vectors vanish below row r_i.
  std::vector<index_t> k(static_cast<std::size_t>(batch), 0);
  for (index_t i = 0; i < batch; ++i)
    k[static_cast<std::size_t>(i)] = std::min(
        rank[static_cast<std::size_t>(i)],
        truncate_rank<R>(sig.data() + i * rhat, rhat, max_rank, tol));
  for (index_t i : fallback) k[static_cast<std::size_t>(i)] = -1;

  // One launch, one task per factor side: U_i <- U_i Ru_i^{-1} (W_ik S_ik)
  // and V_i <- V_i Rv_i^{-1} Z_ik, read straight from the input factors.
  DeviceContext::global().record_launch();
  parallel_for(2 * batch, [&](index_t t) {
    const index_t i = t / 2, r = rank[static_cast<std::size_t>(i)];
    const index_t ki = k[static_cast<std::size_t>(i)];
    if (ki < 0) return;
    LowRankFactor<T>& f = factors[static_cast<std::size_t>(i)];
    const bool left = t % 2 == 0;
    Matrix<T> b = to_matrix(ConstMatrixView<T>(
        (left ? core : z).data() + i * slot, r, ki, rhat));
    if (left) scale_columns<T>(b.view(), sig.data() + i * rhat);
    ConstMatrixView<T> rt((left ? ru : rv).data() + i * slot, r, r, rhat);
    Matrix<T>& side = left ? f.u : f.v;
    side = truncated_side<T>(side, rt, b.view());
  });

  if (fallback.empty()) return info;
  qr_stats::detail::add_cholesky_fallbacks(fallback.size());
  std::vector<char> converged(fallback.size());
  parallel_for(static_cast<index_t>(fallback.size()), [&](index_t j) {
    const index_t i = fallback[static_cast<std::size_t>(j)];
    converged[static_cast<std::size_t>(j)] =
        detail::recompress_householder<T>(
            factors[static_cast<std::size_t>(i)], tol, max_rank)
                .converged
            ? 1
            : 0;
  });
  const auto missed = static_cast<index_t>(
      std::count(converged.begin(), converged.end(), 0));
  HODLRX_REQUIRE(on_breakdown != OnBreakdown::kThrow || missed == 0,
                 "recompress_batched: " << missed << " Householder core SVD(s)"
                                        << " did not converge");
  info.nonconverged += missed;
  return info;
}

namespace detail {

template <typename T>
RecompressResult recompress_householder(LowRankFactor<T>& factor,
                                        real_t<T> tol, index_t max_rank) {
  using R = real_t<T>;
  const index_t m = factor.rows(), n = factor.cols(), r = factor.rank();
  if (r == 0) return {};

  QRFactors<T> qu = geqrf<T>(factor.u);
  QRFactors<T> qv = geqrf<T>(factor.v);
  Matrix<T> ru = r_factor(qu);  // ku x r
  Matrix<T> rv = r_factor(qv);  // kv x r
  Matrix<T> core(ru.rows(), rv.rows());
  gemm(Op::N, Op::C, T{1}, ConstMatrixView<T>(ru), ConstMatrixView<T>(rv),
       T{0}, core.view());
  SVDResult<T> svd = jacobi_svd<T>(core);

  const index_t k = truncate_rank<R>(
      svd.s.data(), static_cast<index_t>(svd.s.size()), max_rank, tol);

  Matrix<T> qu_full = thin_q(qu);
  Matrix<T> qv_full = thin_q(qv);
  Matrix<T> u_new(m, k), v_new(n, k);
  if (k > 0) {
    Matrix<T> wk = to_matrix(svd.u.block(0, 0, svd.u.rows(), k));
    scale_columns<T>(wk.view(), svd.s.data());
    gemm(Op::N, Op::N, T{1}, ConstMatrixView<T>(qu_full),
         ConstMatrixView<T>(wk), T{0}, u_new.view());
    gemm(Op::N, Op::N, T{1}, ConstMatrixView<T>(qv_full),
         ConstMatrixView<T>(svd.v.block(0, 0, svd.v.rows(), k)), T{0},
         v_new.view());
  }
  factor.u = std::move(u_new);
  factor.v = std::move(v_new);
  return {k, svd.converged};
}

}  // namespace detail

#define HODLRX_INSTANTIATE_RECOMPRESS(T)                                   \
  template RecompressResult recompress<T>(LowRankFactor<T>&, real_t<T>,   \
                                          index_t);                       \
  template SvdBatchInfo recompress_batched<T>(                             \
      std::span<LowRankFactor<T>>, real_t<T>, index_t, OnBreakdown);       \
  template RecompressResult detail::recompress_householder<T>(             \
      LowRankFactor<T>&, real_t<T>, index_t);

HODLRX_INSTANTIATE_RECOMPRESS(float)
HODLRX_INSTANTIATE_RECOMPRESS(double)
HODLRX_INSTANTIATE_RECOMPRESS(std::complex<float>)
HODLRX_INSTANTIATE_RECOMPRESS(std::complex<double>)

#undef HODLRX_INSTANTIATE_RECOMPRESS

}  // namespace hodlrx
