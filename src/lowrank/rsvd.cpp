#include "lowrank/rsvd.hpp"

#include <complex>
#include <span>

#include "batched/batched_blas.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "device/device.hpp"

namespace hodlrx {

namespace {

/// Sketch width for the options: min(m, n, rank + oversampling).
index_t sketch_width(index_t m, index_t n, const RsvdOptions& opt) {
  return std::min({m, n, opt.rank + opt.oversampling});
}

/// Final step shared by the single-block and batched paths: given the
/// orthonormal range basis Q (m x l) and the small problem B = Q^H A
/// (l x n), SVD(B) = W S V^H, truncate per options and return U = Q W_k S_k,
/// V = V_k.
template <typename T>
LowRankFactor<T> rsvd_truncate(ConstMatrixView<T> q, ConstMatrixView<T> b,
                               const RsvdOptions& opt) {
  using R = real_t<T>;
  const index_t m = q.rows, n = b.cols;
  SVDResult<T> svd = jacobi_svd<T>(b);

  const index_t k =
      truncate_rank<R>(svd.s.data(), static_cast<index_t>(svd.s.size()),
                       opt.rank > 0 ? opt.rank : -1, static_cast<R>(opt.tol));

  LowRankFactor<T> out;
  out.u = Matrix<T>(m, k);
  out.v = Matrix<T>(n, k);
  if (k > 0) {
    Matrix<T> wk = to_matrix(svd.u.block(0, 0, svd.u.rows(), k));
    for (index_t j = 0; j < k; ++j)
      scale_inplace(T{svd.s[j]}, wk.block(0, j, wk.rows(), 1));
    gemm(Op::N, Op::N, T{1}, q, ConstMatrixView<T>(wk), T{0}, out.u.view());
    copy(svd.v.block(0, 0, n, k), out.v.block(0, 0, n, k));
  }
  return out;
}

/// Finish a single-block rsvd given the range sketch Y = A * G:
/// orthonormalize, optionally power-iterate, then solve the small problem
/// B = Q^H A and truncate.
template <typename T>
LowRankFactor<T> rsvd_finish(ConstMatrixView<T> a, Matrix<T> y,
                             const RsvdOptions& opt) {
  const index_t m = a.rows, n = a.cols;
  Matrix<T> q = thin_q(geqrf<T>(y));
  for (int it = 0; it < opt.power_iterations; ++it) {
    Matrix<T> z(n, q.cols());
    gemm(Op::C, Op::N, T{1}, a, q, T{0}, z.view());
    Matrix<T> qz = thin_q(geqrf<T>(z));
    Matrix<T> y2(m, qz.cols());
    gemm(Op::N, Op::N, T{1}, a, qz, T{0}, y2.view());
    q = thin_q(geqrf<T>(y2));
  }
  Matrix<T> b(q.cols(), n);
  gemm(Op::C, Op::N, T{1}, ConstMatrixView<T>(q), a, T{0}, b.view());
  return rsvd_truncate<T>(q, b, opt);
}

/// Truncation epilogue of the batched sweep: per problem apply
/// truncate_rank to `sig + i*width`, fold S_ik into the first k_i columns of
/// the width x width rotation factors `w` (one elementwise pool launch), run
/// the truncated left products U_i = Q_i (W_i S_i) for the WHOLE batch as
/// ONE strided GEMM launch at the uniform width, and gather
/// `out[i] = (U_i[:, :k_i], vsrc_i[:, :k_i])` in one batched copy-out
/// launch. `q` holds the m x width left bases and `vsrc` the n x width
/// right-vector sources, both at their natural contiguous strides.
template <typename T>
void truncated_products_batched(const T* q, index_t m, const T* vsrc,
                                index_t n, T* w, index_t width,
                                const real_t<T>* sig, index_t batch,
                                index_t max_rank, real_t<T> tol,
                                std::span<LowRankFactor<T>> out) {
  using R = real_t<T>;
  HODLRX_REQUIRE(static_cast<index_t>(out.size()) == batch,
                 "truncated_products_batched: output batch mismatch");
  // Shared truncation rule per problem (cheap host-side counting), then one
  // elementwise launch folds S_ik into W_ik.
  std::vector<index_t> k(static_cast<std::size_t>(batch));
  for (index_t i = 0; i < batch; ++i)
    k[static_cast<std::size_t>(i)] =
        truncate_rank<R>(sig + i * width, width, max_rank, tol);
  DeviceContext::global().record_launch();
  parallel_for_static(batch, [&](index_t i) {
    for (index_t j = 0; j < k[static_cast<std::size_t>(i)]; ++j)
      scale_inplace(T{sig[i * width + j]},
                    MatrixView<T>{w + i * width * width + j * width, width, 1,
                                  width});
  });
  // U_i = Q_i (W_i S_i) for the WHOLE batch in one strided GEMM launch at
  // the uniform width (columns past k_i are simply never read back),
  // instead of a per-block gemm inside a pool task.
  Matrix<T> uf(m, width * batch);
  gemm_strided_batched<T>(Op::N, Op::N, m, width, width, T{1}, q, m,
                          m * width, w, width, width * width, T{0}, uf.data(),
                          m, m * width, batch);
  // Gather the truncated factors (a batched copy-out, no per-block compute).
  DeviceContext::global().record_launch();
  parallel_for_static(batch, [&](index_t i) {
    const index_t ki = k[static_cast<std::size_t>(i)];
    LowRankFactor<T>& f = out[static_cast<std::size_t>(i)];
    f.u = to_matrix(ConstMatrixView<T>(uf.data() + i * m * width, m, ki, m));
    f.v = to_matrix(ConstMatrixView<T>(vsrc + i * n * width, n, ki, n));
  });
}

}  // namespace

template <typename T>
LowRankFactor<T> rsvd(ConstMatrixView<T> a, const RsvdOptions& opt) {
  const index_t m = a.rows, n = a.cols;
  const index_t l = sketch_width(m, n, opt);
  if (l == 0) {
    LowRankFactor<T> out;
    out.u = Matrix<T>(m, 0);
    out.v = Matrix<T>(n, 0);
    return out;
  }
  // Sketch the range: Y = A * G.
  Matrix<T> g = random_matrix<T>(n, l, opt.seed);
  Matrix<T> y(m, l);
  gemm(Op::N, Op::N, T{1}, a, g, T{0}, y.view());
  return rsvd_finish<T>(a, std::move(y), opt);
}

template <typename T>
std::vector<LowRankFactor<T>> rsvd_strided_batched(const T* a, index_t lda,
                                                   index_t stride_a, index_t m,
                                                   index_t n, index_t batch,
                                                   const RsvdOptions& opt) {
  std::vector<LowRankFactor<T>> out(static_cast<std::size_t>(batch));
  if (batch == 0) return out;
  HODLRX_REQUIRE(m >= 0 && n >= 0 && lda >= m && stride_a >= 0,
                 "rsvd_strided_batched: bad layout");
  const index_t l = sketch_width(m, n, opt);
  if (l == 0) {
    for (auto& f : out) {
      f.u = Matrix<T>(m, 0);
      f.v = Matrix<T>(n, 0);
    }
    return out;
  }
  // One shared Gaussian test matrix for the WHOLE sweep: the stride-0 B
  // operand makes the batch layer pack G once per launch and reuse the pack
  // for every block (gemm_stats::shared_packs counts it).
  Matrix<T> g = random_matrix<T>(n, l, opt.seed);
  Matrix<T> y(m, l * batch);
  gemm_strided_batched<T>(Op::N, Op::N, m, l, n, T{1}, a, lda, stride_a,
                          g.data(), n, /*stride_b=*/0, T{0}, y.data(), m,
                          m * l, batch);
  // The tails run on the device model too: EVERY stage — orthonormalization,
  // power iterations, the small problems, their SVDs and the truncated
  // factor products — is a batched launch (panel-synchronized batched QR,
  // sweep-synchronized batched Jacobi, strided GEMM); the sweep performs
  // ZERO per-block pool tasks end to end.
  std::vector<T> tau(static_cast<std::size_t>(l) * batch);
  const auto orthonormalize = [&](Matrix<T>& x, index_t rows) {
    geqrf_strided_batched<T>(x.data(), rows, rows * l, rows, l, tau.data(), l,
                             batch, BatchPolicy::kForceBatched);
    thin_q_strided_batched<T>(x.data(), rows, rows * l, rows, l, tau.data(),
                              l, batch, BatchPolicy::kForceBatched);
  };
  orthonormalize(y, m);
  if (opt.power_iterations > 0) {
    Matrix<T> z(n, l * batch);
    for (int it = 0; it < opt.power_iterations; ++it) {
      // Z_i = A_i^H Q_i, re-orthonormalize; Y_i = A_i Q(Z_i), orthonormalize.
      gemm_strided_batched<T>(Op::C, Op::N, n, l, m, T{1}, a, lda, stride_a,
                              y.data(), m, m * l, T{0}, z.data(), n, n * l,
                              batch);
      orthonormalize(z, n);
      gemm_strided_batched<T>(Op::N, Op::N, m, l, n, T{1}, a, lda, stride_a,
                              z.data(), n, n * l, T{0}, y.data(), m, m * l,
                              batch);
      orthonormalize(y, m);
    }
  }
  // Small problems, TRANSPOSED so every one is tall: Bh_i = A_i^H Q_i
  // (n x l, l <= n) in one strided launch. Since B_i = Q_i^H A_i = Bh_i^H,
  // the SVD of Bh_i = Uh_i S_i W_i^H hands back B_i's factors with the
  // sides swapped: B_i = W_i S_i Uh_i^H, so A_i ~= Q_i B_i =
  // (Q_i W_ik S_ik) Uh_ik^H.
  using R = real_t<T>;
  Matrix<T> bh(n, l * batch);
  gemm_strided_batched<T>(Op::C, Op::N, n, l, m, T{1}, a, lda, stride_a,
                          y.data(), m, m * l, T{0}, bh.data(), n, n * l,
                          batch);
  // Sweep-synchronized batched Jacobi over the whole batch: after it, bh
  // holds Uh_i (normalized descending columns) and w the W_i rotations.
  // Zero per-block SVD pool tasks (svd_stats::serial_svds stays flat).
  std::vector<R> sig(static_cast<std::size_t>(l) * batch);
  Matrix<T> w(l, l * batch);
  const SvdBatchInfo svd_info = jacobi_svd_strided_batched<T>(
      bh.data(), n, n * l, n, l, sig.data(), l, w.data(), l, l * l, batch,
      /*recover=*/opt.on_breakdown == OnBreakdown::kRecover);
  if (opt.breakdowns != nullptr) {
    opt.breakdowns->svd_nonconverged += svd_info.nonconverged;
    opt.breakdowns->svd_recovered += svd_info.recovered;
  }
  // Truncation epilogue: truncate_rank per problem, S folded into W_ik, ONE
  // strided U_i = Q_i W_ik S_ik launch, batched copy-out.
  truncated_products_batched<T>(y.data(), m, bh.data(), n, w.data(), l,
                                sig.data(), batch,
                                opt.rank > 0 ? opt.rank : -1,
                                static_cast<R>(opt.tol), out);
  return out;
}

#define HODLRX_INSTANTIATE_RSVD(T)                                           \
  template LowRankFactor<T> rsvd<T>(ConstMatrixView<T>, const RsvdOptions&); \
  template std::vector<LowRankFactor<T>> rsvd_strided_batched<T>(            \
      const T*, index_t, index_t, index_t, index_t, index_t,                 \
      const RsvdOptions&);

HODLRX_INSTANTIATE_RSVD(float)
HODLRX_INSTANTIATE_RSVD(double)
HODLRX_INSTANTIATE_RSVD(std::complex<float>)
HODLRX_INSTANTIATE_RSVD(std::complex<double>)

#undef HODLRX_INSTANTIATE_RSVD

}  // namespace hodlrx
