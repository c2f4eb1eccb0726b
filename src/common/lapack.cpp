#include "common/lapack.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>

#include "common/blocking.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/flops.hpp"
#include "common/parallel.hpp"
#include "common/trsm_kernel.hpp"

namespace hodlrx {

namespace {

/// Unblocked right-looking LU with partial pivoting on an m x n panel
/// (pivot search over the full column height).
template <typename T>
void getrf_unblocked(MatrixView<T> a, index_t* ipiv) {
  const index_t m = a.rows, n = a.cols;
  const index_t kmax = std::min(m, n);
  for (index_t k = 0; k < kmax; ++k) {
    // Pivot: largest |a(i,k)| for i >= k.
    index_t p = k;
    real_t<T> best = abs_s(a(k, k));
    for (index_t i = k + 1; i < m; ++i) {
      const real_t<T> v = abs_s(a(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    ipiv[k] = p;
    HODLRX_REQUIRE(best > real_t<T>{0}, "getrf: exact zero pivot at column "
                                            << k << " of " << n);
    if (p != k)
      for (index_t j = 0; j < n; ++j) std::swap(a(k, j), a(p, j));
    // Scale the subdiagonal of column k, then rank-1 update the trailing
    // block; both loops run down contiguous columns.
    const T pivot = a(k, k);
    T* __restrict__ ck = a.data + k * a.ld;
    for (index_t i = k + 1; i < m; ++i) ck[i] /= pivot;
    for (index_t j = k + 1; j < n; ++j) {
      const T akj = a(k, j);
      if (akj == T{}) continue;
      T* __restrict__ cj = a.data + j * a.ld;
      for (index_t i = k + 1; i < m; ++i) cj[i] -= ck[i] * akj;
    }
  }
}

/// Blocked right-looking pivoted LU. When Parallel, the trailing update —
/// which carries almost all of the flops — runs through gemm_parallel so a
/// single large problem can use the whole thread pool (stream-mode LU).
template <typename T, bool Parallel>
void getrf_blocked(MatrixView<T> a, index_t* ipiv) {
  const index_t m = a.rows, n = a.cols;
  const index_t kmax = std::min(m, n);
  constexpr index_t kBlock = 64;
  if (kmax <= kBlock) {
    getrf_unblocked(a, ipiv);
    return;
  }
  // Blocked right-looking: panel LU, row swaps, triangular update, GEMM.
  for (index_t k = 0; k < kmax; k += kBlock) {
    const index_t nb = std::min(kBlock, kmax - k);
    MatrixView<T> panel = a.block(k, k, m - k, nb);
    getrf_unblocked(panel, ipiv + k);
    for (index_t i = 0; i < nb; ++i) ipiv[k + i] += k;  // global row index
    // Apply the panel's interchanges to the columns outside it.
    if (k > 0) {
      MatrixView<T> left = a.block(0, 0, m, k);
      for (index_t i = 0; i < nb; ++i) {
        const index_t p = ipiv[k + i];
        if (p != k + i)
          for (index_t j = 0; j < k; ++j)
            std::swap(left(k + i, j), left(p, j));
      }
    }
    if (k + nb < n) {
      MatrixView<T> right = a.block(0, k + nb, m, n - (k + nb));
      for (index_t i = 0; i < nb; ++i) {
        const index_t p = ipiv[k + i];
        if (p != k + i)
          for (index_t j = 0; j < right.cols; ++j)
            std::swap(right(k + i, j), right(p, j));
      }
      // A12 <- L11^{-1} A12
      trsm_left(Uplo::Lower, Diag::Unit, a.block(k, k, nb, nb),
                a.block(k, k + nb, nb, n - (k + nb)));
      // A22 <- A22 - A21 * A12
      if (k + nb < m) {
        ConstMatrixView<T> a21(a.block(k + nb, k, m - (k + nb), nb));
        ConstMatrixView<T> a12(a.block(k, k + nb, nb, n - (k + nb)));
        MatrixView<T> a22 = a.block(k + nb, k + nb, m - (k + nb), n - (k + nb));
        if constexpr (Parallel) {
          gemm_parallel(Op::N, Op::N, T{-1}, a21, a12, T{1}, a22);
        } else {
          gemm(Op::N, Op::N, T{-1}, a21, a12, T{1}, a22);
        }
      }
    }
  }
}

/// Flops the blocked drivers' internal trsm_left/gemm calls will record on
/// their own (mirrors the block loop exactly). Subtracted from the getrf
/// total so an LU is not double-counted; computed analytically so the
/// accounting stays exact under concurrent batched calls.
template <typename T>
std::uint64_t blocked_lu_internal_flops(index_t m, index_t n) {
  const index_t kmax = std::min(m, n);
  constexpr index_t kBlock = 64;
  if (kmax <= kBlock) return 0;
  const std::uint64_t scale = is_complex_v<T> ? 4ull : 1ull;
  std::uint64_t total = 0;
  for (index_t k = 0; k < kmax; k += kBlock) {
    const index_t nb = std::min(kBlock, kmax - k);
    if (k + nb < n) {
      const auto nbu = static_cast<std::uint64_t>(nb);
      const auto nc = static_cast<std::uint64_t>(n - k - nb);
      total += scale * nbu * nbu * nc;  // trsm_left on the A12 panel
      if (k + nb < m)
        total += scale * 2ull * static_cast<std::uint64_t>(m - k - nb) * nc *
                 nbu;  // trailing gemm update
    }
  }
  return total;
}

/// Book the non-internal remainder of an LU under kLu.
template <typename T>
void add_getrf_flops(index_t m, index_t n) {
  const std::uint64_t lu =
      FlopCounter::getrf_flops<T>(std::min(m, n));
  const std::uint64_t internal = blocked_lu_internal_flops<T>(m, n);
  if (lu > internal)
    FlopCounter::instance().add(FlopCounter::kLu, lu - internal);
}

/// Largest |entry| of a view (the lu_stats growth scan).
template <typename T>
double max_abs_entry(MatrixView<T> a) {
  double mx = 0;
  for (index_t j = 0; j < a.cols; ++j) {
    const T* col = a.data + j * a.ld;
    for (index_t i = 0; i < a.rows; ++i)
      mx = std::max(mx, static_cast<double>(abs_s(col[i])));
  }
  return mx;
}

/// RAII growth measurement around one LU: records max|LU| / max|A| when
/// tracking is on, costs a single branch otherwise.
template <typename T>
class GrowthScan {
 public:
  explicit GrowthScan(MatrixView<T> a) : a_(a) {
    if (lu_stats::detail::tracking()) before_ = max_abs_entry(a_);
  }
  ~GrowthScan() {
    if (before_ > 0) lu_stats::detail::record_growth(max_abs_entry(a_) / before_);
  }

 private:
  MatrixView<T> a_;
  double before_ = 0;
};

}  // namespace

template <typename T>
void getrf(MatrixView<T> a, index_t* ipiv) {
  if (std::min(a.rows, a.cols) == 0) return;
  GrowthScan<T> growth(a);
  getrf_blocked<T, false>(a, ipiv);
  add_getrf_flops<T>(a.rows, a.cols);
}

template <typename T>
void getrf_parallel(MatrixView<T> a, index_t* ipiv) {
  if (std::min(a.rows, a.cols) == 0) return;
  GrowthScan<T> growth(a);
  getrf_blocked<T, true>(a, ipiv);
  add_getrf_flops<T>(a.rows, a.cols);
}

template <typename T>
void laswp(MatrixView<T> b, const index_t* ipiv, index_t npiv, bool forward) {
  // One column at a time: a column's interchanges touch only that column,
  // so applying all of them to it in order gives the same bytes as swapping
  // whole rows, while the column stays in cache instead of every interchange
  // touching one cache line per column of a wide B. Only [k0, k1) holds
  // interchanges that move anything (none at all for most leaf pivots).
  index_t k0 = 0, k1 = npiv;
  while (k0 < k1 && ipiv[k0] == k0) ++k0;
  while (k1 > k0 && ipiv[k1 - 1] == k1 - 1) --k1;
  if (k0 == k1) return;
  for (index_t j = 0; j < b.cols; ++j) {
    T* __restrict__ bj = b.data + j * b.ld;
    if (forward) {
      for (index_t k = k0; k < k1; ++k)
        if (ipiv[k] != k) std::swap(bj[k], bj[ipiv[k]]);
    } else {
      for (index_t k = k1 - 1; k >= k0; --k)
        if (ipiv[k] != k) std::swap(bj[k], bj[ipiv[k]]);
    }
  }
}

template <typename T>
void trsm_left(Uplo uplo, Diag diag, NoDeduce<ConstMatrixView<T>> a,
               MatrixView<T> b) {
  const index_t n = a.rows;
  HODLRX_REQUIRE(a.cols == n && b.rows == n, "trsm_left: shape mismatch");
  trsm_left_blocked<T>(uplo, diag, a, b);
  FlopCounter::instance().add(
      FlopCounter::kTrsm,
      (is_complex_v<T> ? 4ull : 1ull) * static_cast<std::uint64_t>(n) *
          static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(b.cols));
}

template <typename T>
void getrs(NoDeduce<ConstMatrixView<T>> lu, const index_t* ipiv,
           MatrixView<T> b) {
  HODLRX_REQUIRE(lu.rows == lu.cols && lu.rows == b.rows,
                 "getrs: shape mismatch");
  laswp(b, ipiv, lu.rows, /*forward=*/true);
  trsm_left(Uplo::Lower, Diag::Unit, lu, b);
  trsm_left(Uplo::Upper, Diag::NonUnit, lu, b);
}

template <typename T>
void getrs_parallel(NoDeduce<ConstMatrixView<T>> lu, const index_t* ipiv,
                    MatrixView<T> b) {
  HODLRX_REQUIRE(lu.rows == lu.cols && lu.rows == b.rows,
                 "getrs_parallel: shape mismatch");
  laswp(b, ipiv, lu.rows, /*forward=*/true);
  trsm_left_parallel<T>(Uplo::Lower, Diag::Unit, lu, b);
  trsm_left_parallel<T>(Uplo::Upper, Diag::NonUnit, lu, b);
}

namespace {

/// 1 / z; for complex z Smith's algorithm, written out in real arithmetic
/// so that |z|^2 is never formed (it under- or overflows long before z).
template <typename T>
T recip_smith(T z) {
  if constexpr (is_complex_v<T>) {
    using R = real_t<T>;
    const R c = z.real(), d = z.imag();
    if (std::abs(c) >= std::abs(d)) {
      const R ratio = d / c;
      const R denom = c + d * ratio;
      return T{R{1} / denom, -ratio / denom};
    }
    const R ratio = c / d;
    const R denom = c * ratio + d;
    return T{ratio / denom, R{-1} / denom};
  } else {
    return T{1} / z;
  }
}

/// Compute a Householder reflector H = I - tau * v v^H annihilating
/// x[1..n) into x[0]; v[0] = 1 implied, v stored in x[1..n). Returns tau and
/// replaces x[0] with the resulting "beta" value (the new diagonal of R).
/// A real column with a zero tail, or beta == 0, is left alone (tau = 0).
template <typename T>
T make_householder(T* x, index_t n) {
  using R = real_t<T>;
  if (n <= 1) return T{};
  const T alpha = x[0];
  const R xnorm = norm2(x + 1, n - 1);
  if (xnorm == R{0} && !is_complex_v<T>) return T{};
  R beta = std::hypot(abs_s(alpha), xnorm);
  // Choose sign to avoid cancellation: beta has opposite sign of Re(alpha).
  if (ScalarTraits<T>::real(alpha) > R{0}) beta = -beta;
  if (beta == R{0}) return T{};
  const T betaT = T{beta};
  const T scale = recip_smith(alpha - betaT);
  for (index_t i = 1; i < n; ++i) x[i] *= scale;
  x[0] = betaT;
  return (betaT - alpha) / beta;  // real divisor: component-wise division
}

/// Apply H = I - tau v v^H (v from column `k` of `factors`, v[0]=1 implied)
/// to C (rows k..m).
template <typename T>
void apply_householder(ConstMatrixView<T> factors, index_t k, T tau,
                       MatrixView<T> c) {
  if (tau == T{}) return;
  const index_t m = factors.rows;
  const T* __restrict__ v = factors.data + k + k * factors.ld;  // v[0] = beta slot
  for (index_t j = 0; j < c.cols; ++j) {
    T* __restrict__ cj = c.data + k + j * c.ld;
    // w = v^H * c(k:m, j), with v[0] treated as 1.
    T w = cj[0];
    for (index_t i = 1; i < m - k; ++i) w += conj_s(v[i]) * cj[i];
    w *= tau;
    cj[0] -= w;
    for (index_t i = 1; i < m - k; ++i) cj[i] -= v[i] * w;
  }
}

/// Book the non-GEMM remainder of a QR under kOther (the panel reflections
/// and larft recurrence). Mirrors add_getrf_flops.
template <typename T>
void add_geqrf_flops(index_t m, index_t n, std::uint64_t internal) {
  const std::uint64_t total = (is_complex_v<T> ? 4ull : 1ull) * 2ull *
                              static_cast<std::uint64_t>(m) *
                              static_cast<std::uint64_t>(n) *
                              static_cast<std::uint64_t>(std::min(m, n));
  if (total > internal)
    FlopCounter::instance().add(FlopCounter::kOther, total - internal);
}

/// Flops the blocked drivers' internal GEMM calls book under kGemm on their
/// own (the Gram product of larft_forward plus the three block-reflector
/// multiplies per panel), mirroring the panel loops exactly. `kmax` is the
/// number of reflector columns and `ntotal` the column count the trailing
/// window is measured against (n for geqrf, min(m,n) for thin_q).
template <typename T>
std::uint64_t blocked_qr_internal_flops(index_t m, index_t kmax,
                                        index_t ntotal, index_t nb) {
  std::uint64_t total = 0;
  for (index_t k = 0; k < kmax; k += nb) {
    const index_t ib = std::min(nb, kmax - k);
    const index_t mr = m - k;
    const index_t nc = ntotal - k - ib;
    if (nc <= 0) continue;
    total += FlopCounter::gemm_flops<T>(ib, ib, mr);  // Gram G = V^H V
    total += FlopCounter::gemm_flops<T>(ib, nc, mr);  // W  = V^H C
    total += FlopCounter::gemm_flops<T>(ib, nc, ib);  // W2 = T^H W
    total += FlopCounter::gemm_flops<T>(mr, nc, ib);  // C -= V W2
  }
  return total;
}

/// Unblocked Householder QR, in place: R in the upper triangle, reflectors
/// below the diagonal, `tau[0..min(m,n))` scalars. The panel kernel of the
/// blocked drivers.
template <typename T>
void geqrf_panel(MatrixView<T> a, T* tau) {
  const index_t m = a.rows, n = a.cols;
  const index_t kmax = std::min(m, n);
  for (index_t k = 0; k < kmax; ++k) {
    tau[k] = make_householder(a.data + k + k * a.ld, m - k);
    if (k + 1 < n)
      apply_householder<T>(a, k, conj_s(tau[k]),
                           a.block(0, k + 1, m, n - k - 1));
  }
}

/// In-place thin Q of an UNBLOCKED panel (LAPACK org2r): `a` holds geqrf
/// reflectors in all of its `a.cols <= a.rows` columns and is overwritten
/// with the orthonormal Q columns.
template <typename T>
void thin_q_panel(MatrixView<T> a, const T* tau) {
  const index_t m = a.rows, k = a.cols;
  HODLRX_REQUIRE(k <= m, "thin_q_panel: need cols <= rows");
  // Backward over reflectors: apply H_j to the already-formed columns to the
  // right, then overwrite column j with H_j e_j = e_j - tau_j v_j.
  for (index_t j = k - 1; j >= 0; --j) {
    if (j + 1 < k)
      apply_householder<T>(a, j, tau[j], a.block(0, j + 1, m, k - j - 1));
    T* __restrict__ cj = a.data + j * a.ld;
    const T tj = tau[j];
    for (index_t i = j + 1; i < m; ++i) cj[i] *= -tj;
    cj[j] = T{1} - tj;
    for (index_t i = 0; i < j; ++i) cj[i] = T{};
  }
}

/// Copy the unit-lower-trapezoid reflectors of a factored panel into `v`
/// (same shape) with an explicit unit diagonal and zeros above — the layout
/// the compact-WY block-reflector GEMMs consume.
template <typename T>
void copy_reflectors(ConstMatrixView<T> panel, MatrixView<T> v) {
  HODLRX_REQUIRE(panel.rows == v.rows && panel.cols == v.cols,
                 "copy_reflectors: shape mismatch");
  for (index_t j = 0; j < panel.cols; ++j) {
    T* __restrict__ vj = v.data + j * v.ld;
    const T* __restrict__ pj = panel.data + j * panel.ld;
    for (index_t i = 0; i < j && i < panel.rows; ++i) vj[i] = T{};
    if (j < panel.rows) vj[j] = T{1};
    for (index_t i = j + 1; i < panel.rows; ++i) vj[i] = pj[i];
  }
}

/// Forward columnwise compact-WY triangular factor (LAPACK larft): given the
/// explicit reflectors `v` (from copy_reflectors) and their taus, fill the
/// upper-triangular `t` (ib x ib, ib = v.cols) so that
///   H_0 H_1 ... H_{ib-1} = I - V T V^H.
/// The inner products are batched into one Gram GEMM (G = V^H V) so the
/// dominant work runs at engine speed instead of as latency-bound dots.
template <typename T>
void larft_forward(ConstMatrixView<T> v, const T* tau, MatrixView<T> t) {
  const index_t ib = v.cols;
  HODLRX_REQUIRE(t.rows >= ib && t.cols >= ib, "larft_forward: t too small");
  // One Gram GEMM supplies every V(:,0:j)^H v_j column at engine speed.
  Matrix<T> g(ib, ib);
  gemm(Op::C, Op::N, T{1}, v, v, T{0}, g.view());
  // The block-reflector GEMMs read t as a FULL ib x ib operand (possibly
  // from uninitialized workspace), so every entry must be written: zeros
  // below the diagonal too.
  for (index_t j = 0; j < ib; ++j) {
    for (index_t i = 0; i < j; ++i) t(i, j) = T{};
    for (index_t i = j + 1; i < ib; ++i) t(i, j) = T{};
    t(j, j) = tau[j];
    if (tau[j] == T{}) continue;
    // t(0:j, j) = -tau_j * T(0:j, 0:j) * G(0:j, j), T upper triangular.
    for (index_t i = j - 1; i >= 0; --i) {
      T sum = T{};
      for (index_t c = i; c < j; ++c) sum += t(i, c) * g(c, j);
      t(i, j) = -tau[j] * sum;
    }
  }
}

/// Shared trailing-window update of both blocked drivers:
///   geqrf (adjoint=true):  C -= V (T^H (V^H C))   — applies Q_panel^H
///   thin_q (adjoint=false): C -= V (T   (V^H C))  — applies Q_panel
/// `parallel_update` routes the flop-carrying final multiply through
/// gemm_parallel (the stream-mode drivers for few, large problems).
template <typename T>
void apply_block_reflector(ConstMatrixView<T> v, ConstMatrixView<T> t,
                           bool adjoint, bool parallel_update, MatrixView<T> c,
                           MatrixView<T> w, MatrixView<T> w2) {
  gemm(Op::C, Op::N, T{1}, v, ConstMatrixView<T>(c), T{0}, w);
  gemm(adjoint ? Op::C : Op::N, Op::N, T{1}, t, ConstMatrixView<T>(w), T{0},
       w2);
  if (parallel_update)
    gemm_parallel(Op::N, Op::N, T{-1}, v, ConstMatrixView<T>(w2), T{1}, c);
  else
    gemm(Op::N, Op::N, T{-1}, v, ConstMatrixView<T>(w2), T{1}, c);
}

/// Book the non-GEMM remainder of an explicit thin-Q formation (model:
/// 2 m k^2) under kOther, mirroring add_geqrf_flops.
template <typename T>
void add_thin_q_flops(index_t m, index_t k, std::uint64_t internal) {
  const std::uint64_t total = (is_complex_v<T> ? 4ull : 1ull) * 2ull *
                              static_cast<std::uint64_t>(m) *
                              static_cast<std::uint64_t>(k) *
                              static_cast<std::uint64_t>(k);
  if (total > internal)
    FlopCounter::instance().add(FlopCounter::kOther, total - internal);
}

template <typename T>
void geqrf_inplace_impl(MatrixView<T> a, T* tau, bool parallel_update) {
  const index_t m = a.rows, n = a.cols;
  const index_t kmax = std::min(m, n);
  if (kmax == 0) return;
  const index_t nb = resolved_blocking<T>().qr_nb;
  if (kmax <= nb) {
    geqrf_panel(a, tau);
    add_geqrf_flops<T>(m, n, 0);
    return;
  }
  Matrix<T> v(m, nb), t(nb, nb), w(nb, n), w2(nb, n);
  for (index_t k = 0; k < kmax; k += nb) {
    const index_t ib = std::min(nb, kmax - k);
    const index_t mr = m - k, nc = n - k - ib;
    MatrixView<T> panel = a.block(k, k, mr, ib);
    geqrf_panel(panel, tau + k);
    if (nc > 0) {
      MatrixView<T> vk = v.block(0, 0, mr, ib);
      copy_reflectors<T>(panel, vk);
      larft_forward<T>(vk, tau + k, t.view());
      apply_block_reflector<T>(
          vk, t.block(0, 0, ib, ib), /*adjoint=*/true, parallel_update,
          a.block(k, k + ib, mr, nc), w.block(0, 0, ib, nc),
          w2.block(0, 0, ib, nc));
    }
  }
  add_geqrf_flops<T>(m, n, blocked_qr_internal_flops<T>(m, kmax, n, nb));
}

template <typename T>
void thin_q_inplace_impl(MatrixView<T> a, const T* tau, bool parallel_update) {
  const index_t m = a.rows, k = a.cols;
  HODLRX_REQUIRE(k <= m, "thin_q_inplace: need cols <= rows");
  if (k == 0) return;
  const index_t nb = resolved_blocking<T>().qr_nb;
  if (k <= nb) {
    thin_q_panel(a, tau);
    add_thin_q_flops<T>(m, k, 0);
    return;
  }
  Matrix<T> v(m, nb), t(nb, nb), w(nb, k), w2(nb, k);
  for (index_t kk = ((k - 1) / nb) * nb; kk >= 0; kk -= nb) {
    const index_t ib = std::min(nb, k - kk);
    const index_t mr = m - kk, nc = k - kk - ib;
    MatrixView<T> panel = a.block(kk, kk, mr, ib);
    if (nc > 0) {
      MatrixView<T> vk = v.block(0, 0, mr, ib);
      copy_reflectors<T>(panel, vk);
      larft_forward<T>(vk, tau + kk, t.view());
      apply_block_reflector<T>(
          vk, t.block(0, 0, ib, ib), /*adjoint=*/false, parallel_update,
          a.block(kk, kk + ib, mr, nc), w.block(0, 0, ib, nc),
          w2.block(0, 0, ib, nc));
    }
    // The block's own columns: org2r on the panel, zeros above it.
    thin_q_panel(panel, tau + kk);
    if (kk > 0)
      for (index_t j = 0; j < ib; ++j)
        std::fill_n(a.data + (kk + j) * a.ld, kk, T{});
  }
  add_thin_q_flops<T>(m, k, blocked_qr_internal_flops<T>(m, k, k, nb));
}

}  // namespace

template <typename T>
void geqrf_inplace(MatrixView<T> a, T* tau) {
  geqrf_inplace_impl<T>(a, tau, /*parallel_update=*/false);
}

template <typename T>
void geqrf_inplace_parallel(MatrixView<T> a, T* tau) {
  geqrf_inplace_impl<T>(a, tau, /*parallel_update=*/true);
}

template <typename T>
void thin_q_inplace(MatrixView<T> a, const T* tau) {
  thin_q_inplace_impl<T>(a, tau, /*parallel_update=*/false);
}

template <typename T>
void thin_q_inplace_parallel(MatrixView<T> a, const T* tau) {
  thin_q_inplace_impl<T>(a, tau, /*parallel_update=*/true);
}

template <typename T>
QRFactors<T> geqrf(ConstMatrixView<T> a) {
  QRFactors<T> qr;
  qr.factors = to_matrix(a);
  qr.tau.assign(std::min(a.rows, a.cols), T{});
  geqrf_inplace<T>(qr.factors, qr.tau.data());
  return qr;
}

template <typename T>
Matrix<T> thin_q(const QRFactors<T>& qr) {
  const index_t m = qr.factors.rows();
  const index_t k = static_cast<index_t>(qr.tau.size());
  Matrix<T> q = to_matrix(qr.factors.block(0, 0, m, k));
  thin_q_inplace<T>(q.view(), qr.tau.data());
  return q;
}

template <typename T>
Matrix<T> r_factor(const QRFactors<T>& qr) {
  const index_t n = qr.factors.cols();
  const index_t k = static_cast<index_t>(qr.tau.size());
  Matrix<T> r(k, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= std::min(j, k - 1); ++i)
      r(i, j) = qr.factors(i, j);
  return r;
}

template <typename T>
index_t potrf_upper(MatrixView<T> a, NoDeduce<real_t<T>> rtol) {
  using R = real_t<T>;
  const index_t n = a.rows;
  HODLRX_REQUIRE(a.cols == n, "potrf_upper: matrix must be square");
  // Left-looking by columns: column j of R solves R(0:j,0:j)^H r = a(0:j, j)
  // by forward substitution, so every inner product runs down two
  // contiguous columns.
  for (index_t j = 0; j < n; ++j) {
    T* rj = a.data + j * a.ld;
    R d = ScalarTraits<T>::real(rj[j]);
    const R limit = rtol * d;
    for (index_t i = 0; i < j; ++i) {
      const T* ri = a.data + i * a.ld;
      T s = rj[i];
      for (index_t l = 0; l < i; ++l) s -= conj_s(ri[l]) * rj[l];
      rj[i] = s / ScalarTraits<T>::real(ri[i]);  // real diagonal
      d -= abs2_s(rj[i]);
    }
    if (!(d > limit)) return j;
    rj[j] = T{std::sqrt(d)};
    for (index_t i = j + 1; i < n; ++i) rj[i] = T{};
  }
  FlopCounter::instance().add(
      FlopCounter::kOther, (is_complex_v<T> ? 4ull : 1ull) *
                               static_cast<std::uint64_t>(n) *
                               static_cast<std::uint64_t>(n) *
                               static_cast<std::uint64_t>(n) / 3);
  return -1;
}

template <typename T>
CPQRFactors<T> geqp3(ConstMatrixView<T> a, NoDeduce<real_t<T>> tol,
                     index_t max_rank) {
  using R = real_t<T>;
  CPQRFactors<T> out;
  out.factors = to_matrix(a);
  const index_t m = a.rows, n = a.cols;
  const index_t kmax = std::min({m, n, max_rank < 0 ? n : max_rank});
  out.tau.assign(std::min(m, n), T{});
  out.jpvt.resize(n);
  for (index_t j = 0; j < n; ++j) out.jpvt[j] = j;

  MatrixView<T> f = out.factors;
  std::vector<R> colnorm(n), colnorm0(n);
  for (index_t j = 0; j < n; ++j)
    colnorm[j] = colnorm0[j] = norm2(f.data + j * f.ld, m);
  const R nrm_max0 = *std::max_element(colnorm.begin(), colnorm.end());
  if (nrm_max0 == R{0}) return out;  // zero matrix: rank 0

  index_t k = 0;
  for (; k < kmax; ++k) {
    // Select the column with the largest remaining norm.
    index_t p = k;
    for (index_t j = k + 1; j < n; ++j)
      if (colnorm[j] > colnorm[p]) p = j;
    if (colnorm[p] <= tol * nrm_max0) break;
    if (p != k) {
      for (index_t i = 0; i < m; ++i) std::swap(f(i, k), f(i, p));
      std::swap(colnorm[k], colnorm[p]);
      std::swap(colnorm0[k], colnorm0[p]);
      std::swap(out.jpvt[k], out.jpvt[p]);
    }
    out.tau[k] = make_householder(f.data + k + k * f.ld, m - k);
    if (k + 1 < n)
      apply_householder<T>(f, k, conj_s(out.tau[k]),
                           f.block(0, k + 1, m, n - k - 1));
    // Downdate remaining column norms; recompute when cancellation bites.
    for (index_t j = k + 1; j < n; ++j) {
      if (colnorm[j] == R{0}) continue;
      R t = abs_s(f(k, j)) / colnorm[j];
      t = std::max(R{0}, (R{1} + t) * (R{1} - t));
      const R ratio = colnorm[j] / colnorm0[j];
      if (t * ratio * ratio <= R{100} * eps_v<T>) {
        colnorm[j] = (k + 1 < m)
                         ? norm2(f.data + (k + 1) + j * f.ld, m - k - 1)
                         : R{0};
        colnorm0[j] = colnorm[j];
      } else {
        colnorm[j] *= std::sqrt(t);
      }
    }
  }
  out.rank = k;
  return out;
}

namespace svd_stats {
namespace {
std::atomic<std::uint64_t> g_serial{0}, g_nonconverged{0}, g_batched{0},
    g_sweep_launches{0};
}  // namespace
std::uint64_t serial_svds() {
  return g_serial.load(std::memory_order_relaxed);
}
std::uint64_t nonconverged() {
  return g_nonconverged.load(std::memory_order_relaxed);
}
std::uint64_t batched_sweeps() {
  return g_batched.load(std::memory_order_relaxed);
}
std::uint64_t sweep_launches() {
  return g_sweep_launches.load(std::memory_order_relaxed);
}
void reset() {
  g_serial.store(0, std::memory_order_relaxed);
  g_nonconverged.store(0, std::memory_order_relaxed);
  g_batched.store(0, std::memory_order_relaxed);
  g_sweep_launches.store(0, std::memory_order_relaxed);
}
namespace detail {
void add_serial() { g_serial.fetch_add(1, std::memory_order_relaxed); }
void add_nonconverged(std::uint64_t n) {
  g_nonconverged.fetch_add(n, std::memory_order_relaxed);
}
void add_batched_sweep() { g_batched.fetch_add(1, std::memory_order_relaxed); }
void add_sweep_launch() {
  g_sweep_launches.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail
}  // namespace svd_stats

namespace lu_stats {
namespace {
std::atomic<int> g_tracking{0};
std::atomic<double> g_max_growth{0.0};
}  // namespace
double max_pivot_growth() {
  return g_max_growth.load(std::memory_order_relaxed);
}
void reset() { g_max_growth.store(0.0, std::memory_order_relaxed); }
ScopedTracking::ScopedTracking(bool enable) : enabled_(enable) {
  if (enabled_) g_tracking.fetch_add(1, std::memory_order_relaxed);
}
ScopedTracking::~ScopedTracking() {
  if (enabled_) g_tracking.fetch_sub(1, std::memory_order_relaxed);
}
namespace detail {
bool tracking() { return g_tracking.load(std::memory_order_relaxed) > 0; }
void record_growth(double ratio) {
  double cur = g_max_growth.load(std::memory_order_relaxed);
  while (ratio > cur && !g_max_growth.compare_exchange_weak(
                            cur, ratio, std::memory_order_relaxed)) {
  }
}
}  // namespace detail
}  // namespace lu_stats

int svd_max_sweeps() {
  // Deliberately NOT cached in a static: one getenv per SVD call is noise,
  // and rereading lets tests drive the non-convergence path at runtime.
  return static_cast<int>(env_positive("HODLRX_SVD_SWEEPS", 42, 1));
}

template <typename T>
bool jacobi_sweep_gram(MatrixView<T> w, MatrixView<T> v, MatrixView<T> g,
                       NoDeduce<real_t<T>> tol) {
  using R = real_t<T>;
  const index_t m = w.rows, n = w.cols;
  // Deflation scale: the largest Gram diagonal at sweep start (rotations
  // only shuffle mass between diagonal entries, so this is stable to O(1)
  // within the sweep). See jacobi_rotation_params.
  R gmax = R{0};
  for (index_t j = 0; j < n; ++j)
    gmax = std::max(gmax, ScalarTraits<T>::real(g(j, j)));
  bool rotated = false;
  for (index_t p = 0; p < n - 1; ++p) {
    for (index_t q = p + 1; q < n; ++q) {
      // The rotated diagonal entries can round to tiny negatives; clamp so
      // the convergence test never feeds sqrt a negative.
      const R alpha = std::max(R{0}, ScalarTraits<T>::real(g(p, p)));
      const R beta = std::max(R{0}, ScalarTraits<T>::real(g(q, q)));
      // Rotation parameters shared with the across-batch sweep
      // (lapack.hpp::jacobi_rotation_params) — same formulas bit-for-bit.
      const JacobiRotation<T> rot =
          jacobi_rotation_params<T>(alpha, beta, g(p, q), tol, gmax);
      if (!rot.rotate) continue;
      rotated = true;
      const R c = rot.c;
      const T s = rot.s;
      T* __restrict__ wp = w.data + p * w.ld;
      T* __restrict__ wq = w.data + q * w.ld;
      for (index_t i = 0; i < m; ++i) {
        const T xp = wp[i], xq = wq[i];
        wp[i] = T{c} * xp - conj_s(s) * xq;
        wq[i] = s * xp + T{c} * xq;
      }
      T* __restrict__ vp = v.data + p * v.ld;
      T* __restrict__ vq = v.data + q * v.ld;
      for (index_t i = 0; i < n; ++i) {
        const T xp = vp[i], xq = vq[i];
        vp[i] = T{c} * xp - conj_s(s) * xq;
        vq[i] = s * xp + T{c} * xq;
      }
      // G <- M^H G M for the 2-column rotation M, O(n) instead of the O(m)
      // dot products: columns p,q then rows p,q. Without the restrict
      // pointers the out-of-line instance, which the batched driver calls,
      // must assume G aliases W or V and ran complex sweeps 3-4x slower.
      {
        T* __restrict__ gp = g.data + p * g.ld;
        T* __restrict__ gq = g.data + q * g.ld;
        for (index_t j = 0; j < n; ++j) {
          const T xp = gp[j], xq = gq[j];
          gp[j] = T{c} * xp - conj_s(s) * xq;
          gq[j] = s * xp + T{c} * xq;
        }
      }
      {
        T* __restrict__ gp = g.data + p;
        T* __restrict__ gq = g.data + q;
        const index_t ld = g.ld;
        for (index_t j = 0; j < n; ++j) {
          const T xp = gp[j * ld], xq = gq[j * ld];
          gp[j * ld] = T{c} * xp - s * xq;
          gq[j * ld] = conj_s(s) * xp + T{c} * xq;
        }
      }
    }
  }
  return rotated;
}

template <typename T>
void jacobi_finalize(MatrixView<T> w, MatrixView<T> v, real_t<T>* s) {
  using R = real_t<T>;
  const index_t m = w.rows, n = w.cols;
  std::vector<index_t> order(n);
  std::vector<R> nrm(n);
  for (index_t j = 0; j < n; ++j) {
    nrm[j] = norm2(w.data + j * w.ld, m);
    order[j] = j;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](index_t x, index_t y) { return nrm[x] > nrm[y]; });
  for (index_t j = 0; j < n; ++j) s[j] = nrm[order[j]];
  // Permute the columns of w and v in place by cycle-following (destination
  // j receives source order[j]) — two column buffers of scratch instead of
  // full-matrix copies, since this runs once per problem inside the batched
  // finalize pool launch.
  std::vector<T> colw(static_cast<std::size_t>(m)), colv(static_cast<std::size_t>(n));
  std::vector<char> placed(static_cast<std::size_t>(n), 0);
  for (index_t j0 = 0; j0 < n; ++j0) {
    if (placed[j0]) continue;
    std::copy_n(w.data + j0 * w.ld, m, colw.data());
    std::copy_n(v.data + j0 * v.ld, n, colv.data());
    index_t dst = j0;
    while (true) {
      const index_t src = order[dst];
      placed[dst] = 1;
      if (src == j0) {
        std::copy_n(colw.data(), m, w.data + dst * w.ld);
        std::copy_n(colv.data(), n, v.data + dst * v.ld);
        break;
      }
      std::copy_n(w.data + src * w.ld, m, w.data + dst * w.ld);
      std::copy_n(v.data + src * v.ld, n, v.data + dst * v.ld);
      dst = src;
    }
  }
  // Normalize the ordered columns of w into U (zero columns where s = 0).
  for (index_t j = 0; j < n; ++j) {
    const T inv = T{s[j] > R{0} ? R{1} / s[j] : R{0}};
    T* __restrict__ wj = w.data + j * w.ld;
    for (index_t i = 0; i < m; ++i) wj[i] *= inv;
  }
}

template <typename T>
SvdInfo jacobi_svd_inplace(MatrixView<T> w, MatrixView<T> v, real_t<T>* s) {
  using R = real_t<T>;
  const index_t m = w.rows, n = w.cols;
  HODLRX_REQUIRE(n <= m, "jacobi_svd_inplace: need cols <= rows ("
                             << m << "x" << n
                             << "); pass a^H for wide blocks");
  HODLRX_REQUIRE(v.rows == n && v.cols == n,
                 "jacobi_svd_inplace: v must be " << n << "x" << n);
  for (index_t j = 0; j < n; ++j) {
    std::fill_n(v.data + j * v.ld, n, T{});
    v(j, j) = T{1};
  }
  SvdInfo info;
  if (n > 1) {
    const R tol = R{32} * eps_v<T>;
    const int max_sweeps = svd_max_sweeps();
    Matrix<T> g(n, n);
    bool rotated = true;
    while (rotated && info.sweeps < max_sweeps) {
      gemm(Op::C, Op::N, T{1}, ConstMatrixView<T>(w), ConstMatrixView<T>(w),
           T{0}, g.view());
      rotated = jacobi_sweep_gram<T>(w, v, g.view(), tol);
      ++info.sweeps;
    }
    info.converged = !rotated;
    if (!info.converged) {
      svd_stats::detail::add_nonconverged(1);
#ifndef NDEBUG
      HODLRX_REQUIRE(false, "jacobi_svd: not converged after "
                                << info.sweeps
                                << " sweeps (raise HODLRX_SVD_SWEEPS)");
#endif
    }
  }
  jacobi_finalize<T>(w, v, s);
  return info;
}

template <typename T>
SVDResult<T> jacobi_svd(ConstMatrixView<T> a) {
  svd_stats::detail::add_serial();
  if (a.rows == 0 || a.cols == 0) return {};
  // Work on a tall copy: if a is wide, factor a^H and swap U <-> V.
  const bool flip = a.rows < a.cols;
  Matrix<T> w = flip ? transpose(a, /*conjugate=*/true) : to_matrix(a);
  const index_t n = w.cols();
  Matrix<T> v(n, n);
  SVDResult<T> out;
  out.s.resize(n);
  const SvdInfo info = jacobi_svd_inplace<T>(w.view(), v.view(), out.s.data());
  out.sweeps = info.sweeps;
  out.converged = info.converged;
  if (flip) {
    out.u = std::move(v);
    out.v = std::move(w);
  } else {
    out.u = std::move(w);
    out.v = std::move(v);
  }
  return out;
}

template <typename T>
Matrix<T> dense_solve(ConstMatrixView<T> a, NoDeduce<ConstMatrixView<T>> b) {
  Matrix<T> lu = to_matrix(a);
  std::vector<index_t> ipiv(a.rows);
  getrf(lu.view(), ipiv.data());
  Matrix<T> x = to_matrix(b);
  getrs(ConstMatrixView<T>(lu), ipiv.data(), x.view());
  return x;
}

#define HODLRX_INSTANTIATE_LAPACK(T)                                        \
  template void getrf<T>(MatrixView<T>, index_t*);                          \
  template void getrf_parallel<T>(MatrixView<T>, index_t*);                 \
  template void laswp<T>(MatrixView<T>, const index_t*, index_t, bool);     \
  template void getrs<T>(NoDeduce<ConstMatrixView<T>>, const index_t*,     \
                         MatrixView<T>);                                    \
  template void getrs_parallel<T>(NoDeduce<ConstMatrixView<T>>,             \
                                  const index_t*, MatrixView<T>);           \
  template void trsm_left<T>(Uplo, Diag, NoDeduce<ConstMatrixView<T>>,      \
                             MatrixView<T>);                                \
  template void geqrf_inplace<T>(MatrixView<T>, T*);                        \
  template void geqrf_inplace_parallel<T>(MatrixView<T>, T*);               \
  template void thin_q_inplace<T>(MatrixView<T>, const T*);                 \
  template void thin_q_inplace_parallel<T>(MatrixView<T>, const T*);        \
  template QRFactors<T> geqrf<T>(ConstMatrixView<T>);                       \
  template Matrix<T> thin_q<T>(const QRFactors<T>&);                        \
  template Matrix<T> r_factor<T>(const QRFactors<T>&);                      \
  template index_t potrf_upper<T>(MatrixView<T>, NoDeduce<real_t<T>>);      \
  template CPQRFactors<T> geqp3<T>(ConstMatrixView<T>, NoDeduce<real_t<T>>,  \
                                   index_t);                                \
  template bool jacobi_sweep_gram<T>(MatrixView<T>, MatrixView<T>,          \
                                     MatrixView<T>, NoDeduce<real_t<T>>);   \
  template void jacobi_finalize<T>(MatrixView<T>, MatrixView<T>,            \
                                   real_t<T>*);                             \
  template SvdInfo jacobi_svd_inplace<T>(MatrixView<T>, MatrixView<T>,      \
                                         real_t<T>*);                       \
  template SVDResult<T> jacobi_svd<T>(ConstMatrixView<T>);                  \
  template Matrix<T> dense_solve<T>(ConstMatrixView<T>,                    \
                                    NoDeduce<ConstMatrixView<T>>);

HODLRX_INSTANTIATE_LAPACK(float)
HODLRX_INSTANTIATE_LAPACK(double)
HODLRX_INSTANTIATE_LAPACK(std::complex<float>)
HODLRX_INSTANTIATE_LAPACK(std::complex<double>)

#undef HODLRX_INSTANTIATE_LAPACK

}  // namespace hodlrx
