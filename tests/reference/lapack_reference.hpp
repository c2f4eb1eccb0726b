#pragma once

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/lapack.hpp"

/// \file lapack_reference.hpp
/// The seed's unblocked dense kernels, kept as oracles for the blocked
/// drivers of common/lapack: Householder QR one reflector at a time, its
/// per-reflector thin Q, and one-sided Jacobi SVD with per-pair scalar dot
/// products. Tests and bench_micro_batched include this header; the library
/// never calls these.

namespace hodlrx {

namespace reference_detail {

/// H = I - tau v v^H with v[0] = 1 implied and v[1..n) stored in x[1..n);
/// x[0] becomes beta, the new diagonal of R. Returns tau (0 leaves x alone).
template <typename T>
T make_householder(T* x, index_t n) {
  using R = real_t<T>;
  if (n <= 1) return T{};
  const T alpha = x[0];
  R xnorm{};
  for (index_t i = 1; i < n; ++i) xnorm += abs2_s(x[i]);
  xnorm = std::sqrt(xnorm);
  if (xnorm == R{0} && !is_complex_v<T>) return T{};
  R beta = std::hypot(abs_s(alpha), xnorm);
  if (std::real(alpha) > R{0}) beta = -beta;
  if (beta == R{0}) return T{};
  const T scale = T{1} / (alpha - T{beta});
  for (index_t i = 1; i < n; ++i) x[i] *= scale;
  x[0] = T{beta};
  return (T{beta} - alpha) / T{beta};
}

/// C(k:m, :) <- (I - tau v v^H) C(k:m, :), v from column k of `factors`.
template <typename T>
void apply_householder(ConstMatrixView<T> factors, index_t k, T tau,
                       MatrixView<T> c) {
  if (tau == T{}) return;
  const index_t m = factors.rows;
  const T* v = factors.data + k + k * factors.ld;
  for (index_t j = 0; j < c.cols; ++j) {
    T* cj = c.data + k + j * c.ld;
    T w = cj[0];
    for (index_t i = 1; i < m - k; ++i) w += conj_s(v[i]) * cj[i];
    w *= tau;
    cj[0] -= w;
    for (index_t i = 1; i < m - k; ++i) cj[i] -= v[i] * w;
  }
}

}  // namespace reference_detail

/// Unblocked Householder QR: R in the upper triangle of `factors`,
/// reflectors below it, one tau per column.
template <typename T>
QRFactors<T> geqrf_reference(ConstMatrixView<T> a) {
  QRFactors<T> qr;
  qr.factors = to_matrix(a);
  const index_t m = a.rows, n = a.cols;
  qr.tau.assign(std::min(m, n), T{});
  MatrixView<T> f = qr.factors.view();
  for (index_t k = 0; k < std::min(m, n); ++k) {
    qr.tau[k] = reference_detail::make_householder(f.data + k + k * f.ld,
                                                   m - k);
    if (k + 1 < n)
      reference_detail::apply_householder<T>(
          f, k, conj_s(qr.tau[k]), f.block(0, k + 1, m, n - k - 1));
  }
  return qr;
}

/// Explicit thin Q (m x min(m, n)), applying the reflectors back to front
/// to the leading identity columns.
template <typename T>
Matrix<T> thin_q_reference(const QRFactors<T>& qr) {
  const index_t m = qr.factors.rows();
  const index_t k = static_cast<index_t>(qr.tau.size());
  Matrix<T> q(m, k);
  for (index_t j = 0; j < k; ++j) q(j, j) = T{1};
  for (index_t j = k - 1; j >= 0; --j)
    reference_detail::apply_householder<T>(qr.factors.view(), j, qr.tau[j],
                                           q.block(0, 0, m, k));
  return q;
}

/// One-sided Jacobi SVD with the column-pair dot products recomputed for
/// every pair; wide inputs are factored as a^H with U and V swapped.
/// Reports sweeps and convergence instead of throwing.
template <typename T>
SVDResult<T> jacobi_svd_reference(ConstMatrixView<T> a) {
  using R = real_t<T>;
  if (a.rows == 0 || a.cols == 0) return {};
  const bool flip = a.rows < a.cols;
  Matrix<T> w = flip ? transpose(a, /*conjugate=*/true) : to_matrix(a);
  const index_t m = w.rows(), n = w.cols();
  Matrix<T> v = Matrix<T>::identity(n);

  SVDResult<T> out;
  const R tol = R{32} * eps_v<T>;
  bool rotated = n > 1;
  while (rotated && out.sweeps < svd_max_sweeps()) {
    rotated = false;
    ++out.sweeps;
    for (index_t p = 0; p < n - 1; ++p) {
      for (index_t q = p + 1; q < n; ++q) {
        T* wp = w.data() + p * m;
        T* wq = w.data() + q * m;
        R alpha{}, beta{};
        T gamma{};
        for (index_t i = 0; i < m; ++i) {
          alpha += abs2_s(wp[i]);
          beta += abs2_s(wq[i]);
          gamma += conj_s(wp[i]) * wq[i];
        }
        const R g = abs_s(gamma);
        if (g <= tol * std::sqrt(alpha * beta) || g == R{0}) continue;
        rotated = true;
        const T phase = gamma / T{g};
        const R zeta = (beta - alpha) / (R{2} * g);
        const R t = (zeta >= R{0} ? R{1} : R{-1}) /
                    (std::abs(zeta) + std::sqrt(R{1} + zeta * zeta));
        const R c = R{1} / std::sqrt(R{1} + t * t);
        const T s = phase * T{c * t};
        for (index_t i = 0; i < m; ++i) {
          const T xp = wp[i], xq = wq[i];
          wp[i] = T{c} * xp - conj_s(s) * xq;
          wq[i] = s * xp + T{c} * xq;
        }
        T* vp = v.data() + p * n;
        T* vq = v.data() + q * n;
        for (index_t i = 0; i < n; ++i) {
          const T xp = vp[i], xq = vq[i];
          vp[i] = T{c} * xp - conj_s(s) * xq;
          vq[i] = s * xp + T{c} * xq;
        }
      }
    }
  }
  out.converged = !rotated;
  out.s.resize(n);
  jacobi_finalize<T>(w.view(), v.view(), out.s.data());
  out.u = flip ? std::move(v) : std::move(w);
  out.v = flip ? std::move(w) : std::move(v);
  return out;
}

}  // namespace hodlrx
