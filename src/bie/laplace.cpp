#include "bie/laplace.hpp"

#include <cmath>

#include "common/parallel.hpp"

namespace hodlrx::bie {

namespace {
constexpr double kTwoPi = 2.0 * 3.14159265358979323846;

/// w_j (d(x_i, y_j) - c_i) for i != j: the one off-diagonal formula of
/// entry() and both fills. At i == j it divides 0 by 0; the fills overwrite
/// that lane with the tabulated diagonal.
inline double offdiag(double xi, double yi, double ci, double xj, double yj,
                      double nxj, double nyj, double wj) {
  const double dx = xi - xj;
  const double dy = yi - yj;
  const double r2 = dx * dx + dy * dy;
  double kernel = (nxj * dx + nyj * dy) / (kTwoPi * r2);
  kernel -= ci;  // completion term
  return wj * kernel;
}
}  // namespace

template <typename T>
LaplaceExteriorBIE<T>::LaplaceExteriorBIE(ContourDiscretization disc,
                                          Point2 z)
    : disc_(std::move(disc)), z_(z) {
  const auto n = static_cast<std::size_t>(disc_.n);
  for (std::vector<double>* t : {&x_, &y_, &nx_, &ny_, &w_, &c_}) t->resize(n);
  diag_.resize(n);
  parallel_chunks(disc_.n, [&](index_t i0, index_t count) {
    for (index_t i = i0; i < i0 + count; ++i) {
      x_[i] = disc_.x[i].x;
      y_[i] = disc_.x[i].y;
      nx_[i] = disc_.nrm[i].x;
      ny_[i] = disc_.nrm[i].y;
      w_[i] = disc_.weight[i];
      c_[i] = std::log(dist(disc_.x[i], z_)) / kTwoPi;
      // -kappa/(4 pi) is the diagonal limit of d; eq. 21 adds the 1/2.
      double kernel = -disc_.kappa[i] / (2.0 * kTwoPi);
      kernel -= c_[i];
      double a = w_[i] * kernel;
      a += 0.5;
      diag_[i] = static_cast<T>(a);
    }
  });
}

template <typename T>
T LaplaceExteriorBIE<T>::entry(index_t i, index_t j) const {
  if (i == j) return diag_[i];
  return static_cast<T>(
      offdiag(x_[i], y_[i], c_[i], x_[j], y_[j], nx_[j], ny_[j], w_[j]));
}

template <typename T>
void LaplaceExteriorBIE<T>::fill_row(index_t i, index_t j0, index_t j1,
                                     T* out) const {
  const double xi = x_[i], yi = y_[i], ci = c_[i];
  const double* __restrict__ x = x_.data();
  const double* __restrict__ y = y_.data();
  const double* __restrict__ nx = nx_.data();
  const double* __restrict__ ny = ny_.data();
  const double* __restrict__ w = w_.data();
  T* __restrict__ o = out;
#pragma omp simd
  for (index_t j = j0; j < j1; ++j)
    o[j - j0] =
        static_cast<T>(offdiag(xi, yi, ci, x[j], y[j], nx[j], ny[j], w[j]));
  if (i >= j0 && i < j1) o[i - j0] = diag_[i];
}

template <typename T>
void LaplaceExteriorBIE<T>::fill_col(index_t j, index_t i0, index_t i1,
                                     T* out) const {
  const double xj = x_[j], yj = y_[j], nxj = nx_[j], nyj = ny_[j], wj = w_[j];
  const double* __restrict__ x = x_.data();
  const double* __restrict__ y = y_.data();
  const double* __restrict__ c = c_.data();
  T* __restrict__ o = out;
#pragma omp simd
  for (index_t i = i0; i < i1; ++i)
    o[i - i0] = static_cast<T>(offdiag(x[i], y[i], c[i], xj, yj, nxj, nyj, wj));
  if (j >= i0 && j < i1) o[j - i0] = diag_[j];
}

double laplace_greens(Point2 x, Point2 x0) {
  return -std::log(dist(x, x0)) / kTwoPi;
}

template <typename T>
std::vector<T> laplace_exterior_potential(const ContourDiscretization& disc,
                                          Point2 z, const T* sigma,
                                          const std::vector<Point2>& targets) {
  std::vector<T> u(targets.size(), T{});
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const Point2 x = targets[t];
    double acc = 0;
    const double completion = -std::log(dist(x, z)) / kTwoPi;
    for (index_t j = 0; j < disc.n; ++j) {
      const double dx = x.x - disc.x[j].x;
      const double dy = x.y - disc.x[j].y;
      const double r2 = dx * dx + dy * dy;
      const double d = (disc.nrm[j].x * dx + disc.nrm[j].y * dy) /
                       (kTwoPi * r2);
      acc += disc.weight[j] * (d + completion) *
             static_cast<double>(sigma[j]);
    }
    u[t] = static_cast<T>(acc);
  }
  return u;
}

template class LaplaceExteriorBIE<float>;
template class LaplaceExteriorBIE<double>;

template std::vector<float> laplace_exterior_potential<float>(
    const ContourDiscretization&, Point2, const float*,
    const std::vector<Point2>&);
template std::vector<double> laplace_exterior_potential<double>(
    const ContourDiscretization&, Point2, const double*,
    const std::vector<Point2>&);

}  // namespace hodlrx::bie
