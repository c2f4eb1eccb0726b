#pragma once

#include "bie/contour.hpp"
#include "lowrank/generator.hpp"

/// \file laplace.hpp
/// The completed double-layer BIE for the exterior Laplace Dirichlet
/// problem (paper eq. 21, Sec. IV-B):
///
///   (1/2) sigma(x) + int_Gamma ( d(x,y) - (1/2 pi) log|x - z| ) sigma(y) ds
///     = f(x),     d(x,y) = n(y).(x-y) / (2 pi |x-y|^2),
///
/// discretized with the periodic trapezoidal rule (the completed kernel is
/// smooth on a smooth contour; the diagonal limit of d is -kappa/(4 pi)).
/// n is the normal pointing away from the bounded interior (so the exterior
/// limit of the double layer carries the +1/2 jump of eq. 21), and z is a
/// fixed point inside Gamma enforcing the decay condition (20).

namespace hodlrx::bie {

/// Dense-free generator of the discretized operator; T is float or double.
///
/// The constructor tabulates, once per node, the coordinates, normals and
/// weights (structure of arrays), the completion term
/// c_i = log|x_i - z| / 2pi of row i and the diagonal entry. `entry`,
/// `fill_row` and `fill_col` evaluate one off-diagonal formula; the fills
/// run it as `omp simd` loops over the fill direction with the fixed
/// index's terms hoisted, then write the diagonal entry if the range holds
/// it. Every fill is bitwise equal to `entry` (docs/lowrank-engine.md).
template <typename T>
class LaplaceExteriorBIE final : public MatrixGenerator<T> {
 public:
  LaplaceExteriorBIE(ContourDiscretization disc, Point2 z = {0.0, 0.0});

  index_t rows() const override { return disc_.n; }
  index_t cols() const override { return disc_.n; }

  T entry(index_t i, index_t j) const override;
  void fill_row(index_t i, index_t j0, index_t j1, T* out) const override;
  void fill_col(index_t j, index_t i0, index_t i1, T* out) const override;

  const ContourDiscretization& discretization() const { return disc_; }
  Point2 completion_point() const { return z_; }

 private:
  ContourDiscretization disc_;
  Point2 z_;
  // Per-node tables: position, normal, weight, completion term, diagonal.
  std::vector<double> x_, y_, nx_, ny_, w_, c_;
  std::vector<T> diag_;
};

/// Evaluate the representation u(x) = int (d(x,y) - log|x-z|/2pi) sigma ds
/// at off-surface targets (plain trapezoid; accurate away from Gamma).
template <typename T>
std::vector<T> laplace_exterior_potential(const ContourDiscretization& disc,
                                          Point2 z, const T* sigma,
                                          const std::vector<Point2>& targets);

/// Free-space Green's function G(x, x0) = -(1/2 pi) log|x - x0| (the exact
/// exterior solution generated by a unit charge at x0; used by tests and
/// examples).
double laplace_greens(Point2 x, Point2 x0);

}  // namespace hodlrx::bie
