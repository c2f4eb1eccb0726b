#include "bie/contour.hpp"

#include "common/parallel.hpp"

namespace hodlrx::bie {

ContourDiscretization discretize(const Contour& contour, index_t n) {
  ContourDiscretization d;
  d.n = n;
  d.h = 2.0 * 3.14159265358979323846 / static_cast<double>(n);
  d.t.resize(n);
  d.x.resize(n);
  d.nrm.resize(n);
  d.speed.resize(n);
  d.kappa.resize(n);
  d.weight.resize(n);
  // Nodes are independent: one contiguous slice per pool thread.
  parallel_chunks(n, [&](index_t i0, index_t count) {
    for (index_t i = i0; i < i0 + count; ++i) {
      const double t = d.h * static_cast<double>(i);
      d.t[i] = t;
      d.x[i] = contour.point(t);
      d.nrm[i] = contour.normal(t);
      d.speed[i] = contour.speed(t);
      d.kappa[i] = contour.curvature(t);
      d.weight[i] = d.h * d.speed[i];
    }
  });
  return d;
}

}  // namespace hodlrx::bie
