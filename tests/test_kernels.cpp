#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <string>

#include "bie/contour.hpp"
#include "bie/helmholtz.hpp"
#include "bie/laplace.hpp"
#include "kernels/kernels.hpp"
#include "kernels/rpy.hpp"
#include "test_util.hpp"

namespace hodlrx {
namespace {

TEST(Kernels, GaussianBasics) {
  PointSet pts(1, 3);
  pts.coord(0, 0) = 0;
  pts.coord(1, 0) = 1;
  pts.coord(2, 0) = 2;
  GaussianKernel<double> k(std::move(pts), 1.0, 0.5);
  EXPECT_NEAR(k.entry(0, 0), 1.5, 1e-15);              // diag shift
  EXPECT_NEAR(k.entry(0, 1), std::exp(-0.5), 1e-15);
  EXPECT_NEAR(k.entry(0, 2), std::exp(-2.0), 1e-15);
  EXPECT_EQ(k.entry(0, 1), k.entry(1, 0));             // symmetry
}

/// True when a and b hold the same bytes (-0.0 differs from 0.0).
template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// The fill contract: fill_row, fill_col and fill_block are bitwise equal
/// to entry(). Ranges that hold and that miss the diagonal, offsets and
/// lengths that are not multiples of 16, and fill_block with ld > rows
/// (the padding rows must stay untouched).
template <typename T>
void expect_fills_match_entry(const MatrixGenerator<T>& g,
                              const std::string& name) {
  SCOPED_TRACE(name);
  const index_t n = std::min(g.rows(), g.cols());
  ASSERT_GE(n, 100);
  // {fixed index, begin, end}: the first two hold the diagonal.
  const index_t ranges[][3] = {
      {37, 5, 88}, {0, 0, n}, {41, 47, 100}, {90, 3, 29}, {n - 1, 61, n}};
  std::vector<T> buf(static_cast<std::size_t>(n));
  for (const auto& r : ranges) {
    const index_t k = r[0], lo = r[1], hi = r[2];
    g.fill_row(k, lo, hi, buf.data());
    for (index_t j = lo; j < hi; ++j)
      ASSERT_TRUE(same_bits(buf[j - lo], g.entry(k, j)))
          << "fill_row(" << k << ", " << lo << ", " << hi << ") at " << j;
    g.fill_col(k, lo, hi, buf.data());
    for (index_t i = lo; i < hi; ++i)
      ASSERT_TRUE(same_bits(buf[i - lo], g.entry(i, k)))
          << "fill_col(" << k << ", " << lo << ", " << hi << ") at " << i;
  }
  // {i0, j0, rows, cols}: the first two hold diagonal entries.
  const index_t blocks[][4] = {{10, 20, 50, 39}, {3, 0, 97, 61},
                               {0, 53, 45, 23}, {71, 2, 17, 33}};
  const T sentinel = static_cast<T>(-7.25);
  for (const auto& b : blocks) {
    const index_t i0 = b[0], j0 = b[1], rows = b[2], cols = b[3];
    const index_t ld = rows + 5;
    std::vector<T> blk(static_cast<std::size_t>(ld * cols), sentinel);
    g.fill_block(i0, j0, MatrixView<T>{blk.data(), rows, cols, ld});
    for (index_t j = 0; j < cols; ++j) {
      for (index_t i = 0; i < rows; ++i)
        ASSERT_TRUE(same_bits(blk[i + j * ld], g.entry(i0 + i, j0 + j)))
            << "fill_block at (" << i0 + i << ", " << j0 + j << ")";
      for (index_t i = rows; i < ld; ++i)
        ASSERT_TRUE(same_bits(blk[i + j * ld], sentinel))
            << "fill_block wrote padding row " << i << " of column " << j;
    }
  }
}

TEST(Kernels, FillsMatchEntryForEveryGenerator) {
  const bie::BlobContour blob;
  expect_fills_match_entry<double>(
      bie::LaplaceExteriorBIE<double>(bie::discretize(blob, 211), {0.1, 0.2}),
      "LaplaceExteriorBIE<double>");
  expect_fills_match_entry<float>(
      bie::LaplaceExteriorBIE<float>(bie::discretize(blob, 150), {0.0, 0.0}),
      "LaplaceExteriorBIE<float>");
  expect_fills_match_entry<std::complex<double>>(
      bie::HelmholtzCombinedBIE<std::complex<double>>(
          bie::discretize(blob, 128), 10.0, 10.0, 6),
      "HelmholtzCombinedBIE");
  const PointSet p1 = uniform_random_points(130, 1, -1, 1, 5);
  const PointSet p2 = uniform_random_points(120, 2, -1, 1, 7);
  expect_fills_match_entry<double>(RpyKernel1D<double>(p1), "RpyKernel1D");
  expect_fills_match_entry<double>(
      RpyKernel3D<double>(uniform_random_points(40, 3, -1, 1, 13)),
      "RpyKernel3D");
  expect_fills_match_entry<double>(GaussianKernel<double>(p2, 0.6, 0.1),
                                   "GaussianKernel");
  expect_fills_match_entry<double>(ExponentialKernel<double>(p2, 0.6),
                                   "ExponentialKernel");
  expect_fills_match_entry<double>(Matern32Kernel<double>(p2, 0.7),
                                   "Matern32Kernel");
  expect_fills_match_entry<float>(Matern52Kernel<float>(p2, 0.7),
                                  "Matern52Kernel<float>");
  expect_fills_match_entry<double>(
      InverseMultiquadricKernel<double>(p2, 0.5), "InverseMultiquadricKernel");
  expect_fills_match_entry<std::complex<float>>(
      DenseGenerator<std::complex<float>>(
          random_matrix<std::complex<float>>(110, 104, 3)),
      "DenseGenerator");
}

TEST(Kernels, MaternLimits) {
  PointSet pts(1, 2);
  pts.coord(0, 0) = 0;
  pts.coord(1, 0) = 0.3;
  Matern52Kernel<double> k52(pts, 1.0);
  Matern32Kernel<double> k32(pts, 1.0);
  ExponentialKernel<double> ke(pts, 1.0);
  InverseMultiquadricKernel<double> kimq(std::move(pts), 1.0);
  // All are 1 on the diagonal and decreasing in distance.
  EXPECT_NEAR(k52.entry(0, 0), 1.0, 1e-15);
  EXPECT_NEAR(k32.entry(0, 0), 1.0, 1e-15);
  EXPECT_NEAR(ke.entry(0, 0), 1.0, 1e-15);
  EXPECT_NEAR(kimq.entry(0, 0), 1.0, 1e-15);
  EXPECT_LT(k52.entry(0, 1), 1.0);
  EXPECT_GT(k52.entry(0, 1), 0.0);
}

TEST(Rpy1D, PaperConfiguration) {
  // Sec. IV-A: uniform points in [-1, 1], k = T = eta = 1, a = |r|_min / 2.
  PointSet pts = uniform_random_points(200, 1, -1, 1, 11);
  const double rmin = min_pairwise_distance(pts);
  RpyKernel1D<double> k(std::move(pts), {});
  EXPECT_NEAR(k.params().a, rmin / 2, 1e-15);
  // Diagonal: kT / (6 pi eta a).
  const double pi = 3.14159265358979323846;
  EXPECT_NEAR(k.entry(7, 7), 1.0 / (6 * pi * k.params().a), 1e-12);
  // Symmetry.
  EXPECT_NEAR(k.entry(3, 90), k.entry(90, 3), 1e-15);
}

TEST(Rpy1D, FarFieldFormula) {
  PointSet pts(1, 2);
  pts.coord(0, 0) = 0;
  pts.coord(1, 0) = 1.0;
  RpyParams prm;
  prm.a = 0.1;
  RpyKernel1D<double> k(std::move(pts), prm);
  const double pi = 3.14159265358979323846;
  // r = 1 >= 2a: kT/(8 pi eta r) (2 - 4a^2/(3r^2)).
  const double expect = 1.0 / (8 * pi) * (2.0 - 4 * 0.01 / 3.0);
  EXPECT_NEAR(k.entry(0, 1), expect, 1e-14);
}

TEST(Rpy1D, NearFieldContinuity) {
  // The RPY kernel is continuous at r = 2a.
  PointSet pts(1, 3);
  RpyParams prm;
  prm.a = 0.25;
  pts.coord(0, 0) = 0;
  pts.coord(1, 0) = 0.5 - 1e-9;  // just inside
  pts.coord(2, 0) = 0.5 + 1e-9;  // just outside
  RpyKernel1D<double> k(std::move(pts), prm);
  EXPECT_NEAR(k.entry(0, 1), k.entry(0, 2), 1e-7);
}

TEST(Rpy3D, TensorSymmetries) {
  PointSet pts = uniform_random_points(20, 3, -1, 1, 13);
  RpyKernel3D<double> k(std::move(pts), {});
  EXPECT_EQ(k.rows(), 60);
  // Global symmetry A(i,j) = A(j,i) (RPY tensor is symmetric).
  for (index_t i : {0, 5, 17, 43}) {
    for (index_t j : {2, 11, 30, 59}) {
      EXPECT_NEAR(k.entry(i, j), k.entry(j, i), 1e-14);
    }
  }
  // Self block is (kT/(6 pi eta a)) I.
  EXPECT_GT(k.entry(0, 0), 0);
  EXPECT_EQ(k.entry(0, 1), 0.0);
  EXPECT_EQ(k.entry(0, 2), 0.0);
}

TEST(Rpy3D, TreeRespectsParticleBoundaries) {
  PointSet pts = uniform_random_points(64, 3, -1, 1, 17);
  Rpy3DTree t = build_rpy3d_tree(pts, 8);
  t.tree.validate();
  EXPECT_EQ(t.tree.n(), 3 * 64);
  for (index_t nu = 0; nu < t.tree.num_nodes(); ++nu) {
    EXPECT_EQ(t.tree.node(nu).begin % 3, 0);
    EXPECT_EQ(t.tree.node(nu).end % 3, 0);
  }
}

TEST(Kernels, UniformPointsInRange) {
  PointSet pts = uniform_random_points(1000, 2, -3, 5, 19);
  EXPECT_EQ(pts.size(), 1000);
  for (index_t i = 0; i < pts.size(); ++i)
    for (index_t d = 0; d < 2; ++d) {
      EXPECT_GE(pts.coord(i, d), -3.0);
      EXPECT_LE(pts.coord(i, d), 5.0);
    }
}

TEST(Kernels, MaterializeMatchesEntries) {
  PointSet pts = uniform_random_points(30, 1, -1, 1, 23);
  GaussianKernel<double> k(std::move(pts), 0.4);
  Matrix<double> a = materialize(k);
  for (index_t j = 0; j < 30; ++j)
    for (index_t i = 0; i < 30; ++i) EXPECT_EQ(a(i, j), k.entry(i, j));
}

}  // namespace
}  // namespace hodlrx
