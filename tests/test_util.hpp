#pragma once

#include <gtest/gtest.h>

#include <complex>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/blas.hpp"
#include "common/matrix.hpp"
#include "common/random.hpp"
#include "lowrank/aca.hpp"
#include "lowrank/generator.hpp"
#include "tree/cluster_tree.hpp"

/// Shared helpers for the test suite.

namespace hodlrx::test {

/// Set (or clear, with nullptr) an environment variable for one scope and
/// restore the previous value on exit. ctest legs and CI export variables
/// such as HODLRX_FAULT and HODLRX_BACKEND process-wide, so a test that
/// needs a specific value pins it instead of assuming a clean environment.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr)
      ::setenv(name, value, /*overwrite=*/1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (had_old_)
      ::setenv(name_.c_str(), old_.c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

/// ||a - b||_F / max(||b||_F, 1).
template <typename T>
real_t<T> rel_error(ConstMatrixView<T> a, ConstMatrixView<T> b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.cols, b.cols);
  Matrix<T> d = to_matrix(a);
  axpy(T{-1}, b, d.view());
  const real_t<T> denom = std::max<real_t<T>>(norm_fro(b), real_t<T>{1});
  return norm_fro(d) / denom;
}

template <typename T>
real_t<T> rel_error(const Matrix<T>& a, const Matrix<T>& b) {
  return rel_error<T>(a.view(), b.view());
}

/// A well-conditioned dense test matrix with HODLR structure: smooth
/// off-diagonal decay plus a strong diagonal.
template <typename T>
Matrix<T> smooth_test_matrix(index_t n, std::uint64_t seed = 3) {
  Matrix<T> a(n, n);
  Rng rng(seed);
  std::vector<double> pts(n);
  for (index_t i = 0; i < n; ++i) pts[i] = rng.uniform<double>(0.0, 1.0);
  std::sort(pts.begin(), pts.end());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const double d = std::abs(pts[i] - pts[j]);
      const double v = 1.0 / (1.0 + 25.0 * d);
      if constexpr (is_complex_v<T>) {
        a(i, j) = T(v, 0.3 * v * std::sin(7 * (pts[i] + pts[j])));
      } else {
        a(i, j) = static_cast<T>(v);
      }
    }
  for (index_t i = 0; i < n; ++i) a(i, i) += T{2};
  return a;
}

/// relres ||b - A x|| / ||b|| for dense A.
template <typename T>
real_t<T> dense_relres(ConstMatrixView<T> a, ConstMatrixView<T> x,
                       ConstMatrixView<T> b) {
  Matrix<T> r = to_matrix(b);
  gemm(Op::N, Op::N, T{-1}, a, x, T{1}, r.view());
  return norm_fro(r) / norm_fro(b);
}

/// ACA factors (default AcaOptions, tol 1e-12) of every off-diagonal block
/// (I_nu, I_sib(nu)) at one level of `tree`: the uniform-shape batch that
/// HodlrMatrix::build re-truncates with one recompress_batched call.
template <typename T>
std::vector<LowRankFactor<T>> aca_level(const MatrixGenerator<T>& g,
                                        const ClusterTree& tree,
                                        index_t level) {
  std::vector<LowRankFactor<T>> fs;
  const index_t begin = ClusterTree::level_begin(level);
  for (index_t t = 0; t < ClusterTree::nodes_at_level(level); ++t) {
    const ClusterNode& row = tree.node(begin + t);
    const ClusterNode& col = tree.node(ClusterTree::sibling(begin + t));
    fs.push_back(aca(g, row.begin, col.begin, row.size(), col.size(),
                     AcaOptions{})
                     .factor);
  }
  return fs;
}

}  // namespace hodlrx::test
