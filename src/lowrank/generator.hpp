#pragma once

#include "common/matrix.hpp"

/// \file generator.hpp
/// Entry-evaluator interface for implicitly defined matrices. HODLR
/// construction never materializes the full N x N matrix: compressors pull
/// individual rows/columns of off-diagonal blocks through this interface.

namespace hodlrx {

/// An implicitly defined `rows() x cols()` matrix.
template <typename T>
class MatrixGenerator {
 public:
  virtual ~MatrixGenerator() = default;

  virtual index_t rows() const = 0;
  virtual index_t cols() const = 0;
  virtual T entry(index_t i, index_t j) const = 0;

  /// out[j - j0] = A(i, j) for j in [j0, j1). Override for speed.
  virtual void fill_row(index_t i, index_t j0, index_t j1, T* out) const {
    for (index_t j = j0; j < j1; ++j) out[j - j0] = entry(i, j);
  }
  /// out[i - i0] = A(i, j) for i in [i0, i1). Override for speed.
  virtual void fill_col(index_t j, index_t i0, index_t i1, T* out) const {
    for (index_t i = i0; i < i1; ++i) out[i - i0] = entry(i, j);
  }
  /// Materialize the sub-block [i0, i0+m) x [j0, j0+n) into `out`.
  virtual void fill_block(index_t i0, index_t j0, MatrixView<T> out) const {
    for (index_t j = 0; j < out.cols; ++j)
      fill_col(j0 + j, i0, i0 + out.rows, out.data + j * out.ld);
  }
};

/// Materialize a whole generator as a dense matrix (validation helper and
/// the dense baseline solver; the HODLR build never calls it).
template <typename T>
Matrix<T> materialize(const MatrixGenerator<T>& g) {
  Matrix<T> a(g.rows(), g.cols());
  g.fill_block(0, 0, a);
  return a;
}

/// A dense matrix exposed through the generator interface (tests, adapters).
template <typename T>
class DenseGenerator final : public MatrixGenerator<T> {
 public:
  explicit DenseGenerator(Matrix<T> a) : a_(std::move(a)) {}
  index_t rows() const override { return a_.rows(); }
  index_t cols() const override { return a_.cols(); }
  T entry(index_t i, index_t j) const override { return a_(i, j); }
  void fill_col(index_t j, index_t i0, index_t i1, T* out) const override {
    std::copy_n(a_.data() + i0 + j * a_.rows(), i1 - i0, out);
  }

 private:
  Matrix<T> a_;
};

}  // namespace hodlrx
