#pragma once

#include "common/matrix.hpp"
#include "common/scalar.hpp"

/// \file blas.hpp
/// Dense BLAS-like kernels on column-major views. No external BLAS is used
/// anywhere in the project; these routines are the single source of dense
/// arithmetic (and of flop accounting) for both the "CPU" reference solvers
/// and the batched "device" engine.

namespace hodlrx {

/// Transposition operator, as in BLAS: N = none, T = transpose,
/// C = conjugate transpose (same as T for real scalars).
enum class Op : char { N = 'N', T = 'T', C = 'C' };

/// Effective number of rows of op(A).
template <typename T>
index_t op_rows(Op op, ConstMatrixView<T> a) {
  return op == Op::N ? a.rows : a.cols;
}
/// Effective number of columns of op(A).
template <typename T>
index_t op_cols(Op op, ConstMatrixView<T> a) {
  return op == Op::N ? a.cols : a.rows;
}

/// General matrix-matrix multiply: C = alpha * op(A) * op(B) + beta * C.
/// Single-threaded; see gemm_parallel for the intra-op parallel variant.
/// Products large enough to amortize packing run the packed engine
/// (gemm_kernel.hpp, use_packed_gemm). A matrix-vector product (opb == N,
/// one column) never packs, and with opb == N the smaller products run as
/// one gemv per column of C.
template <typename T>
void gemm(Op opa, Op opb, T alpha, NoDeduce<ConstMatrixView<T>> a,
          NoDeduce<ConstMatrixView<T>> b, T beta, MatrixView<T> c);

/// Same contract as gemm, but splits the columns of C across the thread pool.
/// Used by the batched engine's "stream mode" when a level has few, large
/// blocks (the paper's CUDA-streams remark in Sec. III-C).
template <typename T>
void gemm_parallel(Op opa, Op opb, T alpha, NoDeduce<ConstMatrixView<T>> a,
                   NoDeduce<ConstMatrixView<T>> b, T beta, MatrixView<T> c);

/// Matrix-vector multiply: y = alpha * op(A) * x + beta * y, x and y
/// contiguous, any lda. The streaming kernel under every matrix-vector
/// product (the 1-RHS solve, the H-matvec): each element of A is read once,
/// four columns per pass, and y (Op::N) or x (Op::T/C) is touched once per
/// pass. BLAS semantics: beta = 0 writes y without reading it (NaN or not),
/// alpha = 0 or an empty op(A) only scales y. Deterministic: the summation
/// order depends on the shape only.
template <typename T>
void gemv(Op opa, T alpha, NoDeduce<ConstMatrixView<T>> a, const T* x, T beta,
          T* y);

/// X *= alpha (element-wise, in place).
template <typename T>
void scale_inplace(T alpha, MatrixView<T> x);

/// Y += alpha * X (element-wise).
template <typename T>
void axpy(T alpha, NoDeduce<ConstMatrixView<T>> x, MatrixView<T> y);

/// Frobenius norm.
template <typename T>
real_t<T> norm_fro(ConstMatrixView<T> a);
template <typename T>
real_t<T> norm_fro(MatrixView<T> a) {
  return norm_fro(ConstMatrixView<T>(a));
}
template <typename T>
real_t<T> norm_fro(const Matrix<T>& a) {
  return norm_fro(a.view());
}

/// Entry-wise maximum absolute value.
template <typename T>
real_t<T> norm_max(ConstMatrixView<T> a);
template <typename T>
real_t<T> norm_max(MatrixView<T> a) {
  return norm_max(ConstMatrixView<T>(a));
}
template <typename T>
real_t<T> norm_max(const Matrix<T>& a) {
  return norm_max(a.view());
}

/// Euclidean norm of a contiguous vector.
template <typename T>
real_t<T> norm2(const T* x, index_t n);

/// conj(x) . y for contiguous vectors.
template <typename T>
T dotc(const T* x, const T* y, index_t n);

}  // namespace hodlrx
