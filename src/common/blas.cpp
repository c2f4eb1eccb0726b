#include "common/blas.hpp"

#include <algorithm>
#include <complex>
#include <cstring>

#include "common/error.hpp"
#include "common/flops.hpp"
#include "common/gemm_kernel.hpp"
#include "common/parallel.hpp"

namespace hodlrx {

namespace {

/// Columns of A per pass of the GEMV kernel: a pass streams four columns of
/// A and touches y (Op::N) or x (Op::T/C) once.
constexpr index_t kGemvCols = 4;

/// Op::N: rows of y per block. A block of y stays in L1 across the column
/// passes, and each column stream of A is long enough for the hardware
/// prefetcher. Every element of y sums in the same order whatever the block.
constexpr index_t kGemvRowBlock = 2048;

/// How the first column pass of the Op::N kernel starts each y[i].
enum class BetaMode { kZero, kOne, kScale };

/// One Op::N pass over rows [0, m) and NC columns of A:
/// y[i] <- y0 + a_0[i] xs[0] + ... + a_{NC-1}[i] xs[NC-1], summed left to
/// right, where y0 is 0 (kZero, y is not read), y[i] (kOne) or beta y[i].
template <typename T, int NC, BetaMode BM>
void gemv_n_pass(index_t m, const T* a, index_t lda, const T* xs, T beta,
                 T* __restrict__ y) {
  const T* __restrict__ a0 = a;
  const T* __restrict__ a1 = a + (NC > 1 ? lda : 0);
  const T* __restrict__ a2 = a + (NC > 2 ? 2 * lda : 0);
  const T* __restrict__ a3 = a + (NC > 3 ? 3 * lda : 0);
  const T x0 = xs[0];
  const T x1 = NC > 1 ? xs[1] : T{};
  const T x2 = NC > 2 ? xs[2] : T{};
  const T x3 = NC > 3 ? xs[3] : T{};
  for (index_t i = 0; i < m; ++i) {
    T t{};
    if constexpr (BM == BetaMode::kOne) {
      t = y[i];
    } else if constexpr (BM == BetaMode::kScale) {
      t = beta * y[i];
    }
    t += a0[i] * x0;
    if constexpr (NC > 1) t += a1[i] * x1;
    if constexpr (NC > 2) t += a2[i] * x2;
    if constexpr (NC > 3) t += a3[i] * x3;
    y[i] = t;
  }
}

template <typename T, BetaMode BM>
void gemv_n_pass(index_t nc, index_t m, const T* a, index_t lda,
                 const T* xs, T beta, T* y) {
  switch (nc) {
    case 4: gemv_n_pass<T, 4, BM>(m, a, lda, xs, beta, y); break;
    case 3: gemv_n_pass<T, 3, BM>(m, a, lda, xs, beta, y); break;
    case 2: gemv_n_pass<T, 2, BM>(m, a, lda, xs, beta, y); break;
    default: gemv_n_pass<T, 1, BM>(m, a, lda, xs, beta, y); break;
  }
}

/// y = alpha A x + beta y, A m x k (k >= 1). alpha is folded into x, four
/// entries per pass, as reference BLAS does.
template <typename T>
void gemv_n(index_t m, index_t k, T alpha, const T* a, index_t lda,
            const T* x, T beta, T* y) {
  for (index_t i0 = 0; i0 < m; i0 += kGemvRowBlock) {
    const index_t mb = std::min(kGemvRowBlock, m - i0);
    for (index_t l = 0; l < k; l += kGemvCols) {
      const index_t nc = std::min(kGemvCols, k - l);
      T xs[kGemvCols] = {};
      for (index_t c = 0; c < nc; ++c) xs[c] = alpha * x[l + c];
      const T* al = a + i0 + l * lda;
      if (l > 0 || beta == T{1}) {
        gemv_n_pass<T, BetaMode::kOne>(nc, mb, al, lda, xs, beta, y + i0);
      } else if (beta == T{}) {
        gemv_n_pass<T, BetaMode::kZero>(nc, mb, al, lda, xs, beta, y + i0);
      } else {
        gemv_n_pass<T, BetaMode::kScale>(nc, mb, al, lda, xs, beta, y + i0);
      }
    }
  }
}

/// Four real scalars as one GCC/Clang vector: the partial sums of one column
/// in the Op::T/C kernel. The lanes, hence the summation order, are the
/// same on every host. The helpers below take these vectors by reference
/// only: passing a vector by value has a different ABI with and without
/// AVX.
template <typename R>
struct Lanes4;
template <>
struct Lanes4<float> {
  typedef float type __attribute__((vector_size(16)));
};
template <>
struct Lanes4<double> {
  typedef double type __attribute__((vector_size(32)));
};

template <typename V>
inline void load_lanes(V& v, const void* p) {
  std::memcpy(&v, p, sizeof v);
}

/// NC dot products dot[c] = sum_l op(a_c[l]) x[l] (op = conj if Conj) in one
/// pass over x, a_c being column c of `a`. A real column keeps four partial
/// sums, lane p taking the terms l = p mod 4 and lane 0 the k mod 4 tail, and
/// folds them as (s0 + s1) + (s2 + s3): the order of a four-way unrolled dot
/// product. Complex columns are read as interleaved real arrays, two
/// elements per step: with D = sum a x and S = sum a swap(x) lane by lane,
/// the even and odd lanes of D hold sum re(a)re(x) and sum im(a)im(x), those
/// of S sum re(a)im(x) and sum im(a)re(x); the zero-padded tail takes one
/// more step.
template <typename T, int NC, bool Conj>
void gemv_t_pass(index_t k, const T* a, index_t lda, const T* x, T* dot) {
  using R = real_t<T>;
  using V = typename Lanes4<R>::type;
  constexpr bool kComplex = is_complex_v<T>;
  constexpr index_t kReals = kComplex ? 2 : 1;
  const R* ar = reinterpret_cast<const R*>(a);
  const R* xr = reinterpret_cast<const R*>(x);
  const index_t kr = kReals * k, ldr = kReals * lda;
  V accd[NC] = {}, accs[NC] = {};
  V xv{}, xs{}, av{};
  index_t l = 0;
  for (; l + 4 <= kr; l += 4) {
    load_lanes(xv, xr + l);
    if constexpr (kComplex) xs = V{xv[1], xv[0], xv[3], xv[2]};
    for (int c = 0; c < NC; ++c) {
      load_lanes(av, ar + c * ldr + l);
      accd[c] += av * xv;
      if constexpr (kComplex) accs[c] += av * xs;
    }
  }
  if constexpr (kComplex) {
    if (l < kr) {  // one complex element left: lanes 0 and 1
      xv = V{xr[l], xr[l + 1], R{}, R{}};
      xs = V{xr[l + 1], xr[l], R{}, R{}};
      for (int c = 0; c < NC; ++c) {
        av = V{ar[c * ldr + l], ar[c * ldr + l + 1], R{}, R{}};
        accd[c] += av * xv;
        accs[c] += av * xs;
      }
    }
    for (int c = 0; c < NC; ++c) {
      const R de = accd[c][0] + accd[c][2], dodd = accd[c][1] + accd[c][3];
      const R se = accs[c][0] + accs[c][2], sodd = accs[c][1] + accs[c][3];
      dot[c] = Conj ? T(de + dodd, se - sodd) : T(de - dodd, se + sodd);
    }
  } else {
    for (; l < kr; ++l)
      for (int c = 0; c < NC; ++c) accd[c][0] += ar[c * ldr + l] * xr[l];
    for (int c = 0; c < NC; ++c)
      dot[c] = (accd[c][0] + accd[c][1]) + (accd[c][2] + accd[c][3]);
  }
}

/// y = alpha op(A) x + beta y for op in {T, C}: A is k x m (k >= 1), four
/// columns per pass over x.
template <typename T, bool Conj>
void gemv_t(index_t m, index_t k, T alpha, const T* a, index_t lda,
            const T* x, T beta, T* y) {
  for (index_t j = 0; j < m; j += kGemvCols) {
    const index_t nc = std::min(kGemvCols, m - j);
    const T* aj = a + j * lda;
    T dot[kGemvCols] = {};
    switch (nc) {
      case 4: gemv_t_pass<T, 4, Conj>(k, aj, lda, x, dot); break;
      case 3: gemv_t_pass<T, 3, Conj>(k, aj, lda, x, dot); break;
      case 2: gemv_t_pass<T, 2, Conj>(k, aj, lda, x, dot); break;
      default: gemv_t_pass<T, 1, Conj>(k, aj, lda, x, dot); break;
    }
    for (index_t c = 0; c < nc; ++c) {
      T& yj = y[j + c];
      yj = (beta == T{}) ? alpha * dot[c] : alpha * dot[c] + beta * yj;
    }
  }
}

/// y = alpha op(A) x + beta y with BLAS semantics: beta = 0 writes y without
/// reading it, and alpha = 0 or k = 0 only scales y. Contiguous x and y,
/// any lda. No flop accounting: gemv() and gemm() account.
template <typename T>
void gemv_kernel(Op opa, T alpha, ConstMatrixView<T> a, const T* x, T beta,
                 T* y) {
  const index_t m = op_rows(opa, a), k = op_cols(opa, a);
  if (k == 0 || alpha == T{}) {
    if (beta == T{}) {
      std::fill(y, y + m, T{});
    } else if (beta != T{1}) {
      for (index_t i = 0; i < m; ++i) y[i] *= beta;
    }
    return;
  }
  if (opa == Op::N) {
    gemv_n(m, k, alpha, a.data, a.ld, x, beta, y);
  } else if (opa == Op::C && is_complex_v<T>) {
    gemv_t<T, true>(m, k, alpha, a.data, a.ld, x, beta, y);
  } else {
    gemv_t<T, false>(m, k, alpha, a.data, a.ld, x, beta, y);
  }
}

/// Generic fallback for the remaining op combinations (rare paths: tests,
/// low-rank reconstruction U*V^C). Element accessor indirection is fine
/// there.
template <typename T>
void gemm_generic(Op opa, Op opb, T alpha, ConstMatrixView<T> a,
                  ConstMatrixView<T> b, T beta, MatrixView<T> c) {
  const index_t m = c.rows, n = c.cols, k = op_cols(opa, a);
  auto at = [&](index_t i, index_t l) -> T {
    switch (opa) {
      case Op::N: return a(i, l);
      case Op::T: return a(l, i);
      default: return conj_s(a(l, i));
    }
  };
  auto bt = [&](index_t l, index_t j) -> T {
    switch (opb) {
      case Op::N: return b(l, j);
      case Op::T: return b(j, l);
      default: return conj_s(b(j, l));
    }
  };
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      T s{};
      for (index_t l = 0; l < k; ++l) s += at(i, l) * bt(l, j);
      T& cij = c(i, j);
      cij = (beta == T{}) ? alpha * s : alpha * s + beta * cij;
    }
}

template <typename T>
void gemm_dispatch(Op opa, Op opb, T alpha, ConstMatrixView<T> a,
                   ConstMatrixView<T> b, T beta, MatrixView<T> c) {
  // The packed, register-tiled engine takes every product large enough to
  // amortize packing, except matrix-vector ones (use_packed_gemm). With
  // opb == N each column of C is a GEMV against a contiguous column of B.
  if (use_packed_gemm(opa, opb, c.rows, c.cols, op_cols(opa, a))) {
    gemm_packed(opa, opb, alpha, a, b, beta, c);
  } else if (opb == Op::N) {
    for (index_t j = 0; j < c.cols; ++j)
      gemv_kernel(opa, alpha, a, b.data + j * b.ld, beta, c.data + j * c.ld);
  } else {
    gemm_generic(opa, opb, alpha, a, b, beta, c);
  }
}

template <typename T>
void check_gemm_shapes(Op opa, Op opb, ConstMatrixView<T> a,
                       ConstMatrixView<T> b, MatrixView<T> c) {
  HODLRX_REQUIRE(op_rows(opa, a) == c.rows && op_cols(opb, b) == c.cols &&
                     op_cols(opa, a) == op_rows(opb, b),
                 "gemm: shape mismatch op(A)=" << op_rows(opa, a) << "x"
                                               << op_cols(opa, a) << " op(B)="
                                               << op_rows(opb, b) << "x"
                                               << op_cols(opb, b) << " C="
                                               << c.rows << "x" << c.cols);
}

}  // namespace

template <typename T>
void gemm(Op opa, Op opb, T alpha, NoDeduce<ConstMatrixView<T>> a,
          NoDeduce<ConstMatrixView<T>> b, T beta, MatrixView<T> c) {
  check_gemm_shapes(opa, opb, a, b, c);
  if (c.rows == 0 || c.cols == 0) return;
  const index_t k = op_cols(opa, a);
  if (k == 0) {
    if (beta == T{}) {
      for (index_t j = 0; j < c.cols; ++j)
        for (index_t i = 0; i < c.rows; ++i) c(i, j) = T{};
    } else if (beta != T{1}) {
      scale_inplace(beta, c);
    }
    return;
  }
  gemm_dispatch(opa, opb, alpha, a, b, beta, c);
  FlopCounter::instance().add(FlopCounter::kGemm,
                              FlopCounter::gemm_flops<T>(c.rows, c.cols, k));
}

template <typename T>
void gemm_parallel(Op opa, Op opb, T alpha, NoDeduce<ConstMatrixView<T>> a,
                   NoDeduce<ConstMatrixView<T>> b, T beta, MatrixView<T> c) {
  check_gemm_shapes(opa, opb, a, b, c);
  if (c.rows == 0 || c.cols == 0) return;
  const int nt = max_threads();
  if (nt <= 1 || c.cols == 1 || in_parallel()) {
    gemm(opa, opb, alpha, a, b, beta, c);
    return;
  }
  const index_t k = op_cols(opa, a);
  // Preferred path: pack op(A) ONCE into the pool's persistent shared slot
  // and split the columns of C across the pool (each chunk reads the shared
  // tiles instead of re-packing A). Falls through when the shape doesn't
  // qualify or the slot is busy.
  if (gemm_parallel_shared_a(opa, opb, alpha, a, b, beta, c)) {
    FlopCounter::instance().add(
        FlopCounter::kGemm, FlopCounter::gemm_flops<T>(c.rows, c.cols, k));
    return;
  }
  // Fallback: split columns of C (and the matching columns/rows of op(B))
  // into one chunk per thread; each chunk is an independent gemm.
  parallel_chunks(c.cols, [&](index_t j0, index_t nc) {
    ConstMatrixView<T> bs =
        (opb == Op::N) ? b.cols_range(j0, nc) : b.rows_range(j0, nc);
    gemm(opa, opb, alpha, a, bs, beta, c.cols_range(j0, nc));
  });
}

template <typename T>
void gemv(Op opa, T alpha, NoDeduce<ConstMatrixView<T>> a, const T* x,
          T beta, T* y) {
  const index_t m = op_rows(opa, a), k = op_cols(opa, a);
  if (m == 0) return;
  gemv_kernel<T>(opa, alpha, a, x, beta, y);
  if (k > 0)
    FlopCounter::instance().add(FlopCounter::kGemm,
                                FlopCounter::gemm_flops<T>(m, 1, k));
}

template <typename T>
void scale_inplace(T alpha, MatrixView<T> x) {
  for (index_t j = 0; j < x.cols; ++j) {
    T* __restrict__ xj = x.data + j * x.ld;
    for (index_t i = 0; i < x.rows; ++i) xj[i] *= alpha;
  }
}

template <typename T>
void axpy(T alpha, NoDeduce<ConstMatrixView<T>> x, MatrixView<T> y) {
  HODLRX_REQUIRE(x.rows == y.rows && x.cols == y.cols, "axpy: shape mismatch");
  for (index_t j = 0; j < x.cols; ++j) {
    const T* __restrict__ xj = x.data + j * x.ld;
    T* __restrict__ yj = y.data + j * y.ld;
    for (index_t i = 0; i < x.rows; ++i) yj[i] += alpha * xj[i];
  }
}

template <typename T>
real_t<T> norm_fro(ConstMatrixView<T> a) {
  real_t<T> s{};
  for (index_t j = 0; j < a.cols; ++j) {
    const T* __restrict__ aj = a.data + j * a.ld;
    for (index_t i = 0; i < a.rows; ++i) s += abs2_s(aj[i]);
  }
  return std::sqrt(s);
}

template <typename T>
real_t<T> norm_max(ConstMatrixView<T> a) {
  real_t<T> s{};
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) s = std::max(s, abs_s(a(i, j)));
  return s;
}

template <typename T>
real_t<T> norm2(const T* x, index_t n) {
  real_t<T> s{};
  for (index_t i = 0; i < n; ++i) s += abs2_s(x[i]);
  return std::sqrt(s);
}

template <typename T>
T dotc(const T* x, const T* y, index_t n) {
  T s{};
  for (index_t i = 0; i < n; ++i) s += conj_s(x[i]) * y[i];
  return s;
}

#define HODLRX_INSTANTIATE_BLAS(T)                                           \
  template void gemm<T>(Op, Op, T, NoDeduce<ConstMatrixView<T>>,            \
                        NoDeduce<ConstMatrixView<T>>, T, MatrixView<T>);     \
  template void gemm_parallel<T>(Op, Op, T, NoDeduce<ConstMatrixView<T>>,    \
                                 NoDeduce<ConstMatrixView<T>>, T,            \
                                 MatrixView<T>);                             \
  template void gemv<T>(Op, T, NoDeduce<ConstMatrixView<T>>, const T*, T,    \
                        T*);                                                 \
  template void scale_inplace<T>(T, MatrixView<T>);                          \
  template void axpy<T>(T, NoDeduce<ConstMatrixView<T>>, MatrixView<T>);    \
  template real_t<T> norm_fro<T>(ConstMatrixView<T>);                        \
  template real_t<T> norm_max<T>(ConstMatrixView<T>);                        \
  template real_t<T> norm2<T>(const T*, index_t);                            \
  template T dotc<T>(const T*, const T*, index_t);

HODLRX_INSTANTIATE_BLAS(float)
HODLRX_INSTANTIATE_BLAS(double)
HODLRX_INSTANTIATE_BLAS(std::complex<float>)
HODLRX_INSTANTIATE_BLAS(std::complex<double>)

#undef HODLRX_INSTANTIATE_BLAS

}  // namespace hodlrx
