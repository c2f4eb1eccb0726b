#include "common/trsm_kernel.hpp"

#include <algorithm>
#include <complex>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/blocking.hpp"
#include "common/error.hpp"
#include "common/flops.hpp"
#include "common/gemm_kernel.hpp"
#include "common/parallel.hpp"
#include "common/workspace.hpp"

namespace hodlrx {

namespace {

/// One SIMD vector of real lanes (V) and the integer vector of the same
/// width (M) that holds lane masks, as GCC/Clang vector extensions.
template <typename R>
struct Simd;
template <>
struct Simd<float> {
  using I = std::int32_t;
  typedef float V __attribute__((vector_size(kTrsmVectorBytes)));
  typedef I M __attribute__((vector_size(kTrsmVectorBytes)));
};
template <>
struct Simd<double> {
  using I = std::int64_t;
  typedef double V __attribute__((vector_size(kTrsmVectorBytes)));
  typedef I M __attribute__((vector_size(kTrsmVectorBytes)));
};

/// The register tile's vector operations for scalar type T. One vector holds
/// MR elements of one column; a complex element takes two adjacent real
/// lanes (re, im), as in memory.
template <typename T>
struct TileOps {
  using R = real_t<T>;
  using V = typename Simd<R>::V;
  using M = typename Simd<R>::M;
  static constexpr bool kComplex = is_complex_v<T>;
  static constexpr int kLanes =
      static_cast<int>(kTrsmVectorBytes / static_cast<index_t>(sizeof(R)));
  static constexpr int MR = static_cast<int>(TrsmTile<T>::MR);
  using I = typename Simd<R>::I;
  static constexpr auto kIota = std::make_index_sequence<kLanes>{};

  // Lane-wise constructors; the lane index pack makes every lane pattern a
  // compile-time constant.
  template <std::size_t... L>
  static V splat_impl(R s, std::index_sequence<L...>) {
    return V{((void)L, s)...};
  }
  template <std::size_t... L>
  static M index_impl(int k, std::index_sequence<L...>) {
    return M{((void)L, static_cast<I>(k))...};
  }
  template <std::size_t... L>
  static M element_impl(std::index_sequence<L...>) {
    return M{static_cast<I>(kComplex ? L / 2 : L)...};
  }
  template <std::size_t... L>
  static M parity_impl(std::index_sequence<L...>) {
    return M{static_cast<I>(L % 2)...};
  }
  template <std::size_t... L>
  static V swap_impl(V v, std::index_sequence<L...>) {
    return __builtin_shufflevector(v, v, static_cast<int>(L ^ 1)...);
  }
  template <std::size_t... L>
  static V sign_impl(std::index_sequence<L...>) {
    return V{(L % 2 == 0 ? R{1} : R{-1})...};
  }
  template <int K, std::size_t... L>
  static V lane_impl(V v, std::index_sequence<L...>) {
    return __builtin_shufflevector(v, v, ((void)L, K)...);
  }

  static V load(const T* p) {
    V v{};
    std::memcpy(&v, static_cast<const void*>(p), sizeof v);
    return v;
  }
  static void store(T* p, V v) {
    std::memcpy(static_cast<void*>(p), &v, sizeof v);
  }

  /// Elements [lo, hi) of a block from p (p points at element lo); the
  /// other lanes are zero. Reads nothing outside [p, p + hi - lo).
  static V load_part(const T* p, int lo, int hi) {
    T buf[MR] = {};
    for (int i = 0; i < MR; ++i)
      if (i >= lo && i < hi) buf[i] = p[i - lo];
    V v{};
    std::memcpy(&v, static_cast<const void*>(buf), sizeof v);
    return v;
  }
  /// Elements [lo, hi) of a block to p (p points at element lo).
  static void store_part(T* p, V v, int lo, int hi) {
    T buf[MR] = {};
    std::memcpy(static_cast<void*>(buf), &v, sizeof v);
    for (int i = 0; i < MR; ++i)
      if (i >= lo && i < hi) p[i - lo] = buf[i];
  }

  static V splat(R s) { return splat_impl(s, kIota); }
  static M splat_index(int k) { return index_impl(k, kIota); }
  /// The element index of every lane.
  static M element_index() { return element_impl(kIota); }
  /// Lane K of v in every lane.
  template <int K>
  static V lane(V v) {
    return lane_impl<K>(v, kIota);
  }
  /// Complex only: the (re, im) pairs of v as (im, -re), so that
  /// acc - v * re(x) + swap_neg(v) * im(x) = acc - v * x.
  static V swap_neg(V v) { return swap_impl(v, kIota) * sign_impl(kIota); }

  /// acc[j] -= av * x[j * ldx] for j < NC: one column segment of A against
  /// one solved row of the tile. Complex products take two FMAs per vector:
  /// acc - av * re(x) + swap(av) * (+1, -1) * im(x).
  template <int NC>
  static void subtract(V (&acc)[NC], V av, const T* x, index_t ldx) {
    if constexpr (kComplex) {
      const V asw = swap_neg(av);
      for (int j = 0; j < NC; ++j) {
        const R* xr = reinterpret_cast<const R*>(x + j * ldx);
        acc[j] = acc[j] - av * splat(xr[0]) + asw * splat(xr[1]);
      }
    } else {
      for (int j = 0; j < NC; ++j) {
        acc[j] = acc[j] - av * splat(x[j * ldx]);
      }
    }
  }

  /// Step K of the diagonal substitution for one column: element K of acc
  /// is solved (times `inv` unless Unit) and subtracted, times column K of
  /// the diagonal block (`ac`), from the elements below K (Lower) or above
  /// it (Upper). The element stays in registers: it is broadcast with a
  /// shuffle and written back with a blend.
  template <int K, bool kLower, bool kUnit>
  static void substitute(V& acc, V ac, M element, const T* inv) {
    const M kv = splat_index(K);
    const M rest = kLower ? (element > kv) : (element < kv);
    if constexpr (kComplex) {
      V xr = lane<2 * K>(acc);
      V xi = lane<2 * K + 1>(acc);
      if constexpr (!kUnit) {
        const V ir = splat(inv->real()), ii = splat(inv->imag());
        const V yr = xr * ir - xi * ii;
        const V yi = xr * ii + xi * ir;
        xr = yr;
        xi = yi;
        const M even = parity_impl(kIota) == splat_index(0);
        acc = element == kv ? (even ? xr : xi) : acc;
      }
      acc = rest ? acc - ac * xr + swap_neg(ac) * xi : acc;
    } else {
      V x = lane<K>(acc);
      if constexpr (!kUnit) {
        x = x * splat(*inv);
        acc = element == kv ? x : acc;
      }
      acc = rest ? acc - ac * x : acc;
    }
  }
};

/// One NC-column tile of the solve, in place: columns b, b + ldb, ... of an
/// n-row X against the n x n triangle at a (lda). `inv[k]` = 1 / a(k, k)
/// for NonUnit (unused for Unit). Row blocks are MR rows; a lower solve
/// runs them top-down with the partial block last, an upper solve bottom-up
/// with the partial block (virtually starting at a negative row i0, lanes
/// [lo, MR) valid) last. NC = 1 runs the same per-column operations as
/// NC = NR, in the same order.
template <typename T, int NC, bool kLower, bool kUnit>
void solve_tile(index_t n, const T* a, index_t lda, const T* inv, T* b,
                index_t ldb) {
  using Ops = TileOps<T>;
  using V = typename Ops::V;
  using M = typename Ops::M;
  constexpr int MR = Ops::MR;
  const M element = Ops::element_index();
  const index_t first = kLower ? 0 : n - MR;
  const index_t nblocks = (n + MR - 1) / MR;
  for (index_t blk = 0; blk < nblocks; ++blk) {
    const index_t i0 = kLower ? first + blk * MR : first - blk * MR;
    // Valid lanes [lo, hi): rows i0 + lo .. i0 + hi - 1 of X.
    const int lo = kLower ? 0 : static_cast<int>(std::max<index_t>(0, -i0));
    const int hi = kLower ? static_cast<int>(std::min<index_t>(MR, n - i0))
                          : MR;
    const bool full = (hi - lo == MR);
    V acc[NC] = {};
    for (int j = 0; j < NC; ++j) {
      const T* bj = b + j * ldb;
      acc[j] = full ? Ops::load(bj + i0)
                    : Ops::load_part(bj + (i0 + lo), lo, hi);
    }
    // Subtract the rows already solved: A(i0:i0+MR, k) X(k, :) for k above
    // (Lower) or below (Upper) the block. The segment is read whole even for
    // a partial block: its out-of-block lanes are discarded, and it stays
    // inside A's storage because a partial block with a non-empty k-loop
    // implies n > MR and lda >= n.
    const index_t k0 = kLower ? 0 : i0 + MR;
    const index_t k1 = kLower ? i0 : n;
    for (index_t k = k0; k < k1; ++k) {
      Ops::template subtract<NC>(acc, Ops::load(a + (k * lda + i0)), b + k,
                                 ldb);
    }
    // Substitute through the diagonal block, one element at a time; the
    // step index is a compile-time constant, so every shuffle and mask is.
    auto step = [&](auto s) {
      constexpr int si = decltype(s)::value;
      constexpr int kk = kLower ? si : MR - 1 - si;
      if (kLower ? kk >= hi : kk < lo) return false;
      const index_t col = i0 + kk;
      const V ac =
          full     ? Ops::load(a + (col * lda + i0))
          : kLower ? Ops::load_part(a + (col * lda + col + 1), kk + 1, hi)
                   : Ops::load_part(a + (col * lda + i0 + lo), lo, kk);
      const T* ik = kUnit ? nullptr : inv + col;
      for (int j = 0; j < NC; ++j)
        Ops::template substitute<kk, kLower, kUnit>(acc[j], ac, element, ik);
      return true;
    };
    [&]<int... S>(std::integer_sequence<int, S...>) {
      (void)(step(std::integral_constant<int, S>{}) && ...);
    }(std::make_integer_sequence<int, MR>{});
    for (int j = 0; j < NC; ++j) {
      T* bj = b + j * ldb;
      if (full) {
        Ops::store(bj + i0, acc[j]);
      } else {
        Ops::store_part(bj + (i0 + lo), acc[j], lo, hi);
      }
    }
  }
}

template <typename T, bool kLower, bool kUnit>
void solve_tiles(ConstMatrixView<T> a, MatrixView<T> b, const T* inv) {
  constexpr index_t NR = TrsmTile<T>::NR;
  index_t j = 0;
  for (; j + NR <= b.cols; j += NR)
    solve_tile<T, static_cast<int>(NR), kLower, kUnit>(
        a.rows, a.data, a.ld, inv, b.data + j * b.ld, b.ld);
  for (; j < b.cols; ++j)
    solve_tile<T, 1, kLower, kUnit>(a.rows, a.data, a.ld, inv,
                                    b.data + j * b.ld, b.ld);
}

/// The register-tiled kernel on a whole (diagonal-block) solve.
template <typename T>
void trsm_tiled(Uplo uplo, Diag diag, ConstMatrixView<T> a, MatrixView<T> b,
                const T* inv) {
  if (a.rows == 0 || b.cols == 0) return;
  if (uplo == Uplo::Lower) {
    if (diag == Diag::Unit) {
      solve_tiles<T, true, true>(a, b, inv);
    } else {
      solve_tiles<T, true, false>(a, b, inv);
    }
  } else {
    if (diag == Diag::Unit) {
      solve_tiles<T, false, true>(a, b, inv);
    } else {
      solve_tiles<T, false, false>(a, b, inv);
    }
  }
}

/// Trailing update C -= A * X without flop accounting: the packed engine
/// above its cutoff, a compact axpy update below it (the rank-NB updates of
/// small solves don't amortize packing). The two round differently, so the
/// choice is made for the whole solve's RHS width `nrhs`, not for C's own
/// columns: a solve split into column chunks (trsm_left_parallel) then runs
/// the same kernel, and returns the same bits, as the unsplit one.
template <typename T>
void update_nn(ConstMatrixView<T> a, ConstMatrixView<T> x, MatrixView<T> c,
               index_t nrhs) {
  if (use_packed_gemm(Op::N, Op::N, c.rows, nrhs, a.cols)) {
    gemm_packed<T>(Op::N, Op::N, T{-1}, a, x, T{1}, c);
    return;
  }
  for (index_t j = 0; j < c.cols; ++j) {
    T* __restrict__ cj = c.data + j * c.ld;
    for (index_t l = 0; l < a.cols; ++l) {
      const T xlj = x(l, j);
      if (xlj == T{}) continue;
      const T* __restrict__ al = a.data + l * a.ld;
      for (index_t i = 0; i < c.rows; ++i) cj[i] -= al[i] * xlj;
    }
  }
}

template <typename T>
void add_trsm_flops(index_t n, index_t nrhs) {
  FlopCounter::instance().add(
      FlopCounter::kTrsm,
      (is_complex_v<T> ? 4ull : 1ull) * static_cast<std::uint64_t>(n) *
          static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(nrhs));
}

/// trsm_left_blocked on `b`, a column chunk of a solve with `nrhs` columns.
template <typename T>
void trsm_blocked_chunk(Uplo uplo, Diag diag, ConstMatrixView<T> a,
                        MatrixView<T> b, index_t nrhs) {
  const index_t n = a.rows;
  if (n == 0 || b.cols == 0) return;
  // Reciprocal table for NonUnit diagonals, computed once per solve so the
  // kernel multiplies instead of divides.
  T* inv = nullptr;
  if (diag == Diag::NonUnit) {
    inv = WorkspaceArena::local().get<T>(static_cast<std::size_t>(n),
                                         WorkspaceArena::kScratch);
    for (index_t k = 0; k < n; ++k) inv[k] = T{1} / a(k, k);
  }
  const index_t nb = resolved_blocking<T>().trsm_nb;
  if (n <= nb) {
    trsm_tiled<T>(uplo, diag, a, b, inv);
    return;
  }
  if (uplo == Uplo::Lower) {
    for (index_t k0 = 0; k0 < n; k0 += nb) {
      const index_t kb = std::min(nb, n - k0);
      trsm_tiled<T>(uplo, diag, a.block(k0, k0, kb, kb), b.rows_range(k0, kb),
                    inv ? inv + k0 : nullptr);
      const index_t rem = n - k0 - kb;
      if (rem > 0)
        update_nn<T>(a.block(k0 + kb, k0, rem, kb),
                     ConstMatrixView<T>(b.rows_range(k0, kb)),
                     b.rows_range(k0 + kb, rem), nrhs);
    }
  } else {
    for (index_t k0 = ((n - 1) / nb) * nb;; k0 -= nb) {
      const index_t kb = std::min(nb, n - k0);
      trsm_tiled<T>(uplo, diag, a.block(k0, k0, kb, kb), b.rows_range(k0, kb),
                    inv ? inv + k0 : nullptr);
      if (k0 == 0) break;
      update_nn<T>(a.block(0, k0, k0, kb),
                   ConstMatrixView<T>(b.rows_range(k0, kb)),
                   b.rows_range(0, k0), nrhs);
    }
  }
}

}  // namespace

template <typename T>
void trsm_left_blocked(Uplo uplo, Diag diag, NoDeduce<ConstMatrixView<T>> a,
                       MatrixView<T> b) {
  trsm_blocked_chunk<T>(uplo, diag, a, b, b.cols);
}

template <typename T>
void trsm_left_parallel(Uplo uplo, Diag diag, NoDeduce<ConstMatrixView<T>> a,
                        MatrixView<T> b) {
  const index_t n = a.rows;
  HODLRX_REQUIRE(a.cols == n && b.rows == n,
                 "trsm_left_parallel: shape mismatch");
  if (max_threads() <= 1 || b.cols <= 1 || in_parallel()) {
    trsm_left_blocked<T>(uplo, diag, a, b);
  } else {
    // A column's bits do not depend on its tile, so chunks may start
    // anywhere.
    parallel_chunks(b.cols, [&](index_t j0, index_t nc) {
      trsm_blocked_chunk<T>(uplo, diag, a, b.cols_range(j0, nc), b.cols);
    });
  }
  add_trsm_flops<T>(n, b.cols);
}

#define HODLRX_INSTANTIATE_TRSM_KERNEL(T)                                    \
  template void trsm_left_blocked<T>(Uplo, Diag,                             \
                                     NoDeduce<ConstMatrixView<T>>,           \
                                     MatrixView<T>);                         \
  template void trsm_left_parallel<T>(Uplo, Diag,                            \
                                      NoDeduce<ConstMatrixView<T>>,          \
                                      MatrixView<T>);

HODLRX_INSTANTIATE_TRSM_KERNEL(float)
HODLRX_INSTANTIATE_TRSM_KERNEL(double)
HODLRX_INSTANTIATE_TRSM_KERNEL(std::complex<float>)
HODLRX_INSTANTIATE_TRSM_KERNEL(std::complex<double>)

#undef HODLRX_INSTANTIATE_TRSM_KERNEL

}  // namespace hodlrx
