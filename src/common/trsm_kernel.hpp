#pragma once

#include "common/lapack.hpp"
#include "common/matrix.hpp"

/// \file trsm_kernel.hpp
/// The triangular-solve engine behind `trsm_left`/`getrs`: B <- A^{-1} B for
/// a lower or upper, unit or non-unit triangle A, all four scalar types.
///
/// The kernel is register-tiled. X (= B, overwritten) is cut into row blocks
/// of MR rows, one SIMD vector of T per column, by NR columns, and a tile
/// stays in registers while it is solved (Lower shown; Upper runs the mirror
/// image bottom-up):
///
///   for each NR-column tile, for each MR-row block i0:
///     X_i0 <- B_i0 - A(i0, 0:i0) * X(0:i0)  (k-loop over A's column
///                                            segments, X broadcast)
///     X_i0 <- A(i0, i0)^{-1} X_i0           (substitution through the
///                                            MR x MR diagonal block in
///                                            registers)
///
/// A is read in place, with no packing, so a 1-RHS solve pays nothing
/// extra. A partial row block (n % MR rows) never reads past A's storage:
/// it sits at the bottom of a lower solve and at the top of an upper one,
/// and its diagonal block and its B rows are loaded element by element.
/// NonUnit diagonals are applied as a multiply by a reciprocal computed once
/// per solve. Columns left over after the last NR-tile run through the
/// one-column instantiation of the same code, so a column's bits never
/// depend on which tile it lands in.
///
/// For n <= trsm_nb the kernel is the whole solve. Above that,
/// trsm_left_blocked partitions A into nb x nb diagonal blocks and runs
/// right-looking: the kernel solves each diagonal block and a rank-nb GEMM
/// update (packed engine above its cutoff) carries the rest.
///
/// Accounting contract: the kernels here do NOT touch the flop counters —
/// the public entry points (`trsm_left`, `trsm_left_parallel`, `getrs*`)
/// account, exactly as gemm_packed leaves accounting to gemm().

namespace hodlrx {

/// Bytes of the SIMD vector that holds one column of a row block: the
/// widest vector the compile target has.
#if defined(__AVX512F__)
inline constexpr index_t kTrsmVectorBytes = 64;
#elif defined(__AVX__)
inline constexpr index_t kTrsmVectorBytes = 32;
#else
inline constexpr index_t kTrsmVectorBytes = 16;
#endif

/// The kernel's register tile: MR rows (one SIMD vector of T) by NR columns.
template <typename T>
struct TrsmTile {
  static constexpr index_t MR =
      kTrsmVectorBytes / static_cast<index_t>(sizeof(T));
  static constexpr index_t NR = 8;
};

/// Blocked right-looking solve (see file comment); the register-tiled
/// kernel alone when n <= nb. The diagonal-block size comes from the shared
/// blocking resolver (resolved_blocking<T>().trsm_nb, blocking.hpp):
/// HODLRX_TRSM_NB override > probed cache model > the static 64 (clamped to
/// >= 8).
template <typename T>
void trsm_left_blocked(Uplo uplo, Diag diag, NoDeduce<ConstMatrixView<T>> a,
                       MatrixView<T> b);

/// Stream-mode solve: the RHS columns are split into one chunk per pool
/// thread (columns are independent given A), each chunk running the blocked
/// solver. The result is bitwise that of trsm_left_blocked on the whole RHS
/// at any pool size: a column's bits do not depend on its tile, and every
/// chunk picks its trailing-update kernel from the full RHS width. This IS
/// a public entry point and accounts trsm flops. Used by the batched layer
/// when a level has few, large problems.
template <typename T>
void trsm_left_parallel(Uplo uplo, Diag diag, NoDeduce<ConstMatrixView<T>> a,
                        MatrixView<T> b);

}  // namespace hodlrx
