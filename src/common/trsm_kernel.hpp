#pragma once

#include "common/lapack.hpp"
#include "common/matrix.hpp"

/// \file trsm_kernel.hpp
/// The blocked triangular-solve engine behind `trsm_left`/`getrs` — the
/// solve-stage counterpart of the packed GEMM engine (gemm_kernel.hpp).
///
/// The seed solved B <- op(A)^{-1} B one RHS column at a time with an axpy
/// sweep over the whole triangle, so every column re-streamed all of A from
/// memory: exactly the memory-bound behavior the paper's Fig. 9 shows for
/// the solution stage. The blocked solver partitions A into NB x NB diagonal
/// blocks and runs right-looking:
///
///   for each diagonal block k (top-down for Lower, bottom-up for Upper):
///     B_k   <- A_kk^{-1} B_k        (register-tiled small solve, below)
///     B_rest -= A_rest,k * B_k      (rank-NB update through the packed GEMM
///                                    engine: O(n^2 nrhs) flops at GEMM speed)
///
/// which turns all but an O(n * NB * nrhs) sliver of the work into packed
/// GEMM. The diagonal-block solve itself processes four RHS columns per pass
/// with the four running values held in registers, so the NB x NB triangle
/// is streamed once per four columns instead of once per column, and
/// divisions are hoisted into a reciprocal table computed once per block.
///
/// Accounting contract: the kernels here do NOT touch the flop counters —
/// the public entry points (`trsm_left`, `trsm_left_parallel`, `getrs*`)
/// account, exactly as gemm_packed leaves accounting to gemm().

namespace hodlrx {

/// The diagonal-block size comes from the shared blocking resolver
/// (resolved_blocking<T>().trsm_nb, blocking.hpp): HODLRX_TRSM_NB override >
/// probed cache model > the static 64 (clamped to >= 8). Problems with
/// n <= nb run the reference kernel unchanged.

/// The seed's unblocked column-at-a-time solve. Kept verbatim as the
/// small-problem kernel, the cross-check oracle in tests, and the baseline
/// in bench_trsm.
template <typename T>
void trsm_left_reference(Uplo uplo, Diag diag, NoDeduce<ConstMatrixView<T>> a,
                         MatrixView<T> b);

/// Blocked right-looking solve (see file comment). Falls back to the
/// reference kernel when n <= nb.
template <typename T>
void trsm_left_blocked(Uplo uplo, Diag diag, NoDeduce<ConstMatrixView<T>> a,
                       MatrixView<T> b);

/// Stream-mode solve: the RHS columns are split into one chunk per pool
/// thread (columns are independent given A), each chunk running the blocked
/// solver. The result is bitwise that of trsm_left_blocked on the whole RHS
/// at any pool size: chunks start on the diagonal kernels' 4-column passes,
/// and every chunk picks its trailing-update kernel from the full RHS width.
/// This IS a public entry point and accounts trsm flops. Used by the batched
/// layer when a level has few, large problems.
template <typename T>
void trsm_left_parallel(Uplo uplo, Diag diag, NoDeduce<ConstMatrixView<T>> a,
                        MatrixView<T> b);

}  // namespace hodlrx
