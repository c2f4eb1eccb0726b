#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/scalar.hpp"

/// \file batch_kernels.hpp
/// Across-batch SIMD kernels over the lane-major layout (interleave.hpp):
/// the vector lanes of one register hold the SAME element of `w` DIFFERENT
/// problems, so the scalar tails of the batched drivers — the rotation scan
/// inside jacobi_svd_strided_batched and sub-register-tile GEMMs — run as
/// full-width vector arithmetic instead of per-problem scalar loops.
///
/// Each kernel is compiled once per supported width (2, 4, 8, 16 — powers of
/// two up to a 64-byte register of floats) with the width as a template
/// constant, so the per-element lane loops fully unroll and vectorize; the
/// public entry points dispatch on the runtime width from
/// resolved_blocking<T>().batch_simd_width. Per-lane CONTROL decisions (the
/// Jacobi pair-convergence test) stay scalar — they are O(w) per pair — and
/// are folded back into the vector arithmetic as identity rotations, so each
/// lane performs the same operations in the same order as the scalar
/// reference kernel in lapack.cpp.
///
/// Zero-filled dead lanes (partial last group) are benign everywhere: a zero
/// Gram matrix never passes the pair test, and a zero GEMM lane computes
/// zeros that are never scattered back.

namespace hodlrx {

/// Lane-major cyclic one-sided Jacobi sweep over the Gram matrix only:
/// mirrors jacobi_sweep_gram's pair scan over `w` problems at once, but in
/// ACCUMULATED-ROTATION form (the blocked-Jacobi idea): `gm` is the n x n
/// Gram matrix (lane-major), rotated in place as G <- M^H G M per fired
/// pair — on the UPPER triangle only. The scan reads nothing below the
/// diagonal and callers must treat gm's lower triangle as garbage on return
/// (the drivers refresh G from the rotated factor each sweep and never
/// scatter it back); skipping the Hermitian mirror updates cuts a fired
/// pair's traffic from 6n to ~4n lane-vectors. `rm` (n x n lane-major) is
/// overwritten with the per-lane identity
/// and accumulates every fired rotation as a column update — exactly the
/// update the scalar kernel applies to its `v` factor. The caller then
/// applies `w_i <- w_i * R_i` and `v_i <- v_i * R_i` ONCE per sweep as
/// batched GEMMs at engine speed, instead of rotating the tall m-row factor
/// O(n^2) times per sweep inside the scan (where the per-problem scalar loop
/// over a contiguous column already vectorizes, so lane-major staging of w
/// was pure traffic). `rotated[l]` is OR-ed with "any rotation fired in lane
/// l" — callers clear it first; lanes where it stays false hold R = I, so
/// the caller can skip their GEMMs. Pairs where no lane rotates are skipped
/// whole; pairs where some lanes converged use identity coefficients
/// (c = 1, s = 0) on those lanes.
template <typename T>
void jacobi_sweep_batch(index_t n, T* gm, T* rm, real_t<T> tol, index_t w,
                        bool* rotated);

/// Lane-major C = A * B for sub-register-tile shapes (the batched small-GEMM
/// tail): all three operands lane-major, no alpha/beta — the caller fuses
/// the update into the scatter (batch_deinterleave_axpby).
template <typename T>
void small_gemm_batch(index_t m, index_t n, index_t k, const T* a,
                      const T* b, T* c, index_t w);

/// In-place narrow right product A <- A * R (A is m x n, R is n x n,
/// problem-major): the accumulated-rotation apply of the batched Jacobi
/// driver. Row chunks of A are staged through a small buffer, so the product
/// overwrites A directly — the packed GEMM engine would need a separate C
/// plus a copy-back pass (gemm cannot alias A and C), doubling the tall
/// factor's traffic, and its packing does not amortize at k = n narrow
/// shapes anyway. The staged chunk keeps the k-accumulation in registers and
/// reads R straight from L1.
template <typename T>
void gemm_right_inplace(index_t m, index_t n, T* a, index_t lda, const T* r,
                        index_t ldr);

/// Counters of the across-batch SIMD dispatch (relaxed atomics,
/// process-wide). Tests assert the vectorized paths actually ran when the
/// resolved width is > 1, and that HODLRX_BATCH_SIMD=1 keeps every one of
/// them at zero (the bit-for-bit scalar fallback).
namespace batch_simd_stats {
/// Lane-group tasks executed by the across-batch Jacobi sweep path.
std::uint64_t jacobi_sweep_groups();
/// Lane-group tasks executed by the across-batch small-GEMM path.
std::uint64_t gemm_groups();
void reset();
namespace detail {  // increment hooks for the batched drivers
void add_jacobi_groups(std::uint64_t n);
void add_gemm_groups(std::uint64_t n);
}  // namespace detail
}  // namespace batch_simd_stats

}  // namespace hodlrx
