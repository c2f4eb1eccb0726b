#pragma once

#include <span>
#include <vector>

#include "common/blas.hpp"
#include "common/lapack.hpp"

/// \file batched_blas.hpp
/// Batched dense linear algebra — the project's stand-in for the cuBLAS
/// routines the paper builds on (`gemmBatched`, `gemmStridedBatched`,
/// `getrfBatched`, `getrsBatched`).
///
/// Semantics mirror cuBLAS: every call is ONE device "kernel launch"
/// (recorded on the DeviceContext) that processes `batch` independent
/// problems. Execution is an OpenMP thread pool:
///   - large batches -> one thread per problem ("batched kernel");
///   - small batches of large problems -> problems run with intra-problem
///     parallelism ("stream mode", the paper's CUDA-streams optimization for
///     the top tree levels).
/// The pointer-array interface generalizes cuBLAS slightly by allowing
/// per-problem shapes; the strided interface requires uniform shapes, like
/// the real `gemmStridedBatched`.

namespace hodlrx {

/// How a batched call maps onto the thread pool.
enum class BatchPolicy {
  kAuto,          ///< decide on total work (batch x per-problem flops): few
                  ///< LARGE problems stream, everything else runs batched
  kForceBatched,  ///< always one-thread-per-problem
  kForceStream,   ///< always sequential problems with intra-problem threads
};

/// C_i = alpha * op(A_i) * op(B_i) + beta * C_i for each problem i.
template <typename T>
void gemm_batched(Op opa, Op opb, T alpha,
                  std::span<const ConstMatrixView<T>> a,
                  std::span<const ConstMatrixView<T>> b, T beta,
                  std::span<const MatrixView<T>> c,
                  BatchPolicy policy = BatchPolicy::kAuto);

/// Uniform-shape strided batch: problem i uses a + i*stride_a etc.
/// This is the fast path enabled by the paper's constant-rank padding.
/// A zero stride marks an operand shared by the whole batch (as in cuBLAS).
template <typename T>
void gemm_strided_batched(Op opa, Op opb, index_t m, index_t n, index_t k,
                          T alpha, const T* a, index_t lda, index_t stride_a,
                          const T* b, index_t ldb, index_t stride_b, T beta,
                          T* c, index_t ldc, index_t stride_c, index_t batch,
                          BatchPolicy policy = BatchPolicy::kAuto);

/// In-place batched LU with partial pivoting; `ipiv[i]` must point at
/// storage for a.size() pivots of problem i (length = a_i.rows).
template <typename T>
void getrf_batched(std::span<const MatrixView<T>> a,
                   std::span<index_t* const> ipiv,
                   BatchPolicy policy = BatchPolicy::kAuto);

/// Batched triangular solve B_i <- A_i^{-1} B_i (left side, no transpose),
/// all problems sharing uplo/diag — the stand-in for cuBLAS `trsmBatched`.
/// Batched mode runs one blocked solve per pool slot (per-thread workspaces
/// reused across problems); stream mode runs the problems sequentially with
/// the RHS columns of each split across the pool.
template <typename T>
void trsm_batched(Uplo uplo, Diag diag, std::span<const ConstMatrixView<T>> a,
                  std::span<const MatrixView<T>> b,
                  BatchPolicy policy = BatchPolicy::kAuto);

/// Batched LU solve from getrf output: B_i <- A_i^{-1} B_i. Pivots are
/// applied once per problem, then the L/U solves run through the blocked
/// TRSM engine (stream mode: getrs_parallel with intra-problem parallelism).
template <typename T>
void getrs_batched(std::span<const ConstMatrixView<T>> lu,
                   std::span<const index_t* const> ipiv,
                   std::span<const MatrixView<T>> b,
                   BatchPolicy policy = BatchPolicy::kAuto);

/// QR counters (relaxed atomics, process-wide).
namespace qr_stats {
/// Low-rank blocks whose Gram/Cholesky recompression broke down (a factor
/// with numerically dependent columns) and fell back to Householder QR
/// (lowrank/recompress.hpp).
std::uint64_t cholesky_fallbacks();
void reset();
namespace detail {  // increment hook for the recompression drivers
void add_cholesky_fallbacks(std::uint64_t n);
}  // namespace detail
/// Constant 0: the batched QR engine these counted is gone. Only
/// pipebench/pipeline.cpp reads them; the next change to the benchmark
/// drops those reads, and these with them.
inline std::uint64_t geqrf_batched_sweeps() { return 0; }
inline std::uint64_t thin_q_batched_sweeps() { return 0; }
inline std::uint64_t panel_launches() { return 0; }
}  // namespace qr_stats

/// Result of one batched Jacobi run: sweeps executed (shared across the
/// batch — the drivers are sweep-synchronized) and the number of problems
/// that exhausted the sweep budget (also counted in svd_stats). The driver
/// never throws on them: the caller's breakdown policy decides
/// (recompress_batched throws under OnBreakdown::kThrow and keeps the
/// unconverged factors under kReport).
struct SvdBatchInfo {
  int sweeps = 0;
  index_t nonconverged = 0;  ///< problems still unconverged on return
  index_t recovered = 0;     ///< problems healed by the recovery re-run
};

/// Batched one-sided Jacobi SVD of `batch` uniform TALL problems — the
/// stand-in for cuSOLVER's gesvdjBatched. Problem i occupies
/// a + i*stride_a (m x n, m >= n, lda >= m; callers pass A^H for wide
/// blocks) and is overwritten with its left singular vectors U_i (m x n,
/// orthonormal columns where s > 0, descending); the singular values land
/// at s + i*stride_s (stride_s >= n) and the right singular vectors V_i
/// (n x n) at v + i*stride_v (ldv >= n), so A_i = U_i diag(s_i) V_i^H.
///
/// The driver is SWEEP-synchronized: each cyclic Jacobi sweep is (a) ONE
/// batched GEMM launch refreshing the Gram matrices G_i = W_i^H W_i of the
/// still-active problems in a per-launch strided workspace and (b) ONE pool
/// launch applying the cyclic column-pair rotations of those problems
/// (jacobi_sweep_gram). Converged
/// problems are compacted out of the active set, and the loop exits early
/// once the whole batch has converged. A final pool launch sorts and
/// normalizes every problem. Every batch takes this path, whatever its size,
/// so the bits never depend on the pool size.
///
/// With `recover = true` (the recovery ladder; recompress_batched under
/// OnBreakdown::kRecover passes it) problems that exhaust the synchronized
/// sweep budget are compacted out and re-run one by one through the
/// reference serial sweep loop with a 4x budget BEFORE the finalize pass;
/// healed problems are counted in SvdBatchInfo::recovered (and
/// fault_stats::recovered). Only problems still unconverged after the
/// re-run count as nonconverged.
template <typename T>
SvdBatchInfo jacobi_svd_strided_batched(T* a, index_t lda, index_t stride_a,
                                        index_t m, index_t n, real_t<T>* s,
                                        index_t stride_s, T* v, index_t ldv,
                                        index_t stride_v, index_t batch,
                                        bool recover = false);

}  // namespace hodlrx
