#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/blas.hpp"
#include "common/matrix.hpp"
#include "common/scalar.hpp"

/// \file lapack.hpp
/// LAPACK-like dense factorizations on column-major views: partially pivoted
/// LU (blocked), triangular solves, Householder QR, column-pivoted QR, and a
/// one-sided Jacobi SVD for small matrices. These are the primitives behind
/// both the serial solvers and the batched device engine. The seed's
/// unblocked QR and Jacobi SVD, which tests check the blocked drivers
/// against, live in tests/reference/lapack_reference.hpp.

namespace hodlrx {

enum class Uplo : char { Lower = 'L', Upper = 'U' };
enum class Diag : char { Unit = 'U', NonUnit = 'N' };

/// In-place LU with partial pivoting: A = P * L * U. `ipiv[k]` is the row
/// swapped with row k at step k (LAPACK convention, 0-based). Throws
/// hodlrx::Error on an exactly zero pivot.
template <typename T>
void getrf(MatrixView<T> a, index_t* ipiv);

/// getrf with intra-problem parallelism: the right-looking blocked driver
/// runs its trailing GEMM update through gemm_parallel. This is the batched
/// engine's "stream mode" LU for few, large problems (Sec. III-C).
template <typename T>
void getrf_parallel(MatrixView<T> a, index_t* ipiv);

/// Apply the row interchanges recorded in `ipiv[0..npiv)` to B
/// (forward=true: same order as factorization; false: inverse order).
template <typename T>
void laswp(MatrixView<T> b, const index_t* ipiv, index_t npiv, bool forward);

/// Solve A X = B in place given getrf output (B overwritten with X): the
/// row interchanges are applied ONCE, then the L and U solves run through
/// the blocked TRSM engine (trsm_kernel.hpp).
template <typename T>
void getrs(NoDeduce<ConstMatrixView<T>> lu, const index_t* ipiv,
           MatrixView<T> b);

/// getrs with intra-problem parallelism: pivots applied once, then the
/// blocked L/U solves run with the RHS columns split across the persistent
/// pool. The batched engine's "stream mode" solve for few, large problems.
template <typename T>
void getrs_parallel(NoDeduce<ConstMatrixView<T>> lu, const index_t* ipiv,
                    MatrixView<T> b);

/// Triangular solve (left side, no transpose): B <- op(A)^{-1} B through the
/// register-tiled kernel, blocked with packed GEMM updates above the
/// diagonal-block size (see trsm_kernel.hpp).
template <typename T>
void trsm_left(Uplo uplo, Diag diag, NoDeduce<ConstMatrixView<T>> a,
               MatrixView<T> b);

/// Householder QR factorization in compact form (reflectors below R, taus).
template <typename T>
struct QRFactors {
  Matrix<T> factors;    ///< m x n; R in the upper triangle, reflectors below
  std::vector<T> tau;   ///< min(m, n) Householder scalars
};

/// The panel width of the blocked Householder drivers (geqrf_inplace and
/// thin_q_inplace) comes from the shared blocking resolver:
/// resolved_blocking<T>().qr_nb (blocking.hpp), i.e. HODLRX_QR_NB override >
/// probed cache model > the static 16.

/// Blocked Householder QR, in place: R in the upper triangle, reflectors
/// below the diagonal, `tau[0..min(m,n))` scalars. Panels of
/// resolved_blocking<T>().qr_nb columns are factored unblocked, then the
/// trailing matrix is updated with the compact-WY block reflector — three
/// GEMMs that run through the packed engine instead of per-reflector
/// strided loops.
template <typename T>
void geqrf_inplace(MatrixView<T> a, T* tau);

/// geqrf_inplace with intra-problem parallelism: the flop-carrying trailing
/// multiply of every block reflector runs through gemm_parallel (mirrors
/// getrf_parallel). rsvd orthonormalizes its sketches with it.
template <typename T>
void geqrf_inplace_parallel(MatrixView<T> a, T* tau);

/// Overwrite `a` (m x k, k <= m, holding geqrf reflectors in ALL of its
/// columns) with the explicit thin Q, blocked: block reflectors are applied
/// back-to-front through the packed GEMM engine (LAPACK orgqr).
template <typename T>
void thin_q_inplace(MatrixView<T> a, const T* tau);

/// thin_q_inplace with the trailing multiplies through gemm_parallel.
template <typename T>
void thin_q_inplace_parallel(MatrixView<T> a, const T* tau);

template <typename T>
QRFactors<T> geqrf(ConstMatrixView<T> a);
template <typename T>
QRFactors<T> geqrf(MatrixView<T> a) {
  return geqrf(ConstMatrixView<T>(a));
}
template <typename T>
QRFactors<T> geqrf(const Matrix<T>& a) {
  return geqrf(a.view());
}

/// Explicit thin Q (m x min(m,n)) from geqrf output.
template <typename T>
Matrix<T> thin_q(const QRFactors<T>& qr);

/// Explicit R factor (min(m,n) x n upper triangular) from geqrf output.
template <typename T>
Matrix<T> r_factor(const QRFactors<T>& qr);

/// In-place Cholesky factorization A = R^H R of a Hermitian matrix (only
/// the upper triangle of `a` is read): R lands in the upper triangle and the
/// strictly lower triangle is zeroed. Column j breaks down when its pivot —
/// a_jj minus the squared norm of R's column above the diagonal — is not
/// above `rtol * a_jj`: non-positive, NaN, or so small that the column is
/// numerically dependent on the earlier ones. The factorization stops at
/// the first such column and returns its index (the columns before it hold
/// a valid partial R); -1 means success.
template <typename T>
index_t potrf_upper(MatrixView<T> a, NoDeduce<real_t<T>> rtol);

/// Column-pivoted QR, truncated at `tol` (relative to the largest initial
/// column norm) or at `max_rank` columns, whichever comes first.
template <typename T>
struct CPQRFactors {
  Matrix<T> factors;          ///< as geqrf, but only `rank` reflectors valid
  std::vector<T> tau;
  std::vector<index_t> jpvt;  ///< column permutation: A(:, jpvt) = Q R
  index_t rank = 0;
};

template <typename T>
CPQRFactors<T> geqp3(ConstMatrixView<T> a, NoDeduce<real_t<T>> tol,
                     index_t max_rank);
template <typename T>
CPQRFactors<T> geqp3(MatrixView<T> a, NoDeduce<real_t<T>> tol,
                     index_t max_rank) {
  return geqp3(ConstMatrixView<T>(a), tol, max_rank);
}
template <typename T>
CPQRFactors<T> geqp3(const Matrix<T>& a, NoDeduce<real_t<T>> tol,
                     index_t max_rank) {
  return geqp3(a.view(), tol, max_rank);
}

/// Thin SVD A = U diag(s) V^H via one-sided Jacobi. Intended for small
/// matrices (recompression cores, validation); singular values descending.
template <typename T>
struct SVDResult {
  Matrix<T> u;               ///< m x min(m,n)
  std::vector<real_t<T>> s;  ///< min(m,n), descending
  Matrix<T> v;               ///< n x min(m,n)
  int sweeps = 0;            ///< cyclic Jacobi sweeps executed
  bool converged = true;     ///< false: sweep budget exhausted (see svd_stats)
};

/// Counters of the Jacobi SVD machinery (relaxed atomics, process-wide).
/// Tests use them to assert (a) that the batched recompression of a uniform
/// level performs ZERO per-block SVD pool tasks and (b) that non-convergence
/// never passes silently — the pre-PR-4 jacobi_svd returned garbage without
/// a trace when it exhausted its sweep budget.
namespace svd_stats {
/// Serial single-problem jacobi_svd calls (the per-block path the batched
/// recompression must NOT take).
std::uint64_t serial_svds();
/// Problems (serial or batched) that exhausted the sweep budget.
std::uint64_t nonconverged();
/// jacobi_svd_strided_batched calls (each runs the sweep-synchronized path).
std::uint64_t batched_sweeps();
/// Cross-batch rotation launches (one pool dispatch rotating every
/// not-yet-converged problem once, fed by one strided Gram GEMM launch).
std::uint64_t sweep_launches();
void reset();
namespace detail {  // increment hooks for the drivers (lapack + batched)
void add_serial();
void add_nonconverged(std::uint64_t n);
void add_batched_sweep();
void add_sweep_launch();
}  // namespace detail
}  // namespace svd_stats

/// Pivot-growth tracking for the LU drivers (relaxed atomics, process-wide;
/// the FactorReport's max_pivot_growth column). Tracking is OFF by default —
/// the growth scan adds a full pass over every factored block — and is
/// enabled ref-counted while a factorization collects a report.
namespace lu_stats {
/// Largest max|LU| / max|A| entry-growth ratio recorded since reset().
double max_pivot_growth();
void reset();
/// RAII ref-counted enable; pass false for a no-op guard.
class ScopedTracking {
 public:
  explicit ScopedTracking(bool enable);
  ~ScopedTracking();
  ScopedTracking(const ScopedTracking&) = delete;
  ScopedTracking& operator=(const ScopedTracking&) = delete;

 private:
  bool enabled_;
};
namespace detail {  // hooks for the getrf drivers
bool tracking();
void record_growth(double ratio);
}  // namespace detail
}  // namespace lu_stats

/// Sweep budget of every one-sided Jacobi driver. Read from
/// HODLRX_SVD_SWEEPS through the shared env parser on EVERY call (not
/// cached), so tests and long-running jobs can retune it; default 42.
int svd_max_sweeps();

/// Convergence report of an in-place one-sided Jacobi run.
struct SvdInfo {
  int sweeps = 0;
  bool converged = true;
};

/// The per-pair parameter step of one one-sided Jacobi rotation, shared by
/// jacobi_sweep_gram and the across-batch sweep (jacobi_sweep_batch) so
/// both compute EXACTLY the same (c, s) from the same Gram entries — the
/// formulas cannot drift apart. `alpha`/`beta` are the (already
/// non-negative-clamped) diagonal Gram entries, `gamma` the off-diagonal
/// one and `gmax` the LARGEST Gram diagonal of the problem (sampled at
/// sweep start — the scale reference of the deflation test below);
/// `rotate == false` means the pair passed the convergence or deflation
/// test and (c, s) = (1, 0) is the identity rotation. Divisions and the
/// phase product are by REAL scalars only: this inline helper is also
/// instantiated in the batch-kernel TU, which is compiled with
/// -fcx-limited-range, and the linker keeps ONE copy, so a complex/complex
/// division here would silently take the limited-range form whenever that
/// TU's instantiation wins.
template <typename T>
struct JacobiRotation {
  real_t<T> c{1};
  T s{};
  bool rotate = false;
};
template <typename T>
JacobiRotation<T> jacobi_rotation_params(real_t<T> alpha, real_t<T> beta,
                                         T gamma, real_t<T> tol,
                                         real_t<T> gmax) {
  using R = real_t<T>;
  JacobiRotation<T> r;
  const R gabs = abs_s(gamma);
  if (gabs <= tol * std::sqrt(alpha * beta) || gabs == R{0}) return r;
  // Deflation (the gesvj idea): a column whose Gram diagonal sits below
  // (64 eps)^2 * gmax — column norm below 64 eps times the largest column —
  // is numerically ZERO: its entries are rounding noise left behind by
  // earlier rotations (a rotation against a big column deposits
  // O(eps * ||big||) into the small one), and its correlations are pure
  // roundoff. Rotating such a pair only swaps fresh noise around, and
  // because the RELATIVE convergence test above cannot tell noise from
  // signal, noise pairs can re-correlate every sweep and stagnate the
  // driver — observed both as a permanent cycle (float, an exhausted
  // duplicate column re-correlating with its dense neighbor) and as ~30
  // extra sweeps of linear-rate decorrelation among a clique of dead
  // columns (complex<double>, rank-deficient 32x32). The reference scale
  // must be the problem's LARGEST diagonal, not the pair's: dead-column
  // pairs have similar tiny norms, so a pairwise ratio test never fires.
  // Skipping them is exact to working accuracy — each contributes a
  // singular value below 64 eps * ||A||, beneath the SVD's own backward
  // error.
  constexpr R kDeflateEps = R{64} * eps_v<R>;
  if (std::min(alpha, beta) <= kDeflateEps * kDeflateEps * gmax) return r;
  // Phase so that the rotated off-diagonal is real, then a real Jacobi
  // rotation (c, t). gamma / gabs is a division by a REAL scalar
  // (component-wise for complex T), identical in value to the full complex
  // division by T{gabs} but immune to -fcx-limited-range.
  const T phase = gamma / gabs;
  const R zeta = (beta - alpha) / (R{2} * gabs);
  const R t = (zeta >= R{0} ? R{1} : R{-1}) /
              (std::abs(zeta) + std::sqrt(R{1} + zeta * zeta));
  r.c = R{1} / std::sqrt(R{1} + t * t);
  r.s = phase * (r.c * t);
  r.rotate = true;
  return r;
}

/// One cyclic sweep of one-sided Jacobi rotations over all column pairs of
/// the TALL factor `w` (m x n, m >= n), accumulating the right rotations
/// into `v` (n x n) and reading the rotation angles from the Gram matrix
/// `g = w^H w` (n x n, computed by the caller at sweep start — ONE GEMM at
/// engine speed instead of O(n^2) latency-bound length-m dot products).
/// Every rotation is applied to w, v AND g, so g tracks w exactly within
/// the sweep; callers refresh it per sweep so roundoff cannot accumulate
/// across sweeps. Returns true when any rotation fired. This is the shared
/// kernel of the blocked serial driver and of the batched engine's
/// per-sweep pool launch.
template <typename T>
bool jacobi_sweep_gram(MatrixView<T> w, MatrixView<T> v, MatrixView<T> g,
                       NoDeduce<real_t<T>> tol);

/// Sort the rotated factor by descending column norm and normalize: on
/// entry `w` (m x n) holds U * diag(s) column-scrambled and `v` the
/// accumulated rotations; on return `w` holds U (zero columns where s = 0),
/// `v` is permuted to match and `s[0..n)` is descending. Shared epilogue of
/// the serial and batched drivers.
template <typename T>
void jacobi_finalize(MatrixView<T> w, MatrixView<T> v, real_t<T>* s);

/// Blocked serial one-sided Jacobi, in place: `w` (m x n, m >= n — callers
/// pass A^H for wide blocks) is overwritten with U, `v` (n x n) with V and
/// `s` with the descending singular values, so A = U diag(s) V^H. "Blocked"
/// = each sweep's pair dot products come from one Gram GEMM
/// (jacobi_sweep_gram) instead of scalar loops. Non-convergence within
/// svd_max_sweeps() is counted in svd_stats, reported in the result, and
/// HODLRX_REQUIREd in debug builds.
template <typename T>
SvdInfo jacobi_svd_inplace(MatrixView<T> w, MatrixView<T> v, real_t<T>* s);

template <typename T>
SVDResult<T> jacobi_svd(ConstMatrixView<T> a);
template <typename T>
SVDResult<T> jacobi_svd(MatrixView<T> a) {
  return jacobi_svd(ConstMatrixView<T>(a));
}
template <typename T>
SVDResult<T> jacobi_svd(const Matrix<T>& a) {
  return jacobi_svd(a.view());
}

/// Dense solve helper: X = A^{-1} B (A copied, LU-factorized internally).
template <typename T>
Matrix<T> dense_solve(ConstMatrixView<T> a, NoDeduce<ConstMatrixView<T>> b);
template <typename T>
Matrix<T> dense_solve(const Matrix<T>& a, NoDeduce<ConstMatrixView<T>> b) {
  return dense_solve(a.view(), b);
}

}  // namespace hodlrx
