#include "lowrank/aca.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <complex>
#include <limits>
#include <new>
#include <random>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"

namespace hodlrx {

namespace {

/// One thread's ACA cross panel, kept across aca() calls and grown and
/// shrunk with realloc, which remaps a large block in place. A build thus
/// neither page-faults a fresh panel per block nor frees a large block:
/// freeing them raised glibc's dynamic mmap threshold early in the build,
/// after which the staged factors came from arenas that keep their pages,
/// and peak RSS rose by about 65 MB on the benchmark workloads.
template <typename T>
class CrossPanel {
 public:
  CrossPanel() = default;
  CrossPanel(const CrossPanel&) = delete;
  CrossPanel& operator=(const CrossPanel&) = delete;
  ~CrossPanel() { std::free(data_); }  // NOLINT(cppcoreguidelines-no-malloc)

  /// Room for `count` elements; the contents up to the old capacity stay.
  T* reserve(index_t count) {
    const auto want = static_cast<std::size_t>(count);
    if (want > capacity_) resize(want);
    return data_;
  }
  /// Return the pages to the system, keeping a one-element block.
  void release() {
    if (capacity_ > 1) resize(1);
  }

 private:
  void resize(std::size_t count) {
    // NOLINTNEXTLINE(cppcoreguidelines-no-malloc): in-place remapping
    void* p = std::realloc(data_, count * sizeof(T));
    if (p == nullptr) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
    capacity_ = count;
  }

  T* data_ = nullptr;
  std::size_t capacity_ = 0;
};

/// The calling thread's U (side 0) and V (side 1) panels.
template <typename T>
CrossPanel<T>& thread_panel(int side) {
  thread_local CrossPanel<T> panels[2];
  return panels[side];
}

/// argmax_unused's result when an unused entry is NaN or Inf.
constexpr index_t kNonFinite = -2;

/// argmax |x[i]| over i in [0, n) with used[i] == 0, the lowest such index
/// among ties; -1 when every entry is used or zero, kNonFinite when an
/// unused entry is NaN or Inf. Non-negative IEEE values order like their
/// bit patterns read as signed integers, and every NaN or Inf pattern lies
/// at or above +Inf's, so one integer max-reduction (vectorizable without
/// reassociating floating point) yields both the maximum and the finiteness
/// verdict. A second pass takes the first 64-entry block whose maximum
/// attains it and scans that block for the index.
template <typename T>
index_t argmax_unused(const T* x, const char* used, index_t n) {
  using R = real_t<T>;
  using Bits = std::conditional_t<sizeof(R) == 8, std::int64_t, std::int32_t>;
  // |x| with the sign bit cleared even on a NaN; 0 on used entries.
  auto key = [&](index_t i) {
    return used[i] ? Bits{0} : std::bit_cast<Bits>(std::abs(abs_s(x[i])));
  };
  auto max_key = [&](index_t b, index_t e) {
    Bits top = 0;
    for (index_t i = b; i < e; ++i) top = std::max(top, key(i));
    return top;
  };
  const Bits top = max_key(0, n);
  if (top >= std::bit_cast<Bits>(std::numeric_limits<R>::infinity()))
    return kNonFinite;
  if (top == 0) return -1;
  constexpr index_t kBlock = 64;
  for (index_t b = 0; b < n; b += kBlock) {
    const index_t e = std::min(n, b + kBlock);
    if (max_key(b, e) != top) continue;
    for (index_t i = b; i < e; ++i)
      if (key(i) == top) return i;
  }
  return -1;  // not reached: some unused entry attains top
}

/// sum_t |x_t|^2 as one SIMD reduction (a complex x is summed as its 2n
/// real and imaginary parts; an array of std::complex<R> may be read as an
/// array of R).
template <typename T>
real_t<T> simd_norm2(const T* x, index_t n) {
  using R = real_t<T>;
  const index_t len = is_complex_v<T> ? 2 * n : n;
  const R* __restrict__ p = reinterpret_cast<const R*>(x);
  R s = 0;
#pragma omp simd reduction(+ : s)
  for (index_t t = 0; t < len; ++t) s += p[t] * p[t];
  return s;
}

/// sum_t conj(a_t) b_t as SIMD reductions, with split real and imaginary
/// accumulators for complex T.
template <typename T>
T simd_dotc(const T* a, const T* b, index_t n) {
  if constexpr (is_complex_v<T>) {
    using R = real_t<T>;
    const R* __restrict__ pa = reinterpret_cast<const R*>(a);
    const R* __restrict__ pb = reinterpret_cast<const R*>(b);
    R re = 0, im = 0;
#pragma omp simd reduction(+ : re, im)
    for (index_t t = 0; t < n; ++t) {
      re += pa[2 * t] * pb[2 * t] + pa[2 * t + 1] * pb[2 * t + 1];
      im += pa[2 * t] * pb[2 * t + 1] - pa[2 * t + 1] * pb[2 * t];
    }
    return T(re, im);
  } else {
    T s = 0;
#pragma omp simd reduction(+ : s)
    for (index_t t = 0; t < n; ++t) s += a[t] * b[t];
    return s;
  }
}

}  // namespace

template <typename T>
AcaResult<T> aca(const MatrixGenerator<T>& g, index_t row0, index_t col0,
                 index_t m, index_t n, const AcaOptions& opt) {
  using R = real_t<T>;
  AcaResult<T> out;
  const index_t rmax =
      std::min({m, n, opt.max_rank < 0 ? std::min(m, n) : opt.max_rank});
  if (m == 0 || n == 0 || rmax == 0) {
    out.factor.u = Matrix<T>(m, 0);
    out.factor.v = Matrix<T>(n, 0);
    return out;
  }

  // The crosses live in two column-major panels, U (m x cap) and
  // V (n x cap), A ~= U V^H; cap doubles on demand. Cross k's residual
  // column is computed straight into U's column k.
  CrossPanel<T>& u_panel = thread_panel<T>(0);
  CrossPanel<T>& v_panel = thread_panel<T>(1);
  index_t cap = std::min(kAcaInitialCrosses, rmax);
  T* us = u_panel.reserve(m * cap);
  T* vs = v_panel.reserve(n * cap);
  index_t rank = 0;
  std::vector<char> row_used(m, 0), col_used(n, 0);
  std::vector<T> row(n);
  std::mt19937_64 rng(opt.seed);

  R frob2 = 0;  // running ||A_k||_F^2 estimate
  index_t next_row = 0;
  bool converged = false;
  const bool inject_stall = fault::should_fire(fault::Site::kAcaStall);

  // A NaN or Inf in a scanned residual ends the search as a stall: the
  // restart and convergence paths below would read it as a zero residual.
  bool nonfinite = false;
  auto pivot = [&](const T* x, const std::vector<char>& used, index_t len) {
    const index_t p = argmax_unused(x, used.data(), len);
    if (p == kNonFinite) nonfinite = true;
    return p < 0 ? index_t{-1} : p;
  };

  // Iteration guard: each pass either adds a cross or burns an unused row
  // (the zero-delta `continue` / restart paths), so a block riddled with
  // (near-)zero generator rows cannot cycle past O(min(m, n)) passes. When
  // the guard trips, the achieved-rank factor is returned with `stalled`
  // set instead of looping or throwing.
  const index_t max_passes = 2 * std::min(m, n) + 16;
  index_t passes = 0;

  while (rank < rmax) {
    if (++passes > max_passes ||
        (inject_stall && rank >= std::min<index_t>(2, rmax - 1))) {
      out.stalled = true;
      break;
    }
    if (rank == cap) {
      cap = std::min(2 * cap, rmax);
      us = u_panel.reserve(m * cap);
      vs = v_panel.reserve(n * cap);
    }
    T* const col = us + rank * m;
    // --- residual row at next_row -----------------------------------------
    index_t i = next_row;
    if (i < 0 || i >= m || row_used[i]) {
      i = -1;
      for (index_t t = 0; t < m; ++t)
        if (!row_used[t]) {
          i = t;
          break;
        }
      if (i < 0) {  // all rows consumed: the cross interpolates every row
        converged = true;
        break;
      }
    }
    auto residual_row = [&](index_t ri) {
      g.fill_row(row0 + ri, col0, col0 + n, row.data());
      for (index_t k = 0; k < rank; ++k) {
        const T uik = us[ri + k * m];
        if (uik == T{}) continue;
        const T* __restrict__ vk = vs + k * n;
        for (index_t j = 0; j < n; ++j) row[j] -= uik * conj_s(vk[j]);
      }
    };
    auto residual_col = [&](index_t cj) {
      g.fill_col(col0 + cj, row0, row0 + m, col);
      for (index_t k = 0; k < rank; ++k) {
        const T vjk = conj_s(vs[cj + k * n]);
        if (vjk == T{}) continue;
        const T* __restrict__ uk = us + k * m;
        for (index_t ii = 0; ii < m; ++ii) col[ii] -= uk[ii] * vjk;
      }
    };

    residual_row(i);
    index_t j = pivot(row.data(), col_used, n);
    // Restart on a (near-)zero row: try a few random rows before giving up.
    int restarts = 0;
    while (j < 0 && !nonfinite && restarts < 4) {
      row_used[i] = 1;
      index_t cand = static_cast<index_t>(rng() % m);
      for (index_t t = 0; t < m && row_used[cand]; ++t)
        cand = (cand + 1) % m;
      if (row_used[cand]) break;
      i = cand;
      residual_row(i);
      j = pivot(row.data(), col_used, n);
      ++restarts;
    }
    if (nonfinite) break;
    if (j < 0) {
      converged = true;  // residual looks numerically zero
      break;
    }

    // --- rook refinement: alternate row/column argmax ---------------------
    for (int rook = 0; rook < opt.rook_iterations; ++rook) {
      residual_col(j);
      const index_t i2 = pivot(col, row_used, m);
      if (i2 < 0 || i2 == i) break;
      i = i2;
      residual_row(i);
      const index_t j2 = pivot(row.data(), col_used, n);
      if (j2 < 0 || j2 == j) break;
      j = j2;
    }
    if (nonfinite) break;
    residual_col(j);

    const T delta = col[i];
    if (abs_s(delta) == R{0}) {
      row_used[i] = 1;
      continue;
    }

    // New cross: u = residual column (already in place), v^H = residual
    // row / delta.
    const T* u = col;
    T* v = vs + rank * n;
    const T inv_delta = T{1} / delta;
    for (index_t t = 0; t < n; ++t) v[t] = conj_s(row[t] * inv_delta);

    // Norm bookkeeping for the stopping criterion:
    // ||A_k||^2 = ||A_{k-1}||^2 + ||u||^2||v||^2
    //             + 2 Re sum_l (u_l^H u)(v^H v_l).
    const R unorm2 = simd_norm2(u, m);
    const R vnorm2 = simd_norm2(v, n);
    R cross = 0;
    for (index_t k = 0; k < rank; ++k) {
      const T uu = simd_dotc(us + k * m, u, m);
      const T vv = simd_dotc(v, vs + k * n, n);
      cross += R{2} * ScalarTraits<T>::real(uu * vv);
    }
    frob2 += unorm2 * vnorm2 + cross;
    frob2 = std::max(frob2, R{0});

    ++rank;
    row_used[i] = 1;
    col_used[j] = 1;

    const R step = std::sqrt(unorm2 * vnorm2);
    if (step <= static_cast<R>(opt.tol) * std::sqrt(frob2)) {
      converged = true;
      break;
    }

    // Next pivot row: largest |u| entry among unused rows.
    next_row = pivot(u, row_used, m);
    if (nonfinite) break;
  }
  if (nonfinite) out.stalled = true;

  out.factor.u = Matrix<T>(m, rank);
  out.factor.v = Matrix<T>(n, rank);
  std::copy_n(us, m * rank, out.factor.u.data());
  std::copy_n(vs, n * rank, out.factor.v.data());
  // Hitting the cap is still "converged" when the cap equals full rank.
  out.converged = !out.stalled && (converged || rmax == std::min(m, n));
  return out;
}

void aca_release_panels() {
  for (int side : {0, 1}) {
    thread_panel<float>(side).release();
    thread_panel<double>(side).release();
    thread_panel<std::complex<float>>(side).release();
    thread_panel<std::complex<double>>(side).release();
  }
}

#define HODLRX_INSTANTIATE_ACA(T)                                      \
  template AcaResult<T> aca<T>(const MatrixGenerator<T>&, index_t,     \
                               index_t, index_t, index_t,              \
                               const AcaOptions&);

HODLRX_INSTANTIATE_ACA(float)
HODLRX_INSTANTIATE_ACA(double)
HODLRX_INSTANTIATE_ACA(std::complex<float>)
HODLRX_INSTANTIATE_ACA(std::complex<double>)

#undef HODLRX_INSTANTIATE_ACA

}  // namespace hodlrx
