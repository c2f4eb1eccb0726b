#include "common/gemm_kernel.hpp"

#include <atomic>
#include <complex>
#include <mutex>

#include "common/blocking.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/workspace.hpp"

namespace hodlrx {

namespace gemm_stats {

namespace {
std::atomic<std::uint64_t> g_a_packs{0}, g_b_packs{0}, g_pool_packs{0};
}  // namespace

std::uint64_t a_packs() { return g_a_packs.load(std::memory_order_relaxed); }
std::uint64_t b_packs() { return g_b_packs.load(std::memory_order_relaxed); }
std::uint64_t pool_packs() {
  return g_pool_packs.load(std::memory_order_relaxed);
}
void reset() {
  g_a_packs.store(0, std::memory_order_relaxed);
  g_b_packs.store(0, std::memory_order_relaxed);
  g_pool_packs.store(0, std::memory_order_relaxed);
}

}  // namespace gemm_stats

bool use_packed_gemm(Op opa, Op opb, index_t m, index_t n, index_t k) {
  (void)opa;
  if (m <= 0 || n <= 0 || k <= 0) return false;
  // A matrix-vector product reads each element of A once, so copying A into
  // a pack first can only add traffic: it always runs the GEMV kernel.
  if (opb == Op::N && n == 1) return false;
  const index_t work = m * n * k;
  // With opb == N, gemm() runs small products as one GEMV per column of C,
  // which wins while packing is not amortized; every other combination
  // falls into the element-accessor generic loop, so the packed engine
  // takes over almost immediately.
  const bool has_fast_fallback = (opb == Op::N);
  return work >= (has_fast_fallback ? index_t{16384} : index_t{4096});
}

namespace {

inline index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }

/// `v` rounded up to whole register-tile panels. The packers zero-pad the
/// last MR-row (NR-column) panel to full width, so every pack buffer must
/// be sized to the PADDED extent: resolved MC/NC need not be tile multiples
/// once an environment override is in play.
inline index_t padded(index_t v, index_t tile) {
  return ceil_div(v, tile) * tile;
}

/// Pack the cache block op(A)(i0:i0+mc, p0:p0+kc) into MR-row panels:
/// dst[(ip*kc + l)*MR + i] = op(A)(i0 + ip*MR + i, p0 + l), zero-padded to a
/// full MR in the last panel. Transposition/conjugation is absorbed here, so
/// the micro-kernel always streams dst with unit stride. MR is a template
/// parameter: one instantiation per register-tile variant, selected through
/// the GemmKernels dispatch table below.
template <typename T, index_t MR>
void pack_a_block(Op opa, ConstMatrixView<T> a, index_t i0, index_t p0,
                  index_t mc, index_t kc, T* __restrict__ dst) {
  const index_t panels = ceil_div(mc, MR);
  for (index_t ip = 0; ip < panels; ++ip) {
    const index_t ib = i0 + ip * MR;
    const index_t mr = std::min(MR, i0 + mc - ib);
    T* __restrict__ d = dst + ip * kc * MR;
    if (opa == Op::N) {
      for (index_t l = 0; l < kc; ++l) {
        const T* __restrict__ src = a.data + ib + (p0 + l) * a.ld;
        for (index_t i = 0; i < mr; ++i) d[l * MR + i] = src[i];
        for (index_t i = mr; i < MR; ++i) d[l * MR + i] = T{};
      }
    } else {
      // op(A)(i, l) = (conj) a(l, i): the l run is contiguous down column
      // ib + i of a; writes stride by MR.
      const bool conjugate = (opa == Op::C) && is_complex_v<T>;
      for (index_t i = 0; i < mr; ++i) {
        const T* __restrict__ src = a.data + p0 + (ib + i) * a.ld;
        if (conjugate) {
          for (index_t l = 0; l < kc; ++l) d[l * MR + i] = conj_s(src[l]);
        } else {
          for (index_t l = 0; l < kc; ++l) d[l * MR + i] = src[l];
        }
      }
      for (index_t i = mr; i < MR; ++i)
        for (index_t l = 0; l < kc; ++l) d[l * MR + i] = T{};
    }
  }
}

/// Pack the cache block op(B)(p0:p0+kc, j0:j0+nc) into NR-column panels:
/// dst[(jp*kc + l)*NR + j] = op(B)(p0 + l, j0 + jp*NR + j), zero-padded to a
/// full NR in the last panel.
template <typename T, index_t NR>
void pack_b_block(Op opb, ConstMatrixView<T> b, index_t p0, index_t j0,
                  index_t kc, index_t nc, T* __restrict__ dst) {
  const index_t panels = ceil_div(nc, NR);
  for (index_t jp = 0; jp < panels; ++jp) {
    const index_t jb = j0 + jp * NR;
    const index_t nr = std::min(NR, j0 + nc - jb);
    T* __restrict__ d = dst + jp * kc * NR;
    if (opb == Op::N) {
      for (index_t j = 0; j < nr; ++j) {
        const T* __restrict__ src = b.data + p0 + (jb + j) * b.ld;
        for (index_t l = 0; l < kc; ++l) d[l * NR + j] = src[l];
      }
      for (index_t j = nr; j < NR; ++j)
        for (index_t l = 0; l < kc; ++l) d[l * NR + j] = T{};
    } else {
      // op(B)(l, j) = (conj) b(j, l): the j run is contiguous down column
      // p0 + l of b; reads coalesce, writes are unit stride.
      const bool conjugate = (opb == Op::C) && is_complex_v<T>;
      for (index_t l = 0; l < kc; ++l) {
        const T* __restrict__ src = b.data + jb + (p0 + l) * b.ld;
        if (conjugate) {
          for (index_t j = 0; j < nr; ++j) d[l * NR + j] = conj_s(src[j]);
        } else {
          for (index_t j = 0; j < nr; ++j) d[l * NR + j] = src[j];
        }
        for (index_t j = nr; j < NR; ++j) d[l * NR + j] = T{};
      }
    }
  }
}

/// MR x NR register tile: acc += Ap_panel * Bp_panel over kc. Both panels
/// are unit-stride; MR and NR are compile-time so the compiler fully unrolls
/// and keeps acc in registers (12 vector accumulators for the wide double
/// tile on AVX2).
template <typename T, index_t MR, index_t NR>
inline void micro_kernel(index_t kc, const T* __restrict__ ap,
                         const T* __restrict__ bp, T* __restrict__ acc) {
  for (index_t l = 0; l < kc; ++l) {
    const T* __restrict__ al = ap + l * MR;
    const T* __restrict__ bl = bp + l * NR;
    for (int j = 0; j < NR; ++j) {
      const T blj = bl[j];
#pragma omp simd
      for (int i = 0; i < MR; ++i) acc[j * MR + i] += al[i] * blj;
    }
  }
}

/// One (mc x nc) block of C against packed panels Ap (mc x kc) and Bp
/// (kc x nc). `beta` here is the effective beta for this k-slice (the
/// caller passes the user beta for the first slice, 1 afterwards).
template <typename T, index_t MR, index_t NR>
void macro_kernel(index_t mc, index_t nc, index_t kc, T alpha,
                  const T* __restrict__ ap_all, const T* __restrict__ bp_all,
                  T beta, MatrixView<T> cblk) {
  for (index_t jr = 0; jr < nc; jr += NR) {
    const index_t nr = std::min(NR, nc - jr);
    const T* bp = bp_all + (jr / NR) * kc * NR;
    for (index_t ir = 0; ir < mc; ir += MR) {
      const index_t mr = std::min(MR, mc - ir);
      const T* ap = ap_all + (ir / MR) * kc * MR;
      T acc[MR * NR] = {};
      micro_kernel<T, MR, NR>(kc, ap, bp, acc);
      for (index_t j = 0; j < nr; ++j) {
        T* __restrict__ cj = cblk.data + ir + (jr + j) * cblk.ld;
        const T* __restrict__ accj = acc + j * MR;
        if (beta == T{}) {
          for (index_t i = 0; i < mr; ++i) cj[i] = alpha * accj[i];
        } else if (beta == T{1}) {
          for (index_t i = 0; i < mr; ++i) cj[i] += alpha * accj[i];
        } else {
          for (index_t i = 0; i < mr; ++i)
            cj[i] = alpha * accj[i] + beta * cj[i];
        }
      }
    }
  }
}

/// The per-variant entry points the engine drivers call through. One table
/// row per compiled register-tile shape; the row is picked at first use to
/// match resolved_blocking<T>().mr/nr (function-pointer dispatch, so adding
/// a third shape is one more make_kernels line).
template <typename T>
struct GemmKernels {
  index_t mr, nr;
  const char* name;
  void (*pack_a)(Op, ConstMatrixView<T>, index_t, index_t, index_t, index_t,
                 T*);
  void (*pack_b)(Op, ConstMatrixView<T>, index_t, index_t, index_t, index_t,
                 T*);
  void (*macro)(index_t, index_t, index_t, T, const T*, const T*, T,
                MatrixView<T>);
};

template <typename T, index_t MR, index_t NR>
constexpr GemmKernels<T> make_kernels(const char* name) {
  return {MR,
          NR,
          name,
          &pack_a_block<T, MR>,
          &pack_b_block<T, NR>,
          &macro_kernel<T, MR, NR>};
}

/// The selected variant for T. The blocking resolver owns the CHOICE (its
/// mr/nr come from the tile-selection rule + HODLRX_GEMM_TILE); this lookup
/// merely binds it to compiled code. Falls back to the wide row if the
/// resolver ever emitted a shape that was not compiled — unreachable today,
/// but cheap insurance against a future resolver bug.
template <typename T>
const GemmKernels<T>& gemm_kernels() {
  static const GemmKernels<T> table[] = {
      make_kernels<T, GemmTiles<T>::kWide.mr, GemmTiles<T>::kWide.nr>("wide"),
      make_kernels<T, GemmTiles<T>::kCompact.mr, GemmTiles<T>::kCompact.nr>(
          "compact"),
  };
  const ResolvedBlocking& rb = resolved_blocking<T>();
  for (const GemmKernels<T>& k : table)
    if (k.mr == rb.mr && k.nr == rb.nr) return k;
  return table[0];
}

/// beta-only epilogue for degenerate calls (k == 0 or alpha == 0).
template <typename T>
void scale_c(T beta, MatrixView<T> c) {
  for (index_t j = 0; j < c.cols; ++j) {
    T* __restrict__ cj = c.data + j * c.ld;
    if (beta == T{}) {
      for (index_t i = 0; i < c.rows; ++i) cj[i] = T{};
    } else if (beta != T{1}) {
      for (index_t i = 0; i < c.rows; ++i) cj[i] *= beta;
    }
  }
}

}  // namespace

template <typename T>
TileDims gemm_selected_tile() {
  const GemmKernels<T>& k = gemm_kernels<T>();
  return {k.mr, k.nr};
}

template <typename T>
const char* gemm_selected_tile_name() {
  return gemm_kernels<T>().name;
}

template <typename T>
void gemm_packed(Op opa, Op opb, T alpha, NoDeduce<ConstMatrixView<T>> a,
                 NoDeduce<ConstMatrixView<T>> b, T beta, MatrixView<T> c) {
  const ResolvedBlocking& blk = resolved_blocking<T>();
  const GemmKernels<T>& kern = gemm_kernels<T>();
  const index_t MC = blk.mc, KC = blk.kc, NC = blk.nc;
  const index_t m = c.rows, n = c.cols, k = op_cols(opa, a);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == T{}) {
    scale_c(beta, c);
    return;
  }
  WorkspaceArena& ws = WorkspaceArena::local();
  T* ap = ws.get<T>(padded(MC, kern.mr) * KC, WorkspaceArena::kPackA);
  T* bp = ws.get<T>(KC * padded(NC, kern.nr), WorkspaceArena::kPackB);
  for (index_t jc = 0; jc < n; jc += NC) {
    const index_t nc = std::min(NC, n - jc);
    for (index_t pc = 0; pc < k; pc += KC) {
      const index_t kc = std::min(KC, k - pc);
      kern.pack_b(opb, b, pc, jc, kc, nc, bp);
      gemm_stats::g_b_packs.fetch_add(1, std::memory_order_relaxed);
      const T beta_eff = (pc == 0) ? beta : T{1};
      for (index_t ic = 0; ic < m; ic += MC) {
        const index_t mc = std::min(MC, m - ic);
        kern.pack_a(opa, a, ic, pc, mc, kc, ap);
        gemm_stats::g_a_packs.fetch_add(1, std::memory_order_relaxed);
        kern.macro(mc, nc, kc, alpha, ap, bp, beta_eff,
                   c.block(ic, jc, mc, nc));
      }
    }
  }
}

template <typename T>
void pack_a_full_into(Op opa, ConstMatrixView<T> a, PackedMatrix<T>& p) {
  const ResolvedBlocking& blk = resolved_blocking<T>();
  const GemmKernels<T>& kern = gemm_kernels<T>();
  const index_t MR = kern.mr;
  const index_t MC = blk.mc, KC = blk.kc;
  p.rows_ = op_rows(opa, a);
  p.cols_ = op_cols(opa, a);
  p.grid_rows_ = ceil_div(p.rows_, MC);
  p.grid_cols_ = ceil_div(p.cols_, KC);
  if (p.empty()) return;
  p.offsets_.resize(static_cast<std::size_t>(p.grid_rows_ * p.grid_cols_));
  index_t total = 0;
  for (index_t it = 0; it < p.grid_rows_; ++it) {
    const index_t mc = std::min(MC, p.rows_ - it * MC);
    for (index_t pt = 0; pt < p.grid_cols_; ++pt) {
      const index_t kc = std::min(KC, p.cols_ - pt * KC);
      p.offsets_[it * p.grid_cols_ + pt] = total;
      total += ceil_div(mc, MR) * MR * kc;
    }
  }
  if (p.buf_.size() < static_cast<std::size_t>(total))
    p.buf_.clear();  // don't copy a stale pack when the slot grows
  p.buf_.resize(static_cast<std::size_t>(total));
  for (index_t it = 0; it < p.grid_rows_; ++it) {
    const index_t mc = std::min(MC, p.rows_ - it * MC);
    for (index_t pt = 0; pt < p.grid_cols_; ++pt) {
      const index_t kc = std::min(KC, p.cols_ - pt * KC);
      kern.pack_a(opa, a, it * MC, pt * KC, mc, kc,
                  p.buf_.data() + p.offsets_[it * p.grid_cols_ + pt]);
    }
  }
}

template <typename T>
void gemm_prepacked_a(const PackedMatrix<T>& ap, T alpha, Op opb,
                      NoDeduce<ConstMatrixView<T>> b, T beta,
                      MatrixView<T> c) {
  const ResolvedBlocking& blk = resolved_blocking<T>();
  const GemmKernels<T>& kern = gemm_kernels<T>();
  const index_t MC = blk.mc, KC = blk.kc, NC = blk.nc;
  const index_t m = c.rows, n = c.cols, k = ap.cols();
  HODLRX_REQUIRE(ap.rows() == m && op_rows(opb, b) == k &&
                     op_cols(opb, b) == n,
                 "gemm_prepacked_a: shape mismatch");
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == T{}) {
    scale_c(beta, c);
    return;
  }
  WorkspaceArena& ws = WorkspaceArena::local();
  T* bp = ws.get<T>(KC * padded(NC, kern.nr), WorkspaceArena::kPackB);
  for (index_t jc = 0; jc < n; jc += NC) {
    const index_t nc = std::min(NC, n - jc);
    for (index_t pc = 0; pc < k; pc += KC) {
      const index_t kc = std::min(KC, k - pc);
      kern.pack_b(opb, b, pc, jc, kc, nc, bp);
      gemm_stats::g_b_packs.fetch_add(1, std::memory_order_relaxed);
      const T beta_eff = (pc == 0) ? beta : T{1};
      for (index_t ic = 0; ic < m; ic += MC) {
        const index_t mc = std::min(MC, m - ic);
        kern.macro(mc, nc, kc, alpha, ap.tile(ic / MC, pc / KC), bp, beta_eff,
                   c.block(ic, jc, mc, nc));
      }
    }
  }
}

/// Upper bound on the pool's persistent shared A-pack slot. Stream-mode
/// trailing updates (tall-skinny A) fit comfortably; a huge square multiply
/// falls back to the column-split path rather than holding a giant pack.
constexpr std::size_t kSharedAPackBudget = std::size_t{64} << 20;  // 64 MB

template <typename T>
bool gemm_parallel_shared_a(Op opa, Op opb, T alpha,
                            NoDeduce<ConstMatrixView<T>> a,
                            NoDeduce<ConstMatrixView<T>> b, T beta,
                            MatrixView<T> c) {
  const index_t m = c.rows, n = c.cols, k = op_cols(opa, a);
  if (!use_packed_gemm(opa, opb, m, n, k)) return false;
  if (static_cast<std::size_t>(m) * static_cast<std::size_t>(k) * sizeof(T) >
      kSharedAPackBudget)
    return false;
  // One persistent slot per scalar type: the pack buffer reaches steady-state
  // size once and is reused by every subsequent launch. try_lock so a second
  // concurrent launch degrades to the fallback instead of serializing.
  static std::mutex slot_mu;
  static PackedMatrix<T> slot;
  std::unique_lock<std::mutex> lk(slot_mu, std::try_to_lock);
  if (!lk.owns_lock()) return false;
  pack_a_full_into<T>(opa, a, slot);
  gemm_stats::g_pool_packs.fetch_add(1, std::memory_order_relaxed);
  parallel_chunks(n, [&](index_t j0, index_t nc) {
    ConstMatrixView<T> bs =
        (opb == Op::N) ? b.cols_range(j0, nc) : b.rows_range(j0, nc);
    gemm_prepacked_a<T>(slot, alpha, opb, bs, beta, c.cols_range(j0, nc));
  });
  return true;
}

#define HODLRX_INSTANTIATE_GEMM_KERNEL(T)                                     \
  template class PackedMatrix<T>;                                            \
  template void gemm_packed<T>(Op, Op, T, NoDeduce<ConstMatrixView<T>>,       \
                               NoDeduce<ConstMatrixView<T>>, T,               \
                               MatrixView<T>);                                \
  template TileDims gemm_selected_tile<T>();                                  \
  template const char* gemm_selected_tile_name<T>();                          \
  template void pack_a_full_into<T>(Op, ConstMatrixView<T>,                   \
                                    PackedMatrix<T>&);                        \
  template void gemm_prepacked_a<T>(const PackedMatrix<T>&, T, Op,            \
                                    NoDeduce<ConstMatrixView<T>>, T,          \
                                    MatrixView<T>);                           \
  template bool gemm_parallel_shared_a<T>(Op, Op, T,                          \
                                          NoDeduce<ConstMatrixView<T>>,       \
                                          NoDeduce<ConstMatrixView<T>>, T,    \
                                          MatrixView<T>);

HODLRX_INSTANTIATE_GEMM_KERNEL(float)
HODLRX_INSTANTIATE_GEMM_KERNEL(double)
HODLRX_INSTANTIATE_GEMM_KERNEL(std::complex<float>)
HODLRX_INSTANTIATE_GEMM_KERNEL(std::complex<double>)

#undef HODLRX_INSTANTIATE_GEMM_KERNEL

}  // namespace hodlrx
