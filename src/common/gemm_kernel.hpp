#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "common/blas.hpp"
#include "common/matrix.hpp"

/// \file gemm_kernel.hpp
/// The packed, register-tiled GEMM engine (GotoBLAS-style).
///
/// Layout of one multiply C = alpha * op(A) * op(B) + beta * C:
///
///   for jc in steps of NC:                 (columns of C / op(B))
///     for pc in steps of KC:               (the shared k dimension)
///       pack op(B)(pc:pc+KC, jc:jc+NC)  -> Bp   [KC x NC, NR-wide panels]
///       for ic in steps of MC:             (rows of C / op(A))
///         pack op(A)(ic:ic+MC, pc:pc+KC) -> Ap  [MC x KC, MR-wide panels]
///         macro-kernel: MR x NR register-tiled micro-kernels over Ap x Bp
///
/// Packing linearizes the operands so the micro-kernel streams both with
/// unit stride, and it absorbs Op::T / Op::C: transposition and conjugation
/// happen while copying, so every op combination runs through the same fast
/// micro-kernel (no slow generic path for transposed cases). Packing buffers
/// come from the thread-local WorkspaceArena, so steady state allocates
/// nothing.
///
/// gemm_parallel additionally uses a "full" pack (PackedMatrix): op(A) is
/// packed once per launch into a persistent slot and every column chunk of
/// C multiplies against the shared tiles.

namespace hodlrx {

/// STATIC per-scalar-type blocking defaults: the AVX2-class set every engine
/// used before the hardware-adaptive resolver (blocking.hpp) existed. These
/// are rung 3 of the resolution ladder (env override > probed model > static)
/// and exactly what HODLRX_AUTOTUNE=off selects. MC/KC size the A-pack for
/// L2, KC*NC sizes the B-pack for L3; MR x NR is the "wide" register tile.
/// Runtime code reads resolved_blocking<T>() instead of these constants.
template <typename T>
struct GemmBlocking;

template <>
struct GemmBlocking<float> {
  static constexpr index_t MR = 16, NR = 6, MC = 256, KC = 384, NC = 3072;
};
template <>
struct GemmBlocking<double> {
  static constexpr index_t MR = 8, NR = 6, MC = 256, KC = 256, NC = 3072;
};
template <>
struct GemmBlocking<std::complex<float>> {
  static constexpr index_t MR = 8, NR = 4, MC = 128, KC = 256, NC = 2048;
};
template <>
struct GemmBlocking<std::complex<double>> {
  static constexpr index_t MR = 4, NR = 4, MC = 128, KC = 192, NC = 2048;
};

/// A register-tile shape. The engine compiles one micro-kernel (and one
/// pack-layout pair) per shape and selects between them at first use via
/// function-pointer dispatch — see gemm_kernel.cpp and the tile-selection
/// rule in blocking.cpp.
struct TileDims {
  index_t mr, nr;
};
constexpr bool operator==(TileDims a, TileDims b) {
  return a.mr == b.mr && a.nr == b.nr;
}

/// The two compiled register-tile variants per scalar type. kWide is the
/// historical shape (GemmBlocking<T>::MR x NR): tall tiles that keep 12+
/// vector accumulators live, right for 256-bit+ SIMD with 16+ registers.
/// kCompact halves MR and widens NR to 8: fewer, narrower accumulator
/// columns for SSE-class machines (8/16 xmm registers) where the wide tile
/// spills. Selection: HODLRX_GEMM_TILE=wide|compact wins; otherwise the
/// probe picks kWide on AVX2/AVX-512 hosts and kCompact on narrower ones;
/// HODLRX_AUTOTUNE=off pins kWide (the pre-adaptive behavior).
template <typename T>
struct GemmTiles {
  static constexpr TileDims kWide{GemmBlocking<T>::MR, GemmBlocking<T>::NR};
  static constexpr TileDims kCompact{GemmBlocking<T>::MR / 2, 8};
};

/// The tile the dispatcher resolved for T (== {resolved mr, nr}).
template <typename T>
TileDims gemm_selected_tile();

/// "wide" or "compact" for the resolved tile (benches embed it in JSON).
template <typename T>
const char* gemm_selected_tile_name();

/// Pack-event counters (relaxed atomics, process-wide). Used by tests to
/// assert that gemm_parallel packs A exactly once per launch, and by benches
/// to report packing overhead.
namespace gemm_stats {
/// Per-block A packs performed inside gemm calls.
std::uint64_t a_packs();
/// Per-block B packs performed inside gemm calls.
std::uint64_t b_packs();
/// Full A-packs into the pool's persistent slot (one per qualifying
/// gemm_parallel launch; see gemm_parallel_shared_a).
std::uint64_t pool_packs();
void reset();
}  // namespace gemm_stats

/// True when the packed engine is expected to beat the unpacked kernels for
/// this problem. Never for a matrix-vector product (opb == N, n == 1): the
/// GEMV kernel reads A once, with no pack copy. Combinations with opb != N
/// have no GEMV fallback (they run the element-accessor generic loop), so
/// the packed engine takes over at a much smaller size.
bool use_packed_gemm(Op opa, Op opb, index_t m, index_t n, index_t k);

/// C = alpha * op(A) * op(B) + beta * C through the packed engine.
/// Shapes must already be consistent (callers go through gemm()'s checks).
/// Does not touch the flop counters; public entry points account.
template <typename T>
void gemm_packed(Op opa, Op opb, T alpha, NoDeduce<ConstMatrixView<T>> a,
                 NoDeduce<ConstMatrixView<T>> b, T beta, MatrixView<T> c);

/// All of op(A) packed into MR-panel layout, one tile per (MC, KC) cache
/// block, reusable across many multiplies (gemm_parallel_shared_a's
/// persistent slot). `rows x cols` is the shape of op(A); the op (including
/// conjugation) is absorbed at pack time.
template <typename T>
class PackedMatrix {
 public:
  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  std::size_t bytes() const { return buf_.size() * sizeof(T); }

  /// Packed tile for cache-block indices (it = row block, pt = k block).
  const T* tile(index_t it, index_t pt) const {
    return buf_.data() + offsets_[it * grid_cols_ + pt];
  }

 private:
  template <typename U>
  friend void pack_a_full_into(Op opa, ConstMatrixView<U> a,
                               PackedMatrix<U>& out);

  index_t rows_ = 0, cols_ = 0;
  index_t grid_rows_ = 0, grid_cols_ = 0;
  std::vector<index_t> offsets_;  ///< grid_rows_ * grid_cols_ tile offsets
  std::vector<T, AlignedAllocator<T>> buf_;
};

/// Pack all of op(A) (shape m x k) into `out`, reusing its storage (no
/// allocation once the buffer has grown to steady state). Touches no pack
/// counter; gemm_parallel_shared_a counts its packs as pool_packs.
template <typename T>
void pack_a_full_into(Op opa, ConstMatrixView<T> a, PackedMatrix<T>& out);

/// C = alpha * packed_A * op(B) + beta * C where `ap` came from
/// pack_a_full_into.
template <typename T>
void gemm_prepacked_a(const PackedMatrix<T>& ap, T alpha, Op opb,
                      NoDeduce<ConstMatrixView<T>> b, T beta, MatrixView<T> c);

/// Pool-parallel multiply with a SHARED A-pack: op(A) is packed once into a
/// persistent per-type slot and the columns of C are split across the
/// persistent thread pool, each chunk multiplying against the shared tiles
/// (no duplicate per-chunk A packing). Returns false — caller must fall back
/// to the column-split path — when the shape would not amortize packing, the
/// pack would exceed the slot budget, or the slot is held by a concurrent
/// launch. Does not touch the flop counters.
template <typename T>
bool gemm_parallel_shared_a(Op opa, Op opb, T alpha,
                            NoDeduce<ConstMatrixView<T>> a,
                            NoDeduce<ConstMatrixView<T>> b, T beta,
                            MatrixView<T> c);

}  // namespace hodlrx
