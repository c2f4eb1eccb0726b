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
/// The batch layer additionally uses "full" packs (PackedMatrix): when every
/// problem in a strided batch reads the same operand (stride 0), that operand
/// is packed once per launch and reused by all problems.

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
/// assert that batch-shared operands are packed exactly once per launch, and
/// by benches to report packing overhead.
namespace gemm_stats {
/// Per-block A packs performed inside gemm calls.
std::uint64_t a_packs();
/// Per-block B packs performed inside gemm calls.
std::uint64_t b_packs();
/// Full-operand packs shared across a BATCH (one per pack_a_full /
/// pack_b_full call) — the stride-0 batched fast path. Pool-shared packs are
/// counted separately so exact-count assertions stay machine-independent.
std::uint64_t shared_packs();
/// Full A-packs into the pool's persistent slot (one per qualifying
/// gemm_parallel launch; see gemm_parallel_shared_a).
std::uint64_t pool_packs();
void reset();
}  // namespace gemm_stats

/// True when the packed engine is expected to beat the naive kernels for
/// this problem. Combinations with opb != N have no tuned naive fallback
/// (they previously ran the element-accessor generic loop), so the packed
/// engine takes over at a much smaller size.
bool use_packed_gemm(Op opa, Op opb, index_t m, index_t n, index_t k);

/// C = alpha * op(A) * op(B) + beta * C through the packed engine.
/// Shapes must already be consistent (callers go through gemm()'s checks).
/// Does not touch the flop counters; public entry points account.
template <typename T>
void gemm_packed(Op opa, Op opb, T alpha, NoDeduce<ConstMatrixView<T>> a,
                 NoDeduce<ConstMatrixView<T>> b, T beta, MatrixView<T> c);

/// A whole operand packed into panel layout, reusable across many multiplies
/// (the batch layer's shared-operand fast path). `rows x cols` is the shape
/// of op(X); the op (including conjugation) is absorbed at pack time.
template <typename T>
class PackedMatrix {
 public:
  enum class Kind { kA, kB };

  Kind kind() const { return kind_; }
  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  std::size_t bytes() const { return buf_.size() * sizeof(T); }

  /// Packed tile for cache-block indices (it = row block, pt = k block) of
  /// an A-pack, or (pt = k block, jt = column block) of a B-pack.
  const T* tile(index_t first, index_t second) const {
    return buf_.data() + offsets_[first * grid_cols_ + second];
  }

 private:
  template <typename U>
  friend PackedMatrix<U> pack_a_full(Op opa, ConstMatrixView<U> a);
  template <typename U>
  friend PackedMatrix<U> pack_b_full(Op opb, ConstMatrixView<U> b);
  template <typename U>
  friend void pack_a_full_into(Op opa, ConstMatrixView<U> a,
                               PackedMatrix<U>& out);

  Kind kind_ = Kind::kA;
  index_t rows_ = 0, cols_ = 0;
  index_t grid_rows_ = 0, grid_cols_ = 0;
  std::vector<index_t> offsets_;  ///< grid_rows_ * grid_cols_ tile offsets
  std::vector<T, AlignedAllocator<T>> buf_;
};

/// Pack all of op(A) (shape m x k) into MR-panel layout, one tile per
/// (MC, KC) cache block. Counts one shared pack.
template <typename T>
PackedMatrix<T> pack_a_full(Op opa, ConstMatrixView<T> a);

/// As pack_a_full, but reuses `out`'s existing storage (no allocation once
/// the buffer has grown to steady state) and does NOT touch the pack
/// counters (call sites account under the stat that fits their role). This
/// is the pool's persistent shared A-pack slot: gemm_parallel packs op(A)
/// once per launch into it and every column chunk reads the shared tiles.
template <typename T>
void pack_a_full_into(Op opa, ConstMatrixView<T> a, PackedMatrix<T>& out);

/// Pack all of op(B) (shape k x n) into NR-panel layout, one tile per
/// (KC, NC) cache block. Counts one shared pack.
template <typename T>
PackedMatrix<T> pack_b_full(Op opb, ConstMatrixView<T> b);

/// C = alpha * packed_A * op(B) + beta * C where `ap` came from pack_a_full.
template <typename T>
void gemm_prepacked_a(const PackedMatrix<T>& ap, T alpha, Op opb,
                      NoDeduce<ConstMatrixView<T>> b, T beta, MatrixView<T> c);

/// C = alpha * op(A) * packed_B + beta * C where `bp` came from pack_b_full.
template <typename T>
void gemm_prepacked_b(Op opa, T alpha, NoDeduce<ConstMatrixView<T>> a,
                      const PackedMatrix<T>& bp, T beta, MatrixView<T> c);

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
