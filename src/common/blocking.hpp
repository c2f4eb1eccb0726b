#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/hwinfo.hpp"

/// \file blocking.hpp
/// The single source of truth for every runtime blocking parameter: the
/// GEMM cache blocking (MC/KC/NC), the register-tile shape (MR/NR, which
/// selects the micro-kernel variant in gemm_kernel.cpp), the TRSM
/// diagonal-block size and the QR panel width — resolved once per scalar
/// type and consumed by every engine (gemm_kernel, trsm_kernel, lapack).
///
/// Resolution precedence, per field:
///   1. Environment override (HODLRX_GEMM_{MC,KC,NC}, HODLRX_TRSM_NB,
///      HODLRX_QR_NB, HODLRX_GEMM_TILE) — always wins.
///   2. The analytical model over the probed cache topology (hwinfo.hpp),
///      when HODLRX_AUTOTUNE is not "off" and the probe succeeded. The
///      register tile is HODLRX_GEMM_TILE if set, else the model's choice
///      for the ISA family, and MC/KC/NC are derived for that tile.
///   3. The static per-scalar-type defaults (GemmBlocking<T> and the
///      historical TRSM NB = 64 / QR NB = 16) — also what
///      HODLRX_AUTOTUNE=off selects, bit-for-bit.
///
/// Nothing is measured: the result is a pure function of the probed host
/// and the environment, so every process on one host runs the same blocking
/// and therefore the same summation order (bitwise-repeatable results).
///
/// The model follows the GotoBLAS/BLIS analytical rules: KC sized so one
/// MR x KC A micro-panel plus one KC x NR B micro-panel stream from L1,
/// MC so the MC x KC packed A block holds half of L2, NC so the KC x NC
/// packed B block holds half of L3 (capped — a server-class shared L3 must
/// not inflate per-thread pack buffers). Every value is clamped so packing
/// stays well formed (mc >= mr, nc >= nr, kc >= 1) regardless of how
/// hostile the override is.

namespace hodlrx {

struct TileDims;  // gemm_kernel.hpp

/// Where a resolved field came from (reported in the bench JSON so the perf
/// trajectory records what each run actually used).
enum class BlockingSource : std::uint8_t { kStatic, kProbe, kEnv };
const char* blocking_source_name(BlockingSource s);

struct ResolvedBlocking {
  index_t mr = 0, nr = 0;  ///< register tile (micro-kernel variant)
  index_t mc = 0, kc = 0, nc = 0;  ///< GEMM cache blocking
  index_t trsm_nb = 0;     ///< TRSM diagonal-block size
  index_t qr_nb = 0;       ///< QR panel width
  BlockingSource tile_src = BlockingSource::kStatic;
  BlockingSource mc_src = BlockingSource::kStatic;
  BlockingSource kc_src = BlockingSource::kStatic;
  BlockingSource nc_src = BlockingSource::kStatic;
  BlockingSource trsm_src = BlockingSource::kStatic;
  BlockingSource qr_src = BlockingSource::kStatic;
  /// Constant stand-ins for the retired across-batch SIMD width: every
  /// batched launch runs one problem at a time. Only pipebench/pipeline.cpp
  /// reads them (its blocking run record); the next change to the benchmark
  /// drops those reads, and these with them. Library, test and bench code
  /// must not use them.
  static constexpr index_t batch_simd_width = 1;
  static constexpr BlockingSource batch_src = BlockingSource::kStatic;
};

/// The resolved blocking for scalar type T (float, double, complex<float>,
/// complex<double>). Resolved once per process on first use (thread-safe);
/// the reference stays valid for the process lifetime. Tests may re-resolve
/// via blocking_detail::refresh_for_testing().
template <typename T>
const ResolvedBlocking& resolved_blocking();

/// The static pre-probe defaults (rung 3 above): exactly what every engine
/// used before the adaptive resolver existed, and what HODLRX_AUTOTUNE=off
/// reproduces bit-for-bit.
template <typename T>
ResolvedBlocking static_blocking();

/// The pure analytical model over an explicit topology (no environment, no
/// globals) — unit-testable against synthetic cache configurations. The
/// returned tile is the model's choice for `hw.family`; cache fields are
/// tagged kProbe.
template <typename T>
ResolvedBlocking model_blocking(const HwInfo& hw);

/// The same model for an explicit register tile: MC/KC/NC are derived for
/// `tile` (KC's L1 streaming budget depends on mr + nr). This is what the
/// resolver uses when HODLRX_GEMM_TILE forces a tile on the probe rung.
template <typename T>
ResolvedBlocking model_blocking(const HwInfo& hw, TileDims tile);

/// False iff HODLRX_AUTOTUNE is "off"/"0"/"false"/"no" (case-insensitive).
bool autotune_enabled();

namespace blocking_stats {
/// Number of per-type resolutions performed (relaxed atomic). Stable-
/// dispatch tests assert this does not grow across repeated launches: the
/// blocking — and therefore the selected micro-kernel variant — is resolved
/// at most once per scalar type per process.
std::uint64_t resolutions();
}  // namespace blocking_stats

namespace blocking_detail {
/// Drop every cached resolution (all four scalar types and the autotune
/// flag) so the next resolved_blocking() re-reads the environment. TEST
/// ONLY: not thread-safe against concurrent kernel launches, and any
/// PackedMatrix built before the refresh is invalidated by it.
void refresh_for_testing();
}  // namespace blocking_detail

}  // namespace hodlrx
