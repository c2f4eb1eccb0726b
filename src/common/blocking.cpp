#include "common/blocking.hpp"

#include <atomic>
#include <cctype>
#include <complex>
#include <cstring>
#include <mutex>
#include <optional>

#include "common/env.hpp"
#include "common/gemm_kernel.hpp"

namespace hodlrx {

const char* blocking_source_name(BlockingSource s) {
  switch (s) {
    case BlockingSource::kStatic: return "static";
    case BlockingSource::kProbe: return "probe";
    case BlockingSource::kEnv: return "env";
  }
  return "?";
}

namespace blocking_stats {
namespace {
std::atomic<std::uint64_t> g_resolutions{0};
}
std::uint64_t resolutions() {
  return g_resolutions.load(std::memory_order_relaxed);
}
}  // namespace blocking_stats

namespace {

/// Round `v` down to a positive multiple of `step`.
index_t round_down(index_t v, index_t step) {
  return std::max(step, (v / step) * step);
}

index_t clamp(index_t v, index_t lo, index_t hi) {
  return std::min(hi, std::max(lo, v));
}

/// Case-insensitive match against a small word.
bool env_is(const char* s, const char* word) {
  for (; *s && *word; ++s, ++word)
    if (std::tolower(static_cast<unsigned char>(*s)) != *word) return false;
  return *s == '\0' && *word == '\0';
}

bool parse_autotune() {
  const char* s = std::getenv("HODLRX_AUTOTUNE");
  if (!s || !*s) return true;
  return !(env_is(s, "off") || env_is(s, "0") || env_is(s, "false") ||
           env_is(s, "no"));
}

/// Environment override for one field: leaves `value`/`src` alone when the
/// variable is unset or unparsable, otherwise installs the clamped override
/// and tags the field kEnv. Same parsing as every other knob (env.hpp).
void apply_env(const char* name, index_t min_v, index_t& value,
               BlockingSource& src) {
  const char* s = std::getenv(name);
  if (!s || !*s) return;
  const index_t sentinel = -1;
  const index_t v = env_positive(name, sentinel, min_v);
  if (v == sentinel) return;  // present but invalid/non-positive: fall back
  value = v;
  src = BlockingSource::kEnv;
}

/// Tile selection (rungs 2/3): wide on 256-bit+ SIMD or when the probe gave
/// us nothing to go on (wide IS the static default), compact on SSE-class
/// x86 where the wide tile's accumulators spill the 8/16 xmm registers.
template <typename T>
TileDims model_tile(const HwInfo& hw) {
  if (std::strcmp(hw.source, "default") == 0) return GemmTiles<T>::kWide;
  if (hw.avx2 || hw.avx512f) return GemmTiles<T>::kWide;
  if (std::strncmp(hw.family, "x86", 3) == 0) return GemmTiles<T>::kCompact;
  return GemmTiles<T>::kWide;
}

/// Round a requested across-batch lane count down to a compiled width: the
/// batch kernels (batch_kernels.cpp) instantiate one fully unrolled body per
/// power-of-two width up to 16 (the widest possible lane count: 64-byte
/// AVX-512 registers over 4-byte floats).
index_t supported_batch_width(index_t w) {
  index_t s = 1;
  while (s * 2 <= w && s < 16) s *= 2;
  return s;
}

}  // namespace

template <typename T>
ResolvedBlocking static_blocking() {
  ResolvedBlocking rb;
  rb.mr = GemmBlocking<T>::MR;
  rb.nr = GemmBlocking<T>::NR;
  rb.mc = GemmBlocking<T>::MC;
  rb.kc = GemmBlocking<T>::KC;
  rb.nc = GemmBlocking<T>::NC;
  rb.trsm_nb = 64;  // pre-adaptive HODLRX_TRSM_NB default (trsm_kernel)
  rb.qr_nb = 16;    // pre-adaptive HODLRX_QR_NB default (lapack)
  return rb;        // every src field is kStatic
}

/// The cache/panel derivations of the model for an EXPLICIT register tile:
/// KC is sized from mr + nr, so a tile switched after the derivation could
/// overrun the L1 streaming budget.
template <typename T>
ResolvedBlocking model_blocking(const HwInfo& hw, TileDims tile) {
  ResolvedBlocking rb = static_blocking<T>();
  rb.mr = tile.mr;
  rb.nr = tile.nr;
  rb.tile_src = BlockingSource::kProbe;
  // Across-batch SIMD width: one problem per lane of the widest register the
  // feature bits promise (hwinfo().simd_bytes; 0 means scalar-only). A lane
  // is one full element — complex types get correspondingly fewer lanes.
  rb.batch_simd_width = supported_batch_width(
      static_cast<index_t>(hw.simd_bytes / sizeof(T)));
  rb.batch_src = BlockingSource::kProbe;
  const index_t szT = static_cast<index_t>(sizeof(T));
  const index_t l1 = static_cast<index_t>(hw.l1d_bytes);
  const index_t l2 = static_cast<index_t>(hw.l2_bytes);
  const index_t l3 = static_cast<index_t>(hw.l3_bytes);
  // KC: one MR x KC A micro-panel and one KC x NR B micro-panel stream
  // through L1 together; fill ~80% of it, leaving room for the C tile and
  // the stack. Rounded to 8 so k-remainders stay rare.
  rb.kc = clamp(round_down((l1 * 4) / (5 * (rb.mr + rb.nr) * szT), 8), 32,
                1024);
  rb.kc_src = BlockingSource::kProbe;
  // MC: the packed MC x KC A block owns half of L2 (the other half streams
  // B panels and C). Multiple of MR so every macro-row is a full panel.
  rb.mc = clamp(round_down(l2 / (2 * rb.kc * szT), rb.mr), rb.mr, 2048);
  rb.mc_src = BlockingSource::kProbe;
  // NC: the packed KC x NC B block targets half of L3. Capped at 4096: a
  // server-class shared L3 (hundreds of MB) must not balloon the per-thread
  // pack buffer, and beyond a few thousand columns reuse is already fully
  // amortized. No L3 probed: keep the static default.
  if (l3 > 0) {
    rb.nc = round_down(std::min<index_t>(l3 / (2 * rb.kc * szT), 4096),
                       rb.nr);
    rb.nc_src = BlockingSource::kProbe;
  }
  // TRSM NB: the register-tiled kernel re-reads its whole NB x NB block in
  // place once per column tile, so the block should stay within a quarter of
  // L2. Above NB the blocked solve turns the off-diagonal work into packed
  // GEMM updates, which the kernel outruns while its block is L2-resident.
  index_t nb = 8;
  while ((nb + 8) * (nb + 8) * szT * 4 <= l2) nb += 8;
  rb.trsm_nb = clamp(nb, 24, 256);
  rb.trsm_src = BlockingSource::kProbe;
  // QR panel width trades unblocked panel work against trailing-GEMM
  // efficiency; it is latency- not capacity-bound, so the model only nudges
  // it up on big-L1 parts (Ice Lake+/Zen 4 class and beyond).
  rb.qr_nb = (hw.l1d_bytes >= (std::size_t{48} << 10)) ? 24 : 16;
  rb.qr_src = BlockingSource::kProbe;
  return rb;
}

template <typename T>
ResolvedBlocking model_blocking(const HwInfo& hw) {
  return model_blocking<T>(hw, model_tile<T>(hw));
}

namespace {

/// Full resolution ladder for one scalar type.
template <typename T>
ResolvedBlocking resolve() {
  const bool autotune = parse_autotune();
  const HwInfo& hw = hwinfo();
  const bool probed = std::strcmp(hw.source, "default") != 0;
  // The register tile: wide/compact by name (anything else falls through),
  // else the model's feature-bit choice.
  const char* tile_env = std::getenv("HODLRX_GEMM_TILE");
  std::optional<TileDims> forced;
  if (tile_env && env_is(tile_env, "wide")) forced = GemmTiles<T>::kWide;
  if (tile_env && env_is(tile_env, "compact")) forced = GemmTiles<T>::kCompact;
  ResolvedBlocking rb;
  if (autotune && probed) {
    // Adaptive rung: the cache fields are derived FOR the selected tile.
    rb = model_blocking<T>(hw, forced.value_or(model_tile<T>(hw)));
  } else {
    // With autotune on but a failed probe we sit on the static rung — the
    // model would only be re-deriving its own fallback constants.
    rb = static_blocking<T>();
    if (forced) {
      rb.mr = forced->mr;
      rb.nr = forced->nr;
    }
  }
  if (forced) rb.tile_src = BlockingSource::kEnv;
  // Cache-level overrides (clamped so packing stays well formed against the
  // SELECTED tile: mc >= mr, nc >= nr).
  apply_env("HODLRX_GEMM_MC", rb.mr, rb.mc, rb.mc_src);
  apply_env("HODLRX_GEMM_KC", 1, rb.kc, rb.kc_src);
  apply_env("HODLRX_GEMM_NC", rb.nr, rb.nc, rb.nc_src);
  apply_env("HODLRX_TRSM_NB", 8, rb.trsm_nb, rb.trsm_src);
  apply_env("HODLRX_QR_NB", 1, rb.qr_nb, rb.qr_src);
  // Across-batch lane count: the override is rounded down to a compiled
  // width, so any positive value is safe to request (1 = scalar fallback).
  apply_env("HODLRX_BATCH_SIMD", 1, rb.batch_simd_width, rb.batch_src);
  rb.batch_simd_width = supported_batch_width(rb.batch_simd_width);
  blocking_stats::g_resolutions.fetch_add(1, std::memory_order_relaxed);
  return rb;
}

/// Per-type cached resolution with a test-only reset. The fast path is one
/// acquire load; (re)resolution is serialized by the mutex.
template <typename T>
struct Slot {
  static std::atomic<bool> ready;
  static std::mutex mu;
  static ResolvedBlocking rb;

  static const ResolvedBlocking& get() {
    if (!ready.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lk(mu);
      if (!ready.load(std::memory_order_relaxed)) {
        rb = resolve<T>();
        ready.store(true, std::memory_order_release);
      }
    }
    return rb;
  }

  static void reset() { ready.store(false, std::memory_order_release); }
};
template <typename T>
std::atomic<bool> Slot<T>::ready{false};
template <typename T>
std::mutex Slot<T>::mu;
template <typename T>
ResolvedBlocking Slot<T>::rb;

}  // namespace

template <typename T>
const ResolvedBlocking& resolved_blocking() {
  return Slot<T>::get();
}

bool autotune_enabled() { return parse_autotune(); }

namespace blocking_detail {
void refresh_for_testing() {
  Slot<float>::reset();
  Slot<double>::reset();
  Slot<std::complex<float>>::reset();
  Slot<std::complex<double>>::reset();
}
}  // namespace blocking_detail

#define HODLRX_INSTANTIATE_BLOCKING(T)                    \
  template const ResolvedBlocking& resolved_blocking<T>(); \
  template ResolvedBlocking static_blocking<T>();          \
  template ResolvedBlocking model_blocking<T>(const HwInfo&); \
  template ResolvedBlocking model_blocking<T>(const HwInfo&, TileDims);

HODLRX_INSTANTIATE_BLOCKING(float)
HODLRX_INSTANTIATE_BLOCKING(double)
HODLRX_INSTANTIATE_BLOCKING(std::complex<float>)
HODLRX_INSTANTIATE_BLOCKING(std::complex<double>)

#undef HODLRX_INSTANTIATE_BLOCKING

}  // namespace hodlrx
