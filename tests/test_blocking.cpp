#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "batched/batched_blas.hpp"
#include "bie/contour.hpp"
#include "bie/helmholtz.hpp"
#include "common/blocking.hpp"
#include "common/env.hpp"
#include "common/gemm_kernel.hpp"
#include "common/hwinfo.hpp"
#include "common/lapack.hpp"
#include "common/parallel.hpp"
#include "common/thread_pool.hpp"
#include "common/trsm_kernel.hpp"
#include "common/workspace.hpp"
#include "core/factorization.hpp"
#include "reference/trsm_reference.hpp"
#include "test_util.hpp"

/// The blocking-parameter property/stress suite guarding the
/// hardware-adaptive resolver (hwinfo.hpp + blocking.hpp) and the MR/NR
/// micro-kernel dispatch:
///
///   - the shared env parser and the per-knob fallback behavior (invalid /
///     zero / non-numeric overrides must be indistinguishable from unset),
///   - HODLRX_AUTOTUNE=off reproducing the pre-adaptive static defaults
///     bit-for-bit,
///   - sanity of the probed topology and of the analytical model derived
///     from it (packed panels must fit the cache levels they target),
///   - stability of the micro-kernel dispatch (no re-resolution, no thread
///     re-creation across launches; serial/batched/stream paths all bind
///     the same variant) and determinism across processes (fresh child
///     processes resolve identical records),
///   - and the core property: under RANDOMIZED blocking overrides —
///     including pathological ones (register-tile-sized, prime, huge) —
///     gemm/trsm/geqrf agree with the reference paths for all four scalar
///     types, with autotune both on and off.
///
/// This binary owns its environment: every test starts from a clean slate
/// (all HODLRX blocking variables unset) and re-resolves through the
/// test-only refresh hook.

namespace hodlrx {
namespace {

using test::rel_error;

const bool g_env_ready = [] {
  // Four pool threads so the stream/parallel paths fork even on 1-CPU CI.
  setenv("HODLRX_NUM_THREADS", "4", 1);
  return true;
}();

/// One line per scalar type with every field of its ResolvedBlocking.
std::string blocking_records() {
  std::string out;
  auto add = [&out](const char* type, const ResolvedBlocking& rb) {
    for (index_t v : {rb.mr, rb.nr, rb.mc, rb.kc, rb.nc, rb.trsm_nb, rb.qr_nb})
      out += std::to_string(static_cast<long long>(v)) + " ";
    for (BlockingSource src : {rb.tile_src, rb.mc_src, rb.kc_src, rb.nc_src,
                               rb.trsm_src, rb.qr_src})
      out += std::string(blocking_source_name(src)) + " ";
    out += std::string(type) + "\n";
  };
  add("float", resolved_blocking<float>());
  add("double", resolved_blocking<double>());
  add("complex<float>", resolved_blocking<std::complex<float>>());
  add("complex<double>", resolved_blocking<std::complex<double>>());
  return out;
}

/// Child mode of Resolution.IdenticalAcrossFreshProcesses: with
/// HODLRX_TEST_PRINT_BLOCKING set, this binary resolves the blocking in a
/// fresh process, prints the records and exits before any test runs.
const bool g_child_mode = [] {
  if (std::getenv("HODLRX_TEST_PRINT_BLOCKING") == nullptr) return false;
  std::fputs(blocking_records().c_str(), stdout);
  std::fflush(stdout);
  std::_Exit(0);
}();

/// Child mode of Determinism.HelmholtzSolveIdenticalAcrossThreadCounts:
/// with HODLRX_TEST_HELMHOLTZ_THREADS=<t> set, this binary runs a small
/// Helmholtz BIE build -> factor -> solve (N = 1024, kappa = 20) on a pool
/// of t threads, prints the solution bytes in hex and exits before any test
/// runs.
const bool g_helmholtz_child = [] {
  const char* threads = std::getenv("HODLRX_TEST_HELMHOLTZ_THREADS");
  if (threads == nullptr) return false;
  setenv("HODLRX_NUM_THREADS", threads, 1);
  using C = std::complex<double>;
  const bie::BlobContour contour;
  const bie::HelmholtzCombinedBIE<C> gen(bie::discretize(contour, 1024), 20.0,
                                         20.0, 6);
  const HodlrMatrix<C> h =
      HodlrMatrix<C>::build(gen, ClusterTree::uniform(1024, 64));
  const auto f = HodlrFactorization<C>::factor(PackedHodlr<C>::pack(h));
  const Matrix<C> x = f.solve(random_matrix<C>(1024, 1, 5));
  const auto* bytes = reinterpret_cast<const unsigned char*>(x.data());
  for (std::size_t i = 0; i < x.bytes(); ++i) std::printf("%02x", bytes[i]);
  std::fflush(stdout);
  std::_Exit(0);
}();

constexpr const char* kBlockingVars[] = {
    "HODLRX_AUTOTUNE", "HODLRX_GEMM_TILE", "HODLRX_GEMM_MC",
    "HODLRX_GEMM_KC",  "HODLRX_GEMM_NC",   "HODLRX_TRSM_NB",
    "HODLRX_QR_NB"};

/// Clean-slate guard: clears every blocking variable on entry AND exit, and
/// re-resolves, so tests cannot leak state into each other (or inherit the
/// degenerate-blocking environments the extra CTest legs set globally).
class ScopedBlockingEnv {
 public:
  ScopedBlockingEnv() {
    clear();
    refresh();
  }
  ~ScopedBlockingEnv() {
    clear();
    refresh();
  }
  void set(const char* name, const std::string& value) {
    setenv(name, value.c_str(), 1);
  }
  void set(const char* name, index_t value) {
    set(name, std::to_string(static_cast<long long>(value)));
  }
  void refresh() { blocking_detail::refresh_for_testing(); }
  static void clear() {
    for (const char* v : kBlockingVars) unsetenv(v);
  }
};

template <typename T>
real_t<T> tol() {
  return std::is_same_v<real_t<T>, float> ? real_t<T>(2e-3) : real_t<T>(1e-10);
}

template <typename T>
class BlockingTyped : public ::testing::Test {};
using AllTypes = ::testing::Types<float, double, std::complex<float>,
                                  std::complex<double>>;
TYPED_TEST_SUITE(BlockingTyped, AllTypes);

/// --- env parser -----------------------------------------------------------

TEST(EnvParser, FallbacksAndClamps) {
  ScopedBlockingEnv env;
  unsetenv("HODLRX_TEST_KNOB");
  EXPECT_EQ(env_positive("HODLRX_TEST_KNOB", 37), 37) << "unset -> fallback";
  setenv("HODLRX_TEST_KNOB", "", 1);
  EXPECT_EQ(env_positive("HODLRX_TEST_KNOB", 37), 37) << "empty -> fallback";
  setenv("HODLRX_TEST_KNOB", "banana", 1);
  EXPECT_EQ(env_positive("HODLRX_TEST_KNOB", 37), 37)
      << "non-numeric -> fallback";
  setenv("HODLRX_TEST_KNOB", "0", 1);
  EXPECT_EQ(env_positive("HODLRX_TEST_KNOB", 37), 37) << "zero -> fallback";
  setenv("HODLRX_TEST_KNOB", "-12", 1);
  EXPECT_EQ(env_positive("HODLRX_TEST_KNOB", 37), 37)
      << "negative -> fallback";
  setenv("HODLRX_TEST_KNOB", "24", 1);
  EXPECT_EQ(env_positive("HODLRX_TEST_KNOB", 37), 24);
  EXPECT_EQ(env_positive("HODLRX_TEST_KNOB", 37, 32), 32) << "min clamp";
  setenv("HODLRX_TEST_KNOB", "17trailing", 1);
  EXPECT_EQ(env_positive("HODLRX_TEST_KNOB", 37), 17)
      << "leading number wins, text after digits ignored";
  setenv("HODLRX_TEST_KNOB", "4,2", 1);
  EXPECT_EQ(env_positive("HODLRX_TEST_KNOB", 37), 4)
      << "OMP-style lists read their first entry";
  unsetenv("HODLRX_TEST_KNOB");
}

/// Invalid blocking overrides must resolve exactly as if the variable were
/// unset — same values, same sources.
TEST(EnvParser, InvalidOverridesFallBackCleanly) {
  ScopedBlockingEnv env;
  const ResolvedBlocking base = resolved_blocking<double>();
  env.set("HODLRX_GEMM_MC", "banana");
  env.set("HODLRX_GEMM_KC", "0");
  env.set("HODLRX_GEMM_NC", "-7");
  env.set("HODLRX_TRSM_NB", "");
  env.set("HODLRX_QR_NB", "threeve");
  env.set("HODLRX_GEMM_TILE", "sideways");  // unknown tile names ignored too
  env.refresh();
  const ResolvedBlocking& rb = resolved_blocking<double>();
  EXPECT_EQ(rb.mc, base.mc);
  EXPECT_EQ(rb.kc, base.kc);
  EXPECT_EQ(rb.nc, base.nc);
  EXPECT_EQ(rb.trsm_nb, base.trsm_nb);
  EXPECT_EQ(rb.qr_nb, base.qr_nb);
  EXPECT_EQ(rb.mr, base.mr);
  EXPECT_EQ(rb.nr, base.nr);
  EXPECT_EQ(static_cast<int>(rb.mc_src), static_cast<int>(base.mc_src));
  EXPECT_EQ(static_cast<int>(rb.tile_src), static_cast<int>(base.tile_src));
}

TEST(EnvParser, ValidOverridesWinAndAreTaggedEnv) {
  ScopedBlockingEnv env;
  env.set("HODLRX_GEMM_MC", index_t{160});
  env.set("HODLRX_GEMM_KC", index_t{96});
  env.set("HODLRX_GEMM_NC", index_t{512});
  env.set("HODLRX_TRSM_NB", index_t{40});
  env.set("HODLRX_QR_NB", index_t{8});
  env.refresh();
  const ResolvedBlocking& rb = resolved_blocking<float>();
  EXPECT_EQ(rb.mc, 160);
  EXPECT_EQ(rb.kc, 96);
  EXPECT_EQ(rb.nc, 512);
  EXPECT_EQ(rb.trsm_nb, 40);
  EXPECT_EQ(rb.qr_nb, 8);
  EXPECT_EQ(rb.mc_src, BlockingSource::kEnv);
  EXPECT_EQ(rb.kc_src, BlockingSource::kEnv);
  EXPECT_EQ(rb.nc_src, BlockingSource::kEnv);
  EXPECT_EQ(rb.trsm_src, BlockingSource::kEnv);
  EXPECT_EQ(rb.qr_src, BlockingSource::kEnv);
}

/// --- HODLRX_AUTOTUNE=off: the static rung, bit-for-bit -------------------

TYPED_TEST(BlockingTyped, AutotuneOffReproducesStaticDefaults) {
  using T = TypeParam;
  ScopedBlockingEnv env;
  env.set("HODLRX_AUTOTUNE", "off");
  env.refresh();
  const ResolvedBlocking& rb = resolved_blocking<T>();
  EXPECT_EQ(rb.mr, GemmBlocking<T>::MR);
  EXPECT_EQ(rb.nr, GemmBlocking<T>::NR);
  EXPECT_EQ(rb.mc, GemmBlocking<T>::MC);
  EXPECT_EQ(rb.kc, GemmBlocking<T>::KC);
  EXPECT_EQ(rb.nc, GemmBlocking<T>::NC);
  EXPECT_EQ(rb.trsm_nb, 64) << "pre-adaptive HODLRX_TRSM_NB default";
  EXPECT_EQ(rb.qr_nb, 16) << "pre-adaptive HODLRX_QR_NB default";
  EXPECT_EQ(rb.mc_src, BlockingSource::kStatic);
  EXPECT_EQ(rb.kc_src, BlockingSource::kStatic);
  EXPECT_EQ(rb.nc_src, BlockingSource::kStatic);
  EXPECT_EQ(rb.trsm_src, BlockingSource::kStatic);
  EXPECT_EQ(rb.qr_src, BlockingSource::kStatic);
  EXPECT_EQ(rb.tile_src, BlockingSource::kStatic);
  // The static_blocking() helper must agree with itself across calls.
  const ResolvedBlocking s = static_blocking<T>();
  EXPECT_EQ(s.mc, rb.mc);
  EXPECT_EQ(s.kc, rb.kc);
  EXPECT_EQ(s.nc, rb.nc);
  // And "off" spellings are case-insensitive.
  env.set("HODLRX_AUTOTUNE", "FALSE");
  EXPECT_FALSE(autotune_enabled());
  env.set("HODLRX_AUTOTUNE", "0");
  EXPECT_FALSE(autotune_enabled());
  env.set("HODLRX_AUTOTUNE", "on");
  EXPECT_TRUE(autotune_enabled());
}

/// --- probe + model sanity -------------------------------------------------

TEST(Probe, TopologyIsSane) {
  const HwInfo& hw = hwinfo();
  EXPECT_GE(hw.l1d_bytes, std::size_t{4} << 10);
  EXPECT_LE(hw.l1d_bytes, std::size_t{1} << 20);
  EXPECT_GE(hw.l2_bytes, hw.l1d_bytes);
  if (hw.l3_bytes > 0) {
    EXPECT_GE(hw.l3_bytes, hw.l2_bytes);
  }
  EXPECT_GE(hw.line_bytes, std::size_t{16});
  EXPECT_LE(hw.line_bytes, std::size_t{512});
  EXPECT_GE(hw.logical_cpus, 1);
  EXPECT_STRNE(hw.family, "");
  // Probing again yields the same topology (the probe is deterministic).
  const HwInfo again = probe_hwinfo();
  EXPECT_EQ(again.l1d_bytes, hw.l1d_bytes);
  EXPECT_EQ(again.l2_bytes, hw.l2_bytes);
  EXPECT_EQ(again.l3_bytes, hw.l3_bytes);
  EXPECT_STREQ(again.source, hw.source);
  EXPECT_STREQ(again.family, hw.family);
}

/// The resolved (probe-rung) values must respect the capacity constraints
/// the model claims to enforce on THIS machine.
TYPED_TEST(BlockingTyped, ResolvedModelFitsProbedCaches) {
  using T = TypeParam;
  ScopedBlockingEnv env;  // autotune on, no overrides
  const ResolvedBlocking& rb = resolved_blocking<T>();
  const HwInfo& hw = hwinfo();
  const index_t szT = static_cast<index_t>(sizeof(T));
  // Packing invariants hold unconditionally.
  EXPECT_GE(rb.mc, rb.mr);
  EXPECT_GE(rb.nc, rb.nr);
  EXPECT_GE(rb.kc, 1);
  EXPECT_GE(rb.trsm_nb, 8);
  EXPECT_GE(rb.qr_nb, 1);
  if (std::string(hw.source) == "default" || !autotune_enabled())
    GTEST_SKIP() << "no probe on this host; static rung already covered";
  // One KC x MR packed A micro-panel fits (many times over) in L2, and the
  // full MC x KC packed A block fits in L2 — the level it is blocked for.
  EXPECT_LE(rb.kc * rb.mr * szT, static_cast<index_t>(hw.l2_bytes))
      << "KC*MR panel must fit the modeled L2";
  EXPECT_LE(rb.mc * rb.kc * szT, static_cast<index_t>(hw.l2_bytes))
      << "MC*KC A block must fit the modeled L2";
  // The L1 streaming constraint that sized KC.
  EXPECT_LE((rb.mr + rb.nr) * rb.kc * szT,
            static_cast<index_t>(hw.l1d_bytes))
      << "A+B micro-panels must stream from L1";
  // Model-derived cache levels are panel-aligned.
  if (rb.mc_src == BlockingSource::kProbe) {
    EXPECT_EQ(rb.mc % rb.mr, 0);
  }
  if (rb.nc_src == BlockingSource::kProbe) {
    EXPECT_EQ(rb.nc % rb.nr, 0);
  }
  // The TRSM kernel's diagonal block targets a quarter of L2 (or sits at
  // the 24-row floor).
  if (rb.trsm_src == BlockingSource::kProbe) {
    EXPECT_LE(rb.trsm_nb * rb.trsm_nb * szT * 4,
              std::max(static_cast<index_t>(hw.l2_bytes), 24 * 24 * szT * 4));
  }
}

/// The pure model over synthetic topologies: family drives the tile, cache
/// sizes drive the levels, and degenerate topologies stay clamped.
TYPED_TEST(BlockingTyped, ModelOverSyntheticTopologies) {
  using T = TypeParam;
  HwInfo hw;
  hw.l1d_bytes = std::size_t{32} << 10;
  hw.l2_bytes = std::size_t{512} << 10;
  hw.l3_bytes = std::size_t{8} << 20;
  hw.line_bytes = 64;
  hw.source = "cpuid";
  hw.sse2 = hw.avx = hw.fma = hw.avx2 = true;
  hw.family = "x86-avx2";
  const ResolvedBlocking avx2 = model_blocking<T>(hw);
  EXPECT_EQ(avx2.mr, GemmTiles<T>::kWide.mr) << "AVX2 host picks wide tile";
  EXPECT_EQ(avx2.nr, GemmTiles<T>::kWide.nr);
  EXPECT_LE((avx2.mr + avx2.nr) * avx2.kc * static_cast<index_t>(sizeof(T)),
            static_cast<index_t>(hw.l1d_bytes));
  EXPECT_LE(avx2.mc * avx2.kc * static_cast<index_t>(sizeof(T)),
            static_cast<index_t>(hw.l2_bytes));
  EXPECT_EQ(avx2.mc % avx2.mr, 0);
  EXPECT_EQ(avx2.nc % avx2.nr, 0);

  hw.avx2 = hw.fma = hw.avx = false;
  hw.family = "x86-sse";
  const ResolvedBlocking sse = model_blocking<T>(hw);
  EXPECT_EQ(sse.mr, GemmTiles<T>::kCompact.mr) << "SSE host picks compact";
  EXPECT_EQ(sse.nr, GemmTiles<T>::kCompact.nr);

  HwInfo tiny;  // pathological: 4 KiB L1, no L3, unknown family
  tiny.l1d_bytes = std::size_t{4} << 10;
  tiny.l2_bytes = std::size_t{32} << 10;
  tiny.l3_bytes = 0;
  tiny.line_bytes = 32;
  tiny.source = "sysfs";
  const ResolvedBlocking small = model_blocking<T>(tiny);
  EXPECT_GE(small.kc, 32) << "KC floor";
  EXPECT_GE(small.mc, small.mr);
  EXPECT_GE(small.nc, small.nr);
  EXPECT_EQ(small.nc, GemmBlocking<T>::NC) << "no L3 probed -> static NC";
  EXPECT_GE(small.trsm_nb, 24);
  EXPECT_LE(small.trsm_nb, 128);
}

/// --- micro-kernel dispatch ------------------------------------------------

/// Element-accessor reference (mirrors test_gemm_kernel's oracle).
template <typename T>
Matrix<T> gemm_ref(Op opa, Op opb, T alpha, ConstMatrixView<T> a,
                   ConstMatrixView<T> b, T beta, ConstMatrixView<T> c0) {
  auto at = [&](index_t i, index_t l) {
    return opa == Op::N ? a(i, l) : (opa == Op::T ? a(l, i) : conj_s(a(l, i)));
  };
  auto bt = [&](index_t l, index_t j) {
    return opb == Op::N ? b(l, j) : (opb == Op::T ? b(j, l) : conj_s(b(j, l)));
  };
  const index_t m = op_rows(opa, a), n = op_cols(opb, b);
  const index_t k = op_cols(opa, a);
  Matrix<T> c = to_matrix(c0);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      T s{};
      for (index_t l = 0; l < k; ++l) s += at(i, l) * bt(l, j);
      c(i, j) = alpha * s + beta * c(i, j);
    }
  return c;
}

/// Both compiled register-tile variants must be selectable by name and must
/// produce correct products (including through the prepacked batch paths,
/// whose tile offsets depend on MR/NR).
TYPED_TEST(BlockingTyped, BothTileVariantsCorrect) {
  using T = TypeParam;
  for (const char* tile : {"wide", "compact"}) {
    ScopedBlockingEnv env;
    env.set("HODLRX_GEMM_TILE", tile);
    env.refresh();
    const TileDims expect = std::string(tile) == "wide"
                                ? GemmTiles<T>::kWide
                                : GemmTiles<T>::kCompact;
    ASSERT_EQ(gemm_selected_tile<T>().mr, expect.mr) << tile;
    ASSERT_EQ(gemm_selected_tile<T>().nr, expect.nr) << tile;
    ASSERT_STREQ(gemm_selected_tile_name<T>(), tile);
    EXPECT_EQ(resolved_blocking<T>().tile_src, BlockingSource::kEnv);
    const index_t m = 2 * expect.mr + 3, n = 2 * expect.nr + 5, k = 67;
    Matrix<T> a = random_matrix<T>(m, k, 31);
    Matrix<T> b = random_matrix<T>(k, n, 32);
    Matrix<T> c0 = random_matrix<T>(m, n, 33);
    Matrix<T> c = to_matrix(c0.view());
    gemm_packed<T>(Op::N, Op::N, T{2}, a, b, T{1}, c.view());
    Matrix<T> want = gemm_ref<T>(Op::N, Op::N, T{2}, a, b, T{1}, c0.view());
    EXPECT_LE(rel_error(c, want), tol<T>()) << tile << " direct";
    // Prepacked (gemm_parallel's shared A-pack) layout under this tile.
    PackedMatrix<T> ap;
    pack_a_full_into<T>(Op::N, a.view(), ap);
    Matrix<T> c2 = to_matrix(c0.view());
    gemm_prepacked_a<T>(ap, T{2}, Op::N, b, T{1}, c2.view());
    EXPECT_LE(rel_error(c2, want), tol<T>()) << tile << " prepacked";
  }
}

/// A forced register tile gets the cache blocking the model derives for
/// THAT tile (KC's L1 streaming budget depends on mr + nr), not the cache
/// fields of the tile the model would have picked.
TYPED_TEST(BlockingTyped, ForcedTileDerivesItsOwnCacheBlocking) {
  using T = TypeParam;
  if (std::string(hwinfo().source) == "default")
    GTEST_SKIP() << "no probe on this host; the static rung derives nothing";
  for (const char* tile : {"wide", "compact"}) {
    ScopedBlockingEnv env;
    env.set("HODLRX_GEMM_TILE", tile);
    env.refresh();
    const TileDims dims = std::string(tile) == "wide"
                              ? GemmTiles<T>::kWide
                              : GemmTiles<T>::kCompact;
    const ResolvedBlocking& rb = resolved_blocking<T>();
    const ResolvedBlocking want = model_blocking<T>(hwinfo(), dims);
    EXPECT_EQ(rb.mr, dims.mr) << tile;
    EXPECT_EQ(rb.nr, dims.nr) << tile;
    EXPECT_EQ(rb.mc, want.mc) << tile;
    EXPECT_EQ(rb.kc, want.kc) << tile;
    EXPECT_EQ(rb.nc, want.nc) << tile;
    EXPECT_EQ(rb.tile_src, BlockingSource::kEnv) << tile;
    EXPECT_EQ(rb.kc_src, BlockingSource::kProbe) << tile;
  }
}

/// Output of a fresh child process of this binary started with `var` set
/// to `value` (one of the child modes above); empty when the child could not
/// be started.
std::string child_output(const char* var, const char* value) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe);
  if (len <= 0) return "";
  std::string cmd = "'";
  cmd.append(exe, static_cast<std::size_t>(len)).append("'");
  setenv(var, value, 1);
  FILE* pipe = popen(cmd.c_str(), "r");
  unsetenv(var);
  if (pipe == nullptr) return "";
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  EXPECT_EQ(pclose(pipe), 0);
  return out;
}

std::string child_blocking_records() {
  return child_output("HODLRX_TEST_PRINT_BLOCKING", "1");
}

/// The blocking is a pure function of the host and the environment: two
/// fresh processes resolve identical records for all four scalar types, and
/// so does this one. The tile and cache blocking fix the GEMM summation
/// order, so any per-process choice would break bitwise-repeatable runs.
TEST(Resolution, IdenticalAcrossFreshProcesses) {
  ASSERT_FALSE(g_child_mode);
  ScopedBlockingEnv env;
  const std::string first = child_blocking_records();
  const std::string second = child_blocking_records();
  ASSERT_FALSE(first.empty()) << "child process produced no records";
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, blocking_records());
}

/// A complex solve does not depend on the pool size: the Helmholtz BIE
/// pipeline gives the same solution bytes on 1 and 4 threads. (Level 1's
/// two recompression cores used to switch to a serial SVD driver when the
/// batch was smaller than the pool, and chunked TRSM updates picked their
/// kernel from the chunk width; both changed complex bits.)
TEST(Determinism, HelmholtzSolveIdenticalAcrossThreadCounts) {
  ASSERT_FALSE(g_helmholtz_child);
  const std::string one = child_output("HODLRX_TEST_HELMHOLTZ_THREADS", "1");
  const std::string four = child_output("HODLRX_TEST_HELMHOLTZ_THREADS", "4");
  ASSERT_EQ(one.size(), 2u * 1024 * sizeof(std::complex<double>))
      << "child process produced no solution";
  EXPECT_EQ(one, four);
}

/// Dispatch is stable: repeated serial, batched and stream launches do not
/// re-resolve the blocking, do not switch the tile, and do not create pool
/// threads beyond the first launch — so every path runs the SAME variant.
TEST(Dispatch, StableAcrossRepeatedLaunches) {
  ASSERT_TRUE(g_env_ready);
  ScopedBlockingEnv env;
  const index_t n = 160, batch = 8;
  Matrix<double> a = random_matrix<double>(n, n, 41);
  Matrix<double> b = random_matrix<double>(n, n * batch, 42);
  Matrix<double> c(n, n * batch);
  // Warm up: resolve, select the variant, spin up the pool.
  gemm_parallel<double>(Op::N, Op::N, 1.0, a, b.view().block(0, 0, n, n), 0.0,
                        c.view().block(0, 0, n, n));
  gemm_strided_batched<double>(Op::N, Op::N, n, n, n, 1.0, a.data(), n, 0,
                               b.data(), n, n * n, 0.0, c.data(), n, n * n,
                               batch);
  const TileDims tile0 = gemm_selected_tile<double>();
  const std::uint64_t resolved0 = blocking_stats::resolutions();
  const std::uint64_t threads0 = ThreadPool::instance().threads_created();
  for (int rep = 0; rep < 5; ++rep) {
    // Serial engine, pool-parallel stream path, strided-batched path.
    gemm_packed<double>(Op::N, Op::N, 1.0, a, b.view().block(0, 0, n, n),
                        0.0, c.view().block(0, 0, n, n));
    gemm_parallel<double>(Op::N, Op::N, 1.0, a, b.view().block(0, 0, n, n),
                          0.0, c.view().block(0, 0, n, n));
    gemm_strided_batched<double>(Op::N, Op::N, n, n, n, 1.0, a.data(), n, 0,
                                 b.data(), n, n * n, 0.0, c.data(), n, n * n,
                                 batch);
    const TileDims t = gemm_selected_tile<double>();
    EXPECT_EQ(t.mr, tile0.mr) << "variant switched mid-process";
    EXPECT_EQ(t.nr, tile0.nr);
  }
  EXPECT_EQ(blocking_stats::resolutions(), resolved0)
      << "repeated launches must not re-resolve the blocking";
  EXPECT_EQ(ThreadPool::instance().threads_created(), threads0)
      << "repeated launches must not re-create pool threads";
  // All four types resolve at most once per process refresh.
  gemm_packed<float>(Op::N, Op::N, 1.0f,
                     random_matrix<float>(40, 40, 1).view(),
                     random_matrix<float>(40, 40, 2).view(), 0.0f,
                     Matrix<float>(40, 40).view());
  const std::uint64_t resolved1 = blocking_stats::resolutions();
  gemm_packed<float>(Op::N, Op::N, 1.0f,
                     random_matrix<float>(40, 40, 1).view(),
                     random_matrix<float>(40, 40, 2).view(), 0.0f,
                     Matrix<float>(40, 40).view());
  EXPECT_EQ(blocking_stats::resolutions(), resolved1);
}

/// Launch accounting: trivial launches must stay inline. A one-iteration
/// parallel_for, an empty one, and a parallel_chunks over zero work have a
/// single participant — waking the whole pool for them (the old behavior)
/// burned a broadcast per K-block in the deep HODLR levels. Only launches
/// that actually reach the workers may count.
TEST(Dispatch, TrivialLaunchesStayInline) {
  ASSERT_TRUE(g_env_ready);
  ThreadPool& pool = ThreadPool::instance();
  // Warm up: make sure the pool exists and has served a real launch.
  parallel_for(2 * pool.threads(), [](index_t) {});
  const std::uint64_t launches0 = pool.launches();
  const std::uint64_t threads0 = pool.threads_created();
  parallel_for(index_t{1}, [](index_t) {});
  parallel_for(index_t{0}, [](index_t) {});
  parallel_for_static(index_t{1}, [](index_t) {});
  parallel_chunks(index_t{0}, [](index_t, index_t) {});
  EXPECT_EQ(pool.launches(), launches0)
      << "single-participant launches must not wake the pool";
  if (pool.threads() > 1) {
    // A real launch still counts exactly once, and a nested construct inside
    // it runs inline (no launch-from-worker storm).
    parallel_for_static(index_t{2}, [](index_t) {
      parallel_for_static(index_t{4}, [](index_t) {});
    });
    EXPECT_EQ(pool.launches(), launches0 + 1)
        << "nested constructs must run inline, not launch";
  }
  EXPECT_EQ(pool.threads_created(), threads0);
}

/// --- the randomized override property suite ------------------------------

/// One sampled override set. Pathological values on purpose: register-tile
/// sized, primes, huge; the resolver must clamp and every engine must stay
/// correct.
struct OverrideSet {
  index_t mc, kc, nc, trsm_nb, qr_nb;
};

OverrideSet sample_overrides(Rng& rng) {
  static constexpr index_t pool[] = {1,  2,   3,    5,    7,   8,    13,
                                     16, 24,  31,   61,   97,  101,  160,
                                     256, 509, 1009, 4096, 65536};
  constexpr index_t n_pool = static_cast<index_t>(std::size(pool));
  auto pick = [&] { return pool[rng.uniform_int(0, n_pool - 1)]; };
  OverrideSet s{pick(), pick(), pick(), pick(), pick()};
  // Bound the pack workspaces (KC*NC and MC*KC elements): a huge value is
  // allowed in one factor, not the product.
  const index_t cap = index_t{1} << 21;
  if (s.kc * s.nc > cap) s.nc = std::max<index_t>(1, cap / s.kc);
  if (s.mc * s.kc > cap) s.mc = std::max<index_t>(1, cap / s.kc);
  s.trsm_nb = std::min<index_t>(s.trsm_nb, 512);
  s.qr_nb = std::min<index_t>(s.qr_nb, 128);
  return s;
}

/// QR correctness oracle: factor a copy with the blocked driver under the
/// current (possibly pathological) panel width, reconstruct Q R, and compare
/// with the seed reference factorization of the same matrix.
template <typename T>
void check_qr(const Matrix<T>& a0) {
  const index_t m = a0.rows(), n = a0.cols();
  Matrix<T> fac = to_matrix(a0.view());
  std::vector<T> tau(std::min(m, n));
  geqrf_inplace<T>(fac.view(), tau.data());
  // R from the upper triangle, Q via the blocked thin-Q driver.
  Matrix<T> r(std::min(m, n), n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < r.rows(); ++i) r(i, j) = i <= j ? fac(i, j) : T{};
  Matrix<T> q = to_matrix(fac.view().block(0, 0, m, std::min(m, n)));
  thin_q_inplace<T>(q.view(), tau.data());
  Matrix<T> qr(m, n);
  gemm_packed<T>(Op::N, Op::N, T{1}, q, r, T{0}, qr.view());
  EXPECT_LE(rel_error<T>(qr.view(), a0.view()), 20 * tol<T>())
      << "Q R must reconstruct A";
  // Q^H Q = I.
  Matrix<T> g(q.cols(), q.cols());
  gemm_packed<T>(Op::C, Op::N, T{1}, q, q, T{0}, g.view());
  for (index_t i = 0; i < g.rows(); ++i) g(i, i) -= T{1};
  EXPECT_LE(norm_fro<T>(g), 20 * tol<T>()) << "Q must stay orthonormal";
}

template <typename T>
void run_property_sample(const OverrideSet& s, bool autotune_off,
                         std::uint64_t seed) {
  ScopedBlockingEnv env;
  if (autotune_off) env.set("HODLRX_AUTOTUNE", "off");
  env.set("HODLRX_GEMM_MC", s.mc);
  env.set("HODLRX_GEMM_KC", s.kc);
  env.set("HODLRX_GEMM_NC", s.nc);
  env.set("HODLRX_TRSM_NB", s.trsm_nb);
  env.set("HODLRX_QR_NB", s.qr_nb);
  env.refresh();
  const ResolvedBlocking& rb = resolved_blocking<T>();
  // Resolver clamps: overrides land verbatim except for well-formedness.
  ASSERT_EQ(rb.mc, std::max(s.mc, rb.mr));
  ASSERT_EQ(rb.kc, std::max<index_t>(s.kc, 1));
  ASSERT_EQ(rb.nc, std::max(s.nc, rb.nr));
  ASSERT_EQ(rb.trsm_nb, std::max<index_t>(s.trsm_nb, 8));
  ASSERT_EQ(rb.qr_nb, s.qr_nb);
  // GEMM: the packed engine against the element oracle on shapes that
  // straddle the (overridden) cache-block boundaries.
  {
    const index_t m = 2 * rb.mr + 5, n = 2 * rb.nr + 3;
    Matrix<T> a = random_matrix<T>(m, 73, seed);
    Matrix<T> b = random_matrix<T>(73, n, seed + 1);
    Matrix<T> c0 = random_matrix<T>(m, n, seed + 2);
    Matrix<T> c = to_matrix(c0.view());
    gemm_packed<T>(Op::N, Op::N, T{1}, a, b, T{-1}, c.view());
    EXPECT_LE(
        rel_error(c, gemm_ref<T>(Op::N, Op::N, T{1}, a, b, T{-1}, c0.view())),
        tol<T>());
    Matrix<T> at = random_matrix<T>(73, m, seed + 3);
    Matrix<T> bb = random_matrix<T>(n, 73, seed + 4);
    Matrix<T> c2 = to_matrix(c0.view());
    gemm_packed<T>(Op::C, Op::T, T{1}, at, bb, T{0}, c2.view());
    EXPECT_LE(
        rel_error(c2, gemm_ref<T>(Op::C, Op::T, T{1}, at, bb, T{0}, c0.view())),
        tol<T>());
  }
  // TRSM: blocked vs seed reference, both triangles.
  {
    const index_t n = 97, nrhs = 13;
    for (bool lower : {true, false}) {
      Matrix<T> a = random_triangular_matrix<T>(n, lower, seed + 5);
      Matrix<T> b = random_matrix<T>(n, nrhs, seed + 6);
      Matrix<T> x1 = to_matrix(b.view());
      Matrix<T> x2 = to_matrix(b.view());
      const Uplo uplo = lower ? Uplo::Lower : Uplo::Upper;
      trsm_left_blocked<T>(uplo, Diag::NonUnit, a, x1.view());
      trsm_left_reference<T>(uplo, Diag::NonUnit, a, x2.view());
      EXPECT_LE(rel_error(x1, x2), 50 * tol<T>());
    }
  }
  // QR: blocked driver under the overridden panel width.
  check_qr<T>(random_matrix<T>(83, 37, seed + 7));
}

TYPED_TEST(BlockingTyped, RandomizedOverrideProperty) {
  using T = TypeParam;
  Rng rng(2026 + sizeof(T));
  constexpr int kSamples = 20;  // per scalar type, autotune on AND off
  for (int i = 0; i < kSamples; ++i) {
    const OverrideSet s = sample_overrides(rng);
    SCOPED_TRACE(::testing::Message()
                 << "sample " << i << ": mc=" << s.mc << " kc=" << s.kc
                 << " nc=" << s.nc << " trsm_nb=" << s.trsm_nb
                 << " qr_nb=" << s.qr_nb);
    run_property_sample<T>(s, /*autotune_off=*/false, 1000 + 10 * i);
    run_property_sample<T>(s, /*autotune_off=*/true, 2000 + 10 * i);
  }
}

}  // namespace
}  // namespace hodlrx
