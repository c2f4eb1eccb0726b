#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/fault.hpp"

/// \file options.hpp
/// Option structs for HODLR construction and factorization.

namespace hodlrx {

/// Which execution engine drives the level sweep.
enum class ExecMode {
  kSerial,   ///< Algorithms 1/2: plain loops, one thread (the CPU solver)
  kBatched,  ///< Algorithms 3/4: batched kernels on the device engine
};

/// Construction (compression) options. Every off-diagonal block is
/// compressed by rook-pivoted ACA (lowrank/aca.hpp).
struct BuildOptions {
  double tol = 1e-12;        ///< relative accuracy of low-rank blocks
  index_t max_rank = -1;     ///< per-block rank cap (-1: unlimited)
  bool recompress = true;    ///< SVD re-truncation after ACA
  int rook_iterations = 3;
  std::uint64_t seed = 7;
  /// Breakdown policy for the compression stage (ACA stall, sweep
  /// exhaustion in the batched recompression SVD): recover by default, see
  /// OnBreakdown (fault.hpp).
  OnBreakdown on_breakdown = OnBreakdown::kRecover;
};

/// Factorization options. Every K matrix of eq. (11),
/// K = [[V_a* Y_a, I], [I, V_b* Y_b]], is factored with partially pivoted
/// LU, and every batched launch picks its placement (batched or stream
/// mode) with BatchPolicy::kAuto.
struct FactorOptions {
  ExecMode mode = ExecMode::kBatched;
  /// Breakdown policy for the checked-solve stage (failed residual check)
  /// and the factor's HODLRX_CHECK_FINITE scan. An exact zero pivot in the
  /// pivoted LU throws under every policy.
  OnBreakdown on_breakdown = OnBreakdown::kRecover;
};

}  // namespace hodlrx
