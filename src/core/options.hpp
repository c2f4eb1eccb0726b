#pragma once

#include <cstdint>

#include "batched/batched_blas.hpp"
#include "common/config.hpp"
#include "common/fault.hpp"

/// \file options.hpp
/// Option structs for HODLR construction and factorization.

namespace hodlrx {

/// How the K matrices of eq. (11) are formulated (paper Sec. III-C, end):
/// the pivoted form needs partially pivoted LU; the identity-diagonal
/// variants run pivot-free LU at the cost of shuffling the right-hand side.
enum class KForm {
  kPivoted,           ///< K = [[V_a* Y_a, I], [I, V_b* Y_b]] + pivoted LU
  kIdentityDiagonal,  ///< K = [[I, V_b* Y_b], [V_a* Y_a, I]] + no pivoting
};

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

/// Factorization options.
struct FactorOptions {
  ExecMode mode = ExecMode::kBatched;
  KForm kform = KForm::kPivoted;
  BatchPolicy policy = BatchPolicy::kAuto;
  /// Breakdown policy for the factorization and checked-solve stages (zero
  /// pivot in the identity-diagonal K form, failed residual check).
  OnBreakdown on_breakdown = OnBreakdown::kRecover;
};

}  // namespace hodlrx
