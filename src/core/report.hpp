#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/scalar.hpp"

/// \file report.hpp
/// Structured breakdown diagnostics threaded through build / factor / solve.
/// Each stage fills the per-stage counters of its report (and, when
/// HODLRX_CHECK_FINITE is set, the NaN/Inf scan results); `events` carries
/// one human-readable line per breakdown or recovery action, in order.

namespace hodlrx {

/// Diagnostics of HodlrMatrix::build (compression stage) and
/// HodlrFactorization::factor (factorization stage); pass one object through
/// both calls to accumulate the full picture.
struct FactorReport {
  // --- compression stage ---------------------------------------------------
  index_t aca_stalls = 0;        ///< blocks whose ACA stalled or missed tol
  index_t aca_retries = 0;       ///< of those, re-compressed through rsvd
  index_t svd_nonconverged = 0;  ///< batched-SVD problems past the budget
  index_t svd_recovered = 0;     ///< of those, finished by the serial re-run
  // --- factorization stage -------------------------------------------------
  double max_pivot_growth = 0;   ///< max |entry| growth ratio across the LUs
  // --- stage-boundary scans (HODLRX_CHECK_FINITE) --------------------------
  index_t nonfinite_values = 0;  ///< NaN/Inf entries found at stage ends
  std::vector<std::string> events;  ///< one line per breakdown / recovery

  /// True when no breakdown of any kind was recorded.
  bool clean() const {
    return aca_stalls == 0 && svd_nonconverged == 0 && nonfinite_values == 0;
  }
};

/// Diagnostics of a checked solve (HodlrFactorization::solve_checked).
struct SolveReport {
  double relres = -1;        ///< ||b - A x||_F / ||b||_F (-1: not computed)
  bool residual_ok = true;   ///< relres met the requested tolerance
  bool refined = false;      ///< GMRES refinement was driven
  index_t gmres_iterations = 0;  ///< total refinement iterations (all RHS)
  index_t nonfinite_values = 0;  ///< NaN/Inf entries in the solution
  std::vector<std::string> events;
};

/// NaN/Inf count of a column-major view (the HODLRX_CHECK_FINITE scan).
template <typename T>
index_t count_nonfinite(ConstMatrixView<T> a) {
  index_t bad = 0;
  for (index_t j = 0; j < a.cols; ++j) {
    const T* col = a.data + j * a.ld;
    for (index_t i = 0; i < a.rows; ++i) {
      if constexpr (is_complex_v<T>) {
        if (!std::isfinite(col[i].real()) || !std::isfinite(col[i].imag()))
          ++bad;
      } else {
        if (!std::isfinite(static_cast<double>(col[i]))) ++bad;
      }
    }
  }
  return bad;
}

}  // namespace hodlrx
