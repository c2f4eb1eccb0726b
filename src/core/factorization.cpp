#include "core/factorization.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <string>

#include "common/blas.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/lapack.hpp"
#include "core/engine_detail.hpp"
#include "precond/gmres.hpp"

namespace hodlrx {

namespace {

/// View a flat coefficient array as one tall column for the finite scans.
template <typename T>
ConstMatrixView<T> flat_view(const T* data, std::size_t size) {
  const index_t sz = static_cast<index_t>(size);
  return {data, sz, 1, std::max<index_t>(sz, 1)};
}

}  // namespace

template <typename T>
HodlrFactorization<T> HodlrFactorization<T>::factor(
    const PackedHodlr<T>& packed, const FactorOptions& opt,
    FactorReport* report) {
  // Pivot-growth tracking is opt-in via the report (a per-column max scan
  // inside every LU would tax the hot path for nothing otherwise).
  lu_stats::ScopedTracking track(report != nullptr);
  if (report != nullptr) lu_stats::reset();
  HodlrFactorization<T> f = detail::FactorEngine<T>::stage(packed, opt);
  if (opt.mode == ExecMode::kSerial)
    detail::FactorEngine<T>::run_factor_serial(f);
  else
    detail::FactorEngine<T>::run_factor_batched(f);
  if (report != nullptr)
    report->max_pivot_growth =
        std::max(report->max_pivot_growth, lu_stats::max_pivot_growth());
  if (check_finite_enabled()) {
    using Engine = detail::FactorEngine<T>;
    index_t bad = count_nonfinite<T>(Engine::ybig(f)) +
                  count_nonfinite(f.vbig()) +
                  count_nonfinite(flat_view(f.dfac_.data(), f.dfac_.size()));
    for (const LevelK& k : f.kfac_)
      bad += count_nonfinite(flat_view(k.data.data(), k.data.size()));
    if (bad > 0) {
      if (report != nullptr) {
        report->nonfinite_values += bad;
        report->events.push_back("factor: " + std::to_string(bad) +
                                 " non-finite value(s) in the factors");
      }
      HODLRX_REQUIRE(opt.on_breakdown != OnBreakdown::kThrow,
                     "factor: " << bad
                                << " non-finite value(s) in the factors");
    }
  }
  return f;
}

template <typename T>
void HodlrFactorization<T>::solve_inplace(MatrixView<T> b) const {
  HODLRX_REQUIRE(b.rows == n(), "solve: rhs has " << b.rows << " rows, need "
                                                  << n());
  if (b.cols == 0) return;
  if (opt_.mode == ExecMode::kSerial)
    detail::FactorEngine<T>::run_solve_serial(*this, b);
  else
    detail::FactorEngine<T>::run_solve_batched(*this, b);
}

template <typename T>
SolveReport HodlrFactorization<T>::solve_checked(const HodlrMatrix<T>& a,
                                                MatrixView<T> b,
                                                double tol) const {
  SolveReport rep;
  HODLRX_REQUIRE(a.n() == n() && b.rows == n(),
                 "solve_checked: operator is " << a.n() << "x" << a.n()
                                               << ", rhs has " << b.rows
                                               << " rows, need " << n());
  const index_t nrhs = b.cols;
  if (nrhs == 0) {
    rep.relres = 0;
    return rep;
  }
  Matrix<T> b0 = to_matrix(ConstMatrixView<T>(b));
  solve_inplace(b);

  // True relative residual against the COMPRESSED operator (the system the
  // factorization claims to solve): ||b0 - A x||_F / ||b0||_F.
  const auto true_relres = [&]() -> double {
    Matrix<T> r(n(), nrhs);
    a.apply(ConstMatrixView<T>(b), r.view());
    double num = 0, den = 0;
    for (index_t j = 0; j < nrhs; ++j)
      for (index_t i = 0; i < n(); ++i) {
        num += static_cast<double>(abs2_s(b0(i, j) - r(i, j)));
        den += static_cast<double>(abs2_s(b0(i, j)));
      }
    return den > 0 ? std::sqrt(num / den) : 0.0;
  };
  rep.relres = true_relres();

  if (rep.relres > tol) {
    rep.residual_ok = false;
    rep.events.push_back("solve: relative residual " +
                         std::to_string(rep.relres) + " exceeds tol " +
                         std::to_string(tol));
    HODLRX_REQUIRE(opt_.on_breakdown != OnBreakdown::kThrow,
                   "solve_checked: relative residual "
                       << rep.relres << " exceeds tol " << tol);
    if (opt_.on_breakdown == OnBreakdown::kRecover) {
      // Final rung of the ladder: HODLR-preconditioned GMRES refinement,
      // this factorization as the left preconditioner (the paper's "robust
      // preconditioner" role) and the direct solution as the initial guess.
      rep.refined = true;
      const index_t nn = n();
      GmresOptions gopt;
      // GMRES stops on the PRECONDITIONED residual; aim two digits below
      // the caller's tolerance so the unpreconditioned residual lands under
      // it even when ||M|| amplifies the gap.
      gopt.tol = tol * 1e-2;
      gopt.restart = 50;
      gopt.max_iterations = 200;
      const LinearOp<T> apply_a = [&](const T* xin, T* yout) {
        a.apply(ConstMatrixView<T>{xin, nn, 1, nn},
                MatrixView<T>{yout, nn, 1, nn});
      };
      const LinearOp<T> precond = [&](const T* xin, T* yout) {
        std::copy_n(xin, nn, yout);
        MatrixView<T> v{yout, nn, 1, nn};
        solve_inplace(v);
      };
      for (index_t j = 0; j < nrhs; ++j) {
        const GmresResult<T> gr =
            gmres<T>(nn, apply_a, precond, b0.data() + j * b0.rows(),
                     b.data + j * b.ld, gopt);
        rep.gmres_iterations += gr.iterations;
        if (gr.stagnated)
          rep.events.push_back("solve: gmres stagnated on column " +
                               std::to_string(j));
      }
      rep.relres = true_relres();
      rep.residual_ok = rep.relres <= tol;
      rep.events.push_back("solve: refined to relative residual " +
                           std::to_string(rep.relres) + " in " +
                           std::to_string(rep.gmres_iterations) +
                           " gmres iteration(s)");
    }
  }

  if (check_finite_enabled()) {
    const index_t bad = count_nonfinite(ConstMatrixView<T>(b));
    if (bad > 0) {
      rep.nonfinite_values += bad;
      rep.events.push_back("solve: " + std::to_string(bad) +
                           " non-finite value(s) in the solution");
      HODLRX_REQUIRE(opt_.on_breakdown != OnBreakdown::kThrow,
                     "solve_checked: " << bad
                                       << " non-finite value(s) in the "
                                          "solution");
    }
  }
  return rep;
}

template <typename T>
std::size_t HodlrFactorization<T>::storage_bytes() const {
  std::size_t bytes = ybig_.bytes() + dfac_.bytes() +
                      d_ipiv_.size() * sizeof(index_t);
  for (const LevelK& k : kfac_)
    bytes += k.data.size() * sizeof(T) + k.ipiv.size() * sizeof(index_t);
  return bytes;
}

template class HodlrFactorization<float>;
template class HodlrFactorization<double>;
template class HodlrFactorization<std::complex<float>>;
template class HodlrFactorization<std::complex<double>>;

}  // namespace hodlrx
