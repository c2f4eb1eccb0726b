#include <cmath>
#include <complex>

#include "core/engine_detail.hpp"

/// \file logdet.cpp
/// Log-determinant from the stored factorization (paper Sec. III-E a):
/// det(A) = prod_leaves det(D_a) * prod_gamma det(B_gamma), where B_gamma is
/// the 2x2-block identity-plus-low-rank factor and, by Sylvester's identity,
/// det(B_gamma) = det(I - T_a T_b) = (-1)^r det(K_gamma) (r = padded child
/// rank). All determinants come from the pivoted LU diagonals.

namespace hodlrx {

namespace {

template <typename T>
void accumulate_lu_det(ConstMatrixView<T> lu, const index_t* ipiv,
                       real_t<T>& log_abs, T& phase) {
  const index_t n = lu.rows;
  for (index_t k = 0; k < n; ++k) {
    const T ukk = lu(k, k);
    const real_t<T> a = abs_s(ukk);
    log_abs += std::log(a);
    phase *= ukk / T{a};
    if (ipiv[k] != k) phase = -phase;
  }
}

}  // namespace

template <typename T>
typename HodlrFactorization<T>::LogDet HodlrFactorization<T>::logdet() const {
  LogDet out;
  using Engine = detail::FactorEngine<T>;

  for (index_t j = 0; j < tree_.num_leaves(); ++j)
    accumulate_lu_det<T>(Engine::leaf_lu(*this, j), Engine::leaf_pivots(*this, j),
                         out.log_abs, out.phase);

  for (index_t l = 0; l < tree_.depth(); ++l) {
    const LevelK& klev = kfac_[l];
    const index_t r = level_rank_[l + 1];
    if (r == 0) continue;
    for (index_t k = 0; k < klev.count; ++k) {
      accumulate_lu_det<T>(klev.block(k), klev.pivots(k), out.log_abs,
                           out.phase);
      // det(B) = (-1)^r det(K).
      if (r % 2 == 1) out.phase = -out.phase;
    }
  }
  return out;
}

#define HODLRX_INSTANTIATE_LOGDET(T) \
  template typename HodlrFactorization<T>::LogDet HodlrFactorization<T>::logdet() const;

HODLRX_INSTANTIATE_LOGDET(float)
HODLRX_INSTANTIATE_LOGDET(double)
HODLRX_INSTANTIATE_LOGDET(std::complex<float>)
HODLRX_INSTANTIATE_LOGDET(std::complex<double>)

#undef HODLRX_INSTANTIATE_LOGDET

}  // namespace hodlrx
