#pragma once

#include "common/parallel.hpp"
#include "core/factorization.hpp"

/// \file engine_detail.hpp
/// Internal glue between HodlrFactorization and its two execution engines.
/// Not part of the public API.

namespace hodlrx::detail {

template <typename T>
struct FactorEngine {
  using F = HodlrFactorization<T>;
  using LevelK = typename F::LevelK;

  /// Copy what the factorization overwrites "onto the device" — Ubig into
  /// Ybig and the leaf blocks into their LU storage, each one pool launch
  /// into fresh memory — share the operator's panels for V, and initialize
  /// metadata.
  static F stage(const PackedHodlr<T>& p, const FactorOptions& opt) {
    F f;
    f.tree_ = p.tree;
    f.opt_ = opt;
    f.level_rank_ = p.level_rank;
    f.col_offset_ = p.col_offset;
    f.total_cols_ = p.total_cols;
    f.level_uniform_ = p.level_uniform;
    f.leaves_uniform_ = p.leaves_uniform;
    f.panels_ = p.panels;
    f.ybig_ = AlignedBuffer<T>(p.panels->ubig.size());
    parallel_copy(p.panels->ubig.data(),
                  static_cast<index_t>(f.ybig_.size()), f.ybig_.data());
    f.dfac_ = AlignedBuffer<T>(p.panels->dbig.size());
    parallel_copy(p.panels->dbig.data(),
                  static_cast<index_t>(f.dfac_.size()), f.dfac_.data());
    f.d_offset_ = p.d_offset;
    f.d_ipiv_.assign(p.n, 0);

    // Pre-size the K-level containers (zeroed; engines fill them).
    const index_t depth = p.tree.depth();
    f.kfac_.resize(depth);
    for (index_t l = 0; l < depth; ++l) {
      LevelK& k = f.kfac_[l];
      k.r2 = 2 * p.level_rank[l + 1];
      k.count = index_t{1} << l;
      k.data.assign(static_cast<std::size_t>(k.count) * k.r2 * k.r2, T{});
      k.ipiv.assign(static_cast<std::size_t>(k.count) * k.r2, 0);
    }

    // Device accounting: the packed data crosses the link once; the
    // factorization storage and the V it reads live on the device.
    DeviceContext::global().record_h2d(p.bytes());
    f.device_mem_ = DeviceAllocation(f.device_bytes());
    return f;
  }

  // Engine entry points (factor_serial.cpp / factor_batched.cpp).
  static void run_factor_serial(F& f);
  static void run_factor_batched(F& f);
  static void run_solve_serial(const F& f, MatrixView<T> b);
  static void run_solve_batched(const F& f, MatrixView<T> b);

  // --- shared view helpers ------------------------------------------------
  static index_t depth(const F& f) { return f.tree_.depth(); }

  /// Ybig (N x R, ld = N).
  static MatrixView<T> ybig(F& f) {
    const index_t n = f.tree_.n();
    return {f.ybig_.data(), n, f.total_cols_, n};
  }
  static ConstMatrixView<T> ybig(const F& f) {
    const index_t n = f.tree_.n();
    return {f.ybig_.data(), n, f.total_cols_, n};
  }

  static MatrixView<T> leaf_lu(F& f, index_t j) {
    const index_t sz = f.tree_.node(f.tree_.leaf(j)).size();
    return {f.dfac_.data() + f.d_offset_[j], sz, sz, sz};
  }
  static ConstMatrixView<T> leaf_lu(const F& f, index_t j) {
    const index_t sz = f.tree_.node(f.tree_.leaf(j)).size();
    return {f.dfac_.data() + f.d_offset_[j], sz, sz, sz};
  }
  static index_t* leaf_pivots(F& f, index_t j) {
    return f.d_ipiv_.data() + f.tree_.node(f.tree_.leaf(j)).begin;
  }
  static const index_t* leaf_pivots(const F& f, index_t j) {
    return f.d_ipiv_.data() + f.tree_.node(f.tree_.leaf(j)).begin;
  }

  /// Fill the off-diagonal identity blocks of one K matrix (eq. 11); `r` is
  /// the padded child rank.
  static void fill_k_identities(MatrixView<T> kk, index_t r) {
    for (index_t i = 0; i < r; ++i) {
      kk(i, r + i) = T{1};
      kk(r + i, i) = T{1};
    }
  }
};

}  // namespace hodlrx::detail
