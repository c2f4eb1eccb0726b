#pragma once

#include <memory>

#include "core/hodlr.hpp"

/// \file packed.hpp
/// The paper's big-matrix data structure (Figs. 3 and 4) as the
/// factorization consumes it. HodlrMatrix already stores its panels in this
/// layout, so a PackedHodlr is a handle: a copy of the layout metadata plus
/// shared ownership of the HodlrMatrix's panels. Packing copies no operator
/// data, and the panels stay alive as long as any handle (or factorization
/// made from one) does, even after the HodlrMatrix is destroyed.

namespace hodlrx {

template <typename T>
struct PackedHodlr : PanelLayout {
  /// The HodlrMatrix's panels and leaves, shared, never copied.
  std::shared_ptr<const HodlrPanels<T>> panels;

  /// O(nodes): copies the layout and shares the panels.
  static PackedHodlr pack(const HodlrMatrix<T>& h) {
    return PackedHodlr{h.layout(), h.panels()};
  }

  /// N x R panels of all U (resp. V) bases, ld = N; zero-padded per node.
  ConstMatrixView<T> ubig() const { return panels->u(); }
  ConstMatrixView<T> vbig() const { return panels->v(); }

  /// Bytes of the shared panels and leaves.
  std::size_t bytes() const { return panels->bytes(); }
};

}  // namespace hodlrx
