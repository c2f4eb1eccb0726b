#include "baseline/recursive_solver.hpp"

#include <complex>

#include "common/error.hpp"
#include "common/lapack.hpp"
#include "common/parallel.hpp"

namespace hodlrx {

template <typename T>
RecursiveSolver<T> RecursiveSolver<T>::factor(const HodlrMatrix<T>& h,
                                              const Options& opt) {
  RecursiveSolver<T> s;
  s.h_ = &h;
  s.opt_ = opt;
  const ClusterTree& tree = h.tree();
  s.y_.resize(tree.num_nodes());
  s.leaf_lu_.resize(tree.num_leaves());
  s.leaf_piv_.resize(tree.num_leaves());
  s.k_.resize(tree.num_nodes());
  s.k_piv_.resize(tree.num_nodes());

  if (opt.parallel) {
#pragma omp parallel
#pragma omp single nowait
    s.factor_node(0);
  } else {
    s.factor_node(0);
  }
  return s;
}

template <typename T>
void RecursiveSolver<T>::factor_node(index_t nu) {
  const ClusterTree& tree = h_->tree();
  if (tree.is_leaf(nu)) {
    const index_t j = nu - ClusterTree::level_begin(tree.depth());
    leaf_lu_[j] = to_matrix(h_->leaf_block(j));  // copy, factor in place
    leaf_piv_[j].assign(leaf_lu_[j].rows(), 0);
    getrf(leaf_lu_[j].view(), leaf_piv_[j].data());
    return;
  }
  const index_t a = ClusterTree::left_child(nu);
  const index_t b = ClusterTree::right_child(nu);
  const bool spawn =
      opt_.parallel && tree.node(nu).size() >= opt_.task_cutoff;

  // Factor the two independent subproblems of eq. (7).
#pragma omp task if (spawn) default(shared)
  factor_node(a);
  factor_node(b);
#pragma omp taskwait

  // Y_a = A_a^{-1} U_a, Y_b = A_b^{-1} U_b via recursive solves.
  y_[a] = to_matrix(h_->u(a));
  y_[b] = to_matrix(h_->u(b));
  // Within-node work is serial (tasks=false): this is HODLRlib's model.
  if (y_[a].cols() > 0) solve_node(a, y_[a].view(), /*tasks=*/false);
  if (y_[b].cols() > 0) solve_node(b, y_[b].view(), /*tasks=*/false);

  // K_gamma of eq. (11) with exact ranks: blocks are
  // [[V_a^H Y_a, I_{rb}], [I_{ra}, V_b^H Y_b]] of size (ra + rb).
  const index_t ra = h_->rank(a);  // cols of U_a / rows of w_a
  const index_t rb = h_->rank(b);
  const index_t m = ra + rb;
  k_[nu] = Matrix<T>(m, m);
  if (m == 0) return;
  MatrixView<T> kk = k_[nu];
  if (ra > 0 && rb > 0) {
    gemm(Op::C, Op::N, T{1}, h_->v(a), y_[a], T{0}, kk.block(0, 0, rb, ra));
    gemm(Op::C, Op::N, T{1}, h_->v(b), y_[b], T{0}, kk.block(rb, ra, ra, rb));
  }
  for (index_t i = 0; i < rb; ++i) kk(i, ra + i) = T{1};
  for (index_t i = 0; i < ra; ++i) kk(rb + i, i) = T{1};
  k_piv_[nu].assign(m, 0);
  getrf(kk, k_piv_[nu].data());
}

template <typename T>
void RecursiveSolver<T>::solve_node(index_t nu, MatrixView<T> x,
                                    bool tasks) const {
  const ClusterTree& tree = h_->tree();
  if (tree.is_leaf(nu)) {
    const index_t j = nu - ClusterTree::level_begin(tree.depth());
    getrs(ConstMatrixView<T>(leaf_lu_[j]), leaf_piv_[j].data(), x);
    return;
  }
  const index_t a = ClusterTree::left_child(nu);
  const index_t b = ClusterTree::right_child(nu);
  const index_t na = tree.node(a).size();
  const index_t nb = tree.node(b).size();
  MatrixView<T> xa = x.block(0, 0, na, x.cols);
  MatrixView<T> xb = x.block(na, 0, nb, x.cols);
  const bool spawn =
      tasks && opt_.parallel && tree.node(nu).size() >= opt_.task_cutoff;

#pragma omp task if (spawn) default(shared)
  solve_node(a, xa, tasks);
  solve_node(b, xb, tasks);
#pragma omp taskwait

  const index_t ra = h_->rank(a);
  const index_t rb = h_->rank(b);
  const index_t m = ra + rb;
  if (m == 0) return;

  // Woodbury correction: K w = [V_a^H z_a; V_b^H z_b]; x -= [Y_a w_a; Y_b w_b].
  Matrix<T> w(m, x.cols);
  if (rb > 0)
    gemm(Op::C, Op::N, T{1}, h_->v(a), ConstMatrixView<T>(xa), T{0},
         w.block(0, 0, rb, x.cols));
  if (ra > 0)
    gemm(Op::C, Op::N, T{1}, h_->v(b), ConstMatrixView<T>(xb), T{0},
         w.block(rb, 0, ra, x.cols));
  getrs(ConstMatrixView<T>(k_[nu]), k_piv_[nu].data(), w.view());
  if (ra > 0)
    gemm(Op::N, Op::N, T{-1}, y_[a], ConstMatrixView<T>(w.block(0, 0, ra, x.cols)),
         T{1}, xa);
  if (rb > 0)
    gemm(Op::N, Op::N, T{-1}, y_[b],
         ConstMatrixView<T>(w.block(ra, 0, rb, x.cols)), T{1}, xb);
}

template <typename T>
void RecursiveSolver<T>::solve_inplace(MatrixView<T> b) const {
  HODLRX_REQUIRE(b.rows == h_->n(), "solve: wrong rhs size");
  if (opt_.parallel) {
#pragma omp parallel
#pragma omp single nowait
    solve_node(0, b, /*tasks=*/true);
  } else {
    solve_node(0, b, /*tasks=*/false);
  }
}

template <typename T>
std::size_t RecursiveSolver<T>::bytes() const {
  std::size_t bytes = 0;
  for (const auto& m : y_) bytes += m.bytes();
  for (const auto& m : leaf_lu_) bytes += m.bytes();
  for (const auto& m : k_) bytes += m.bytes();
  for (const auto& p : leaf_piv_) bytes += p.size() * sizeof(index_t);
  for (const auto& p : k_piv_) bytes += p.size() * sizeof(index_t);
  return bytes;
}

template class RecursiveSolver<float>;
template class RecursiveSolver<double>;
template class RecursiveSolver<std::complex<float>>;
template class RecursiveSolver<std::complex<double>>;

}  // namespace hodlrx
