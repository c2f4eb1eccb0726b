#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/gemm_kernel.hpp"
#include "core/factorization.hpp"
#include "kernels/kernels.hpp"
#include "test_util.hpp"

namespace hodlrx {
namespace {

using test::rel_error;

struct FactorCase {
  index_t n;
  index_t leaf;
  ExecMode mode;
};

std::string case_name(const ::testing::TestParamInfo<FactorCase>& info) {
  const FactorCase& c = info.param;
  std::string s = "n" + std::to_string(c.n) + "_leaf" + std::to_string(c.leaf);
  s += c.mode == ExecMode::kSerial ? "_serial" : "_batched";
  return s;
}

class FactorizationSweep : public ::testing::TestWithParam<FactorCase> {};

TEST_P(FactorizationSweep, SolveMatchesDense) {
  const FactorCase& c = GetParam();
  using T = double;
  Matrix<T> a = test::smooth_test_matrix<T>(c.n, 7 + c.n);
  ClusterTree tree = ClusterTree::uniform(c.n, c.leaf);
  BuildOptions bopt;
  bopt.tol = 1e-12;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
  PackedHodlr<T> p = PackedHodlr<T>::pack(h);

  FactorOptions fopt;
  fopt.mode = c.mode;
  HodlrFactorization<T> f = HodlrFactorization<T>::factor(p, fopt);

  Matrix<T> b = random_matrix<T>(c.n, 4, 17 + c.n);
  Matrix<T> x = f.solve(b);
  // Residual against the dense matrix (compression 1e-12 dominates).
  EXPECT_LE(test::dense_relres<T>(a, x, b), 1e-8) << case_name({GetParam(), 0});
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, FactorizationSweep,
    ::testing::Values(
        FactorCase{64, 16, ExecMode::kSerial},
        FactorCase{64, 16, ExecMode::kBatched},
        FactorCase{100, 12, ExecMode::kSerial},
        FactorCase{100, 12, ExecMode::kBatched},
        FactorCase{256, 16, ExecMode::kSerial},
        FactorCase{256, 16, ExecMode::kBatched},
        FactorCase{256, 32, ExecMode::kBatched},
        FactorCase{255, 20, ExecMode::kSerial},
        FactorCase{255, 20, ExecMode::kBatched},
        FactorCase{512, 64, ExecMode::kBatched}),
    case_name);

template <typename T>
class FactorTyped : public ::testing::Test {};
using FactorTypes = ::testing::Types<float, double, std::complex<float>,
                                     std::complex<double>>;
TYPED_TEST_SUITE(FactorTyped, FactorTypes);

TYPED_TEST(FactorTyped, AllScalarTypes) {
  using T = TypeParam;
  using R = real_t<T>;
  const index_t n = 192;
  const double tol = std::is_same_v<R, float> ? 1e-5 : 1e-11;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 23);
  ClusterTree tree = ClusterTree::uniform(n, 24);
  BuildOptions bopt;
  bopt.tol = tol;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
  PackedHodlr<T> p = PackedHodlr<T>::pack(h);
  for (ExecMode mode : {ExecMode::kSerial, ExecMode::kBatched}) {
    FactorOptions fopt;
    fopt.mode = mode;
    HodlrFactorization<T> f = HodlrFactorization<T>::factor(p, fopt);
    Matrix<T> b = random_matrix<T>(n, 2, 29);
    Matrix<T> x = f.solve(b);
    EXPECT_LE(test::dense_relres<T>(a, x, b),
              R(std::is_same_v<R, float> ? 2e-3 : 1e-8));
  }
}

TEST(Factorization, SerialAndBatchedProduceSameSolution) {
  using T = double;
  const index_t n = 300;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 31);
  ClusterTree tree = ClusterTree::uniform(n, 25);
  BuildOptions bopt;
  bopt.tol = 1e-11;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
  PackedHodlr<T> p = PackedHodlr<T>::pack(h);

  FactorOptions so;
  so.mode = ExecMode::kSerial;
  FactorOptions bo;
  bo.mode = ExecMode::kBatched;
  HodlrFactorization<T> fs = HodlrFactorization<T>::factor(p, so);
  HodlrFactorization<T> fb = HodlrFactorization<T>::factor(p, bo);
  Matrix<T> b = random_matrix<T>(n, 3, 37);
  Matrix<T> xs = fs.solve(b);
  Matrix<T> xb = fb.solve(b);
  // Same algorithm, same data, different execution engines: results agree
  // to roundoff accumulation.
  EXPECT_LE(rel_error(xs, xb), 1e-12);
}

TEST(Factorization, MultiRhsMatchesSingleRhs) {
  using T = double;
  const index_t n = 160, nrhs = 7;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 41);
  ClusterTree tree = ClusterTree::uniform(n, 16);
  BuildOptions bopt;
  bopt.tol = 1e-11;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
  HodlrFactorization<T> f =
      HodlrFactorization<T>::factor(PackedHodlr<T>::pack(h), {});
  Matrix<T> b = random_matrix<T>(n, nrhs, 43);
  Matrix<T> x_all = f.solve(b);
  for (index_t j = 0; j < nrhs; ++j) {
    Matrix<T> xj = f.solve(b.view().block(0, j, n, 1));
    EXPECT_LE(rel_error<T>(xj.view(), x_all.view().block(0, j, n, 1)), 1e-13);
  }
}

TEST(Factorization, DepthZeroDegeneratesToDenseLU) {
  using T = double;
  const index_t n = 48;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 51);
  ClusterTree tree = ClusterTree::with_depth(n, 0);
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, {});
  for (ExecMode mode : {ExecMode::kSerial, ExecMode::kBatched}) {
    FactorOptions fopt;
    fopt.mode = mode;
    HodlrFactorization<T> f =
        HodlrFactorization<T>::factor(PackedHodlr<T>::pack(h), fopt);
    Matrix<T> b = random_matrix<T>(n, 2, 53);
    Matrix<T> x = f.solve(b);
    EXPECT_LE(test::dense_relres<T>(a, x, b), 1e-12);
  }
}

/// A diagonal matrix plus dense diagonal leaf blocks of `tree`: every
/// off-diagonal block is zero, so every level has rank 0.
template <typename T>
Matrix<T> block_diagonal_matrix(const ClusterTree& tree) {
  const index_t n = tree.n();
  Matrix<T> a(n, n);
  for (index_t i = 0; i < n; ++i) a(i, i) = T(3.0 + 0.01 * i);
  // Add dense diagonal leaf blocks so leaves are nontrivial.
  for (index_t j = 0; j < tree.num_leaves(); ++j) {
    const ClusterNode& c = tree.node(tree.leaf(j));
    for (index_t jj = c.begin; jj < c.end; ++jj)
      for (index_t ii = c.begin; ii < c.end; ++ii)
        a(ii, jj) += T(0.1 / (1.0 + std::abs(ii - jj)));
  }
  return a;
}

TEST(Factorization, BlockDiagonalRankZeroLevels) {
  using T = double;
  const index_t n = 128;
  ClusterTree tree = ClusterTree::uniform(n, 16);
  Matrix<T> a = block_diagonal_matrix<T>(tree);
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, {});
  EXPECT_EQ(h.max_rank(), 0);
  for (ExecMode mode : {ExecMode::kSerial, ExecMode::kBatched}) {
    FactorOptions fopt;
    fopt.mode = mode;
    HodlrFactorization<T> f =
        HodlrFactorization<T>::factor(PackedHodlr<T>::pack(h), fopt);
    Matrix<T> b = random_matrix<T>(n, 1, 59);
    Matrix<T> x = f.solve(b);
    EXPECT_LE(test::dense_relres<T>(a, x, b), 1e-13);
  }
}

TEST(Factorization, MemoryBytesTracked) {
  using T = double;
  const index_t n = 256;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 71);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, {});
  PackedHodlr<T> p = PackedHodlr<T>::pack(h);
  DeviceContext::global().reset_counters();
  {
    HodlrFactorization<T> f = HodlrFactorization<T>::factor(p, {});
    EXPECT_GT(f.bytes(), 0u);
    // V is the operator's (counted by h.bytes()), but the modeled device
    // footprint still holds it next to the factorization's own storage.
    EXPECT_EQ(f.device_bytes(), f.bytes() + h.panels()->vbig.bytes());
    EXPECT_EQ(DeviceContext::global().live_bytes(), f.device_bytes());
    EXPECT_GE(DeviceContext::global().h2d_bytes(), p.bytes());
  }
  EXPECT_EQ(DeviceContext::global().live_bytes(), 0u);
}

/// The factorization reads V in place (its V pointer is the HodlrMatrix's)
/// and co-owns the panels: made from a temporary pack of a HodlrMatrix that
/// is then destroyed, it solves bit-identically to one whose HodlrMatrix is
/// still alive, on both engines.
TEST(Factorization, OutlivesItsHodlrMatrix) {
  using T = double;
  const index_t n = 300;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 79);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions bopt;
  bopt.tol = 1e-11;
  const HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
  Matrix<T> b = random_matrix<T>(n, 2, 83);
  for (ExecMode mode : {ExecMode::kSerial, ExecMode::kBatched}) {
    FactorOptions fopt;
    fopt.mode = mode;
    const auto f_ref =
        HodlrFactorization<T>::factor(PackedHodlr<T>::pack(h), fopt);
    EXPECT_EQ(f_ref.vbig().data, h.vbig().data);
    auto owner = std::make_unique<HodlrMatrix<T>>(
        HodlrMatrix<T>::build_from_dense(a, tree, bopt));
    const auto f =
        HodlrFactorization<T>::factor(PackedHodlr<T>::pack(*owner), fopt);
    EXPECT_EQ(f.vbig().data, owner->vbig().data);
    owner.reset();
    const Matrix<T> x = f.solve(b);
    const Matrix<T> x_ref = f_ref.solve(b);
    EXPECT_EQ(std::memcmp(x.data(), x_ref.data(), x.bytes()), 0);
  }
}

/// Regression for the ld-aware uniform fast path of run_solve_batched: a
/// submatrix RHS view (x.ld > x.rows) must produce the same solution as a
/// contiguous RHS, bit for bit. Before the fix an `x.ld == x.rows`
/// condition silently dropped such views to the per-block gemm_batched
/// fallback; both launches now run the same per-problem kernels, so the
/// solution bytes are what the test can observe.
TEST(Factorization, StridedRhsViewStaysOnUniformFastPath) {
  using T = double;
  const index_t n = 256, nrhs = 3;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 83);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions bopt;
  bopt.tol = 1e-6;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, bopt);
  HodlrFactorization<T> f =
      HodlrFactorization<T>::factor(PackedHodlr<T>::pack(h), {});
  Matrix<T> b = random_matrix<T>(n, nrhs, 89);

  Matrix<T> xc = to_matrix(b.view());
  f.solve_inplace(xc.view());

  // The same RHS inside a larger buffer: n rows at offset 5, ld = n + 13.
  Matrix<T> big(n + 13, nrhs + 2);
  MatrixView<T> xs = big.block(5, 1, n, nrhs);
  copy<T>(b.view(), xs);
  f.solve_inplace(xs);

  for (index_t j = 0; j < nrhs; ++j)
    EXPECT_EQ(std::memcmp(xs.data + j * xs.ld, xc.data() + j * n,
                          static_cast<std::size_t>(n) * sizeof(T)),
              0)
        << "column " << j;
}

/// A 1-RHS solve and a 1-column apply are matrix-vector products at every
/// level. The top levels here are large enough (r * s >= 16384) for the
/// packed engine's size cutoff, yet none of their products may pack: the
/// GEMV kernel reads V and Y once, where packing would copy them first.
TEST(Factorization, OneRhsSolveAndApplyNeverPack) {
  const index_t n = 8192;
  GeometricTree g = build_kd_tree(uniform_random_points(n, 1, -1, 1, 11), 64);
  GaussianKernel<double> k(std::move(g.points), 0.5, 1e-2);
  BuildOptions bopt;
  bopt.tol = 1e-10;
  HodlrMatrix<double> h = HodlrMatrix<double>::build(k, g.tree, bopt);
  const index_t s1 = g.tree.node(ClusterTree::level_begin(1)).size();
  ASSERT_GE(h.layout().level_rank[1] * s1, 16384);
  HodlrFactorization<double> f =
      HodlrFactorization<double>::factor(PackedHodlr<double>::pack(h), {});
  Matrix<double> b = random_matrix<double>(n, 1, 12);
  Matrix<double> x = to_matrix(b.view());
  Matrix<double> ax(n, 1);

  gemm_stats::reset();
  f.solve_inplace(x.view());
  h.apply(x, ax.view());
  EXPECT_EQ(gemm_stats::a_packs(), 0u);
  EXPECT_EQ(gemm_stats::b_packs(), 0u);
  EXPECT_LE(rel_error(ax, b), 1e-8);
}

/// Forces the batched engine's subtree cut for one scope.
class ScopedCut {
 public:
  explicit ScopedCut(index_t lc) { detail::force_subtree_cut(lc); }
  ~ScopedCut() { detail::force_subtree_cut(-1); }
  ScopedCut(const ScopedCut&) = delete;
  ScopedCut& operator=(const ScopedCut&) = delete;
};

/// The bytes a batched factorization of `p` gives at cut `lc` (-1: the
/// rule's cut): the solution of a 1-RHS solve, the solution of a 5-column
/// solve into a submatrix view (ld > rows), and the log-determinant.
template <typename T>
std::vector<unsigned char> cut_bytes(const PackedHodlr<T>& p, index_t lc) {
  const ScopedCut cut(lc);
  const auto f = HodlrFactorization<T>::factor(p);
  const index_t n = f.n();
  Matrix<T> x1 = random_matrix<T>(n, 1, 97);
  f.solve_inplace(x1.view());
  Matrix<T> big(n + 7, 6);
  MatrixView<T> x5 = big.block(3, 1, n, 5);
  copy<T>(random_matrix<T>(n, 5, 98).view(), x5);
  f.solve_inplace(x5);
  const auto ld = f.logdet();
  std::vector<unsigned char> out;
  auto add = [&out](const void* data, std::size_t size) {
    const auto* c = static_cast<const unsigned char*>(data);
    out.insert(out.end(), c, c + size);
  };
  add(x1.data(), x1.bytes());
  for (index_t j = 0; j < 5; ++j)
    add(x5.data + j * x5.ld, static_cast<std::size_t>(n) * sizeof(T));
  add(&ld.log_abs, sizeof ld.log_abs);
  add(&ld.phase, sizeof ld.phase);
  return out;
}

/// Every cut lc = 0..L and the rule's own cut give the bytes of lc = L, the
/// plain level sweep.
template <typename T>
void expect_cut_invariant(const Matrix<T>& a, const ClusterTree& tree,
                          const char* what) {
  BuildOptions bopt;
  bopt.tol = std::is_same_v<real_t<T>, float> ? 1e-5 : 1e-10;
  const PackedHodlr<T> p =
      PackedHodlr<T>::pack(HodlrMatrix<T>::build_from_dense(a, tree, bopt));
  const index_t depth = tree.depth();
  const std::vector<unsigned char> ref = cut_bytes(p, depth);
  for (index_t lc = -1; lc < depth; ++lc) {
    const std::vector<unsigned char> got = cut_bytes(p, lc);
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size()), 0)
        << what << ", cut " << lc << " of depth " << depth;
  }
}

template <typename T>
void expect_cut_invariant_all_trees() {
  // Uniform, depth 6: cuts 3..5 run 8-32 subtree tasks at once.
  const ClusterTree uniform = ClusterTree::uniform(768, 12);
  ASSERT_EQ(uniform.depth(), 6);
  expect_cut_invariant(test::smooth_test_matrix<T>(768, 101), uniform,
                       "uniform");
  // k-d tree of 2-D points: its levels 4 and 5 are irregular.
  const GeometricTree kd =
      build_kd_tree(uniform_random_points(600, 2, -1, 1, 103), 20);
  ASSERT_EQ(kd.tree.depth(), 5);
  ASSERT_NE(kd.tree.node(ClusterTree::level_begin(4)).size(),
            kd.tree.node(ClusterTree::level_begin(4) + 1).size());
  expect_cut_invariant(test::smooth_test_matrix<T>(600, 107), kd.tree, "k-d");
  const ClusterTree blocks = ClusterTree::uniform(128, 16);
  expect_cut_invariant(block_diagonal_matrix<T>(blocks), blocks, "rank 0");
  for (index_t depth : {0, 1})
    expect_cut_invariant(test::smooth_test_matrix<T>(96, 109),
                         ClusterTree::with_depth(96, depth), "shallow");
}

/// The subtree phase's cut never changes a bit (factor_batched.cpp): one
/// pool task per subtree runs the same per-problem kernels on the same
/// operands as the level-synchronous launches.
TEST(Factorization, SubtreeCutIsBitwiseInvariant) {
  expect_cut_invariant_all_trees<float>();
  expect_cut_invariant_all_trees<double>();
  expect_cut_invariant_all_trees<std::complex<float>>();
  expect_cut_invariant_all_trees<std::complex<double>>();
}

TEST(Factorization, WrongRhsSizeThrows) {
  using T = double;
  const index_t n = 64;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 73);
  ClusterTree tree = ClusterTree::uniform(n, 16);
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, {});
  HodlrFactorization<T> f =
      HodlrFactorization<T>::factor(PackedHodlr<T>::pack(h), {});
  Matrix<T> b(n + 1, 1);
  EXPECT_THROW(f.solve_inplace(b.view()), Error);
}

}  // namespace
}  // namespace hodlrx
