#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/fault.hpp"
#include "common/lapack.hpp"
#include "common/parallel.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "core/factorization.hpp"
#include "precond/gmres.hpp"
#include "test_util.hpp"

/// \file test_faults.cpp
/// The fault-injection harness: every HODLRX_FAULT site is armed in turn and
/// the recovery ladder is asserted to (a) fire exactly where injected,
/// (b) heal the run back to tolerance under OnBreakdown::kRecover, and
/// (c) reproduce the pre-resilience exception behavior under kThrow. The
/// fault_stats invariant injected == recovered is counter-asserted
/// throughout.

namespace hodlrx {
namespace {

using fault::Site;
using test::ScopedEnv;

TEST(FaultSpec, SiteNames) {
  EXPECT_STREQ(fault::site_name(Site::kSvdSweeps), "svd.sweeps");
  EXPECT_STREQ(fault::site_name(Site::kAcaStall), "aca.stall");
  EXPECT_STREQ(fault::site_name(Site::kWorkspaceAlloc), "workspace.alloc");
}

TEST(FaultSpec, UnarmedSitesNeverFire) {
  ScopedEnv env("HODLRX_FAULT", nullptr);
  fault_stats::reset();
  for (int s = 0; s < static_cast<int>(Site::kNumSites); ++s)
    EXPECT_FALSE(fault::should_fire(static_cast<Site>(s)));
  EXPECT_EQ(fault_stats::injected(), 0u);
}

TEST(FaultSpec, FiresOnNthOccurrenceOnly) {
  ScopedEnv env("HODLRX_FAULT", "aca.stall:3");
  fault_stats::reset();
  EXPECT_FALSE(fault::should_fire(Site::kAcaStall));
  EXPECT_FALSE(fault::should_fire(Site::kAcaStall));
  EXPECT_TRUE(fault::should_fire(Site::kAcaStall));
  EXPECT_FALSE(fault::should_fire(Site::kAcaStall));
  EXPECT_EQ(fault_stats::injected(Site::kAcaStall), 1u);
  EXPECT_EQ(fault_stats::injected(), 1u);
  // Other sites stay unarmed.
  EXPECT_FALSE(fault::should_fire(Site::kWorkspaceAlloc));
  // reset() re-arms the spec.
  fault_stats::reset();
  EXPECT_FALSE(fault::should_fire(Site::kAcaStall));
  EXPECT_FALSE(fault::should_fire(Site::kAcaStall));
  EXPECT_TRUE(fault::should_fire(Site::kAcaStall));
}

TEST(FaultSpec, CommaSeparatedListArmsSeveralSites) {
  ScopedEnv env("HODLRX_FAULT", "workspace.alloc,svd.sweeps:2");
  fault_stats::reset();
  EXPECT_TRUE(fault::should_fire(Site::kWorkspaceAlloc));  // default nth = 1
  EXPECT_FALSE(fault::should_fire(Site::kSvdSweeps));
  EXPECT_TRUE(fault::should_fire(Site::kSvdSweeps));
  EXPECT_FALSE(fault::should_fire(Site::kAcaStall));
  EXPECT_EQ(fault_stats::injected(), 2u);
}

// ---------------------------------------------------------------------------
// workspace.alloc: arena growth failure -> drop every slot and retry once.
// ---------------------------------------------------------------------------

TEST(WorkspaceFault, AllocFailureDropsSlotsAndRetries) {
  ScopedEnv env("HODLRX_FAULT", "workspace.alloc");
  fault_stats::reset();
  WorkspaceArena& arena = WorkspaceArena::local();
  // Force a growth: ask for more than the arena currently holds in total.
  const std::size_t count = arena.bytes() / sizeof(double) + 4096;
  double* p = arena.get<double>(count, WorkspaceArena::kScratch);
  ASSERT_NE(p, nullptr);
  p[0] = 1.0;
  p[count - 1] = 2.0;  // the retried buffer is really usable
  EXPECT_EQ(fault_stats::injected(Site::kWorkspaceAlloc), 1u);
  EXPECT_EQ(fault_stats::recovered(Site::kWorkspaceAlloc), 1u);
  // Steady state afterwards: same request, no growth, no second firing.
  double* q = arena.get<double>(count, WorkspaceArena::kScratch);
  EXPECT_EQ(p, q);
  EXPECT_EQ(fault_stats::injected(Site::kWorkspaceAlloc), 1u);
}

// ---------------------------------------------------------------------------
// aca.stall: compression stall -> rsvd retry of the block.
// ---------------------------------------------------------------------------

TEST(AcaStallFault, ThrowPolicyReproducesLegacyError) {
  ScopedEnv env("HODLRX_FAULT", "aca.stall");
  fault_stats::reset();
  const index_t n = 128;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 601);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions bopt;
  bopt.tol = 1e-10;
  bopt.on_breakdown = OnBreakdown::kThrow;
  EXPECT_THROW(HodlrMatrix<double>::build_from_dense(a, tree, bopt), Error);
  EXPECT_EQ(fault_stats::injected(Site::kAcaStall), 1u);
  EXPECT_EQ(fault_stats::recovered(Site::kAcaStall), 0u);
}

TEST(AcaStallFault, RecoverRetriesThroughRsvd) {
  ScopedEnv env("HODLRX_FAULT", "aca.stall");
  fault_stats::reset();
  const index_t n = 128;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 607);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions bopt;
  bopt.tol = 1e-10;
  FactorReport rep;
  HodlrMatrix<double> h =
      HodlrMatrix<double>::build_from_dense(a, tree, bopt, &rep);
  EXPECT_GE(rep.aca_stalls, 1);
  EXPECT_EQ(rep.aca_retries, rep.aca_stalls);
  EXPECT_FALSE(rep.clean());
  EXPECT_FALSE(rep.events.empty());
  // The injected stall was healed and the approximation is full quality.
  EXPECT_EQ(fault_stats::injected(), fault_stats::recovered());
  EXPECT_EQ(fault_stats::injected(Site::kAcaStall), 1u);
  EXPECT_LE(test::rel_error<double>(h.to_dense(), a), 1e-8);
}

TEST(AcaStallFault, ReportPolicyKeepsAchievedRank) {
  ScopedEnv env("HODLRX_FAULT", "aca.stall");
  fault_stats::reset();
  const index_t n = 128;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 613);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions bopt;
  bopt.tol = 1e-10;
  bopt.on_breakdown = OnBreakdown::kReport;
  FactorReport rep;
  HodlrMatrix<double> h =
      HodlrMatrix<double>::build_from_dense(a, tree, bopt, &rep);
  EXPECT_GE(rep.aca_stalls, 1);
  EXPECT_EQ(rep.aca_retries, 0);  // recorded, NOT retried
  EXPECT_EQ(fault_stats::recovered(Site::kAcaStall), 0u);
  // The stalled block keeps its achieved-rank factor: the representation is
  // degraded but usable (a crude approximation, not garbage).
  EXPECT_LE(test::rel_error<double>(h.to_dense(), a), 0.5);
}

// ---------------------------------------------------------------------------
// svd.sweeps: batched Jacobi budget exhaustion -> serial re-run at 4x.
// ---------------------------------------------------------------------------

/// The starved sweep is the first uniform level's batched recompression in
/// an ACA build: its unconverged cores are re-run serially and reported.
TEST(SvdSweepsFault, BatchedBuildRecoversThroughSerialRerun) {
  ScopedEnv env("HODLRX_FAULT", "svd.sweeps");
  fault_stats::reset();
  const index_t n = 256;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 617);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions bopt;
  bopt.tol = 1e-10;
  FactorReport rep;
  HodlrMatrix<double> h =
      HodlrMatrix<double>::build_from_dense(a, tree, bopt, &rep);
  EXPECT_GT(rep.svd_nonconverged, 0);
  EXPECT_EQ(rep.svd_recovered, rep.svd_nonconverged);
  EXPECT_FALSE(rep.clean());
  EXPECT_FALSE(rep.events.empty());
  EXPECT_EQ(fault_stats::injected(Site::kSvdSweeps), 1u);
  EXPECT_EQ(fault_stats::injected(), fault_stats::recovered());
  EXPECT_LE(test::rel_error<double>(h.to_dense(), a), 1e-8);
}

/// kReport keeps the unconverged cores of the starved sweep in every build
/// type: the build returns, reports them and heals none.
TEST(SvdSweepsFault, ReportPolicyKeepsUnconvergedFactors) {
  ScopedEnv env("HODLRX_FAULT", "svd.sweeps");
  fault_stats::reset();
  const index_t n = 256;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 617);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions bopt;
  bopt.tol = 1e-10;
  bopt.on_breakdown = OnBreakdown::kReport;
  FactorReport rep;
  HodlrMatrix<double> h =
      HodlrMatrix<double>::build_from_dense(a, tree, bopt, &rep);
  EXPECT_GT(rep.svd_nonconverged, 0);
  EXPECT_EQ(rep.svd_recovered, 0);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(fault_stats::injected(Site::kSvdSweeps), 1u);
  EXPECT_EQ(fault_stats::recovered(Site::kSvdSweeps), 0u);
}

TEST(SvdSweepsFault, ThrowPolicyRaises) {
  ScopedEnv env("HODLRX_FAULT", "svd.sweeps");
  fault_stats::reset();
  const index_t n = 256;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 617);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions bopt;
  bopt.tol = 1e-10;
  bopt.on_breakdown = OnBreakdown::kThrow;
  EXPECT_THROW(HodlrMatrix<double>::build_from_dense(a, tree, bopt), Error);
  EXPECT_EQ(fault_stats::injected(Site::kSvdSweeps), 1u);
  EXPECT_EQ(fault_stats::recovered(), 0u);
}

/// A tree with no uniform level (255 rows: every level splits one node
/// unevenly), so the build recompresses every block inside its ACA task,
/// through the per-block path.
ClusterTree all_irregular_tree() {
  ClusterTree tree = ClusterTree::uniform(255, 20);
  for (index_t l = 1; l <= tree.depth(); ++l)
    EXPECT_NE(tree.node(ClusterTree::level_begin(l)).size(),
              tree.node(ClusterTree::level_begin(l) + 1).size())
        << "level " << l;
  return tree;
}

/// One Jacobi sweep per core: the per-block recompressions' core SVDs
/// exhaust their budget, and the report counts every one of them.
TEST(SvdSweepsFault, PerBlockReportCountsEveryCore) {
  ScopedEnv fault_env("HODLRX_FAULT", nullptr);
  ScopedEnv env("HODLRX_SVD_SWEEPS", "1");
  Matrix<double> a = test::smooth_test_matrix<double>(255, 619);
  BuildOptions bopt;
  bopt.tol = 1e-10;
  bopt.on_breakdown = OnBreakdown::kReport;
  FactorReport rep;
  const std::uint64_t before = svd_stats::nonconverged();
  HodlrMatrix<double>::build_from_dense(a, all_irregular_tree(), bopt, &rep);
  const std::uint64_t missed = svd_stats::nonconverged() - before;
  EXPECT_GT(missed, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(rep.svd_nonconverged), missed);
  EXPECT_EQ(rep.svd_recovered, 0);
  EXPECT_FALSE(rep.clean());
}

TEST(SvdSweepsFault, PerBlockThrowPolicyRaises) {
  ScopedEnv fault_env("HODLRX_FAULT", nullptr);
  ScopedEnv env("HODLRX_SVD_SWEEPS", "1");
  Matrix<double> a = test::smooth_test_matrix<double>(255, 619);
  BuildOptions bopt;
  bopt.tol = 1e-10;
  bopt.on_breakdown = OnBreakdown::kThrow;
  EXPECT_THROW(
      HodlrMatrix<double>::build_from_dense(a, all_irregular_tree(), bopt),
      Error);
}

// ---------------------------------------------------------------------------
// Post-solve residual check -> HODLR-preconditioned GMRES refinement.
// ---------------------------------------------------------------------------

TEST(SolveChecked, AccurateFactorizationNeedsNoRefinement) {
  ScopedEnv env("HODLRX_FAULT", nullptr);
  const index_t n = 192;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 653);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions bopt;
  bopt.tol = 1e-12;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, bopt);
  auto f = HodlrFactorization<double>::factor(PackedHodlr<double>::pack(h), {});
  Matrix<double> b = random_matrix<double>(n, 2, 659);
  SolveReport rep = f.solve_checked(h, b.view(), 1e-10);
  EXPECT_TRUE(rep.residual_ok);
  EXPECT_FALSE(rep.refined);
  EXPECT_EQ(rep.gmres_iterations, 0);
  EXPECT_GE(rep.relres, 0.0);
  EXPECT_LE(rep.relres, 1e-10);
}

TEST(SolveChecked, CrudeFactorizationIsRefinedByGmres) {
  ScopedEnv env("HODLRX_FAULT", nullptr);
  const index_t n = 256;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 661);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  // An accurate compressed operator...
  BuildOptions bopt;
  bopt.tol = 1e-12;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, bopt);
  // ...but a factorization of a CRUDE compression of the same matrix: the
  // direct solve leaves a large residual against `h`, which is exactly the
  // paper's low-accuracy-preconditioner scenario.
  BuildOptions crude;
  crude.tol = 1e-2;
  crude.max_rank = 3;
  HodlrMatrix<double> hc =
      HodlrMatrix<double>::build_from_dense(a, tree, crude);
  auto f =
      HodlrFactorization<double>::factor(PackedHodlr<double>::pack(hc), {});
  Matrix<double> b = random_matrix<double>(n, 2, 673);
  Matrix<double> x = to_matrix(b.view());
  SolveReport rep = f.solve_checked(h, x.view(), 1e-10);
  EXPECT_TRUE(rep.refined);
  EXPECT_TRUE(rep.residual_ok);
  EXPECT_GT(rep.gmres_iterations, 0);
  EXPECT_LE(rep.relres, 1e-10);
  EXPECT_FALSE(rep.events.empty());
  // And against the original dense matrix the refined solution is as good
  // as the 1e-12 compression allows.
  EXPECT_LE(test::dense_relres<double>(a, ConstMatrixView<double>(x), b),
            1e-8);
}

TEST(SolveChecked, ThrowAndReportPolicies) {
  ScopedEnv env("HODLRX_FAULT", nullptr);
  const index_t n = 192;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 677);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions bopt;
  bopt.tol = 1e-12;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, bopt);
  BuildOptions crude;
  crude.tol = 1e-2;
  crude.max_rank = 3;
  HodlrMatrix<double> hc =
      HodlrMatrix<double>::build_from_dense(a, tree, crude);
  Matrix<double> b = random_matrix<double>(n, 1, 683);

  FactorOptions tf;
  tf.on_breakdown = OnBreakdown::kThrow;
  auto fthrow =
      HodlrFactorization<double>::factor(PackedHodlr<double>::pack(hc), tf);
  Matrix<double> x0 = to_matrix(b.view());
  EXPECT_THROW(fthrow.solve_checked(h, x0.view(), 1e-10), Error);

  FactorOptions rf;
  rf.on_breakdown = OnBreakdown::kReport;
  auto freport =
      HodlrFactorization<double>::factor(PackedHodlr<double>::pack(hc), rf);
  Matrix<double> x1 = to_matrix(b.view());
  SolveReport rep = freport.solve_checked(h, x1.view(), 1e-10);
  EXPECT_FALSE(rep.residual_ok);
  EXPECT_FALSE(rep.refined);
  EXPECT_GT(rep.relres, 1e-10);
  EXPECT_FALSE(rep.events.empty());
}

// ---------------------------------------------------------------------------
// GMRES stagnation + happy breakdown (satellite).
// ---------------------------------------------------------------------------

TEST(GmresFlags, StagnationDetectedAndReturnsEarly) {
  // The classic no-progress example: a cyclic shift matrix. Restarted
  // GMRES(4) on n = 32 repeats identical cycles forever; the stagnation
  // guard must bail out instead of burning max_iterations.
  using T = double;
  const index_t n = 32;
  Matrix<T> a(n, n);
  for (index_t j = 0; j < n; ++j) a((j + 1) % n, j) = 1.0;
  std::vector<T> b(n, 0.0), x(n, 0.0);
  b[0] = 1.0;
  const LinearOp<T> op = [&](const T* xin, T* y) {
    gemv<T>(Op::N, T{1}, a, xin, T{0}, y);
  };
  GmresOptions opt;
  opt.restart = 4;
  opt.max_iterations = 100;
  opt.tol = 1e-12;
  const auto res = gmres<T>(n, op, {}, b.data(), x.data(), opt);
  EXPECT_TRUE(res.stagnated);
  EXPECT_FALSE(res.converged);
  EXPECT_LT(res.iterations, 100);
}

TEST(GmresFlags, HappyBreakdownFlagged) {
  using T = double;
  const index_t n = 24;
  Matrix<T> a = Matrix<T>::identity(n);
  Matrix<T> b = random_matrix<T>(n, 1, 691);
  std::vector<T> x(n, 0.0);
  const LinearOp<T> op = [&](const T* xin, T* y) {
    gemv<T>(Op::N, T{1}, a, xin, T{0}, y);
  };
  const auto res = gmres<T>(n, op, {}, b.data(), x.data(), {});
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.breakdown);  // A = I: the Krylov space is invariant at 1
  EXPECT_FALSE(res.stagnated);
}

// ---------------------------------------------------------------------------
// Thread-pool exception propagation (satellite regression test).
// ---------------------------------------------------------------------------

TEST(ThreadPoolFault, WorkerExceptionPropagatesAndPoolSurvives) {
  ThreadPool& pool = ThreadPool::instance();
  const std::uint64_t created_before = pool.threads_created();
  EXPECT_THROW(parallel_for(64,
                            [](index_t i) {
                              if (i == 13)
                                throw std::runtime_error("injected task fault");
                            }),
               std::runtime_error);
  // The pool is immediately reusable — no worker died, none respawned.
  std::atomic<int> count{0};
  parallel_for(64, [&](index_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
  EXPECT_EQ(pool.threads_created(), created_before);
}

// ---------------------------------------------------------------------------
// HODLRX_CHECK_FINITE stage-boundary scans.
// ---------------------------------------------------------------------------

/// A smooth generator with one NaN planted inside the first leaf's diagonal
/// block (the compressed representation stores it verbatim).
class NanLeafGenerator final : public MatrixGenerator<double> {
 public:
  explicit NanLeafGenerator(Matrix<double> a) : a_(std::move(a)) {
    a_(1, 2) = std::numeric_limits<double>::quiet_NaN();
  }
  index_t rows() const override { return a_.rows(); }
  index_t cols() const override { return a_.cols(); }
  double entry(index_t i, index_t j) const override { return a_(i, j); }

 private:
  Matrix<double> a_;
};

TEST(CheckFinite, BuildScanFindsPlantedNan) {
  ScopedEnv fault_env("HODLRX_FAULT", nullptr);
  ScopedEnv env("HODLRX_CHECK_FINITE", "1");
  const index_t n = 128;
  NanLeafGenerator g(test::smooth_test_matrix<double>(n, 701));
  ClusterTree tree = ClusterTree::uniform(n, 32);

  BuildOptions rec;  // default kRecover: record, keep going
  FactorReport rep;
  HodlrMatrix<double> h = HodlrMatrix<double>::build(g, tree, rec, &rep);
  EXPECT_GE(rep.nonfinite_values, 1);
  EXPECT_FALSE(rep.clean());
  EXPECT_FALSE(rep.events.empty());

  BuildOptions thr;
  thr.on_breakdown = OnBreakdown::kThrow;
  EXPECT_THROW(HodlrMatrix<double>::build(g, tree, thr), Error);
}

TEST(CheckFinite, DisabledScanIsSilent) {
  ScopedEnv fault_env("HODLRX_FAULT", nullptr);
  ScopedEnv env("HODLRX_CHECK_FINITE", "0");
  const index_t n = 64;
  NanLeafGenerator g(test::smooth_test_matrix<double>(n, 703));
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions thr;
  thr.on_breakdown = OnBreakdown::kThrow;
  FactorReport rep;
  // Without the scan the NaN passes through silently even under kThrow
  // (compression never looks at the leaf diagonal entries).
  HodlrMatrix<double> h = HodlrMatrix<double>::build(g, tree, thr, &rep);
  EXPECT_EQ(rep.nonfinite_values, 0);
}

// ---------------------------------------------------------------------------
// Acceptance: both numerical sites armed, one batched build + factor +
// checked solve.
// ---------------------------------------------------------------------------

TEST(Acceptance, FullLadderHealsOneBatchedRun) {
  ScopedEnv env("HODLRX_FAULT", "svd.sweeps,aca.stall");
  fault_stats::reset();
  const index_t n = 256;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 709);
  ClusterTree tree = ClusterTree::uniform(n, 32);

  // ONE ACA build + batched factor + checked solve, with both numerical
  // sites armed. The build trips both the ACA stall (rsvd retry) and the
  // starved recompression sweep (serial re-run). Everything is healed
  // in-flight: the run reaches tolerance and every injected fault has a
  // matching recovery.
  BuildOptions bopt;
  bopt.tol = 1e-10;
  FactorReport rep;
  HodlrMatrix<double> h =
      HodlrMatrix<double>::build_from_dense(a, tree, bopt, &rep);
  EXPECT_GE(rep.aca_retries, 1);
  EXPECT_GT(rep.svd_recovered, 0);
  EXPECT_LE(test::rel_error<double>(h.to_dense(), a), 1e-8);

  FactorOptions fopt;
  fopt.mode = ExecMode::kBatched;
  auto f = HodlrFactorization<double>::factor(PackedHodlr<double>::pack(h),
                                              fopt, &rep);
  EXPECT_GT(rep.max_pivot_growth, 0.0);  // growth tracking was on

  Matrix<double> b = random_matrix<double>(n, 2, 719);
  Matrix<double> x = to_matrix(b.view());
  SolveReport srep = f.solve_checked(h, x.view(), 1e-8);
  EXPECT_TRUE(srep.residual_ok);
  EXPECT_LE(srep.relres, 1e-8);
  EXPECT_LE(test::dense_relres<double>(a, ConstMatrixView<double>(x), b),
            1e-7);

  // The harness invariant: every injected fault was recovered, nothing
  // recovered that was not injected.
  EXPECT_EQ(fault_stats::injected(Site::kSvdSweeps), 1u);
  EXPECT_EQ(fault_stats::injected(Site::kAcaStall), 1u);
  EXPECT_EQ(fault_stats::injected(), 2u);
  EXPECT_EQ(fault_stats::injected(), fault_stats::recovered());
}

}  // namespace
}  // namespace hodlrx
