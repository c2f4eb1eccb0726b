#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <cstdlib>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "batched/batched_blas.hpp"
#include "common/blas.hpp"
#include "common/error.hpp"
#include "common/lapack.hpp"
#include "common/matrix.hpp"
#include "common/random.hpp"
#include "device/backend.hpp"
#include "device/device.hpp"
#include "reference/lapack_reference.hpp"
#include "reference/trsm_reference.hpp"
#include "test_util.hpp"

/// \file test_backend_conformance.cpp
/// The backend contract: the suites here run against EVERY registered
/// backend (backend_names()), and a future CUDA/HIP backend must pass them
/// unchanged. Covered: batched-driver results vs the serial references
/// across the 4 scalar types and edge shapes, stream FIFO ordering,
/// cross-stream ordering via events, event reuse/reset, failure drain
/// semantics, DeviceContext accounting invariants, bit-for-bit equality of
/// the `host` backend with the unbound dispatch path, and a randomized
/// multi-stream DAG stress test checked against a serial replay (the TSan
/// target — see docs/device-backend.md).

namespace hodlrx {
namespace {

using test::rel_error;
using test::ScopedEnv;

/// Run `fn` once per registered backend, with HODLRX_BACKEND pinned and a
/// SCOPED_TRACE naming the backend in any failure.
template <typename Fn>
void for_each_backend(Fn&& fn) {
  for (const std::string& name : backend_names()) {
    SCOPED_TRACE("backend=" + name);
    ScopedEnv env("HODLRX_BACKEND", name.c_str());
    ASSERT_EQ(std::string(backend().name()), name);
    fn();
  }
}

template <typename T>
real_t<T> conf_tol() {
  return std::is_same_v<real_t<T>, float> ? real_t<T>(2e-3)
                                          : real_t<T>(1e-10);
}

/// A contiguous n-element buffer viewed as an n x 1 column for fill_uniform.
template <typename T>
MatrixView<T> flat(std::vector<T>& v) {
  return MatrixView<T>{v.data(), static_cast<index_t>(v.size()), 1,
                       static_cast<index_t>(v.size())};
}

template <typename T>
class BackendTyped : public ::testing::Test {};
using BackendTypes = ::testing::Types<float, double, std::complex<float>,
                                      std::complex<double>>;
TYPED_TEST_SUITE(BackendTyped, BackendTypes);

// ---------------------------------------------------------------------------
// Registry semantics.
// ---------------------------------------------------------------------------

TEST(BackendRegistry, EnvSelectsAndDefaultsToHost) {
  {
    ScopedEnv env("HODLRX_BACKEND", nullptr);
    EXPECT_STREQ(backend().name(), "host");
    EXPECT_FALSE(backend().asynchronous());
    // "host" by name IS the default object, not a twin.
    EXPECT_EQ(find_backend("host"), &backend());
  }
  {
    ScopedEnv env("HODLRX_BACKEND", "host-async");
    EXPECT_STREQ(backend().name(), "host-async");
    EXPECT_TRUE(backend().asynchronous());
  }
  {
    // Unknown names fall back to host, like the other HODLRX_* knobs.
    ScopedEnv env("HODLRX_BACKEND", "cuda-nonexistent");
    EXPECT_STREQ(backend().name(), "host");
  }
  const std::vector<std::string> names = backend_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "host");
  EXPECT_EQ(names[1], "host-async");
  EXPECT_EQ(find_backend("no-such-backend"), nullptr);
  for (const std::string& n : names) {
    Backend* b = find_backend(n);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(std::string(b->name()), n);
  }
}

// ---------------------------------------------------------------------------
// Batched drivers vs serial references, on every backend. Work is issued
// with a stream bound (the dispatch layer under test) and synchronized
// before the results are read — the access pattern a real device imposes.
// ---------------------------------------------------------------------------

TYPED_TEST(BackendTyped, GemmStridedBatchedMatchesReference) {
  using T = TypeParam;
  struct Shape {
    index_t m, n, k, batch;
    bool shared_b;  // stride_b = 0: the shared-operand fast path
  };
  // Edge shapes: degenerate 1x1, a register-tile tail (across-batch SIMD
  // eligible), an uneven mid-size, a stream-mode-eligible larger shape, and
  // the shared-operand stride-0 layout.
  const Shape shapes[] = {{1, 1, 1, 3, false},
                          {3, 2, 4, 9, false},
                          {7, 5, 6, 4, false},
                          {33, 21, 17, 3, false},
                          {6, 4, 5, 8, true}};
  for_each_backend([&] {
    for (const Shape& sh : shapes) {
      SCOPED_TRACE("m=" + std::to_string(sh.m) + " n=" + std::to_string(sh.n) +
                   " k=" + std::to_string(sh.k) +
                   " shared_b=" + std::to_string(sh.shared_b));
      const index_t stride_a = sh.m * sh.k, stride_c = sh.m * sh.n;
      const index_t stride_b = sh.shared_b ? 0 : sh.k * sh.n;
      std::vector<T> a(static_cast<std::size_t>(stride_a) * sh.batch);
      std::vector<T> b(static_cast<std::size_t>(sh.k) * sh.n *
                       (sh.shared_b ? 1 : sh.batch));
      std::vector<T> c(static_cast<std::size_t>(stride_c) * sh.batch);
      Rng rng(17);
      rng.fill_uniform<T>(flat(a));
      rng.fill_uniform<T>(flat(b));
      rng.fill_uniform<T>(flat(c));
      std::vector<T> c_ref = c;
      // Reference: one serial gemm per problem, no stream bound.
      for (index_t i = 0; i < sh.batch; ++i)
        gemm<T>(Op::N, Op::N, T{2},
                ConstMatrixView<T>(a.data() + i * stride_a, sh.m, sh.k, sh.m),
                ConstMatrixView<T>(b.data() + i * stride_b, sh.k, sh.n, sh.k),
                T{1},
                MatrixView<T>{c_ref.data() + i * stride_c, sh.m, sh.n, sh.m});
      {
        Stream s;
        StreamScope bind(s);
        gemm_strided_batched<T>(Op::N, Op::N, sh.m, sh.n, sh.k, T{2},
                                a.data(), sh.m, stride_a, b.data(), sh.k,
                                stride_b, T{1}, c.data(), sh.m, stride_c,
                                sh.batch);
        s.synchronize();
      }
      for (index_t i = 0; i < sh.batch; ++i)
        EXPECT_LE(
            rel_error<T>(
                ConstMatrixView<T>(c.data() + i * stride_c, sh.m, sh.n, sh.m),
                ConstMatrixView<T>(c_ref.data() + i * stride_c, sh.m, sh.n,
                                   sh.m)),
            conf_tol<T>());
    }
  });
}

TYPED_TEST(BackendTyped, TrsmBatchedMatchesReference) {
  using T = TypeParam;
  for_each_backend([&] {
    for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      for (const Diag diag : {Diag::Unit, Diag::NonUnit}) {
        SCOPED_TRACE(std::string("uplo=") +
                     (uplo == Uplo::Lower ? "L" : "U") +
                     (diag == Diag::Unit ? " unit" : " nonunit"));
        const index_t batch = 6;
        std::vector<Matrix<T>> a, b, b_ref;
        for (index_t i = 0; i < batch; ++i) {
          const index_t n = 1 + 3 * i, nrhs = 1 + i % 4;
          Matrix<T> ai =
              random_matrix<T>(n, n, 40 + static_cast<std::uint64_t>(i));
          for (index_t d = 0; d < n; ++d) ai(d, d) += T{4};  // well-posed
          a.push_back(std::move(ai));
          b.push_back(
              random_matrix<T>(n, nrhs, 70 + static_cast<std::uint64_t>(i)));
          b_ref.push_back(to_matrix(b.back().view()));
          trsm_left_reference<T>(uplo, diag, a.back().view(),
                                 b_ref.back().view());
        }
        std::vector<ConstMatrixView<T>> av(a.begin(), a.end());
        std::vector<MatrixView<T>> bv(b.begin(), b.end());
        {
          Stream s;
          StreamScope bind(s);
          trsm_batched<T>(uplo, diag, av, bv);
          s.synchronize();
        }
        for (index_t i = 0; i < batch; ++i)
          EXPECT_LE(rel_error(b[static_cast<std::size_t>(i)],
                              b_ref[static_cast<std::size_t>(i)]),
                    conf_tol<T>());
      }
    }
  });
}

TYPED_TEST(BackendTyped, JacobiSvdStridedBatchedMatchesReference) {
  using T = TypeParam;
  using R = real_t<T>;
  for_each_backend([&] {
    const index_t m = 10, n = 6, batch = 4;
    const index_t stride_a = m * n, stride_s = n, stride_v = n * n;
    std::vector<T> a(static_cast<std::size_t>(stride_a) * batch);
    Rng rng(123);
    rng.fill_uniform<T>(flat(a));
    std::vector<T> a0 = a;
    std::vector<R> sv(static_cast<std::size_t>(stride_s) * batch);
    std::vector<T> v(static_cast<std::size_t>(stride_v) * batch);
    SvdBatchInfo info;
    {
      // The SVD returns host-readable info, so it must synchronize the
      // bound stream first: queue a GEMM that SCALES the input and assert
      // the SVD observed it — the flush contract, not just the numerics.
      std::vector<T> two(static_cast<std::size_t>(m) * m, T{});
      for (index_t d = 0; d < m; ++d)
        two[static_cast<std::size_t>(d) * (m + 1)] = T{2};  // 2I (m x m)
      std::vector<T> acopy = a;
      Stream s;
      StreamScope bind(s);
      // a <- (2I) * acopy per problem (shared stride-0 left operand).
      gemm_strided_batched<T>(Op::N, Op::N, m, n, m, T{1}, two.data(), m, 0,
                              acopy.data(), m, stride_a, T{0}, a.data(), m,
                              stride_a, batch);
      info = jacobi_svd_strided_batched<T>(a.data(), m, stride_a, m, n,
                                           sv.data(), stride_s, v.data(), n,
                                           stride_v, batch);
      s.synchronize();
    }
    EXPECT_EQ(info.nonconverged, 0);
    for (index_t i = 0; i < batch; ++i) {
      const SVDResult<T> ref = jacobi_svd_reference<T>(
          ConstMatrixView<T>(a0.data() + i * stride_a, m, n, m));
      ASSERT_TRUE(ref.converged);
      for (index_t j = 0; j < n; ++j)
        EXPECT_NEAR(
            static_cast<double>(
                sv[static_cast<std::size_t>(i * stride_s + j)]),
            2.0 * static_cast<double>(ref.s[static_cast<std::size_t>(j)]),
            static_cast<double>(conf_tol<T>()) *
                (1.0 + 2.0 * static_cast<double>(ref.s[0])));
    }
  });
}

// ---------------------------------------------------------------------------
// Stream ordering semantics.
// ---------------------------------------------------------------------------

TEST(BackendStreams, LaunchesOnOneStreamExecuteInFifoOrder) {
  for_each_backend([] {
    constexpr int kN = 64;
    std::vector<int> order;
    order.reserve(kN);
    {
      Stream s;
      for (int i = 0; i < kN; ++i)
        // One stream's bodies never run concurrently (the engine claims a
        // stream exclusively), so the unguarded push_back is race-free; the
        // TSan leg enforces that claim.
        s.launch("fifo", [&order, i] { order.push_back(i); });
      s.synchronize();
    }
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kN));
    for (int i = 0; i < kN; ++i)
      EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  });
}

TEST(BackendStreams, CrossStreamOrderingViaEvents) {
  for_each_backend([] {
    for (int round = 0; round < 8; ++round) {
      std::atomic<int> x{0};
      std::atomic<int> seen{-1};
      Stream a, b;
      a.launch("produce", [&] { x.store(42, std::memory_order_relaxed); });
      Event done;
      a.record(done);
      b.wait(done);
      b.launch("consume",
               [&] { seen.store(x.load(std::memory_order_relaxed)); });
      b.synchronize();
      // The wait edge is the ONLY thing ordering the two queues; the
      // consumer must still observe the producer's write.
      EXPECT_EQ(seen.load(), 42);
      a.synchronize();
    }
  });
}

TEST(BackendStreams, EventReuseAndReset) {
  for_each_backend([] {
    Event ev;
    EXPECT_TRUE(ev.query());  // fresh events are complete
    ev.synchronize();         // and synchronizing one is a no-op
    Stream s;
    std::atomic<int> ran{0};
    s.launch("work", [&] { ran.fetch_add(1); });
    s.record(ev);
    if (backend().asynchronous()) {
      EXPECT_FALSE(ev.query());
    }
    ev.synchronize();
    EXPECT_TRUE(ev.query());
    EXPECT_EQ(ran.load(), 1);
    // Re-record: the same Event goes pending again...
    s.launch("work2", [&] { ran.fetch_add(1); });
    s.record(ev);
    if (backend().asynchronous()) {
      EXPECT_FALSE(ev.query());
    }
    // ...and reset() force-completes it without draining the stream.
    ev.reset();
    EXPECT_TRUE(ev.query());
    s.synchronize();
    EXPECT_EQ(ran.load(), 2);
  });
}

TEST(BackendStreams, FailureDrainsSkipsAndRethrows) {
  for_each_backend([] {
    Stream s;
    if (!backend().asynchronous()) {
      // Synchronous backends fail at the launch itself.
      EXPECT_THROW(
          s.launch("boom", [] { throw std::runtime_error("backend boom"); }),
          std::runtime_error);
      return;
    }
    std::atomic<bool> later_ran{false};
    Event after;
    s.launch("boom", [] { throw std::runtime_error("backend boom"); });
    s.launch("later", [&] { later_ran.store(true); });
    s.record(after);
    // The original exception type surfaces at the synchronization point...
    EXPECT_THROW(s.synchronize(), std::runtime_error);
    // ...subsequent bodies were skipped, but the queue drained fully and
    // downstream events completed (a stuck event would deadlock waiters).
    EXPECT_FALSE(later_ran.load());
    EXPECT_TRUE(after.query());
    EXPECT_EQ(s.pending(), 0u);
    s.synchronize();  // the failure state was consumed by the rethrow
  });
}

TEST(BackendStreams, InterleavedCrossWaitsDrainWithoutDeadlock) {
  // A denser record/wait lattice than the two-stream test: each stream
  // both produces for and consumes from its neighbours, round after round,
  // reusing the same events. Any engine that mishandles wait generations
  // or stream claiming deadlocks or drops work here; the sum pins that
  // every body ran exactly once.
  ScopedEnv env("HODLRX_BACKEND", "host-async");
  constexpr int kStreams = 3, kRounds = 20;
  std::atomic<int> sum{0};
  {
    Stream st[kStreams];
    Event ev[kStreams];
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kStreams; ++i) {
        if (r > 0) st[i].wait(ev[(i + 1) % kStreams]);
        st[i].launch("lattice", [&sum] { sum.fetch_add(1); });
      }
      for (int i = 0; i < kStreams; ++i) st[i].record(ev[i]);
    }
    backend().synchronize();
  }
  EXPECT_EQ(sum.load(), kStreams * kRounds);
}

// ---------------------------------------------------------------------------
// DeviceContext accounting invariants.
// ---------------------------------------------------------------------------

TEST(BackendMemory, AccountingLivePeakInvariants) {
  for_each_backend([] {
    DeviceContext& ctx = DeviceContext::global();
    const std::size_t live0 = ctx.live_bytes();
    constexpr std::size_t kBytes = 1 << 20;
    {
      DeviceBuffer buf(kBytes);
      ASSERT_NE(buf.data(), nullptr);
      EXPECT_EQ(buf.bytes(), kBytes);
      EXPECT_EQ(ctx.live_bytes(), live0 + kBytes);
      EXPECT_GE(ctx.peak_bytes(), ctx.live_bytes());
      // The memory is real and writable end to end.
      auto* p = buf.as<unsigned char>();
      p[0] = 1;
      p[kBytes - 1] = 2;
      DeviceBuffer moved(std::move(buf));
      EXPECT_EQ(moved.bytes(), kBytes);
      EXPECT_EQ(buf.data(), nullptr);
      EXPECT_EQ(ctx.live_bytes(), live0 + kBytes);  // a move is not a copy
    }
    EXPECT_EQ(ctx.live_bytes(), live0);  // fully retired
    EXPECT_GE(ctx.peak_bytes(), live0 + kBytes);
    // Raw Backend::allocate/deallocate round-trips the same accounting.
    Backend& b = backend();
    void* p = b.allocate(4096);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(ctx.live_bytes(), live0 + 4096);
    b.deallocate(p, 4096);
    EXPECT_EQ(ctx.live_bytes(), live0);
  });
}

// ---------------------------------------------------------------------------
// host is bit-for-bit the unbound dispatch path.
// ---------------------------------------------------------------------------

TEST(BackendHost, BindingAStreamChangesNothing) {
  ScopedEnv env("HODLRX_BACKEND", "host");
  const index_t m = 8, n = 6, k = 7, batch = 5;
  const index_t sa = m * k, sb = k * n, sc = m * n;
  std::vector<double> a(static_cast<std::size_t>(sa) * batch);
  std::vector<double> b(static_cast<std::size_t>(sb) * batch);
  Rng rng(7);
  rng.fill_uniform<double>(flat(a));
  rng.fill_uniform<double>(flat(b));
  std::vector<double> c1(static_cast<std::size_t>(sc) * batch, 0.0);
  std::vector<double> c2 = c1;

  const std::uint64_t launches0 = DeviceContext::global().launches();
  gemm_strided_batched<double>(Op::N, Op::N, m, n, k, 1.0, a.data(), m, sa,
                               b.data(), k, sb, 0.0, c1.data(), m, sc, batch);
  const std::uint64_t unbound = DeviceContext::global().launches() - launches0;

  backend_stats::reset();
  {
    Stream s;
    StreamScope bind(s);
    gemm_strided_batched<double>(Op::N, Op::N, m, n, k, 1.0, a.data(), m, sa,
                                 b.data(), k, sb, 0.0, c2.data(), m, sc,
                                 batch);
    s.synchronize();
  }
  const std::uint64_t bound =
      DeviceContext::global().launches() - launches0 - unbound;
  // Same launch count (the counter-asserted bit-for-bit contract) ...
  EXPECT_EQ(bound, unbound);
  EXPECT_EQ(unbound, 1u);
  // ... nothing deferred ...
  EXPECT_EQ(backend_stats::deferred(), 0u);
  EXPECT_EQ(backend_stats::drains(), 0u);
  // ... and bit-identical results.
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_EQ(c1[i], c2[i]);
}

// ---------------------------------------------------------------------------
// Randomized multi-stream DAG stress vs serial replay (the TSan target).
// ---------------------------------------------------------------------------

TEST(BackendStress, RandomMultiStreamDagMatchesSerialReplay) {
  ScopedEnv env("HODLRX_BACKEND", "host-async");
  constexpr index_t kDim = 4;  // 4x4 GEMMs
  constexpr int kBuffers = 6;
  constexpr int kStreams = 4;
  constexpr int kOps = 160;
  for (const std::uint64_t seed : {1ull, 99ull, 2026ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    // Async and replay copies of the buffer set start identical. Entries in
    // [-0.5, 0.5] plus the contractive update below (c = 0.25 a b + 0.5 c,
    // k = 4) keep every entry bounded by 0.5 forever — 160 accumulations
    // stay finite, so the bit-for-bit comparison never meets NaN != NaN.
    std::vector<Matrix<double>> buf, ref;
    for (int i = 0; i < kBuffers; ++i) {
      Matrix<double> m = random_matrix<double>(
          kDim, kDim, seed * 100 + static_cast<std::uint64_t>(i));
      for (index_t col = 0; col < kDim; ++col)
        for (index_t row = 0; row < kDim; ++row) m(row, col) *= 0.5;
      buf.push_back(to_matrix(m.view()));
      ref.push_back(std::move(m));
    }
    struct OpSpec {
      int a, b, c;  // c <- 0.25 a b + 0.5 c
    };
    std::vector<OpSpec> ops;
    ops.reserve(kOps);
    for (int i = 0; i < kOps; ++i) {
      OpSpec op{};
      op.a = static_cast<int>(rng() % kBuffers);
      op.b = static_cast<int>(rng() % kBuffers);
      do {
        op.c = static_cast<int>(rng() % kBuffers);
      } while (op.c == op.a || op.c == op.b);
      ops.push_back(op);
    }
    {
      std::vector<std::unique_ptr<Stream>> streams;
      for (int s = 0; s < kStreams; ++s)
        streams.push_back(std::make_unique<Stream>());
      // Per-op completion events; per-buffer conflict tracking builds the
      // event edges: a read waits on the buffer's last writer, a write
      // waits on the last writer AND every reader since (RAW, WAW, WAR).
      std::vector<Event> ev(ops.size());
      std::vector<int> op_stream(ops.size());
      std::vector<int> last_writer(kBuffers, -1);
      std::vector<std::vector<int>> readers_since(
          static_cast<std::size_t>(kBuffers));
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const OpSpec op = ops[i];
        const int si = static_cast<int>(rng() % kStreams);
        op_stream[i] = si;
        Stream& s = *streams[static_cast<std::size_t>(si)];
        auto wait_on = [&](int dep) {
          if (dep >= 0 && op_stream[static_cast<std::size_t>(dep)] != si)
            s.wait(ev[static_cast<std::size_t>(dep)]);
        };
        wait_on(last_writer[static_cast<std::size_t>(op.a)]);
        wait_on(last_writer[static_cast<std::size_t>(op.b)]);
        wait_on(last_writer[static_cast<std::size_t>(op.c)]);
        for (const int r : readers_since[static_cast<std::size_t>(op.c)])
          wait_on(r);
        {
          StreamScope bind(s);
          gemm_strided_batched<double>(
              Op::N, Op::N, kDim, kDim, kDim, 0.25,
              buf[static_cast<std::size_t>(op.a)].data(), kDim, 0,
              buf[static_cast<std::size_t>(op.b)].data(), kDim, 0, 0.5,
              buf[static_cast<std::size_t>(op.c)].data(), kDim, 0, 1);
        }
        s.record(ev[i]);
        readers_since[static_cast<std::size_t>(op.a)].push_back(
            static_cast<int>(i));
        readers_since[static_cast<std::size_t>(op.b)].push_back(
            static_cast<int>(i));
        readers_since[static_cast<std::size_t>(op.c)].clear();
        last_writer[static_cast<std::size_t>(op.c)] = static_cast<int>(i);
        // Occasional mid-build drains vary the interleaving patterns.
        if (rng() % 16 == 0) s.synchronize();
      }
      backend().synchronize();
    }
    // Serial replay through the SAME driver (unbound -> inline), in program
    // order. The event edges above encode exactly the per-buffer program
    // order, so the async result must be bit-identical — not just close.
    for (const OpSpec op : ops)
      gemm_strided_batched<double>(
          Op::N, Op::N, kDim, kDim, kDim, 0.25,
          ref[static_cast<std::size_t>(op.a)].data(), kDim, 0,
          ref[static_cast<std::size_t>(op.b)].data(), kDim, 0, 0.5,
          ref[static_cast<std::size_t>(op.c)].data(), kDim, 0, 1);
    for (int i = 0; i < kBuffers; ++i)
      for (index_t col = 0; col < kDim; ++col)
        for (index_t row = 0; row < kDim; ++row)
          EXPECT_EQ(buf[static_cast<std::size_t>(i)](row, col),
                    ref[static_cast<std::size_t>(i)](row, col))
              << "buffer " << i << " (" << row << "," << col << ")";
  }
}

// The queue/dispatch counters the bench backend_compare record reports.
TEST(BackendStats, CountersTrackDeferralAndDrains) {
  ScopedEnv env("HODLRX_BACKEND", "host-async");
  backend_stats::reset();
  std::vector<double> a(16, 1.0), b(16, 1.0), c(16, 0.0);
  {
    Stream s;
    StreamScope bind(s);
    for (int i = 0; i < 3; ++i)
      gemm_strided_batched<double>(Op::N, Op::N, 4, 4, 4, 1.0, a.data(), 4, 0,
                                   b.data(), 4, 0, 1.0, c.data(), 4, 0, 1);
    Event ev;
    s.record(ev);
    EXPECT_EQ(backend_stats::deferred(), 3u);
    EXPECT_EQ(backend_stats::events_recorded(), 1u);
    EXPECT_GE(backend_stats::max_queue_depth(), 3u);
    EXPECT_EQ(backend_stats::drained(), 0u);
    s.synchronize();
  }
  EXPECT_EQ(backend_stats::drained(), 3u);
  EXPECT_GE(backend_stats::drains(), 1u);
  EXPECT_EQ(c[0], 3.0 * 4.0);  // three accumulated rank-4 inner products
}

}  // namespace
}  // namespace hodlrx
