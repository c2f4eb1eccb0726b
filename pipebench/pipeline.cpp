/// Pipeline benchmark program: one process, one caller, a closed loop of
/// passes through the public pipeline
///   HodlrMatrix::build -> PackedHodlr::pack -> HodlrFactorization::factor
///   -> solve_inplace (1 RHS)
/// on one of the paper's problems, with library defaults. After each pass,
/// outside the pass time, it runs the 32-RHS solve, the checked solve, the
/// H-matvec, the log-determinant and the correctness gate (residual on
/// seeded rows of the TRUE operator). Warm-up passes (at least one, for at
/// least W seconds) are excluded from the medians.
///
///   pipeline --workload laplace_bie|rpy_1d|helmholtz_bie --seed N
///            --seconds S [--warmup W] [--traced --trace-file PATH]
///   pipeline --workload W --seed N --setup-only
///
/// The thread count is the pool's (HODLRX_NUM_THREADS at process start).
/// --setup-only times the set-up alone and exits. Without --traced it
/// prints one JSON line with the raw per-pass samples;
/// with --traced it then runs one traced pass, a per-level replay of the
/// build, a recompress=false variant and the in-run rooflines, writes a
/// Chrome trace-event file and prints one JSON line of per-layer metrics.
/// run.py next to this file drives both modes and aggregates.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bie/contour.hpp"
#include "bie/helmholtz.hpp"
#include "bie/laplace.hpp"
#include "batched/batched_blas.hpp"
#include "common/blocking.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/flops.hpp"
#include "common/gemm_kernel.hpp"
#include "common/hwinfo.hpp"
#include "common/lapack.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "common/task_graph.hpp"
#include "common/thread_pool.hpp"
#include "core/factorization.hpp"
#include "device/backend.hpp"
#include "kernels/rpy.hpp"
#include "lowrank/aca.hpp"
#include "lowrank/recompress.hpp"
#include "trace.hpp"

using namespace hodlrx;
using pipebench::Clock;
using pipebench::ProbeGenerator;
using pipebench::Span;
using pipebench::SpanLog;

namespace {

constexpr index_t kBlockRhs = 32;
constexpr index_t kSampledRows = 256;
// After each pass the short stages are repeated, untimed for the pass, until
// this many seconds of each have been measured (at most kMaxRepeats runs):
// more samples for their medians at little cost.
constexpr double kRepeatBudgetS = 0.1;
constexpr int kMaxRepeats = 16;
constexpr int kSetupRepeats = 5;
constexpr index_t kMaxLevels = 10;  // aca.l<k>_s / recompress.l<k>_s columns

// ---- small helpers ---------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_gb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e9;  // ru_maxrss: KiB
}

std::uint64_t fnv1a(const void* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    out += c;
  }
  return out + "\"";
}

/// One flat JSON object, assembled field by field; numbers keep all digits.
class JsonObj {
 public:
  JsonObj& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : -1.0);
    return raw(k, buf);
  }
  JsonObj& integer(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  JsonObj& str(const std::string& k, const std::string& v) {
    return raw(k, json_str(v));
  }
  JsonObj& list(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
      s += buf;
    }
    return raw(k, s + "]");
  }
  JsonObj& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + json_str(k) + ": " + v;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- exact counters ----------------------------------------------------------

using Counts = std::map<std::string, std::uint64_t>;

/// Every public process-wide counter a pass can move, plus the probe
/// generator's entry count.
template <typename T>
Counts snapshot(const ProbeGenerator<T>& g) {
  const FlopCounter& fc = FlopCounter::instance();
  const DeviceContext& dev = DeviceContext::global();
  return {
      {"flops.gemm", fc.get(FlopCounter::kGemm)},
      {"flops.lu", fc.get(FlopCounter::kLu)},
      {"flops.trsm", fc.get(FlopCounter::kTrsm)},
      {"flops.other", fc.get(FlopCounter::kOther)},
      {"pool.launches", ThreadPool::instance().launches()},
      {"device.launches", dev.launches()},
      {"device.h2d_bytes", dev.h2d_bytes()},
      {"qr.geqrf_batched_sweeps", qr_stats::geqrf_batched_sweeps()},
      {"qr.thin_q_batched_sweeps", qr_stats::thin_q_batched_sweeps()},
      {"qr.panel_launches", qr_stats::panel_launches()},
      {"svd.serial_svds", svd_stats::serial_svds()},
      {"svd.nonconverged", svd_stats::nonconverged()},
      {"svd.batched_sweeps", svd_stats::batched_sweeps()},
      {"svd.sweep_launches", svd_stats::sweep_launches()},
      {"sched.graphs_run", sched_stats::graphs_run()},
      {"sched.graph_nodes", sched_stats::nodes()},
      {"sched.graph_edges", sched_stats::edges()},
      {"fault.injected", fault_stats::injected()},
      {"fault.recovered", fault_stats::recovered()},
      {"gen.entries", g.entries()},
  };
}

/// Adds `stage/<counter>` = after - before for every counter into `out`.
void add_delta(Counts& out, const std::string& stage, const Counts& before,
               const Counts& after) {
  for (const auto& [k, v] : after) out[stage + "/" + k] = v - before.at(k);
}

std::uint64_t pass_total(const Counts& c, const std::string& name) {
  std::uint64_t t = 0;
  for (const char* st : {"build", "pack", "factor", "solve"}) {
    auto it = c.find(std::string(st) + "/" + name);
    if (it != c.end()) t += it->second;
  }
  return t;
}

// ---- workloads ------------------------------------------------------------------

/// A contour parametrized from a seeded phase: the same closed curve, with
/// the quadrature nodes shifted along it by a fraction of one node spacing.
class ShiftedContour final : public bie::Contour {
 public:
  ShiftedContour(const bie::Contour& base, double phase)
      : base_(base), phase_(phase) {}
  bie::Point2 point(double t) const override { return base_.point(t + phase_); }
  bie::Point2 dpoint(double t) const override {
    return base_.dpoint(t + phase_);
  }
  bie::Point2 ddpoint(double t) const override {
    return base_.ddpoint(t + phase_);
  }

 private:
  const bie::Contour& base_;
  double phase_;
};

bie::ContourDiscretization seeded_blob(index_t n, std::uint64_t seed) {
  const bie::BlobContour blob;
  Rng rng(seed);
  const double h = 2.0 * 3.14159265358979323846 / static_cast<double>(n);
  return bie::discretize(ShiftedContour(blob, rng.uniform(0.0, 1.0) * h), n);
}

template <typename T>
struct Problem {
  std::unique_ptr<MatrixGenerator<T>> gen;
  ClusterTree tree;
  double tree_s = 0;
};

struct Workload {
  const char* name;
  double relres_true_bound;  ///< correctness gate on the true operator
};

Problem<double> make_laplace(std::uint64_t seed) {
  constexpr index_t n = 65536;
  Problem<double> p;
  p.gen = std::make_unique<bie::LaplaceExteriorBIE<double>>(
      seeded_blob(n, seed), bie::Point2{0.0, 0.0});
  const Clock::time_point t0 = Clock::now();
  p.tree = ClusterTree::uniform(n, 64);
  p.tree_s = pipebench::seconds_between(t0, Clock::now());
  return p;
}

Problem<double> make_rpy(std::uint64_t seed) {
  constexpr index_t n = 50000;
  Problem<double> p;
  PointSet pts = uniform_random_points(n, 1, -1.0, 1.0, seed);
  const Clock::time_point t0 = Clock::now();
  GeometricTree g = build_kd_tree(pts, 64);
  p.tree_s = pipebench::seconds_between(t0, Clock::now());
  p.gen = std::make_unique<RpyKernel1D<double>>(std::move(g.points),
                                                RpyParams{});
  p.tree = std::move(g.tree);
  return p;
}

Problem<std::complex<double>> make_helmholtz(std::uint64_t seed) {
  constexpr index_t n = 4096;
  Problem<std::complex<double>> p;
  p.gen = std::make_unique<bie::HelmholtzCombinedBIE<std::complex<double>>>(
      seeded_blob(n, seed), 100.0, 100.0, 6);
  const Clock::time_point t0 = Clock::now();
  p.tree = ClusterTree::uniform(n, 64);
  p.tree_s = pipebench::seconds_between(t0, Clock::now());
  return p;
}

// ---- one pass ---------------------------------------------------------------------

struct PassResult {
  bool ok = false;
  std::string why;
  double pass_s = 0, build_s = 0, pack_s = 0;
  // In-pass time first, then the untimed repeats.
  std::vector<double> factor_s, solve_s, solve_block_s;
  double solve_checked_s = 0, apply_s = 0, logdet_s = 0;
  double relres_hodlr = -1, relres_true = -1;
  index_t gmres_iterations = 0;
  std::uint64_t hash = 0;
  Counts counts;
  std::uint64_t device_peak_bytes = 0;
  std::uint64_t solve_block_flops = 0;
  std::size_t hodlr_bytes = 0, packed_bytes = 0, factor_bytes = 0;
  index_t rank_max = 0, rank_sum = 0;
  std::vector<index_t> node_rank;  ///< rank(nu) per node id
  std::uint64_t gen_entries = 0;
  double gen_busy_s = 0;
};

template <typename T>
struct Inputs {
  Matrix<T> b, block;
  std::vector<index_t> rows;  ///< sampled rows of the true-operator check
};

template <typename T>
Inputs<T> make_inputs(index_t n, std::uint64_t seed) {
  Inputs<T> in;
  in.b = random_matrix<T>(n, 1, seed + 101);
  in.block = random_matrix<T>(n, kBlockRhs, seed + 202);
  Rng rng(seed + 303);
  std::vector<char> taken(static_cast<std::size_t>(n), 0);
  while (static_cast<index_t>(in.rows.size()) < std::min(kSampledRows, n)) {
    const index_t i = rng.uniform_int(0, n - 1);
    if (!taken[static_cast<std::size_t>(i)]) {
      taken[static_cast<std::size_t>(i)] = 1;
      in.rows.push_back(i);
    }
  }
  return in;
}

/// ||b_S - A(S, :) x|| / ||b_S|| over the sampled rows S, with A(S, :) pulled
/// from the workload's generator (the true operator, not the HODLR one).
template <typename T>
double relres_true_rows(const MatrixGenerator<T>& a, const std::vector<index_t>& rows,
                        const Matrix<T>& x, const Matrix<T>& b) {
  const index_t n = a.cols();
  std::vector<double> num(rows.size()), den(rows.size());
  parallel_for(static_cast<index_t>(rows.size()), [&](index_t t) {
    const index_t i = rows[static_cast<std::size_t>(t)];
    std::vector<T> row(static_cast<std::size_t>(n));
    a.fill_row(i, 0, n, row.data());
    T ax{};
    for (index_t j = 0; j < n; ++j) ax += row[static_cast<std::size_t>(j)] * x(j, 0);
    num[static_cast<std::size_t>(t)] = static_cast<double>(abs2_s(b(i, 0) - ax));
    den[static_cast<std::size_t>(t)] = static_cast<double>(abs2_s(b(i, 0)));
  });
  double sn = 0, sd = 0;
  for (std::size_t t = 0; t < rows.size(); ++t) sn += num[t], sd += den[t];
  return sd > 0 ? std::sqrt(sn / sd) : 0.0;
}

/// One pass plus its untimed follow-up work and correctness gate.
template <typename T>
PassResult run_pass(const Problem<T>& prob, const Inputs<T>& in,
                    const BuildOptions& bopt, double relres_bound,
                    SpanLog& log, bool timing_probe) {
  PassResult r;
  ProbeGenerator<T> g(*prob.gen, timing_probe);
  try {
    DeviceContext::global().reset_counters();
    FactorReport report;
    Span pass(log, "pass");
    Counts c0 = snapshot(g);
    Span sb(log, "build");
    HodlrMatrix<T> h = HodlrMatrix<T>::build(g, prob.tree, bopt, &report);
    sb.arg("gen_entries", static_cast<double>(g.entries()));
    sb.arg("gen_busy_s", g.busy_s());
    r.build_s = sb.close();
    Counts c1 = snapshot(g);
    Span sp(log, "pack");
    PackedHodlr<T> packed = PackedHodlr<T>::pack(h);
    r.pack_s = sp.close();
    Counts c2 = snapshot(g);
    Span sf(log, "factor");
    HodlrFactorization<T> f = HodlrFactorization<T>::factor(packed, {}, &report);
    r.factor_s.push_back(sf.close());
    Counts c3 = snapshot(g);
    Matrix<T> x = in.b;
    Span ss(log, "solve");
    f.solve_inplace(x);
    r.solve_s.push_back(ss.close());
    Counts c4 = snapshot(g);
    r.pass_s = pass.close();
    add_delta(r.counts, "build", c0, c1);
    add_delta(r.counts, "pack", c1, c2);
    add_delta(r.counts, "factor", c2, c3);
    add_delta(r.counts, "solve", c3, c4);
    r.device_peak_bytes = DeviceContext::global().peak_bytes();
    r.gen_entries = c1.at("gen.entries") - c0.at("gen.entries");
    r.gen_busy_s = g.busy_s();

    // ---- untimed follow-up work -------------------------------------------
    r.hash = fnv1a(x.data(), static_cast<std::size_t>(x.rows()) * sizeof(T));
    const auto repeat = [&](std::vector<double>& samples, const char* name,
                            const auto& stage) {
      double total = 0;
      for (double t : samples) total += t;
      while (total < kRepeatBudgetS &&
             samples.size() < static_cast<std::size_t>(kMaxRepeats)) {
        Span s(log, name);
        stage();
        samples.push_back(s.close());
        total += samples.back();
      }
    };
    repeat(r.factor_s, "factor.repeat", [&] {
      (void)HodlrFactorization<T>::factor(packed);
    });
    repeat(r.solve_s, "solve.repeat", [&] {
      Matrix<T> xr = in.b;
      f.solve_inplace(xr);
    });
    {
      Matrix<T> xb = in.block;
      const std::uint64_t fl0 = FlopCounter::instance().total();
      Span s(log, "solve_block");
      f.solve_inplace(xb);
      r.solve_block_s.push_back(s.close());
      r.solve_block_flops = FlopCounter::instance().total() - fl0;
    }
    repeat(r.solve_block_s, "solve_block.repeat", [&] {
      Matrix<T> xb = in.block;
      f.solve_inplace(xb);
    });
    SolveReport srep;
    {
      Matrix<T> xc = in.b;
      Span s(log, "solve_checked");
      srep = f.solve_checked(h, xc.view());
      r.solve_checked_s = s.close();
      r.gmres_iterations = srep.gmres_iterations;
    }
    {
      Matrix<T> y(h.n(), 1);
      Span s(log, "apply");
      h.apply(x, y.view());
      r.apply_s = s.close();
      axpy(T{-1}, ConstMatrixView<T>(in.b), y.view());
      r.relres_hodlr = static_cast<double>(norm_fro<T>(y) / norm_fro<T>(in.b));
    }
    typename HodlrFactorization<T>::LogDet ld;
    {
      Span s(log, "logdet");
      ld = f.logdet();
      r.logdet_s = s.close();
    }
    {
      Span s(log, "relres_true");
      r.relres_true = relres_true_rows(*prob.gen, in.rows, x, in.b);
    }
    r.hodlr_bytes = h.bytes();
    r.packed_bytes = packed.bytes();
    r.factor_bytes = f.bytes();
    r.node_rank.assign(static_cast<std::size_t>(prob.tree.num_nodes()), 0);
    for (index_t nu = 1; nu < prob.tree.num_nodes(); ++nu) {
      r.node_rank[static_cast<std::size_t>(nu)] = h.rank(nu);
      r.rank_max = std::max(r.rank_max, h.rank(nu));
      r.rank_sum += h.rank(nu);
    }

    // ---- correctness gate ----------------------------------------------------
    std::ostringstream why;
    if (!report.clean()) why << "non-clean FactorReport; ";
    if (!std::isfinite(static_cast<double>(ld.log_abs))) why << "non-finite log-det; ";
    if (!srep.residual_ok || srep.nonfinite_values > 0) why << "checked solve failed; ";
    if (!(r.relres_true <= relres_bound))
      why << "relres_true " << r.relres_true << " > " << relres_bound << "; ";
    if (!(r.relres_hodlr <= 1e-8)) why << "relres_hodlr " << r.relres_hodlr << "; ";
    r.why = why.str();
    r.ok = r.why.empty();
  } catch (const std::exception& e) {
    r.ok = false;
    r.why = std::string("threw: ") + e.what();
  }
  return r;
}

// ---- traced-run extras ---------------------------------------------------------

struct Replay {
  std::vector<double> aca_level_s, recompress_level_s;  ///< index = level
  double aca_busy_s = 0, aca_gen_busy_s = 0, leaves_s = 0;
  index_t aca_rank_max = 0, aca_rank_sum = 0;
  index_t rank_sum_after = 0, rank_mismatches = 0;
};

/// Level-by-level replay of HodlrMatrix::build's ACA path through the public
/// lowrank calls and the build's own options: aca() on every sibling block
/// of the level, then recompress_batched() on a uniform level or per-block
/// recompress() on an irregular one, then the leaf fills.
template <typename T>
Replay replay_build(const MatrixGenerator<T>& inner, const ClusterTree& tree,
                    const BuildOptions& opt,
                    const std::vector<index_t>& built_rank, SpanLog& log) {
  ProbeGenerator<T> g(inner, /*timing=*/true);
  AcaOptions aopt;
  aopt.tol = opt.tol;
  aopt.max_rank = opt.max_rank;
  aopt.rook_iterations = opt.rook_iterations;
  aopt.seed = opt.seed;
  const auto tol = static_cast<real_t<T>>(opt.tol);
  Replay rp;
  rp.aca_level_s.assign(static_cast<std::size_t>(tree.depth() + 1), 0.0);
  rp.recompress_level_s = rp.aca_level_s;
  Span replay(log, "replay");
  for (index_t level = 1; level <= tree.depth(); ++level) {
    const index_t begin = ClusterTree::level_begin(level);
    const index_t count = ClusterTree::nodes_at_level(level);
    const index_t s0 = tree.node(begin).size();
    bool uniform = true;
    for (index_t t = 0; t < count; ++t) {
      const ClusterNode& c = tree.node(begin + t);
      uniform = uniform && c.size() == s0 && c.begin == tree.node(begin).begin + t * s0;
    }
    std::vector<LowRankFactor<T>> fs(static_cast<std::size_t>(count));
    std::vector<char> converged(static_cast<std::size_t>(count), 0);
    std::vector<double> task_s(static_cast<std::size_t>(count), 0.0);
    const double gen0 = g.busy_s();
    {
      Span s(log, "aca.l" + std::to_string(level));
      parallel_for(count, [&](index_t t) {
        const Clock::time_point t0 = Clock::now();
        const ClusterNode& rowc = tree.node(begin + t);
        const ClusterNode& colc = tree.node(ClusterTree::sibling(begin + t));
        AcaResult<T> res = aca<T>(g, rowc.begin, colc.begin, rowc.size(),
                                  colc.size(), aopt);
        converged[static_cast<std::size_t>(t)] = res.converged ? 1 : 0;
        fs[static_cast<std::size_t>(t)] = std::move(res.factor);
        task_s[static_cast<std::size_t>(t)] =
            pipebench::seconds_between(t0, Clock::now());
      });
      double busy = 0;
      index_t rank_sum = 0;
      for (std::size_t t = 0; t < fs.size(); ++t) {
        busy += task_s[t];
        rank_sum += fs[t].rank();
        rp.aca_rank_max = std::max(rp.aca_rank_max, fs[t].rank());
      }
      s.arg("busy_s", busy);
      s.arg("gen_busy_s", g.busy_s() - gen0);
      s.arg("rank_sum", static_cast<double>(rank_sum));
      rp.aca_level_s[static_cast<std::size_t>(level)] = s.close();
      rp.aca_busy_s += busy;
      rp.aca_rank_sum += rank_sum;
    }
    rp.aca_gen_busy_s += g.busy_s() - gen0;
    {
      Span s(log, "recompress.l" + std::to_string(level));
      if (opt.recompress && uniform) {
        recompress_batched<T>(fs, tol, opt.max_rank);
      } else if (opt.recompress) {
        parallel_for(count, [&](index_t t) {
          LowRankFactor<T>& f = fs[static_cast<std::size_t>(t)];
          if (converged[static_cast<std::size_t>(t)] && f.rank() > 0)
            recompress(f, tol, opt.max_rank);
        });
      }
      rp.recompress_level_s[static_cast<std::size_t>(level)] = s.close();
    }
    for (index_t t = 0; t < count; ++t) {
      const index_t r = fs[static_cast<std::size_t>(t)].rank();
      rp.rank_sum_after += r;
      if (r != built_rank[static_cast<std::size_t>(begin + t)]) ++rp.rank_mismatches;
    }
  }
  Span s(log, "leaves");
  parallel_for(tree.num_leaves(), [&](index_t j) {
    const ClusterNode& c = tree.node(tree.leaf(j));
    Matrix<T> d(c.size(), c.size());
    g.fill_block(c.begin, c.begin, d);
  });
  rp.leaves_s = s.close();
  return rp;
}

/// Best-of-5 packed-GEMM rate (GF/s) for T on n x n x n: through the pool
/// (gemm_parallel) or on the calling thread alone (gemm).
template <typename T>
double gemm_gflops(index_t n, bool pooled) {
  Matrix<T> a = random_matrix<T>(n, n, 1), b = random_matrix<T>(n, n, 2);
  Matrix<T> c(n, n);
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    if (pooled)
      gemm_parallel<T>(Op::N, Op::N, T{1}, a, b, T{0}, c.view());
    else
      gemm<T>(Op::N, Op::N, T{1}, a, b, T{0}, c.view());
    best = std::min(best, pipebench::seconds_between(t0, Clock::now()));
  }
  return static_cast<double>(FlopCounter::gemm_flops<T>(n, n, n)) / best / 1e9;
}

/// Best-of-5 STREAM-style triad a = b + s c through the pool; the three
/// arrays together hold `total_bytes`. Returns GB/s (3 arrays moved).
double triad_gbs(std::size_t total_bytes) {
  const auto n = static_cast<index_t>(total_bytes / (3 * sizeof(double)));
  // Uninitialized storage, first touched by the pool in the same chunks the
  // triad uses.
  const std::unique_ptr<double[]> a(new double[static_cast<std::size_t>(n)]),
      b(new double[static_cast<std::size_t>(n)]),
      c(new double[static_cast<std::size_t>(n)]);
  parallel_chunks(n, [&](index_t i0, index_t cnt) {
    for (index_t i = i0; i < i0 + cnt; ++i) a[i] = 0.0, b[i] = 1.0, c[i] = 2.0;
  });
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    parallel_chunks(n, [&](index_t i0, index_t cnt) {
      double* __restrict pa = a.get() + i0;
      const double* __restrict pb = b.get() + i0;
      const double* __restrict pc = c.get() + i0;
      for (index_t i = 0; i < cnt; ++i) pa[i] = pb[i] + 3.0 * pc[i];
    });
    best = std::min(best, pipebench::seconds_between(t0, Clock::now()));
  }
  if (a[n / 2] != 7.0) return -1;  // keep the stores
  return 3.0 * static_cast<double>(n) * sizeof(double) / best / 1e9;
}

// ---- run record ------------------------------------------------------------------

template <typename T>
std::string blocking_json() {
  const ResolvedBlocking& rb = resolved_blocking<T>();
  return JsonObj()
      .str("type", scalar_name<T>())
      .str("tile", gemm_selected_tile_name<T>())
      .integer("mr", rb.mr).integer("nr", rb.nr).integer("mc", rb.mc)
      .integer("kc", rb.kc).integer("nc", rb.nc).integer("trsm_nb", rb.trsm_nb)
      .integer("qr_nb", rb.qr_nb).integer("batch_simd_width", rb.batch_simd_width)
      .str("tile_src", blocking_source_name(rb.tile_src))
      .str("mc_src", blocking_source_name(rb.mc_src))
      .str("kc_src", blocking_source_name(rb.kc_src))
      .str("nc_src", blocking_source_name(rb.nc_src))
      .str("trsm_src", blocking_source_name(rb.trsm_src))
      .str("qr_src", blocking_source_name(rb.qr_src))
      .str("batch_src", blocking_source_name(rb.batch_src))
      .done();
}

extern "C" char** environ;

std::string run_record() {
  const HwInfo& hw = hwinfo();
  std::string env = "{";
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("HODLRX_", 0) != 0) continue;
    const std::size_t eq = kv.find('=');
    env += (env.size() > 1 ? ", " : "") + json_str(kv.substr(0, eq)) + ": " +
           json_str(kv.substr(eq + 1));
  }
  env += "}";
  const std::string hwj =
      JsonObj()
          .integer("l1d_bytes", hw.l1d_bytes).integer("l2_bytes", hw.l2_bytes)
          .integer("l3_bytes", hw.l3_bytes).integer("line_bytes", hw.line_bytes)
          .integer("simd_bytes", hw.simd_bytes)
          .integer("cpus", static_cast<std::uint64_t>(hw.logical_cpus))
          .str("family", hw.family).str("probe_source", hw.source)
          .str("autotune", autotune_enabled() ? "on" : "off")
          .str("sched", sched_mode_name(sched_mode()))
          .str("backend", backend().name())
          .done();
  std::string blocking = "[";
  for (const std::string& b :
       {blocking_json<float>(), blocking_json<double>(),
        blocking_json<std::complex<float>>(), blocking_json<std::complex<double>>()})
    blocking += (blocking.size() > 1 ? ", " : "") + b;
  return JsonObj()
      .raw("hwinfo", hwj)
      .raw("blocking", blocking + "]")
      .integer("pool_threads", static_cast<std::uint64_t>(max_threads()))
      .raw("hodlrx_env", env)
      .done();
}

// ---- main loop ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 5;
  double warmup = 0;
  bool traced = false;
  bool setup_only = false;
  std::string trace_file;
};

std::string pass_json(const PassResult& p, bool warm) {
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx", static_cast<unsigned long long>(p.hash));
  return JsonObj()
      .integer("warm", warm ? 1 : 0)
      .integer("ok", p.ok ? 1 : 0)
      .str("why", p.why)
      .num("pass_s", p.pass_s).num("build_s", p.build_s).num("pack_s", p.pack_s)
      .list("factor_s", p.factor_s).list("solve_s", p.solve_s)
      .list("solve_block_s", p.solve_block_s)
      .num("solve_checked_s", p.solve_checked_s).num("apply_s", p.apply_s)
      .num("logdet_s", p.logdet_s).num("relres_hodlr", p.relres_hodlr)
      .num("relres_true", p.relres_true).str("hash", hash)
      .done();
}

template <typename T>
int run(const Args& args, const Workload& wl,
        const std::function<Problem<T>(std::uint64_t)>& make) {
  const bool traced = args.traced;
  SpanLog trace_log(traced);
  SpanLog off(false);

  // ---- set-up: pool start + blocking resolution once, the problem
  // (discretization/points, cluster tree, generator) kSetupRepeats times.
  Problem<T> prob;
  double once_s = 0;
  std::vector<double> setup_samples, tree_samples;
  {
    Span setup(trace_log, "setup");
    {
      Span s(trace_log, "pool+blocking");
      (void)ThreadPool::instance();
      (void)resolved_blocking<T>();
      (void)hwinfo();
      once_s = s.close();
    }
    for (int k = 0; k < kSetupRepeats; ++k) {
      Span s(trace_log, "problem");
      prob = make(args.seed);
      setup_samples.push_back(s.close());
      tree_samples.push_back(prob.tree_s);
    }
  }
  const double setup_s = once_s + median(setup_samples);
  if (args.setup_only) {
    std::printf("%s\n", JsonObj()
                            .num("setup_s", setup_s)
                            .num("setup_once_s", once_s)
                            .list("setup_problem_s", setup_samples)
                            .done()
                            .c_str());
    return 0;
  }
  double rss_gb = 0;  // peak RSS after the first pass
  const Inputs<T> in = make_inputs<T>(prob.tree.n(), args.seed);
  const BuildOptions bopt;  // library defaults (tol 1e-12)

  // ---- closed loop: warm-up passes (at least one, for at least
  // --warmup seconds), then timed passes until the deadline.
  std::vector<PassResult> passes;
  std::size_t warm = 0;
  const Clock::time_point warm_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.warmup));
  do {
    passes.push_back(run_pass(prob, in, bopt, wl.relres_true_bound, off, false));
    if (++warm == 1) rss_gb = peak_rss_gb();
  } while (Clock::now() < warm_end);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  do {
    passes.push_back(run_pass(prob, in, bopt, wl.relres_true_bound, off, false));
  } while (Clock::now() < deadline || passes.size() < warm + 2);

  // Exact-repeat checks against the first timed pass.
  const PassResult ref = passes[warm];
  std::uint64_t counter_mismatch = 0, hash_mismatch = 0, repeat_mismatch = 0;
  const auto check_repeat = [&](const PassResult& p) {
    if (!p.ok) return;
    const bool counts_differ =
        p.counts != ref.counts || p.device_peak_bytes != ref.device_peak_bytes;
    const bool hash_differs = p.hash != ref.hash;
    counter_mismatch += counts_differ ? 1 : 0;
    hash_mismatch += hash_differs ? 1 : 0;
    repeat_mismatch += counts_differ || hash_differs ? 1 : 0;
  };
  for (std::size_t i = warm; i < passes.size(); ++i) check_repeat(passes[i]);

  auto med = [&](double PassResult::*field) {
    std::vector<double> v;
    for (std::size_t i = warm; i < passes.size(); ++i)
      if (passes[i].ok) v.push_back(passes[i].*field);
    return median(v);
  };
  auto pooled_med = [&](std::vector<double> PassResult::*field) {
    std::vector<double> v;
    for (std::size_t i = warm; i < passes.size(); ++i)
      if (passes[i].ok)
        v.insert(v.end(), (passes[i].*field).begin(), (passes[i].*field).end());
    return median(v);
  };

  JsonObj out;
  out.str("workload", wl.name).integer("seed", args.seed)
      .integer("threads", static_cast<std::uint64_t>(max_threads()))
      .num("setup_s", setup_s).num("setup_once_s", once_s)
      .list("setup_problem_s", setup_samples)
      .num("mem_gb", static_cast<double>(ref.hodlr_bytes + ref.factor_bytes) / 1e9)
      .num("peak_rss_gb", rss_gb)
      .integer("rank_max", static_cast<std::uint64_t>(ref.rank_max));

  if (traced) {
    std::map<std::string, double> m;
    const double threads = max_threads();
    // Untraced-pass medians and exact counters (first timed pass).
    const double build_s = med(&PassResult::build_s);
    const double pack_s = med(&PassResult::pack_s);
    const double factor_s = pooled_med(&PassResult::factor_s);
    const double solve_s = pooled_med(&PassResult::solve_s);
    const double solve_block_s = pooled_med(&PassResult::solve_block_s);
    const double apply_s = med(&PassResult::apply_s);
    m["tree.s"] = median(tree_samples);
    m["build.pass_share"] = build_s / med(&PassResult::pass_s);
    m["factor.pass_share"] = factor_s / med(&PassResult::pass_s);
    m["pack.s"] = pack_s;
    m["pack.gbs"] = static_cast<double>(ref.packed_bytes) / pack_s / 1e9;
    double factor_flops = 0;
    for (const char* c : {"gemm", "lu", "trsm", "other"})
      factor_flops += static_cast<double>(ref.counts.at(std::string("factor/flops.") + c));
    m["factor.flops"] = factor_flops;
    m["factor.gflops"] = factor_flops / factor_s / 1e9;
    m["solve.gbs"] = static_cast<double>(ref.factor_bytes) / solve_s / 1e9;
    m["solve_block.gflops"] =
        static_cast<double>(ref.solve_block_flops) / solve_block_s / 1e9;
    m["apply.s"] = apply_s;
    m["apply.gbs"] = static_cast<double>(ref.hodlr_bytes) / apply_s / 1e9;
    m["solve_checked.s"] = med(&PassResult::solve_checked_s);
    m["gmres.iterations"] = static_cast<double>(ref.gmres_iterations);
    m["logdet.s"] = med(&PassResult::logdet_s);
    double rh = 0, rt = 0;
    for (const PassResult& p : passes) rh = std::max(rh, p.relres_hodlr), rt = std::max(rt, p.relres_true);
    m["relres_hodlr"] = rh;
    m["relres_true"] = rt;
    for (const char* st : {"build", "factor", "solve"})
      m[std::string("pool.launches.") + st] =
          static_cast<double>(ref.counts.at(std::string(st) + "/pool.launches"));
    for (const char* c : {"qr.panel_launches", "svd.batched_sweeps",
                          "svd.nonconverged", "sched.graph_nodes"})
      m[c] = static_cast<double>(pass_total(ref.counts, c));
    m["device.launches.factor"] =
        static_cast<double>(ref.counts.at("factor/device.launches"));
    m["device.launches.solve"] =
        static_cast<double>(ref.counts.at("solve/device.launches"));
    const std::uint64_t h2d = pass_total(ref.counts, "device.h2d_bytes");
    m["device.h2d_bytes"] = static_cast<double>(h2d);
    m["device.peak_bytes"] = static_cast<double>(ref.device_peak_bytes);
    m["device.modeled_transfer_s"] =
        DeviceContext::global().modeled_transfer_seconds(h2d);

    // Traced pass: stage spans + the timing generator inside the real build.
    // It must repeat the untraced passes exactly.
    const double untraced_pass_s = med(&PassResult::pass_s);
    const PassResult tp =
        run_pass(prob, in, bopt, wl.relres_true_bound, trace_log, true);
    passes.push_back(tp);
    check_repeat(tp);
    m["counters.mismatch"] = static_cast<double>(counter_mismatch);
    m["solution.hash_mismatch"] = static_cast<double>(hash_mismatch);
    m["trace.overhead_s"] = tp.pass_s - untraced_pass_s;
    m["gen.entries"] = static_cast<double>(tp.gen_entries);
    m["gen.busy_s"] = tp.gen_busy_s;
    m["gen.ns_per_entry"] = 1e9 * tp.gen_busy_s / static_cast<double>(tp.gen_entries);
    m["gen.build_share"] = tp.gen_busy_s / (tp.build_s * threads);
    m["build.rank_max"] = static_cast<double>(tp.rank_max);
    m["build.rank_sum"] = static_cast<double>(tp.rank_sum);

    // Per-level replay of the build.
    const Replay rp = replay_build(*prob.gen, prob.tree, bopt, tp.node_rank, trace_log);
    double aca_wall = 0, rec_wall = 0;
    for (index_t l = 1; l <= kMaxLevels; ++l) {
      const auto li = static_cast<std::size_t>(l);
      const bool has = l < static_cast<index_t>(rp.aca_level_s.size());
      m["aca.l" + std::to_string(l) + "_s"] = has ? rp.aca_level_s[li] : 0.0;
      m["recompress.l" + std::to_string(l) + "_s"] =
          has ? rp.recompress_level_s[li] : 0.0;
      if (has) aca_wall += rp.aca_level_s[li], rec_wall += rp.recompress_level_s[li];
    }
    m["aca.busy_s"] = rp.aca_busy_s;
    m["aca.self_s"] = rp.aca_busy_s - rp.aca_gen_busy_s;
    m["aca.rank_max"] = static_cast<double>(rp.aca_rank_max);
    m["aca.rank_sum"] = static_cast<double>(rp.aca_rank_sum);
    m["recompress.s"] = rec_wall;
    m["recompress.rank_ratio"] =
        static_cast<double>(rp.rank_sum_after) / static_cast<double>(rp.aca_rank_sum);
    m["trace.build_coverage"] = (aca_wall + rec_wall + rp.leaves_s) / tp.build_s;
    m["trace.replay_rank_mismatch"] = static_cast<double>(rp.rank_mismatches);

    // Recompression record: the same pipeline with recompress=false.
    {
      Span nr(trace_log, "no_recompress");
      BuildOptions raw = bopt;
      raw.recompress = false;
      const PassResult p =
          run_pass(prob, in, raw, wl.relres_true_bound, trace_log, false);
      m["build.no_recompress_s"] = p.build_s;
      m["factor.no_recompress_s"] = median(p.factor_s);
      m["solve.no_recompress_s"] = median(p.solve_s);
      m["mem.no_recompress_gb"] =
          static_cast<double>(p.hodlr_bytes + p.factor_bytes) / 1e9;
      m["no_recompress.rank_max"] = static_cast<double>(p.rank_max);
      m["no_recompress.rank_sum"] = static_cast<double>(p.rank_sum);
      // A record of a non-default configuration, not a pass of the
      // benchmark: its accuracy is reported, not gated.
      m["no_recompress.relres_true"] = p.relres_true;
    }

    // In-run rooflines for T: pooled and 1-thread packed GEMM, and triad
    // bandwidth over arrays totalling at least 4x the LLC.
    {
      Span rl(trace_log, "rooflines");
      constexpr bool cplx = is_complex_v<T>;
      {
        Span s(trace_log, "gemm.pool");
        m["gemm.peak_gflops"] = gemm_gflops<T>(cplx ? 1280 : 2048, true);
      }
      {
        Span s(trace_log, "gemm.1t");
        m["gemm.peak_gflops_1t"] = gemm_gflops<T>(cplx ? 640 : 1024, false);
      }
      const std::size_t llc = hwinfo().l3_bytes > 0 ? hwinfo().l3_bytes : hwinfo().l2_bytes;
      const std::size_t triad_bytes =
          std::min<std::size_t>(std::max<std::size_t>(4 * llc, 256u << 20), 2048u << 20);
      Span s(trace_log, "triad");
      m["mem.triad_gbs"] = triad_gbs(triad_bytes);
      m["mem.triad_bytes"] = static_cast<double>(triad_bytes);
      m["mem.llc_bytes"] = static_cast<double>(llc);
    }
    m["factor.roofline_frac"] = m["factor.gflops"] / m["gemm.peak_gflops"];
    m["solve.bw_frac"] = m["solve.gbs"] / m["mem.triad_gbs"];

    JsonObj mj;
    for (const auto& [k, v] : m) mj.num(k, v);
    out.raw("metrics", mj.done());
    const std::string record = run_record();
    if (!args.trace_file.empty() && !trace_log.write(args.trace_file, record)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_file.c_str());
      return 1;
    }
  }

  out.integer("counter_mismatch", counter_mismatch)
      .integer("hash_mismatch", hash_mismatch)
      .integer("repeat_mismatch", repeat_mismatch);
  std::string pj = "[";
  for (std::size_t i = 0; i < passes.size(); ++i)
    pj += (i ? ", " : "") + pass_json(passes[i], i < warm);
  out.raw("passes", pj + "]");
  out.raw("run_record", run_record());
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) args.workload = argv[++i];
    else if (a == "--seed" && has_value) args.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && has_value) args.seconds = std::atof(argv[++i]);
    else if (a == "--warmup" && has_value) args.warmup = std::atof(argv[++i]);
    else if (a == "--traced") args.traced = true;
    else if (a == "--setup-only") args.setup_only = true;
    else if (a == "--trace-file" && has_value) args.trace_file = argv[++i];
    else {
      std::fprintf(stderr, "pipeline: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  // The benchmark times the library's default paths only.
  for (const char* var : {"HODLRX_SCHED", "HODLRX_BACKEND", "HODLRX_FAULT",
                          "HODLRX_AUDIT"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "pipeline: refusing to time a run with %s set\n", var);
      return 2;
    }
  }
  try {
    if (args.workload == "laplace_bie")
      return run<double>(args, {"laplace_bie", 1e-10}, make_laplace);
    if (args.workload == "rpy_1d")
      return run<double>(args, {"rpy_1d", 1e-12}, make_rpy);
    if (args.workload == "helmholtz_bie")
      return run<std::complex<double>>(args, {"helmholtz_bie", 1e-10},
                                       make_helmholtz);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "pipeline: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
