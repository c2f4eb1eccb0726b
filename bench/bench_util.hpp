#pragma once

#include "common/random.hpp"
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baseline/recursive_solver.hpp"
#include "common/blocking.hpp"
#include "common/gemm_kernel.hpp"
#include "common/hwinfo.hpp"
#include "common/timer.hpp"
#include "core/factorization.hpp"
#include "device/device.hpp"
#include "sparse/block_lu.hpp"

/// Shared helpers for the paper-table benchmark drivers. Timings follow the
/// paper's protocol: construction (compression) is NOT included in t_f; the
/// reported factorization and solution times are the medians of `repeats`
/// warm runs, after one cold run that is discarded (first-touch page
/// faults, workspace growth); `mem` is the factorization footprint in GB;
/// `relres` is ||b - A x|| / ||b|| against the HODLR operator.

namespace hodlrx::bench {

struct Args {
  bool full = false;       ///< paper-scale sweep instead of the default
  bool low_accuracy = false;
  index_t max_n = -1;
  int repeats = 3;

  static Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--full")) a.full = true;
      else if (!std::strcmp(argv[i], "--low")) a.low_accuracy = true;
      else if (!std::strcmp(argv[i], "--max-n") && i + 1 < argc)
        a.max_n = std::atoll(argv[++i]);
      else if (!std::strcmp(argv[i], "--repeats") && i + 1 < argc)
        a.repeats = std::atoi(argv[++i]);
      else
        std::fprintf(stderr, "unknown flag %s\n", argv[i]);
    }
    return a;
  }
};

struct SolverStats {
  double tf = 0;       ///< factorization seconds (median of warm runs)
  double ts = 0;       ///< single-RHS solution seconds (median of warm runs)
  double mem_gb = 0;   ///< factorization bytes / 1e9
  double relres = 0;   ///< ||b - A x|| / ||b|| vs the HODLR operator
};

inline double gb(std::size_t bytes) { return static_cast<double>(bytes) / 1e9; }

/// Best-of-N wall time of `f()` — the shared timing methodology of every
/// micro-bench, so the BENCH_*.json series all measure the same thing.
template <typename F>
double time_best(int repeats, F&& f) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    WallTimer t;
    f();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// As time_best, but runs `setup()` outside the timed section before each
/// repeat (for in-place kernels that consume their input, e.g. getrf).
template <typename Setup, typename F>
double time_best_with_setup(int repeats, Setup&& setup, F&& f) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    setup();
    WallTimer t;
    f();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// Collects the factor and solve times of the runs of one bench helper:
/// run 0 is the cold run and is dropped, the rest report their medians.
class WarmTimes {
 public:
  void add(int run, double tf, double ts) {
    if (run == 0) return;
    tf_.push_back(tf);
    ts_.push_back(ts);
  }
  void report(SolverStats& out) const {
    out.tf = median(tf_);
    out.ts = median(ts_);
  }
  /// Cold run plus `repeats` (at least one) warm runs.
  static int runs(int repeats) { return 1 + std::max(1, repeats); }

 private:
  static double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size(), h = n / 2;
    return n % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
  }
  std::vector<double> tf_, ts_;
};

/// relres of x against the HODLR operator.
template <typename T>
double hodlr_relres(const HodlrMatrix<T>& h, ConstMatrixView<T> x,
                    ConstMatrixView<T> b) {
  Matrix<T> r(h.n(), x.cols);
  h.apply(x, r.view());
  axpy(T{-1}, b, r.view());
  return static_cast<double>(norm_fro<T>(r) / norm_fro<T>(b));
}

/// Benchmark the packed factorization (serial or batched engine).
template <typename T>
SolverStats bench_packed(const HodlrMatrix<T>& h, const PackedHodlr<T>& p,
                         ExecMode mode, ConstMatrixView<T> b, int repeats) {
  SolverStats out;
  FactorOptions opt;
  opt.mode = mode;
  Matrix<T> x;
  WarmTimes times;
  const int runs = WarmTimes::runs(repeats);
  for (int run = 0; run < runs; ++run) {
    WallTimer t;
    HodlrFactorization<T> f = HodlrFactorization<T>::factor(p, opt);
    const double tf = t.seconds();
    x = to_matrix(b);
    t.reset();
    f.solve_inplace(x);
    times.add(run, tf, t.seconds());
    if (run == runs - 1) {
      // The operator's panels (V included) plus the factorization's own
      // Y, leaf LUs and K: V is read in place, so f.bytes() omits it.
      out.mem_gb = gb(h.bytes() + f.bytes());
      out.relres = hodlr_relres(h, ConstMatrixView<T>(x), b);
    }
  }
  times.report(out);
  return out;
}

/// Benchmark the HODLRlib-style recursive solver.
template <typename T>
SolverStats bench_recursive(const HodlrMatrix<T>& h, ConstMatrixView<T> b,
                            int repeats, bool parallel) {
  SolverStats out;
  typename RecursiveSolver<T>::Options opt;
  opt.parallel = parallel;
  Matrix<T> x;
  WarmTimes times;
  const int runs = WarmTimes::runs(repeats);
  for (int run = 0; run < runs; ++run) {
    WallTimer t;
    RecursiveSolver<T> s = RecursiveSolver<T>::factor(h, opt);
    const double tf = t.seconds();
    x = to_matrix(b);
    t.reset();
    s.solve_inplace(x);
    times.add(run, tf, t.seconds());
    if (run == runs - 1) {
      out.mem_gb = gb(s.bytes());
      out.relres = hodlr_relres(h, ConstMatrixView<T>(x), b);
    }
  }
  times.report(out);
  return out;
}

/// Benchmark the Ho-Greengard block-sparse solver.
template <typename T>
SolverStats bench_block_sparse(const HodlrMatrix<T>& h, ConstMatrixView<T> b,
                               int repeats, bool parallel) {
  SolverStats out;
  typename BlockSparseLU<T>::Options opt;
  opt.parallel = parallel;
  Matrix<T> x;
  WarmTimes times;
  const int runs = WarmTimes::runs(repeats);
  for (int run = 0; run < runs; ++run) {
    ExtendedSystem<T> sys = build_extended_system(h);
    WallTimer t;
    BlockSparseLU<T> lu = BlockSparseLU<T>::factor(std::move(sys), opt);
    const double tf = t.seconds();
    t.reset();
    x = lu.solve(b);
    times.add(run, tf, t.seconds());
    if (run == runs - 1) {
      out.mem_gb = gb(lu.bytes());
      out.relres = hodlr_relres(h, ConstMatrixView<T>(x), b);
    }
  }
  times.report(out);
  return out;
}

inline void print_rank_ladder(const std::vector<index_t>& ladder) {
  std::printf("    ranks (level 1..leaf):");
  for (index_t r : ladder) std::printf(" %lld", static_cast<long long>(r));
  std::printf("\n");
}

/// Minimal machine-readable output: one JSON file per bench holding an array
/// of flat records, so the perf trajectory can be tracked across PRs
/// (`BENCH_gemm.json`, `BENCH_fig9_flops.json`, ...). Usage:
///   JsonArrayWriter out("BENCH_gemm.json");
///   out.begin_record();
///   out.field("case", "nn"); out.field("gflops", 12.3);
///   out.end_record();
class JsonArrayWriter {
 public:
  explicit JsonArrayWriter(const std::string& path)
      : f_(std::fopen(path.c_str(), "w")) {
    if (f_)
      std::fprintf(f_, "[");
    else
      std::fprintf(stderr, "warning: cannot open %s for writing; JSON output disabled\n",
                   path.c_str());
  }
  ~JsonArrayWriter() { close(); }
  JsonArrayWriter(const JsonArrayWriter&) = delete;
  JsonArrayWriter& operator=(const JsonArrayWriter&) = delete;

  bool ok() const { return f_ != nullptr; }

  void begin_record() {
    if (!f_) return;
    std::fprintf(f_, "%s\n  {", first_record_ ? "" : ",");
    first_record_ = false;
    first_field_ = true;
  }
  void field(const char* name, const char* value) {
    if (!f_) return;
    sep();
    std::fprintf(f_, "\"%s\": \"%s\"", name, value);
  }
  void field(const char* name, const std::string& value) {
    field(name, value.c_str());
  }
  void field(const char* name, double value) {
    if (!f_) return;
    sep();
    std::fprintf(f_, "\"%s\": %.6g", name, value);
  }
  void field(const char* name, index_t value) {
    if (!f_) return;
    sep();
    std::fprintf(f_, "\"%s\": %lld", name, static_cast<long long>(value));
  }
  void end_record() {
    if (f_) std::fprintf(f_, "}");
  }
  void close() {
    if (f_) {
      std::fprintf(f_, "\n]\n");
      std::fclose(f_);
      f_ = nullptr;
    }
  }

 private:
  void sep() {
    if (!f_) return;
    if (!first_field_) std::fprintf(f_, ", ");
    first_field_ = false;
  }
  std::FILE* f_ = nullptr;
  bool first_record_ = true;
  bool first_field_ = true;
};

namespace detail {
template <typename T>
void emit_blocking_record(JsonArrayWriter& out) {
  const ResolvedBlocking& rb = resolved_blocking<T>();
  out.begin_record();
  out.field("case", "blocking");
  out.field("type", scalar_name<T>());
  out.field("tile", gemm_selected_tile_name<T>());
  out.field("mr", rb.mr);
  out.field("nr", rb.nr);
  out.field("mc", rb.mc);
  out.field("kc", rb.kc);
  out.field("nc", rb.nc);
  out.field("trsm_nb", rb.trsm_nb);
  out.field("qr_nb", rb.qr_nb);
  out.field("batch_simd_width", rb.batch_simd_width);
  out.field("tile_src", blocking_source_name(rb.tile_src));
  out.field("mc_src", blocking_source_name(rb.mc_src));
  out.field("kc_src", blocking_source_name(rb.kc_src));
  out.field("nc_src", blocking_source_name(rb.nc_src));
  out.field("trsm_src", blocking_source_name(rb.trsm_src));
  out.field("qr_src", blocking_source_name(rb.qr_src));
  out.field("batch_src", blocking_source_name(rb.batch_src));
  out.end_record();
}
}  // namespace detail

/// Prepend the RESOLVED blocking configuration (post-probe, post-override —
/// not the compile-time constants) plus the probed topology to a bench JSON,
/// so every BENCH_*.json records exactly what blocking the run used. Call
/// right after constructing the writer.
inline void emit_blocking_records(JsonArrayWriter& out) {
  const HwInfo& hw = hwinfo();
  out.begin_record();
  out.field("case", "hwinfo");
  out.field("l1d_bytes", static_cast<index_t>(hw.l1d_bytes));
  out.field("l2_bytes", static_cast<index_t>(hw.l2_bytes));
  out.field("l3_bytes", static_cast<index_t>(hw.l3_bytes));
  out.field("line_bytes", static_cast<index_t>(hw.line_bytes));
  out.field("simd_bytes", static_cast<index_t>(hw.simd_bytes));
  out.field("cpus", static_cast<index_t>(hw.logical_cpus));
  out.field("family", hw.family);
  out.field("probe_source", hw.source);
  out.field("autotune", autotune_enabled() ? "on" : "off");
  out.end_record();
  detail::emit_blocking_record<float>(out);
  detail::emit_blocking_record<double>(out);
  detail::emit_blocking_record<std::complex<float>>(out);
  detail::emit_blocking_record<std::complex<double>>(out);
}

}  // namespace hodlrx::bench
