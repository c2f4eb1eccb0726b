#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "lowrank/generator.hpp"

/// \file trace.hpp
/// Benchmark-side instrumentation: spans recorded around calls into the
/// library's public API and written as Chrome trace-event JSON, and a
/// MatrixGenerator decorator that counts (and optionally times) every
/// generator call the library makes. Nothing here reaches inside the
/// library.

namespace pipebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Spans of the benchmark's main thread, kept in memory and written once at
/// the end as Chrome trace-event JSON ("X" complete events, microseconds).
/// A disabled log records nothing. Not thread-safe: spans are opened only
/// from the thread that drives the pipeline.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Name of the innermost open span ("" at top level).
  const std::string& open_parent() const {
    static const std::string kNone;
    return open_.empty() ? kNone : open_.back();
  }
  void push(const std::string& name) { open_.push_back(name); }
  void pop() { open_.pop_back(); }

  void add(const std::string& name, const std::string& parent,
           Clock::time_point t0, Clock::time_point t1, std::string args) {
    if (enabled_)
      events_.push_back({name, parent, us(t0), us(t1) - us(t0), std::move(args)});
  }

  /// Write {"traceEvents": [...], "otherData": other} to `path`.
  bool write(const std::string& path, const std::string& other_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"cat\": \"pipeline\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"parent\": \"%s\"%s%s}}%s\n",
                   e.name.c_str(), e.ts_us, e.dur_us, e.parent.c_str(),
                   e.args.empty() ? "" : ", ", e.args.c_str(),
                   i + 1 < events_.size() ? "," : "");
    }
    std::fprintf(f, "], \"otherData\": %s}\n", other_json.c_str());
    return std::fclose(f) == 0;
  }

 private:
  struct Event {
    std::string name, parent;
    double ts_us = 0, dur_us = 0;
    std::string args;  ///< pre-rendered `"key": value` pairs
  };
  double us(Clock::time_point t) const {
    return 1e6 * seconds_between(origin_, t);
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<std::string> open_;
  std::vector<Event> events_;
};

/// RAII span: times its scope (always, so callers can read the duration
/// close() returns) and records it in the log when the log is enabled.
class Span {
 public:
  Span(SpanLog& log, std::string name)
      : log_(log), name_(std::move(name)), parent_(log.open_parent()) {
    log_.push(name_);
  }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a numeric argument shown in the trace viewer.
  void arg(const char* key, double value) {
    if (!log_.enabled()) return;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.9g", args_.empty() ? "" : ", ",
                  key, value);
    args_ += buf;
  }
  /// End the span now (idempotent); returns its duration in seconds.
  double close() {
    if (!open_) return dur_;
    const Clock::time_point t1 = Clock::now();
    dur_ = seconds_between(t0_, t1);
    open_ = false;
    log_.pop();
    log_.add(name_, parent_, t0_, t1, std::move(args_));
    return dur_;
  }

 private:
  SpanLog& log_;
  std::string name_, parent_, args_;
  Clock::time_point t0_ = Clock::now();
  double dur_ = 0;
  bool open_ = true;
};

/// Small dense per-thread index (0 for the first thread that asks, ...).
/// Pool workers are persistent, so indices stay small for the process.
inline int thread_slot() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Decorator over the workload's generator: forwards entry, fill_row,
/// fill_col and fill_block unchanged and accumulates, per thread, the number
/// of entries produced and (with timing on) the seconds spent producing
/// them. It emits no per-entry spans. Totals are read on the driving thread
/// after the library call that used the generator has returned.
template <typename T>
class ProbeGenerator final : public hodlrx::MatrixGenerator<T> {
 public:
  static constexpr int kSlots = 256;

  ProbeGenerator(const hodlrx::MatrixGenerator<T>& inner, bool timing)
      : inner_(inner), timing_(timing) {}

  hodlrx::index_t rows() const override { return inner_.rows(); }
  hodlrx::index_t cols() const override { return inner_.cols(); }
  T entry(hodlrx::index_t i, hodlrx::index_t j) const override {
    Probe p(*this, 1);
    return inner_.entry(i, j);
  }
  void fill_row(hodlrx::index_t i, hodlrx::index_t j0, hodlrx::index_t j1,
                T* out) const override {
    Probe p(*this, j1 - j0);
    inner_.fill_row(i, j0, j1, out);
  }
  void fill_col(hodlrx::index_t j, hodlrx::index_t i0, hodlrx::index_t i1,
                T* out) const override {
    Probe p(*this, i1 - i0);
    inner_.fill_col(j, i0, i1, out);
  }
  void fill_block(hodlrx::index_t i0, hodlrx::index_t j0,
                  hodlrx::MatrixView<T> out) const override {
    Probe p(*this, out.rows * out.cols);
    inner_.fill_block(i0, j0, out);
  }

  std::uint64_t entries() const {
    std::uint64_t n = 0;
    for (const Slot& s : slots_) n += s.entries;
    return n;
  }
  /// Thread-seconds spent inside the wrapped generator (timing on only).
  double busy_s() const {
    double t = 0;
    for (const Slot& s : slots_) t += s.busy_s;
    return t;
  }

 private:
  struct alignas(64) Slot {
    std::uint64_t entries = 0;
    double busy_s = 0;
  };
  struct Probe {
    Probe(const ProbeGenerator& g, hodlrx::index_t n) : slot(g.slot()) {
      slot.entries += static_cast<std::uint64_t>(n);
      if (g.timing_) t0 = Clock::now(), timed = true;
    }
    ~Probe() {
      if (timed) slot.busy_s += seconds_between(t0, Clock::now());
    }
    Slot& slot;
    Clock::time_point t0{};
    bool timed = false;
  };
  Slot& slot() const {
    const int id = thread_slot();
    HODLRX_REQUIRE(id < kSlots, "ProbeGenerator: more than " << kSlots
                                                             << " threads");
    return slots_[static_cast<std::size_t>(id)];
  }

  const hodlrx::MatrixGenerator<T>& inner_;
  bool timing_;
  mutable std::array<Slot, kSlots> slots_{};
};

}  // namespace pipebench
