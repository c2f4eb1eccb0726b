#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/config.hpp"

/// \file device.hpp
/// Simulated accelerator context.
///
/// The paper runs on an NVIDIA V100 (32 GB, PCIe 3.0 x16 at ~12 GB/s
/// measured) and launches cuBLAS batched kernels. This environment has no
/// GPU, so the "device" is the host's persistent ThreadPool; this context
/// keeps the *accounting* a GPU imposes so the experiments remain
/// meaningful:
///
///  - device-memory accounting (live/peak bytes against a capacity), so
///    benches can report the paper's `mem` column and check the 32 GB fit;
///  - host-to-device / device-to-host transfer byte counters plus a
///    bandwidth model, so copy overheads are reported the way the paper
///    discusses them;
///  - a kernel-launch counter with optional injected per-launch latency, so
///    the launch-amortization claim of batching (Sec. III-C) is measurable.
///
/// All counters are thread-safe.

namespace hodlrx {

class DeviceContext {
 public:
  /// The process-wide default device.
  static DeviceContext& global();

  // --- memory accounting -------------------------------------------------
  void alloc_bytes(std::size_t n);
  void free_bytes(std::size_t n);
  std::size_t live_bytes() const { return live_.load(); }
  std::size_t peak_bytes() const { return peak_.load(); }
  std::size_t capacity_bytes() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  void set_capacity_bytes(std::size_t c) {
    capacity_.store(c, std::memory_order_relaxed);
  }

  // --- transfers ----------------------------------------------------------
  /// Record (and perform, trivially: the memory is shared) a host-to-device
  /// copy of n bytes.
  void record_h2d(std::size_t n) { h2d_.fetch_add(n); }
  void record_d2h(std::size_t n) { d2h_.fetch_add(n); }
  std::size_t h2d_bytes() const { return h2d_.load(); }
  std::size_t d2h_bytes() const { return d2h_.load(); }
  /// Modeled seconds to move n bytes over the link. A non-positive
  /// bandwidth (set_bandwidth_gbs(0) is the documented way to disable the
  /// transfer model) means "free", not a division by zero.
  double modeled_transfer_seconds(std::size_t n) const {
    const double gbs = bandwidth_gbs();
    if (gbs <= 0.0) return 0.0;
    return static_cast<double>(n) / (gbs * 1e9);
  }
  void set_bandwidth_gbs(double gbs) {
    bandwidth_gbs_.store(gbs, std::memory_order_relaxed);
  }
  double bandwidth_gbs() const {
    return bandwidth_gbs_.load(std::memory_order_relaxed);
  }

  // --- kernel launches ----------------------------------------------------
  /// Record one batched-kernel launch; optionally injects the configured
  /// per-launch latency (busy wait) to emulate GPU launch overhead.
  void record_launch();
  std::uint64_t launches() const { return launches_.load(); }
  void set_launch_latency_us(double us) {
    launch_latency_us_.store(us, std::memory_order_relaxed);
  }
  double launch_latency_us() const {
    return launch_latency_us_.load(std::memory_order_relaxed);
  }

  /// Reset the transfer/launch counters and rebase the peak to the current
  /// live bytes. `live_` itself is NOT reset: it is owned by the
  /// outstanding DeviceAllocation handles, whose later destructors would
  /// underflow a zeroed live count (the configuration is untouched too).
  void reset_counters();

 private:
  std::atomic<std::size_t> live_{0}, peak_{0}, h2d_{0}, d2h_{0};
  std::atomic<std::uint64_t> launches_{0};
  // Configuration knobs are atomics too: tests and a future serving layer
  // tune them while launches are in flight on other threads, and a torn
  // double read under the capacity check would be a real (if benign-looking)
  // race. Relaxed ordering — each knob is an independent scalar.
  std::atomic<std::size_t> capacity_{32ull << 30};  // V100: 32 GB
  std::atomic<double> bandwidth_gbs_{12.0};  // paper: ~12 GB/s achieved
  std::atomic<double> launch_latency_us_{0.0};
};

/// RAII registration of a device-memory allocation (move-only).
class DeviceAllocation {
 public:
  DeviceAllocation() = default;
  explicit DeviceAllocation(std::size_t bytes) : bytes_(bytes) {
    DeviceContext::global().alloc_bytes(bytes_);
  }
  ~DeviceAllocation() { release(); }
  DeviceAllocation(const DeviceAllocation&) = delete;
  DeviceAllocation& operator=(const DeviceAllocation&) = delete;
  DeviceAllocation(DeviceAllocation&& o) noexcept : bytes_(o.bytes_) {
    o.bytes_ = 0;
  }
  DeviceAllocation& operator=(DeviceAllocation&& o) noexcept {
    if (this != &o) {
      release();
      bytes_ = o.bytes_;
      o.bytes_ = 0;
    }
    return *this;
  }
  std::size_t bytes() const { return bytes_; }

 private:
  void release() {
    if (bytes_ > 0) DeviceContext::global().free_bytes(bytes_);
    bytes_ = 0;
  }
  std::size_t bytes_ = 0;
};

}  // namespace hodlrx
