#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"

/// \file backend.hpp
/// The pluggable device backend: memory ownership, streams, events, and the
/// registry the batched drivers dispatch through.
///
/// The paper's engine is a stream of cuBLAS-style strided-batched launches
/// against device-resident memory. `DeviceContext` (device.hpp) keeps the
/// *accounting* of that model; this layer adds the *execution* contract a
/// real accelerator imposes, so the rest of the library programs against the
/// CUDA shape even though this environment has no GPU:
///
///  - `Backend` owns device memory (`allocate`/`deallocate`, routed through
///    the DeviceContext live/peak accounting and the `device.alloc`
///    HODLRX_FAULT site) and drains outstanding work (`synchronize`).
///  - `Stream` is an ordered work queue: `launch` enqueues a kernel body,
///    launches on ONE stream execute in FIFO order, and launches on
///    different streams are unordered unless an `Event` edge orders them
///    (`record` on the producing stream, `wait` on the consuming one) —
///    exactly the cudaStream/cudaEvent contract.
///  - The registry (`backend()`, selected by `HODLRX_BACKEND`, reread per
///    call like HODLRX_FAULT) ships two backends:
///      * `host`       — inline-synchronous; every launch runs immediately
///                       on the calling thread. Bit-for-bit the pre-backend
///                       behavior; the default.
///      * `host-async` — launches enqueue onto per-stream FIFO queues and
///                       are drained by the persistent ThreadPool at
///                       synchronization points, so independent streams
///                       genuinely overlap.
///
/// The batched drivers defer onto a stream only while one is bound
/// (StreamScope). No library sweep binds one today; the conformance suite
/// does, and `host-async` is the test double a device port is held to.
///
/// A future CUDA/HIP backend implements the same five virtuals and must pass
/// tests/test_backend_conformance.cpp unchanged — that suite, not this
/// header, is the real interface contract (docs/device-backend.md).

namespace hodlrx {

namespace detail {
class AsyncEngine;
struct EventState;
struct StreamState;
}  // namespace detail

class Stream;

/// One device backend. Subclasses provide raw memory and (optionally) an
/// async queue engine; the non-virtual allocate/deallocate wrappers keep the
/// DeviceContext accounting and fault injection uniform across backends.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Registry name ("host", "host-async", later "cuda"/"hip").
  virtual const char* name() const = 0;

  /// True when `Stream::launch` defers execution (so callers needing results
  /// on the host must synchronize first).
  virtual bool asynchronous() const = 0;

  /// Block until every launch enqueued on every stream of this backend has
  /// executed. Rethrows the first captured launch failure. No-op for
  /// synchronous backends.
  virtual void synchronize() {}

  /// Allocate device memory: checks the `device.alloc` fault site, registers
  /// the bytes with DeviceContext (live/peak/capacity), then calls
  /// raw_allocate. On a raw failure the accounting is rolled back before the
  /// exception propagates. Throws hodlrx::Error (injected fault or over
  /// capacity) or std::bad_alloc (real exhaustion).
  void* allocate(std::size_t bytes);

  /// Release memory obtained from allocate() and retire its accounting.
  void deallocate(void* p, std::size_t bytes) noexcept;

 protected:
  /// Raw memory hooks; the host backends use ::operator new/delete. A CUDA
  /// backend would call cudaMalloc/cudaFree here and keep the accounting
  /// wrappers above untouched.
  virtual void* raw_allocate(std::size_t bytes);
  virtual void raw_deallocate(void* p, std::size_t bytes) noexcept;

 private:
  friend class Stream;
  friend class Event;
  /// Queue engine for asynchronous backends; null for synchronous ones.
  virtual detail::AsyncEngine* engine() { return nullptr; }
};

/// The active backend: `HODLRX_BACKEND` if set and registered, else `host`.
/// The environment is reread on every call (the HODLRX_FAULT convention), so
/// tests flip backends with setenv at runtime; unknown names fall back to
/// `host` rather than failing, matching the other env knobs.
Backend& backend();

/// Look up a registered backend by name (null when unknown).
Backend* find_backend(const std::string& name);

/// Names of every registered backend, in registry order. The conformance
/// suite parameterizes over this list.
std::vector<std::string> backend_names();

/// A completion marker recorded on a stream. Default-constructed events are
/// complete; `Stream::record` makes the event pending until the queue
/// position it marks has executed. Events are copyable handles to shared
/// state (so they can sit in std::vector and outlive the recording scope)
/// and reusable: re-recording an already-complete event makes it pending
/// again, and `reset()` force-completes it.
class Event {
 public:
  Event();
  /// True when every recorded position has executed (never blocks).
  bool query() const;
  /// Block until complete; on an async backend this drains queued work (the
  /// calling thread helps execute, it does not just spin).
  void synchronize() const;
  /// Force-complete: outstanding recordings (and stream waits on them) are
  /// satisfied immediately.
  void reset();

 private:
  friend class Stream;
  std::shared_ptr<detail::EventState> state_;
};

/// An ordered launch queue on one backend. Non-copyable and non-movable
/// (queued work holds a pointer to the stream's state); place streams in
/// fixed arrays or behind unique_ptr. The destructor synchronizes, so a
/// stream can never outlive its pending work.
class Stream {
 public:
  /// Create on the active backend() (captured at construction — a later env
  /// flip does not migrate an existing stream).
  Stream();
  explicit Stream(Backend& b);
  ~Stream();
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  Backend& owner() const { return *owner_; }

  /// Enqueue `body` after everything already on this stream. Synchronous
  /// backends run it inline before returning. `label` names the launch in
  /// diagnostics. Exceptions from deferred bodies are captured and rethrown
  /// at the next synchronization point; once one launch fails, the rest of
  /// the queued bodies are skipped (their events still complete) so the
  /// queues always drain.
  void launch(const char* label, std::function<void()> body);

  /// Mark `ev` pending until everything currently on this stream executes.
  void record(Event& ev);

  /// Order later work on THIS stream after `ev`: nothing enqueued after the
  /// wait runs until the event completes. This is the only cross-stream
  /// ordering primitive, exactly like cudaStreamWaitEvent.
  void wait(const Event& ev);

  /// Block until this stream's queue is empty (helping to drain it).
  void synchronize();

  /// Queued-but-unexecuted item count (0 on synchronous backends).
  std::size_t pending() const;

 private:
  Backend* owner_;
  std::shared_ptr<detail::StreamState> state_;  // null on sync backends
};

/// Binds `s` as the calling thread's current stream for its scope; the
/// batched drivers (batched_blas.cpp) defer onto the bound stream when its
/// backend is asynchronous. Scopes nest (the previous binding is restored).
class StreamScope {
 public:
  explicit StreamScope(Stream& s);
  ~StreamScope();
  StreamScope(const StreamScope&) = delete;
  StreamScope& operator=(const StreamScope&) = delete;

 private:
  Stream* prev_;
};

/// The calling thread's bound stream (null when none).
Stream* current_stream();

/// True while the calling thread is executing a deferred launch body; the
/// drivers then run inline even with a stream bound, so a kernel body that
/// calls back into the batched layer cannot re-enqueue onto the queue it is
/// draining.
bool in_stream_task();

/// The stream a batched driver should defer onto, or null to run inline:
/// the bound stream, when it exists, its backend defers launches, and the
/// caller is not already inside a launch body.
inline Stream* deferring_stream() {
  Stream* s = current_stream();
  if (s == nullptr || in_stream_task()) return nullptr;
  return s->owner().asynchronous() ? s : nullptr;
}

/// Move-only device allocation owning real memory through the active
/// backend (DeviceAllocation in device.hpp registers bytes only). This is
/// the `device.alloc` recovery rung: if allocation fails — the injected
/// fault site, over-capacity, or real exhaustion — the constructor drains
/// the backend's streams (completed launches may release workspace) and
/// retries once synchronously; a second failure propagates.
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  explicit DeviceBuffer(std::size_t bytes);
  ~DeviceBuffer() { release(); }
  DeviceBuffer(DeviceBuffer&& o) noexcept
      : owner_(o.owner_), data_(o.data_), bytes_(o.bytes_) {
    o.owner_ = nullptr;
    o.data_ = nullptr;
    o.bytes_ = 0;
  }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      release();
      owner_ = o.owner_;
      data_ = o.data_;
      bytes_ = o.bytes_;
      o.owner_ = nullptr;
      o.data_ = nullptr;
      o.bytes_ = 0;
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  void* data() const { return data_; }
  std::size_t bytes() const { return bytes_; }
  template <typename U>
  U* as() const {
    return static_cast<U*>(data_);
  }

 private:
  void release() {
    if (owner_ != nullptr && data_ != nullptr)
      owner_->deallocate(data_, bytes_);
    owner_ = nullptr;
    data_ = nullptr;
    bytes_ = 0;
  }
  Backend* owner_ = nullptr;
  void* data_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Process-wide stream/queue counters (relaxed atomics, the qr_stats
/// pattern): tests assert which dispatch path ran. `deferred` counts launches
/// enqueued onto async streams, `drained` counts deferred bodies actually
/// executed, `events_recorded` counts Stream::record calls on async streams,
/// `drains` counts pool-backed drain passes, and `max_queue_depth`
/// high-watermarks any single stream's queue length.
namespace backend_stats {
std::uint64_t deferred();
std::uint64_t drained();
std::uint64_t events_recorded();
std::uint64_t drains();
std::uint64_t max_queue_depth();
void reset();
}  // namespace backend_stats

}  // namespace hodlrx
