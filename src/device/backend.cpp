#include "device/backend.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <new>
#include <utility>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "device/device.hpp"

namespace hodlrx {

// ---------------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------------

namespace backend_stats {
namespace {
std::atomic<std::uint64_t> deferred_{0}, drained_{0}, events_{0}, drains_{0};
std::atomic<std::uint64_t> max_depth_{0};

void note_depth(std::uint64_t depth) {
  std::uint64_t cur = max_depth_.load(std::memory_order_relaxed);
  while (cur < depth && !max_depth_.compare_exchange_weak(
                            cur, depth, std::memory_order_relaxed)) {
  }
}
}  // namespace

std::uint64_t deferred() { return deferred_.load(std::memory_order_relaxed); }
std::uint64_t drained() { return drained_.load(std::memory_order_relaxed); }
std::uint64_t events_recorded() {
  return events_.load(std::memory_order_relaxed);
}
std::uint64_t drains() { return drains_.load(std::memory_order_relaxed); }
std::uint64_t max_queue_depth() {
  return max_depth_.load(std::memory_order_relaxed);
}
void reset() {
  deferred_.store(0, std::memory_order_relaxed);
  drained_.store(0, std::memory_order_relaxed);
  events_.store(0, std::memory_order_relaxed);
  drains_.store(0, std::memory_order_relaxed);
  max_depth_.store(0, std::memory_order_relaxed);
}
}  // namespace backend_stats

// ---------------------------------------------------------------------------
// Thread-local stream binding.
// ---------------------------------------------------------------------------

namespace {
thread_local Stream* tls_current_stream = nullptr;
thread_local bool tls_in_stream_task = false;

/// Marks the scope of a deferred launch body on the executing thread, so a
/// body calling back into the batched drivers dispatches inline instead of
/// re-enqueueing onto the queue it is draining.
class InStreamTaskScope {
 public:
  InStreamTaskScope() : prev_(tls_in_stream_task) { tls_in_stream_task = true; }
  ~InStreamTaskScope() { tls_in_stream_task = prev_; }
  InStreamTaskScope(const InStreamTaskScope&) = delete;
  InStreamTaskScope& operator=(const InStreamTaskScope&) = delete;

 private:
  bool prev_;
};
}  // namespace

Stream* current_stream() { return tls_current_stream; }
bool in_stream_task() { return tls_in_stream_task; }

StreamScope::StreamScope(Stream& s) : prev_(tls_current_stream) {
  tls_current_stream = &s;
}
StreamScope::~StreamScope() { tls_current_stream = prev_; }

// ---------------------------------------------------------------------------
// The async queue engine.
// ---------------------------------------------------------------------------

namespace detail {

/// Completion state behind an Event handle. `recorded` counts record calls,
/// `completed` counts executed record items; the event is complete when they
/// match. Atomics so query() never needs the engine lock (monotone counters:
/// a stale read only under-reports completion, which query is allowed to
/// do); compound transitions happen with the engine lock held.
struct EventState {
  std::atomic<AsyncEngine*> engine{nullptr};  // set on first async record
  std::atomic<std::uint64_t> recorded{0};
  std::atomic<std::uint64_t> completed{0};

  bool complete() const {
    return completed.load(std::memory_order_acquire) >=
           recorded.load(std::memory_order_acquire);
  }
};

/// One queued stream item. `gen` is the recorded-count a kRecord fulfills or
/// a kWait requires to be completed before it may retire.
struct Item {
  enum class Kind { kLaunch, kRecord, kWait };
  Kind kind;
  std::function<void()> body;        // kLaunch
  std::shared_ptr<EventState> ev;    // kRecord / kWait
  std::uint64_t gen = 0;
  const char* label = "";
};

/// Queue of one stream. Fields are guarded by the owning engine's mutex;
/// they are not annotated because the struct has no handle on that mutex —
/// every access site lives inside AsyncEngine methods that are.
struct StreamState {
  std::deque<Item> q;
  bool busy = false;  // a drain worker is executing this stream's head
};

/// FIFO queues drained by the persistent ThreadPool. All state sits behind
/// one mutex; launch bodies run with the lock dropped. One drain dispatches
/// exactly one pool launch (or none when the target is already met).
class AsyncEngine {
 public:
  std::shared_ptr<StreamState> create_stream() {
    auto s = std::make_shared<StreamState>();
    MutexLock lk(mu_);
    streams_.push_back(s);
    return s;
  }

  void destroy_stream(const std::shared_ptr<StreamState>& s) {
    MutexLock lk(mu_);
    streams_.erase(std::remove(streams_.begin(), streams_.end(), s),
                   streams_.end());
  }

  void enqueue_launch(StreamState& s, const char* label,
                      std::function<void()> body) {
    MutexLock lk(mu_);
    s.q.push_back(Item{Item::Kind::kLaunch, std::move(body), nullptr, 0,
                       label});
    backend_stats::deferred_.fetch_add(1, std::memory_order_relaxed);
    backend_stats::note_depth(s.q.size());
    cv_.notify_all();
  }

  void enqueue_record(StreamState& s, const std::shared_ptr<EventState>& ev) {
    MutexLock lk(mu_);
    ev->engine.store(this, std::memory_order_relaxed);
    const std::uint64_t gen =
        ev->recorded.fetch_add(1, std::memory_order_acq_rel) + 1;
    s.q.push_back(Item{Item::Kind::kRecord, nullptr, ev, gen, "record"});
    backend_stats::events_.fetch_add(1, std::memory_order_relaxed);
    backend_stats::note_depth(s.q.size());
    cv_.notify_all();
  }

  void enqueue_wait(StreamState& s, const std::shared_ptr<EventState>& ev) {
    MutexLock lk(mu_);
    const std::uint64_t gen = ev->recorded.load(std::memory_order_acquire);
    s.q.push_back(Item{Item::Kind::kWait, nullptr, ev, gen, "wait"});
    backend_stats::note_depth(s.q.size());
    cv_.notify_all();
  }

  void synchronize_stream(StreamState& s) {
    drain(Target{Target::Kind::kStream, &s, nullptr, 0});
  }

  void synchronize_all() {
    drain(Target{Target::Kind::kAll, nullptr, nullptr, 0});
  }

  void event_synchronize(const std::shared_ptr<EventState>& ev) {
    const std::uint64_t gen = ev->recorded.load(std::memory_order_acquire);
    drain(Target{Target::Kind::kEvent, nullptr, ev, gen});
  }

  void event_reset(EventState& ev) {
    MutexLock lk(mu_);
    ev.completed.store(ev.recorded.load(std::memory_order_acquire),
                       std::memory_order_release);
    cv_.notify_all();
  }

  std::size_t pending(const StreamState& s) {
    MutexLock lk(mu_);
    return s.q.size();
  }

 private:
  /// What a drain pass must make true before it returns.
  struct Target {
    enum class Kind { kAll, kStream, kEvent };
    Kind kind;
    StreamState* stream;
    std::shared_ptr<EventState> ev;
    std::uint64_t gen;
  };

  bool target_done(const Target& t) const HODLRX_REQUIRES(mu_) {
    switch (t.kind) {
      case Target::Kind::kStream:
        return t.stream->q.empty() && !t.stream->busy;
      case Target::Kind::kEvent:
        return t.ev->completed.load(std::memory_order_acquire) >= t.gen;
      case Target::Kind::kAll:
        break;
    }
    if (inflight_ > 0) return false;
    for (const auto& s : streams_)
      if (!s->q.empty() || s->busy) return false;
    return true;
  }

  bool all_idle() const HODLRX_REQUIRES(mu_) {
    if (inflight_ > 0) return false;
    for (const auto& s : streams_)
      if (!s->q.empty() || s->busy) return false;
    return true;
  }

  /// A stream head may retire when it is a launch/record, or a wait whose
  /// event has completed; under failure everything retires (launch bodies
  /// are skipped) so the queues always drain to empty.
  bool head_runnable(const StreamState& s) const HODLRX_REQUIRES(mu_) {
    if (s.busy || s.q.empty()) return false;
    if (failed_) return true;
    const Item& it = s.q.front();
    return it.kind != Item::Kind::kWait ||
           it.ev->completed.load(std::memory_order_acquire) >= it.gen;
  }

  StreamState* pick_runnable() HODLRX_REQUIRES(mu_) {
    for (const auto& s : streams_)
      if (head_runnable(*s)) return s.get();
    return nullptr;
  }

  bool any_pending() const HODLRX_REQUIRES(mu_) {
    for (const auto& s : streams_)
      if (!s->q.empty()) return true;
    return false;
  }

  void record_failure_locked() HODLRX_REQUIRES(mu_) {
    if (!failed_) {
      failed_ = true;
      error_ = std::current_exception();
    }
    cv_.notify_all();
  }

  /// One drain participant: claim a runnable stream, retire consecutive
  /// runnable head items in FIFO order (lock dropped around launch bodies),
  /// release the stream, repeat until the target holds — or, once a body
  /// has failed, until every queue is empty.
  void worker(const Target& t) {
    MutexLock lk(mu_);
    for (;;) {
      if (failed_ ? all_idle() : target_done(t)) {
        cv_.notify_all();  // wake peers blocked on the now-met target
        return;
      }
      StreamState* st = pick_runnable();
      if (st == nullptr) {
        if (all_idle()) {
          // Quiescent with the target unmet: every remaining head is a
          // wait whose record sits behind it — a cross-stream wait cycle.
          // Fail the drain instead of deadlocking.
          if (!failed_ && any_pending()) {
            std::size_t stuck = 0;
            for (const auto& s : streams_) stuck += s->q.size();
            try {
              throw Error("Stream wait cycle — " + std::to_string(stuck) +
                          " queued item(s) unreachable");
            } catch (...) {
              record_failure_locked();
            }
            continue;
          }
          cv_.notify_all();
          return;  // nothing left anywhere; unmet kEvent target is moot
        }
        cv_.wait(mu_);
        continue;
      }
      st->busy = true;
      while (!st->q.empty() && (failed_ || head_runnable_unclaimed(*st))) {
        Item it = std::move(st->q.front());
        st->q.pop_front();
        switch (it.kind) {
          case Item::Kind::kLaunch: {
            if (failed_) break;  // skip the body, retire the item
            ++inflight_;
            lk.unlock();
            {
              InStreamTaskScope in_task;
              try {
                it.body();
                backend_stats::drained_.fetch_add(1,
                                                  std::memory_order_relaxed);
              } catch (...) {
                lk.lock();
                --inflight_;
                record_failure_locked();
                goto stream_done;
              }
            }
            lk.lock();
            --inflight_;
            break;
          }
          case Item::Kind::kRecord: {
            std::uint64_t cur =
                it.ev->completed.load(std::memory_order_relaxed);
            while (cur < it.gen &&
                   !it.ev->completed.compare_exchange_weak(
                       cur, it.gen, std::memory_order_release)) {
            }
            cv_.notify_all();
            break;
          }
          case Item::Kind::kWait:
            break;  // runnable check already held (or draining a failure)
        }
      }
    stream_done:
      st->busy = false;
      cv_.notify_all();
    }
  }

  /// head_runnable minus the busy check — the claiming worker itself holds
  /// the busy flag while it inspects the next head.
  bool head_runnable_unclaimed(const StreamState& s) const
      HODLRX_REQUIRES(mu_) {
    if (s.q.empty()) return false;
    const Item& it = s.q.front();
    return it.kind != Item::Kind::kWait ||
           it.ev->completed.load(std::memory_order_acquire) >= it.gen;
  }

  void drain(const Target& t) {
    int participants = 0;
    {
      MutexLock lk(mu_);
      if (!failed_ && target_done(t)) return;  // fast path: no pool launch
      int active = 0;
      for (const auto& s : streams_)
        if (!s->q.empty()) ++active;
      // At least two participants so the pool counts exactly one dispatched
      // launch per drain (n <= 1 runs inline and uncounted); no more than
      // one per pending stream beyond that buys nothing.
      participants = std::min<int>(max_threads(), std::max(active, 2));
    }
    backend_stats::drains_.fetch_add(1, std::memory_order_relaxed);
    ThreadPool::instance().parallel_for(static_cast<index_t>(participants),
                                        /*dynamic=*/false,
                                        [&](index_t) { worker(t); });
    MutexLock lk(mu_);
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      failed_ = false;
      std::rethrow_exception(e);
    }
  }

  mutable Mutex mu_;
  CondVar cv_;
  std::vector<std::shared_ptr<StreamState>> streams_ HODLRX_GUARDED_BY(mu_);
  int inflight_ HODLRX_GUARDED_BY(mu_) = 0;
  bool failed_ HODLRX_GUARDED_BY(mu_) = false;
  std::exception_ptr error_ HODLRX_GUARDED_BY(mu_);
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Backend base: accounting-wrapped memory.
// ---------------------------------------------------------------------------

void* Backend::allocate(std::size_t bytes) {
  if (fault::should_fire(fault::Site::kDeviceAlloc))
    throw Error("injected device allocator failure (device.alloc)");
  DeviceContext::global().alloc_bytes(bytes);
  try {
    return raw_allocate(bytes);
  } catch (...) {
    DeviceContext::global().free_bytes(bytes);
    throw;
  }
}

void Backend::deallocate(void* p, std::size_t bytes) noexcept {
  if (p != nullptr) raw_deallocate(p, bytes);
  if (bytes > 0) DeviceContext::global().free_bytes(bytes);
}

void* Backend::raw_allocate(std::size_t bytes) {
  return ::operator new(std::max<std::size_t>(bytes, 1));
}

void Backend::raw_deallocate(void* p, std::size_t) noexcept {
  ::operator delete(p);
}

// ---------------------------------------------------------------------------
// The two shipped backends.
// ---------------------------------------------------------------------------

namespace {

class HostBackend final : public Backend {
 public:
  const char* name() const override { return "host"; }
  bool asynchronous() const override { return false; }
};

class HostAsyncBackend final : public Backend {
 public:
  const char* name() const override { return "host-async"; }
  bool asynchronous() const override { return true; }
  void synchronize() override { engine_.synchronize_all(); }

 private:
  detail::AsyncEngine* engine() override { return &engine_; }
  detail::AsyncEngine engine_;
};

// Singletons: "host" and the unset-env default resolve to the SAME object,
// so tests may pointer-compare backend() against find_backend("host").
HostBackend& host_backend_singleton() {
  static HostBackend b;
  return b;
}
HostAsyncBackend& host_async_backend_singleton() {
  static HostAsyncBackend b;
  return b;
}

}  // namespace

Backend& backend() {
  const char* e = std::getenv("HODLRX_BACKEND");
  if (e != nullptr && *e != '\0') {
    if (Backend* b = find_backend(e)) return *b;
  }
  return host_backend_singleton();
}

Backend* find_backend(const std::string& name) {
  // The registry is a static list today; a CUDA/HIP backend registers by
  // adding its singleton here (and nowhere else — dispatch, tests, and docs
  // key off backend_names()).
  if (name == "host") return &host_backend_singleton();
  if (name == "host-async") return &host_async_backend_singleton();
  return nullptr;
}

std::vector<std::string> backend_names() { return {"host", "host-async"}; }

// ---------------------------------------------------------------------------
// Event.
// ---------------------------------------------------------------------------

Event::Event() : state_(std::make_shared<detail::EventState>()) {}

bool Event::query() const { return state_->complete(); }

void Event::synchronize() const {
  if (state_->complete()) return;
  if (detail::AsyncEngine* eng =
          state_->engine.load(std::memory_order_acquire))
    eng->event_synchronize(state_);
}

void Event::reset() {
  if (detail::AsyncEngine* eng =
          state_->engine.load(std::memory_order_acquire)) {
    eng->event_reset(*state_);
    return;
  }
  state_->completed.store(state_->recorded.load(std::memory_order_acquire),
                          std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Stream.
// ---------------------------------------------------------------------------

Stream::Stream() : Stream(backend()) {}

Stream::Stream(Backend& b) : owner_(&b) {
  if (detail::AsyncEngine* eng = owner_->engine())
    state_ = eng->create_stream();
}

Stream::~Stream() {
  if (state_) {
    detail::AsyncEngine* eng = owner_->engine();
    try {
      eng->synchronize_stream(*state_);
    } catch (...) {
      // A destructor cannot rethrow a deferred launch failure; the queues
      // are drained (failure mode skips bodies), which is all teardown
      // needs. Callers that care synchronize explicitly first.
    }
    eng->destroy_stream(state_);
  }
}

void Stream::launch(const char* label, std::function<void()> body) {
  if (detail::AsyncEngine* eng = owner_->engine()) {
    eng->enqueue_launch(*state_, label, std::move(body));
    return;
  }
  body();  // synchronous backend: a launch IS its execution
}

void Stream::record(Event& ev) {
  if (detail::AsyncEngine* eng = owner_->engine()) {
    eng->enqueue_record(*state_, ev.state_);
    return;
  }
  // Synchronous backend: everything "on the stream" has already run.
  ev.state_->recorded.fetch_add(1, std::memory_order_acq_rel);
  ev.state_->completed.fetch_add(1, std::memory_order_acq_rel);
}

void Stream::wait(const Event& ev) {
  if (detail::AsyncEngine* eng = owner_->engine()) {
    eng->enqueue_wait(*state_, ev.state_);
    return;
  }
  // Synchronous backend: block the caller (the event may live on an async
  // backend's stream — cross-backend edges still order correctly).
  ev.synchronize();
}

void Stream::synchronize() {
  if (detail::AsyncEngine* eng = owner_->engine())
    eng->synchronize_stream(*state_);
}

std::size_t Stream::pending() const {
  if (detail::AsyncEngine* eng = owner_->engine())
    return eng->pending(*state_);
  return 0;
}

// ---------------------------------------------------------------------------
// DeviceBuffer: the device.alloc recovery rung.
// ---------------------------------------------------------------------------

DeviceBuffer::DeviceBuffer(std::size_t bytes) : bytes_(bytes) {
  Backend& b = backend();
  owner_ = &b;
  try {
    data_ = b.allocate(bytes_);
  } catch (const std::exception&) {
    // Drain queued launches (completed work may release memory and, for the
    // injected site, advances past the armed occurrence), then retry once
    // synchronously; a second failure propagates.
    b.synchronize();
    data_ = b.allocate(bytes_);
    fault_stats::detail::add_recovered(fault::Site::kDeviceAlloc);
  }
}

}  // namespace hodlrx
