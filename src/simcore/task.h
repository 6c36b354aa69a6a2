// Lazy coroutine task type for the discrete-event simulation.
//
// A sim::Task<T> is a coroutine that suspends at creation and starts when
// first awaited (or when spawned onto an Engine). Completion resumes the
// awaiting coroutine via symmetric transfer, so deep call chains
// (app -> runtime -> NVMf initiator -> device) cost no OS threads and no
// stack growth.
//
// Tasks are single-owner move-only handles; destroying a Task that never
// ran destroys the coroutine frame.
//
// Frame pooling (DESIGN.md §11): a run allocates millions of short-lived
// task frames (one per awaited sub-operation), which made the global
// allocator the single hottest host cost in the e2e dispatch profile.
// PromiseBase therefore routes frame storage through a process-wide
// size-class freelist arena: slots are carved from 256 KiB slabs on
// first use and recycled through per-class freelists forever after, so
// steady-state frame churn never touches the global heap. The pool is
// single-threaded like the rest of the simulation. Under AddressSanitizer
// builds (-DNVMECR_SANITIZE=address) freed slots are poisoned so a
// use-after-destroy of a frame still traps exactly as it would with the
// global allocator.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define NVMECR_FRAME_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NVMECR_FRAME_ASAN 1
#endif
#endif
#ifndef NVMECR_FRAME_ASAN
#define NVMECR_FRAME_ASAN 0
#endif
#if NVMECR_FRAME_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace nvmecr::sim {

template <typename T>
class Task;

namespace detail {

/// Process-wide count of coroutine frames allocated (the simulation is
/// single-threaded, so a plain counter suffices). Surfaced by the
/// dispatch profiler: frame churn is a prime suspect for e2e slowdown.
inline uint64_t g_frame_allocations = 0;
/// Of those, how many were served from a pool freelist instead of the
/// global allocator (a recycled slot).
inline uint64_t g_frames_recycled = 0;
/// Frames currently alive (allocated minus destroyed) — a cheap leak
/// probe for tests: after an engine is torn down the delta must be zero.
inline uint64_t g_frames_live = 0;

/// Size-class freelist arena for coroutine frames. Each slot is a
/// 16-byte header (size class + freelist link) followed by the payload
/// the coroutine frame lives in. Slabs are allocated once and retained
/// for the life of the process (reachable from the pool, so LSan is
/// happy); frames larger than the largest class — no simulator coroutine
/// is that large — fall through to the global allocator, tagged so
/// deallocation routes correctly.
class FramePool {
 public:
  static constexpr size_t kHeaderBytes = 16;
  static constexpr size_t kGranularity = 64;     // class width, bytes
  static constexpr size_t kMaxPooledBytes = 2048;
  static constexpr size_t kClassCount = kMaxPooledBytes / kGranularity;
  static constexpr size_t kSlabBytes = 256 * 1024;

  void* allocate(size_t bytes) {
    if (bytes > kMaxPooledBytes) return global_alloc(bytes);
    const uint32_t cls =
        static_cast<uint32_t>((bytes + kGranularity - 1) / kGranularity - 1);
    Header* h = free_[cls];
    if (h != nullptr) {
      free_[cls] = h->next;
      ++g_frames_recycled;
      unpoison(payload(h), payload_bytes(cls));
      return payload(h);
    }
    const size_t slot = kHeaderBytes + payload_bytes(cls);
    if (static_cast<size_t>(slab_end_ - bump_) < slot) new_slab();
    h = reinterpret_cast<Header*>(bump_);
    bump_ += slot;
    h->cls = cls;
    return payload(h);
  }

  void deallocate(void* p) {
    Header* h = header_of(p);
    if (h->cls == kGlobalClass) {
      ::operator delete(h);
      return;
    }
    h->next = free_[h->cls];
    free_[h->cls] = h;
    poison(payload(h), payload_bytes(h->cls));
  }

 private:
  struct Header {
    uint32_t cls;  // size class index, or kGlobalClass
    uint32_t reserved;
    Header* next;  // freelist link, meaningful only while free
  };
  static_assert(sizeof(Header) == kHeaderBytes);
  static constexpr uint32_t kGlobalClass = 0xffffffffu;

  static size_t payload_bytes(uint32_t cls) {
    return (static_cast<size_t>(cls) + 1) * kGranularity;
  }
  static Header* header_of(void* p) {
    return reinterpret_cast<Header*>(static_cast<std::byte*>(p) -
                                     kHeaderBytes);
  }
  static void* payload(Header* h) {
    return reinterpret_cast<std::byte*>(h) + kHeaderBytes;
  }

  static void* global_alloc(size_t bytes) {
    auto* h = static_cast<Header*>(::operator new(kHeaderBytes + bytes));
    h->cls = kGlobalClass;
    return payload(h);
  }

  void new_slab() {
    // First pointer of a slab links to the previous slab; slabs are
    // retained forever (steady-state frame churn stays in the arena).
    void* slab = ::operator new(kSlabBytes);
    *static_cast<void**>(slab) = slabs_;
    slabs_ = slab;
    bump_ = static_cast<std::byte*>(slab) + kHeaderBytes;
    slab_end_ = static_cast<std::byte*>(slab) + kSlabBytes;
  }

  static void poison(void* p, size_t n) {
#if NVMECR_FRAME_ASAN
    __asan_poison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
  }
  static void unpoison(void* p, size_t n) {
#if NVMECR_FRAME_ASAN
    __asan_unpoison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
  }

  Header* free_[kClassCount] = {};
  std::byte* bump_ = nullptr;
  std::byte* slab_end_ = nullptr;
  void* slabs_ = nullptr;
};

/// The process-wide pool. Constant-initialized, trivially destructible:
/// safe to use from any static-lifetime coroutine.
inline FramePool g_frame_pool;

/// Common promise functionality: stores the continuation to resume when
/// the task completes.
struct PromiseBase {
  std::coroutine_handle<> continuation;

  static void* operator new(size_t bytes) {
    ++g_frame_allocations;
    ++g_frames_live;
    return g_frame_pool.allocate(bytes);
  }
  static void operator delete(void* ptr) {
    --g_frames_live;
    g_frame_pool.deallocate(ptr);
  }
  static void operator delete(void* ptr, size_t) {
    --g_frames_live;
    g_frame_pool.deallocate(ptr);
  }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      // Tasks awaited by nobody (fire-and-forget roots are wrapped by the
      // engine, so this only happens for orphaned tasks) just stop here.
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept {
    // The simulation is exception-free by design (Status-based errors);
    // an escaped exception is a programming error.
    std::fprintf(stderr, "sim::Task: unhandled exception\n");
    std::abort();
  }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> result;
  Task<T> get_return_object() noexcept;
  void return_value(T value) { result.emplace(std::move(value)); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object() noexcept;
  void return_void() noexcept {}
};

}  // namespace detail

/// Total coroutine frames ever allocated in this process (monotonic).
/// Diff two readings to count frames created by a region of code.
inline uint64_t frame_allocations() { return detail::g_frame_allocations; }

/// Frames served from a pool freelist (recycled) rather than fresh arena
/// or global-allocator storage. Monotonic; diff two readings.
inline uint64_t frames_recycled() { return detail::g_frames_recycled; }

/// Coroutine frames currently alive. A region that creates and fully
/// drains tasks leaves this unchanged.
inline uint64_t frames_live() { return detail::g_frames_live; }

/// A lazily-started coroutine returning T. Await it exactly once.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.done(); }

  /// Awaiting a task starts it; the awaiter resumes when it completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().continuation = awaiting;
        return handle;  // symmetric transfer: start the child now
      }
      T await_resume() {
        if constexpr (!std::is_void_v<T>) {
          return std::move(*handle.promise().result);
        }
      }
    };
    return Awaiter{handle_};
  }

  /// Releases ownership of the coroutine handle (used by the engine's
  /// detached-spawn wrapper, which manages the frame lifetime itself).
  Handle release() { return std::exchange(handle_, {}); }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_;
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() noexcept {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace nvmecr::sim
