// Discrete-event simulation engine.
//
// The engine owns the set of scheduled coroutine resumptions keyed by
// (simulated time, insertion sequence). Simulated entities are
// coroutines (sim::Task) that co_await timing awaitables:
//
//   co_await eng.delay(10 * kMicrosecond);   // charge CPU / device time
//   co_await eng.sleep_until(t);
//
// Determinism: ties in time resume in insertion order; no wall-clock or
// thread scheduling is involved anywhere.
//
// Three-tier scheduler (DESIGN.md §11):
//
//   1. Now ring — resumptions scheduled *at the current time*
//      (schedule_now(), yield(), zero delays, same-time wakeups from
//      queue arbitration) go to a FIFO ring with O(1) push/pop.
//   2. Calendar — strictly-future timestamps within a sliding window of
//      kCalBuckets fixed-width buckets land in their bucket with an O(1)
//      unsorted push onto the bucket's list; a bucket is sorted once when
//      it matures and then drained as one contiguous FIFO. Every
//      bucket's list lives in one node slab with a free list, so the
//      calendar's memory tracks pending events. This is where the bulk
//      of a real run's events live: perf_determinism_test's 28-rank
//      golden run serves over 99% of its dispatches from here.
//   3. Binary min-heap — timestamps beyond the calendar window. The
//      window re-anchors at the current time whenever the calendar
//      drains, pulling everything below the new window limit back down
//      into buckets.
//
// The global insertion sequence keeps the dispatch order bit-identical
// to a single (time, seq) priority queue across all three tiers:
//   - heap entries are always >= the calendar window limit, which is
//     strictly greater than every calendar timestamp, so the calendar
//     front (when present) is the global future minimum;
//   - within the calendar, drained items live in buckets <= the drain
//     bucket and bucket items in buckets beyond it, so the sorted drain
//     buffer's front is the calendar minimum; late arrivals that land at
//     or behind the drain bucket are sorted-inserted behind the cursor;
//   - ring entries are always newer (larger seq) than any future entry
//     that matured to the same timestamp, and the dispatch loop drains
//     matured future entries first.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "simcore/task.h"

namespace nvmecr::sim {

class DispatchProfiler;
class TraceCollector;

class Engine {
 public:
  Engine() {
    heap_.reserve(kInitialCapacity);
    ring_.resize(kInitialCapacity);
    cal_slab_.reserve(kInitialCapacity);
    std::fill_n(cal_heads_, kCalBuckets, kNil);
  }
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time (ns).
  SimTime now() const { return now_; }

  /// Schedules `h` to resume at absolute time `t` (clamped to now). The
  /// current profile context is captured with the event so the dispatch
  /// profiler can attribute the resumption to the scheduling scope.
  void schedule_at(SimTime t, std::coroutine_handle<> h) {
    if (t <= now_) {
      ring_push(Ready{seq_++, h, profile_ctx_});
    } else {
      future_push(Item{t, seq_++, h, profile_ctx_, kNil});
    }
  }

  /// Schedules `h` to resume at the current time, after already-queued
  /// same-time items.
  void schedule_now(std::coroutine_handle<> h) { schedule_at(now_, h); }

  /// Awaitable: suspend for `d` nanoseconds of simulated time.
  auto delay(SimDuration d) { return SleepAwaiter{this, now_ + (d > 0 ? d : 0)}; }

  /// Awaitable: suspend until absolute simulated time `t`.
  auto sleep_until(SimTime t) { return SleepAwaiter{this, t}; }

  /// Awaitable: yield to other same-time events, then continue.
  auto yield() { return SleepAwaiter{this, now_}; }

  /// Starts a detached root task. The engine keeps the coroutine alive
  /// until it finishes; the task begins at the current simulated time
  /// once the run loop reaches it.
  void spawn(Task<void> task);

  /// Runs until no scheduled events remain. Returns the final time.
  SimTime run();

  /// Runs until `deadline` (events at exactly `deadline` still fire).
  SimTime run_until(SimTime deadline);

  /// Spawns `task`, runs the engine to quiescence, and returns the task's
  /// result. Aborts with scheduler context if the task deadlocks (engine
  /// drained while the task is still pending).
  template <typename T>
  T run_task(Task<T> task) {
    std::optional<T> out;
    spawn(capture_result(std::move(task), out));
    run();
    if (!out.has_value()) die_deadlocked("run_task<T>");
    return std::move(*out);
  }
  void run_task(Task<void> task) {
    bool done = false;
    spawn(mark_done(std::move(task), done));
    run();
    if (!done) die_deadlocked("run_task<void>");
  }

  /// Like run_task, but a deadlocked task returns nullopt instead of
  /// aborting the process. The crash-exploration harness uses this: a
  /// recover() that hangs on a mangled image is a reportable finding,
  /// not a reason to kill the whole enumeration. The stuck frame is
  /// reclaimed by the engine destructor, so the caller must treat the
  /// engine as poisoned (discard it) after a nullopt.
  template <typename T>
  std::optional<T> try_run_task(Task<T> task) {
    std::optional<T> out;
    spawn(capture_result(std::move(task), out));
    run();
    return out;
  }

  /// Number of spawned root tasks that have not yet completed. Nonzero
  /// after run() returns means a deadlock (task awaiting an event that
  /// never fires).
  int live_roots() const { return live_roots_; }

  /// Internal: root_wrapper reports its own frame here when the root
  /// completes; the run loop destroys it at the next dispatch boundary
  /// (the frame is parked at final_suspend by then). Bounds peak frame
  /// memory on long runs — finished roots no longer wait for a sweep.
  void on_root_finished(std::coroutine_handle<> h) {
    finished_roots_.push_back(h);
  }

  // --- host-performance observability ---------------------------------
  /// Total resumptions dispatched by the run loop.
  uint64_t events_dispatched() const { return events_dispatched_; }
  /// Dispatches served from the O(1) now ring (vs calendar/heap).
  uint64_t now_ring_hits() const { return now_ring_hits_; }
  /// Dispatches served from a matured calendar bucket (vs the heap).
  uint64_t calendar_hits() const { return calendar_hits_; }

  /// Test hook: called once per dispatched event with (time, seq) before
  /// the resumption runs. Used by the determinism golden-trace test;
  /// null (the default) costs one branch per event.
  void set_dispatch_probe(std::function<void(SimTime, uint64_t)> probe) {
    dispatch_probe_ = std::move(probe);
  }

  // --- wall-clock dispatch profiling (simcore/profile.h) ---------------
  /// Arms (or disarms, with null) the per-event wall-clock profiler. The
  /// profiler only reads host clocks and writes its own buckets — it can
  /// never perturb the simulated schedule. Not owned.
  void set_profiler(DispatchProfiler* profiler) { profiler_ = profiler; }
  DispatchProfiler* profiler() const { return profiler_; }

  /// Interns `name` as a cost-center tag on the armed profiler. Returns
  /// 0 when no profiler is armed, which turns every ProfileTagScope
  /// built from the result into a no-op — call sites cache the tag once
  /// and pay nothing when profiling is off.
  uint16_t profile_tag(const char* name);

  /// Enables the rank/meta context-stamping hooks (ProfileRankScope /
  /// ProfileMetaScope). Off by default so un-profiled runs skip even the
  /// context arithmetic; Cluster::install_observer arms them whenever a
  /// dispatch or epoch profiler is installed.
  void set_profile_hooks(bool enabled) { profile_hooks_ = enabled; }
  bool profile_hooks() const { return profile_hooks_; }

  /// Raw profile-context word (see simcore/profile.h for the encoding).
  /// Scopes save/restore it; the epoch analyzer decodes rank + meta bit.
  uint32_t profile_ctx() const { return profile_ctx_; }
  void set_profile_ctx(uint32_t ctx) { profile_ctx_ = ctx; }

  /// Registers a trace collector as this engine's flight recorder: the
  /// deadlock CHECK dumps its tail (alongside the top dispatch cost
  /// centers) so hangs are diagnosable from the failure log alone. Works
  /// best with a ring-mode collector (TraceCollector::set_ring_capacity)
  /// but any collector's tail is printable. Not owned.
  void set_flight_recorder(const TraceCollector* flight) { flight_ = flight; }

 private:
  static constexpr size_t kInitialCapacity = 256;
  // Calendar geometry: 16,384 ns buckets x 512 buckets ≈ an 8.4 ms
  // window, sized so a checkpoint epoch's fabric/SSD completions (µs to
  // low ms ahead of now) land in buckets while rare long sleeps
  // (health-monitor periods, PFS drains) overflow to the heap.
  static constexpr int kCalShift = 14;        // log2(bucket width in ns)
  static constexpr size_t kCalBuckets = 512;  // power of two
  static constexpr size_t kCalWords = kCalBuckets / 64;
  static constexpr uint32_t kNil = UINT32_MAX;  // empty bucket / list end

  struct Item {
    SimTime time;
    uint64_t seq;
    std::coroutine_handle<> handle;
    uint32_t ctx;   // profile context captured at schedule time
    uint32_t next;  // calendar slab link (fills padding; unused elsewhere)
    /// Min order: earliest time first, FIFO within a time.
    bool earlier_than(const Item& other) const {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };
  static_assert(sizeof(Item) == 32, "the slab link must fit the padding");

  struct Ready {
    uint64_t seq;
    std::coroutine_handle<> handle;
    uint32_t ctx;  // profile context captured at schedule time
  };

  struct SleepAwaiter {
    Engine* engine;
    SimTime wake_at;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      engine->schedule_at(wake_at, h);
    }
    void await_resume() const noexcept {}
  };

  template <typename T>
  static Task<void> capture_result(Task<T> task, std::optional<T>& out) {
    out.emplace(co_await std::move(task));
  }
  static Task<void> mark_done(Task<void> task, bool& done) {
    co_await std::move(task);
    done = true;
  }

  // --- future tiers: calendar + intrusive binary min-heap --------------
  /// Routes a strictly-future event to the calendar when it falls inside
  /// the window, else to the heap.
  void future_push(Item item) {
    if (item.time < cal_limit_) {
      cal_push(item);
    } else {
      heap_push(item);
    }
  }

  /// Earliest future event across calendar + heap, or null when none.
  /// Matures calendar buckets / rotates the window as a side effect, so
  /// call it immediately before pop_future().
  const Item* future_front() {
    if (cal_pos_ != cal_cur_.size()) return &cal_cur_[cal_pos_];
    if (cal_count_ != 0 || !heap_.empty()) {
      cal_settle();
      if (cal_pos_ != cal_cur_.size()) return &cal_cur_[cal_pos_];
    }
    return heap_.empty() ? nullptr : &heap_.front();
  }

  /// Pops the event future_front() just returned.
  Item pop_future() {
    if (cal_pos_ != cal_cur_.size()) {
      ++calendar_hits_;
      --cal_count_;
      return cal_cur_[cal_pos_++];
    }
    return heap_pop();
  }

  void cal_push(Item item) {
    const int64_t b = item.time >> kCalShift;
    if (b > cal_cur_bucket_) {
      const size_t slot = static_cast<size_t>(b) & (kCalBuckets - 1);
      // Link a slab node at the bucket's head: a recycled one, else a
      // new one at the slab's end.
      item.next = cal_heads_[slot];
      uint32_t node = cal_free_;
      if (node != kNil) {
        cal_free_ = cal_slab_[node].next;
        cal_slab_[node] = item;
      } else {
        node = static_cast<uint32_t>(cal_slab_.size());
        cal_slab_.push_back(item);
      }
      cal_heads_[slot] = node;
      cal_bitmap_[slot >> 6] |= 1ull << (slot & 63);
      ++cal_count_;
      return;
    }
    cal_insert_sorted(item);  // lands at/behind the drain cursor (rare)
  }

  void cal_settle();             // refill cal_cur_ from buckets / heap
  void cal_mature_next();        // sort the next occupied bucket into cal_cur_
  void cal_rotate();             // re-window onto the heap's earliest bucket
  void cal_insert_sorted(Item item);

  // (std::priority_queue hides its container, which prevents reserving
  // and costs an extra indirection on the hottest host path.)
  void heap_push(Item item);
  Item heap_pop();

  // --- growable circular FIFO for same-time resumptions ----------------
  void ring_push(Ready r);
  Ready ring_pop() {
    Ready r = ring_[ring_head_];
    ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
    --ring_size_;
    return r;
  }
  void ring_grow();

  /// Defined in engine.cc (needs the complete DispatchProfiler type);
  /// still inlined into the run loop, its only caller.
  void dispatch(SimTime t, uint64_t seq, std::coroutine_handle<> h,
                uint32_t ctx, bool from_ring);

  /// Destroys root frames reported by on_root_finished() (parked at
  /// final_suspend) and drops them from the live-root registry. Called
  /// at the dispatch boundary; the run loop pays one emptiness branch.
  void destroy_finished_roots();

  [[noreturn]] void die_deadlocked(const char* where) const;

  std::vector<Item> heap_;          // binary min-heap, beyond the window
  std::vector<Ready> ring_;         // power-of-two circular buffer
  size_t ring_head_ = 0;
  size_t ring_size_ = 0;
  std::vector<std::coroutine_handle<>> pending_destroy_;  // live root frames
  std::vector<std::coroutine_handle<>> finished_roots_;
  // Calendar state. Each bucket is a list of cal_slab_ nodes headed at
  // cal_heads_[slot] (kNil when empty, mirrored by cal_bitmap_); nodes
  // of matured buckets go back on the cal_free_ list, so the slab only
  // grows to the most events ever resident in buckets at once.
  // cal_cur_ is the sorted drain buffer for the bucket most recently
  // matured (cal_cur_bucket_); cal_count_ counts every undispatched
  // calendar-resident event (buckets + drain tail). cal_limit_ is the
  // exclusive window end: heap times are always >= it. It starts at 0
  // (calendar disengaged) until the first rotation.
  std::vector<Item> cal_slab_;
  uint32_t cal_heads_[kCalBuckets];
  uint32_t cal_free_ = kNil;
  uint64_t cal_bitmap_[kCalWords] = {};
  std::vector<Item> cal_cur_;
  size_t cal_pos_ = 0;
  size_t cal_count_ = 0;
  int64_t cal_base_bucket_ = 0;
  int64_t cal_cur_bucket_ = -1;
  SimTime cal_limit_ = 0;
  SimTime now_ = 0;
  uint64_t seq_ = 0;
  int live_roots_ = 0;
  uint64_t events_dispatched_ = 0;
  uint64_t now_ring_hits_ = 0;
  uint64_t calendar_hits_ = 0;
  std::function<void(SimTime, uint64_t)> dispatch_probe_;
  DispatchProfiler* profiler_ = nullptr;      // not owned
  const TraceCollector* flight_ = nullptr;    // not owned
  uint32_t profile_ctx_ = 0;
  bool profile_hooks_ = false;
};

}  // namespace nvmecr::sim
