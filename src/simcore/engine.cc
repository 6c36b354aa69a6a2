#include "simcore/engine.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "simcore/profile.h"
#include "simcore/trace.h"

namespace nvmecr::sim {

namespace {

/// Awaiter that hands a coroutine its own handle (suspends, records the
/// handle, resumes immediately).
struct SelfHandle {
  std::coroutine_handle<> handle;
  bool await_ready() noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) noexcept {
    handle = h;
    return false;  // never actually suspend
  }
  std::coroutine_handle<> await_resume() noexcept { return handle; }
};

/// Wrapper that owns a detached root task's frame, decrements the
/// engine's live-root counter on completion, and reports its own frame
/// for destruction at the next dispatch boundary. A non-capturing lambda
/// coroutine would also work; a named function is clearer.
Task<void> root_wrapper(Engine* eng, Task<void> inner, int* live_roots) {
  const std::coroutine_handle<> self = co_await SelfHandle{};
  co_await std::move(inner);
  --*live_roots;
  // After co_return this frame parks at final_suspend (no continuation),
  // control returns to the run loop, and the loop destroys it.
  eng->on_root_finished(self);
}

}  // namespace

void Engine::spawn(Task<void> task) {
  ++live_roots_;
  Task<void> wrapper = root_wrapper(this, std::move(task), &live_roots_);
  // Transfer frame ownership to the engine: the run loop resumes the
  // wrapper; on completion it reports itself via on_root_finished() and
  // is destroyed eagerly. pending_destroy_ tracks frames that never got
  // there (deadlocked or never-started roots) for the destructor.
  std::coroutine_handle<> handle = wrapper.release();
  pending_destroy_.push_back(handle);
  schedule_now(handle);
}

void Engine::heap_push(Item item) {
  heap_.push_back(item);
  // Sift up.
  size_t i = heap_.size() - 1;
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!heap_[i].earlier_than(heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

Engine::Item Engine::heap_pop() {
  Item top = heap_.front();
  Item last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift down.
    size_t i = 0;
    const size_t n = heap_.size();
    for (;;) {
      const size_t l = 2 * i + 1;
      if (l >= n) break;
      const size_t r = l + 1;
      const size_t child =
          (r < n && heap_[r].earlier_than(heap_[l])) ? r : l;
      if (!heap_[child].earlier_than(last)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = last;
  }
  return top;
}

void Engine::ring_push(Ready r) {
  if (ring_size_ == ring_.size()) ring_grow();
  ring_[(ring_head_ + ring_size_) & (ring_.size() - 1)] = r;
  ++ring_size_;
}

void Engine::ring_grow() {
  // Double the power-of-two storage, unrolling the wrapped contents into
  // the front of the new buffer.
  std::vector<Ready> bigger(ring_.size() * 2);
  for (size_t i = 0; i < ring_size_; ++i) {
    bigger[i] = ring_[(ring_head_ + i) & (ring_.size() - 1)];
  }
  ring_ = std::move(bigger);
  ring_head_ = 0;
}

void Engine::cal_insert_sorted(Item item) {
  // A late arrival whose bucket is at or behind the drain bucket: its
  // dispatch slot is inside (or before) the buffer being drained. Keep
  // the buffer sorted by inserting behind the cursor; already-dispatched
  // entries (before cal_pos_) all have smaller (time, seq).
  ++cal_count_;
  // Chained short sleeps (a resumption re-arming within the drain
  // bucket) carry a fresh seq and usually the latest time too, so the
  // common case is an append — skip the search and the memmove.
  if (cal_cur_.empty() || !item.earlier_than(cal_cur_.back())) {
    cal_cur_.push_back(item);
    return;
  }
  auto it = std::lower_bound(
      cal_cur_.begin() + static_cast<ptrdiff_t>(cal_pos_), cal_cur_.end(),
      item,
      [](const Item& a, const Item& b) { return a.earlier_than(b); });
  cal_cur_.insert(it, item);
}

void Engine::cal_settle() {
  while (cal_pos_ == cal_cur_.size()) {
    cal_cur_.clear();
    cal_pos_ = 0;
    if (cal_count_ != 0) {
      cal_mature_next();
      continue;
    }
    if (heap_.empty()) return;
    cal_rotate();  // re-window onto now; loop matures anything captured
    if (cal_count_ == 0) return;  // heap min beyond the window: serve heap
  }
}

void Engine::cal_mature_next() {
  // Scan the occupancy bitmap for the first set bit at or after the
  // bucket following the drain bucket, in absolute-bucket order (the
  // window is exactly kCalBuckets wide, so slot order starting from the
  // scan origin *is* absolute order).
  const int64_t from = cal_cur_bucket_ + 1;
  const size_t origin = static_cast<size_t>(from) & (kCalBuckets - 1);
  size_t word = origin >> 6;
  uint64_t bits = cal_bitmap_[word] & (~0ull << (origin & 63));
  for (size_t scanned = 0;; ++scanned) {
    NVMECR_CHECK(scanned <= kCalWords);  // cal_count_ != 0 guarantees a hit
    if (bits != 0) {
      const size_t slot =
          (word << 6) | static_cast<size_t>(std::countr_zero(bits));
      const int64_t bucket =
          from + static_cast<int64_t>((slot - origin) & (kCalBuckets - 1));
      // Copy the bucket's list into the drain buffer, then splice the
      // whole list onto the free list in O(1).
      const uint32_t head = cal_heads_[slot];
      uint32_t last = head;
      for (uint32_t n = head; n != kNil; n = cal_slab_[n].next) {
        cal_cur_.push_back(cal_slab_[n]);
        last = n;
      }
      cal_slab_[last].next = cal_free_;
      cal_free_ = head;
      cal_heads_[slot] = kNil;
      std::sort(cal_cur_.begin(), cal_cur_.end(),
                [](const Item& a, const Item& b) { return a.earlier_than(b); });
      cal_bitmap_[slot >> 6] &= ~(1ull << (slot & 63));
      cal_cur_bucket_ = bucket;
      return;
    }
    word = (word + 1) & (kCalWords - 1);
    bits = cal_bitmap_[word];
  }
}

void Engine::cal_rotate() {
  // The calendar drained; re-anchor the window at the *current time*, so
  // near-future inserts — the common case — keep landing in buckets
  // ahead of the drain cursor. Anchoring at the heap minimum instead
  // would park the window arbitrarily far ahead whenever only long
  // timers remain (a barrier quiescing into a health-monitor sleep), and
  // every near insert until then would degenerate into a sorted insert
  // behind the cursor — O(buffer) memmove per event.
  const int64_t base = now_ >> kCalShift;
  cal_base_bucket_ = base;
  cal_cur_bucket_ = base - 1;
  cal_limit_ = (base + static_cast<int64_t>(kCalBuckets)) << kCalShift;
  if (heap_.front().time >= cal_limit_) return;  // nothing to capture
  // Pull everything below the new limit down into buckets. Linear
  // partition + re-heapify beats popping each mover individually.
  size_t keep = 0;
  for (size_t i = 0; i < heap_.size(); ++i) {
    if (heap_[i].time < cal_limit_) {
      cal_push(heap_[i]);
    } else {
      heap_[keep++] = heap_[i];
    }
  }
  heap_.resize(keep);
  std::make_heap(heap_.begin(), heap_.end(),
                 [](const Item& a, const Item& b) { return b.earlier_than(a); });
}

uint16_t Engine::profile_tag(const char* name) {
  return profiler_ ? profiler_->intern(name) : 0;
}

inline void Engine::dispatch(SimTime t, uint64_t seq,
                             std::coroutine_handle<> h, uint32_t ctx,
                             bool from_ring) {
  ++events_dispatched_;
  // Restore the context captured at schedule time: while this resumption
  // runs (and in anything it schedules), the profile scopes that were
  // live when it was scheduled are in effect again.
  profile_ctx_ = ctx;
  if (profiler_) profiler_->begin_event(ctx, from_ring);
  if (dispatch_probe_) dispatch_probe_(t, seq);
  if (!h.done()) h.resume();
  if (!finished_roots_.empty()) destroy_finished_roots();
}

SimTime Engine::run() { return run_until(INT64_MAX); }

SimTime Engine::run_until(SimTime deadline) {
  for (;;) {
    if (ring_size_ != 0 && now_ <= deadline) {
      // A future entry that matured to the current time was inserted
      // before now_ advanced here, so it carries a smaller seq than
      // every ring entry (pushed while now_ == current time) and must
      // dispatch first to preserve global (time, seq) order.
      const Item* f = future_front();
      if (f != nullptr && f->time <= now_ && f->seq < ring_[ring_head_].seq) {
        Item item = pop_future();
        dispatch(now_, item.seq, item.handle, item.ctx, /*from_ring=*/false);
      } else {
        Ready r = ring_pop();
        ++now_ring_hits_;
        dispatch(now_, r.seq, r.handle, r.ctx, /*from_ring=*/true);
      }
      continue;
    }
    const Item* f = future_front();
    if (f != nullptr && f->time <= deadline) {
      Item item = pop_future();
      if (item.time > now_) now_ = item.time;
      dispatch(now_, item.seq, item.handle, item.ctx, /*from_ring=*/false);
      continue;
    }
    break;
  }
  return now_;
}

void Engine::destroy_finished_roots() {
  // Rare relative to dispatches (once per completed root); the run loop
  // only calls in when the list is nonempty.
  for (std::coroutine_handle<> h : finished_roots_) {
    auto it = std::find(pending_destroy_.begin(), pending_destroy_.end(), h);
    NVMECR_CHECK(it != pending_destroy_.end());
    *it = pending_destroy_.back();
    pending_destroy_.pop_back();
    h.destroy();
  }
  finished_roots_.clear();
}

void Engine::die_deadlocked(const char* where) const {
  std::fprintf(stderr,
               "Engine::%s deadlock: engine drained but the task never "
               "completed (live_roots=%d, sim_time=%" PRId64
               " ns, events_dispatched=%" PRIu64
               ") — a root is awaiting an event that never fires\n",
               where, live_roots_, now_, events_dispatched_);
  // Post-mortem context so CI logs alone are enough to diagnose a hang:
  // the most recent trace events and where the host time went.
  if (flight_ != nullptr && flight_->size() > 0) {
    std::fprintf(stderr, "flight recorder tail (last events before hang):\n");
    flight_->dump_tail(stderr, 32);
  }
  if (profiler_ != nullptr) {
    std::fprintf(stderr, "top dispatch cost centers:\n%s",
                 profiler_->table(5).c_str());
  }
  std::abort();
}

Engine::~Engine() {
  // Deadlocked or never-finished roots; finished ones were already
  // destroyed at the dispatch boundary and removed from this registry.
  for (auto h : pending_destroy_) h.destroy();
}

}  // namespace nvmecr::sim
