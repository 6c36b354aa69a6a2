// One-shot / resettable broadcast event and a join counter for structured
// fan-out, both engine-scheduled (waiters resume through the run loop so
// same-time ordering stays deterministic).
#pragma once

#include <coroutine>
#include <vector>

#include "simcore/engine.h"

namespace nvmecr::sim {

/// Broadcast event. wait() suspends until set() is called; set() wakes all
/// current waiters. reset() re-arms the event.
class Event {
 public:
  explicit Event(Engine& engine) : engine_(engine) {}

  void set() {
    if (set_) return;
    set_ = true;
    for (auto h : waiters_) engine_.schedule_now(h);
    waiters_.clear();
  }

  void reset() { set_ = false; }

  auto wait() {
    struct Awaiter {
      Event* event;
      bool await_ready() const noexcept { return event->set_; }
      void await_suspend(std::coroutine_handle<> h) {
        event->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Engine& engine_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Join counter for fan-out/fan-in: arms with `add()` per child, children
/// call `done()`, the parent co_awaits `wait()` until the count drains.
class JoinCounter {
 public:
  explicit JoinCounter(Engine& engine) : engine_(engine), event_(engine) {}

  void add(int n = 1) {
    pending_ += n;
    if (pending_ > 0) event_.reset();
  }

  void done() {
    NVMECR_CHECK(pending_ > 0);
    if (--pending_ == 0) event_.set();
  }

  /// Spawns `task` as an engine root and counts it toward this joiner.
  void spawn(Task<void> task) {
    add();
    engine_.spawn(notify_when_done(std::move(task), this));
  }

  auto wait() {
    if (pending_ == 0) event_.set();
    return event_.wait();
  }

  int pending() const { return pending_; }

 private:
  static Task<void> notify_when_done(Task<void> task, JoinCounter* self) {
    co_await std::move(task);
    self->done();
  }

  Engine& engine_;
  Event event_;
  int pending_ = 0;
};

}  // namespace nvmecr::sim
