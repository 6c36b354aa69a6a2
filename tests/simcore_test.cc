// Unit tests for the discrete-event engine, coroutine tasks, events,
// semaphores, barriers, and bandwidth resources.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "simcore/engine.h"
#include "simcore/event.h"
#include "simcore/resource.h"
#include "simcore/sync.h"
#include "simcore/task.h"
#include "simcore/trace.h"

namespace nvmecr::sim {
namespace {

using namespace nvmecr::literals;

TEST(EngineTest, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0);
}

TEST(EngineTest, DelayAdvancesSimTime) {
  Engine eng;
  SimTime observed = -1;
  eng.run_task([](Engine& e, SimTime& out) -> Task<void> {
    co_await e.delay(10_us);
    out = e.now();
  }(eng, observed));
  EXPECT_EQ(observed, 10_us);
  EXPECT_EQ(eng.now(), 10_us);
}

TEST(EngineTest, NegativeDelayClampsToZero) {
  Engine eng;
  eng.run_task([](Engine& e) -> Task<void> {
    co_await e.delay(-5);
    EXPECT_EQ(e.now(), 0);
  }(eng));
}

TEST(EngineTest, NestedTasksComposeTime) {
  Engine eng;
  auto inner = [](Engine& e) -> Task<int> {
    co_await e.delay(5_us);
    co_return 21;
  };
  auto outer = [inner](Engine& e) -> Task<int> {
    const int a = co_await inner(e);
    const int b = co_await inner(e);
    co_return a + b;
  };
  const int result = eng.run_task(outer(eng));
  EXPECT_EQ(result, 42);
  EXPECT_EQ(eng.now(), 10_us);
}

TEST(EngineTest, SameTimeEventsRunInSpawnOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.spawn([](std::vector<int>& o, int id) -> Task<void> {
      o.push_back(id);
      co_return;
    }(order, i));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(eng.live_roots(), 0);
}

TEST(EngineTest, InterleavesByTimestamp) {
  Engine eng;
  std::vector<std::pair<int, SimTime>> trace;
  auto proc = [](Engine& e, std::vector<std::pair<int, SimTime>>& t, int id,
                 SimDuration step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await e.delay(step);
      t.emplace_back(id, e.now());
    }
  };
  eng.spawn(proc(eng, trace, 0, 10_us));
  eng.spawn(proc(eng, trace, 1, 15_us));
  eng.run();
  // Expected wake times: p0 at 10,20,30; p1 at 15,30,45.
  ASSERT_EQ(trace.size(), 6u);
  EXPECT_EQ(trace[0], (std::pair<int, SimTime>{0, 10_us}));
  EXPECT_EQ(trace[1], (std::pair<int, SimTime>{1, 15_us}));
  EXPECT_EQ(trace[2], (std::pair<int, SimTime>{0, 20_us}));
  // Tie at 30us: p0 scheduled its wake (at 20us) before p1 (at 15us)?
  // p1 scheduled its 30us wake at t=15, p0 its 30us wake at t=20, so p1
  // resumes first by insertion order.
  EXPECT_EQ(trace[3], (std::pair<int, SimTime>{1, 30_us}));
  EXPECT_EQ(trace[4], (std::pair<int, SimTime>{0, 30_us}));
  EXPECT_EQ(trace[5], (std::pair<int, SimTime>{1, 45_us}));
}

TEST(EngineTest, RunUntilStopsAtDeadline) {
  Engine eng;
  int ticks = 0;
  eng.spawn([](Engine& e, int& t) -> Task<void> {
    for (int i = 0; i < 100; ++i) {
      co_await e.delay(1_ms);
      ++t;
    }
  }(eng, ticks));
  eng.run_until(10_ms);
  EXPECT_EQ(ticks, 10);
  EXPECT_EQ(eng.live_roots(), 1);
  eng.run();
  EXPECT_EQ(ticks, 100);
  EXPECT_EQ(eng.live_roots(), 0);
}

TEST(EngineTest, RunTaskReturnsValue) {
  Engine eng;
  const uint64_t v = eng.run_task([](Engine& e) -> Task<uint64_t> {
    co_await e.delay(1_us);
    co_return 0xdeadbeefull;
  }(eng));
  EXPECT_EQ(v, 0xdeadbeefull);
}

TEST(EngineTest, DeadlockedRootIsReportedAndReclaimed) {
  Engine eng;
  Event never(eng);
  eng.spawn([](Event& ev) -> Task<void> { co_await ev.wait(); }(never));
  eng.run();
  EXPECT_EQ(eng.live_roots(), 1);
  // Engine destructor reclaims the frame; ASAN would flag a leak if not.
}

TEST(EventTest, WaitersResumeOnSet) {
  Engine eng;
  Event ev(eng);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](Event& e, int& w) -> Task<void> {
      co_await e.wait();
      ++w;
    }(ev, woken));
  }
  eng.spawn([](Engine& e, Event& ev2) -> Task<void> {
    co_await e.delay(5_us);
    ev2.set();
  }(eng, ev));
  eng.run();
  EXPECT_EQ(woken, 3);
  EXPECT_EQ(eng.now(), 5_us);
}

TEST(EventTest, WaitAfterSetIsImmediate) {
  Engine eng;
  Event ev(eng);
  ev.set();
  eng.run_task([](Engine& e, Event& ev2) -> Task<void> {
    co_await ev2.wait();
    EXPECT_EQ(e.now(), 0);
  }(eng, ev));
}

TEST(JoinCounterTest, WaitsForAllChildren) {
  Engine eng;
  JoinCounter join(eng);
  int done = 0;
  for (int i = 1; i <= 4; ++i) {
    join.spawn([](Engine& e, int& d, int i2) -> Task<void> {
      co_await e.delay(i2 * 1_us);
      ++d;
    }(eng, done, i));
  }
  eng.run_task([](JoinCounter& j, int& d) -> Task<void> {
    co_await j.wait();
    EXPECT_EQ(d, 4);
  }(join, done));
  EXPECT_EQ(eng.now(), 4_us);
}

TEST(JoinCounterTest, WaitWithNoChildrenReturnsImmediately) {
  Engine eng;
  JoinCounter join(eng);
  eng.run_task([](JoinCounter& j) -> Task<void> { co_await j.wait(); }(join));
  EXPECT_EQ(eng.now(), 0);
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Engine eng;
  Semaphore sem(eng, 2);
  int concurrent = 0, peak = 0;
  for (int i = 0; i < 6; ++i) {
    eng.spawn([](Engine& e, Semaphore& s, int& c, int& p) -> Task<void> {
      co_await s.acquire();
      ++c;
      p = c > p ? c : p;
      co_await e.delay(10_us);
      --c;
      s.release();
    }(eng, sem, concurrent, peak));
  }
  eng.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(eng.now(), 30_us);  // 6 jobs / 2 wide * 10us
  EXPECT_EQ(sem.available(), 2);
}

TEST(SemaphoreTest, FifoGrantOrder) {
  Engine eng;
  Semaphore sem(eng, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    eng.spawn([](Engine& e, Semaphore& s, std::vector<int>& o,
                 int id) -> Task<void> {
      co_await s.acquire();
      o.push_back(id);
      co_await e.delay(1_us);
      s.release();
    }(eng, sem, order, i));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(FifoMutexTest, MutualExclusion) {
  Engine eng;
  FifoMutex mu(eng);
  bool inside = false;
  for (int i = 0; i < 8; ++i) {
    eng.spawn([](Engine& e, FifoMutex& m, bool& in) -> Task<void> {
      co_await m.lock();
      EXPECT_FALSE(in);
      in = true;
      co_await e.delay(2_us);
      in = false;
      m.unlock();
    }(eng, mu, inside));
  }
  eng.run();
  EXPECT_EQ(eng.now(), 16_us);
}

TEST(BarrierTest, ReleasesAllTogether) {
  Engine eng;
  Barrier barrier(eng, 4);
  std::vector<SimTime> release_times;
  for (int i = 0; i < 4; ++i) {
    eng.spawn([](Engine& e, Barrier& b, std::vector<SimTime>& out,
                 int id) -> Task<void> {
      co_await e.delay((id + 1) * 10_us);
      co_await b.arrive_and_wait();
      out.push_back(e.now());
    }(eng, barrier, release_times, i));
  }
  eng.run();
  ASSERT_EQ(release_times.size(), 4u);
  for (SimTime t : release_times) EXPECT_EQ(t, 40_us);  // slowest arrival
}

TEST(BarrierTest, ReusableAcrossGenerations) {
  Engine eng;
  Barrier barrier(eng, 2);
  std::vector<SimTime> times;
  for (int i = 0; i < 2; ++i) {
    eng.spawn([](Engine& e, Barrier& b, std::vector<SimTime>& out,
                 int id) -> Task<void> {
      for (int round = 0; round < 3; ++round) {
        co_await e.delay((id + 1) * 5_us);
        co_await b.arrive_and_wait();
        if (id == 0) out.push_back(e.now());
      }
    }(eng, barrier, times, i));
  }
  eng.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10_us, 20_us, 30_us}));
}

TEST(BandwidthResourceTest, SingleTransferTime) {
  Engine eng;
  BandwidthResource link(eng, 1_GBps);
  eng.run_task([](Engine& e, BandwidthResource& l) -> Task<void> {
    co_await l.transfer(1000000);  // 1 MB at 1 GB/s = 1 ms
    EXPECT_EQ(e.now(), 1_ms);
  }(eng, link));
}

TEST(BandwidthResourceTest, SerializesConcurrentTransfers) {
  Engine eng;
  BandwidthResource link(eng, 1_GBps);
  std::vector<SimTime> finishes;
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](Engine& e, BandwidthResource& l,
                 std::vector<SimTime>& out) -> Task<void> {
      co_await l.transfer(1000000);
      out.push_back(e.now());
    }(eng, link, finishes));
  }
  eng.run();
  EXPECT_EQ(finishes, (std::vector<SimTime>{1_ms, 2_ms, 3_ms}));
}

TEST(BandwidthResourceTest, FairChunkingInterleaves) {
  Engine eng;
  BandwidthResource link(eng, 1_GBps);
  std::vector<SimTime> finishes(2);
  for (int i = 0; i < 2; ++i) {
    eng.spawn([](Engine& e, BandwidthResource& l, std::vector<SimTime>& out,
                 int id) -> Task<void> {
      co_await l.transfer_fair(1000000, 100000);  // 1 MB in 100 KB chunks
      out[id] = e.now();
    }(eng, link, finishes, i));
  }
  eng.run();
  // Both flows share the pipe; both finish near 2 ms (perfect sharing),
  // not one at 1 ms and the other at 2 ms.
  EXPECT_GT(finishes[0], 1800_us);
  EXPECT_LE(finishes[0], 2_ms);
  EXPECT_EQ(finishes[1], 2_ms);
}

TEST(BandwidthResourceTest, ZeroRateIsInstant) {
  Engine eng;
  BandwidthResource link(eng, 0);
  eng.run_task([](Engine& e, BandwidthResource& l) -> Task<void> {
    co_await l.transfer(1_GiB);
    EXPECT_EQ(e.now(), 0);
  }(eng, link));
}

TEST(BandwidthResourceTest, ReserveAfterCouplesPipelines) {
  Engine eng;
  BandwidthResource stage1(eng, 2_GBps), stage2(eng, 1_GBps);
  eng.run_task(
      [](Engine& e, BandwidthResource& a, BandwidthResource& b) -> Task<void> {
        const SimTime t1 = a.reserve(1000000);        // done at 0.5 ms
        const SimTime t2 = b.reserve_after(t1, 1000000);  // 0.5 + 1.0 ms
        co_await e.sleep_until(t2);
        EXPECT_EQ(e.now(), 1500_us);
      }(eng, stage1, stage2));
}

TEST(BandwidthResourceTest, BacklogReflectsQueue) {
  Engine eng;
  BandwidthResource link(eng, 1_GBps);
  eng.run_task([](Engine& e, BandwidthResource& l) -> Task<void> {
    EXPECT_EQ(l.backlog(), 0);
    l.reserve(2000000);  // 2 ms of work
    EXPECT_EQ(l.backlog(), 2_ms);
    co_await e.delay(500_us);
    EXPECT_EQ(l.backlog(), 1500_us);
  }(eng, link));
}

}  // namespace
}  // namespace nvmecr::sim

namespace nvmecr::sim {
namespace {

// Determinism: two engines fed the same program produce bit-identical
// schedules — the property that makes every figure regenerate exactly.
TEST(DeterminismTest, IdenticalProgramsProduceIdenticalTimelines) {
  auto run = [] {
    Engine eng;
    BandwidthResource link(eng, 1_GBps);
    Semaphore sem(eng, 3);
    std::vector<SimTime> finishes;
    for (int i = 0; i < 16; ++i) {
      eng.spawn([](Engine& e, BandwidthResource& l, Semaphore& s,
                   std::vector<SimTime>& out, int id) -> Task<void> {
        co_await s.acquire();
        co_await e.delay((id % 5) * 7_us);
        co_await l.transfer_fair(100000 + id * 1000, 32768);
        s.release();
        out.push_back(e.now());
      }(eng, link, sem, finishes, i));
    }
    eng.run();
    return finishes;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace nvmecr::sim

namespace nvmecr::sim {
namespace {

TEST(TraceTest, SpansAndInstantsSerialize) {
  Engine eng;
  TraceCollector trace;
  eng.run_task([](Engine& e, TraceCollector& t) -> Task<void> {
    {
      TraceSpan span(&t, "rank0", "checkpoint", e);
      co_await e.delay(10_us);
      t.add_instant("rank0", "fsync", e.now());
      co_await e.delay(5_us);
    }
    {
      TraceSpan span(&t, "device", "drain", e);
      co_await e.delay(3_us);
    }
  }(eng, trace));
  EXPECT_EQ(trace.size(), 3u);
  const std::string json = trace.to_json();
  // Spans carry durations, instants don't; track names become thread
  // metadata.
  EXPECT_NE(json.find("\"name\":\"checkpoint\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":15.000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"rank0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"device\"}"), std::string::npos);
}

TEST(TraceTest, HostileNamesProduceValidJson) {
  TraceCollector trace;
  // Quotes, backslashes, and control characters in track/name/arg keys
  // must be escaped, not emitted raw.
  trace.add_span("rank\"0\"", "write \"a\\b\"\n", 0, 1000,
                 {{"by\ttes", 42.0}});
  trace.add_instant("tab\there", "newline\nname", 500);
  trace.add_counter("c\\track", "dep\"th", 0, 3.0);
  const std::string json = trace.to_json();
  // No raw quote-adjacent injection: every '"' inside a value is escaped.
  EXPECT_EQ(json.find("rank\"0\""), std::string::npos);
  EXPECT_NE(json.find("rank\\\"0\\\""), std::string::npos);
  EXPECT_NE(json.find("write \\\"a\\\\b\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("by\\ttes"), std::string::npos);
  EXPECT_NE(json.find("newline\\nname"), std::string::npos);
  EXPECT_NE(json.find("c\\\\track"), std::string::npos);
  EXPECT_NE(json.find("dep\\\"th"), std::string::npos);
  // No raw control characters survive inside any string literal (the
  // whitespace between events is structural and fine).
  bool in_string = false;
  size_t quotes = 0;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
      ++quotes;
      continue;
    }
    if (in_string) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20);
    }
  }
  // Balanced quoting: every string literal was closed.
  EXPECT_FALSE(in_string);
  EXPECT_EQ(quotes % 2, 0u);
}

TEST(TraceTest, JsonEscapeEscapesControlAndSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("\n\r\t\b\f"), "\\n\\r\\t\\b\\f");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(TraceTest, NullCollectorIsNoop) {
  Engine eng;
  eng.run_task([](Engine& e) -> Task<void> {
    TraceSpan span(nullptr, "x", "y", e);
    co_await e.delay(1_us);
  }(eng));
  EXPECT_EQ(eng.now(), 1_us);
}

// ---------------------------------------------------------------------
// Two-tier scheduler (now ring + heap)
// ---------------------------------------------------------------------

namespace {

/// Runs a schedule that interleaves same-time yields with future delays
/// across several tasks and records every side effect in order.
std::vector<int> run_interleaved() {
  Engine eng;
  std::vector<int> order;
  for (int id = 0; id < 4; ++id) {
    eng.spawn([](Engine& e, std::vector<int>& out, int id) -> Task<void> {
      for (int i = 0; i < 3; ++i) {
        out.push_back(id * 100 + i * 10);
        co_await e.yield();
        out.push_back(id * 100 + i * 10 + 1);
        // Different per-task delays force heap/ring interleaving at the
        // same timestamps later on.
        co_await e.delay((id % 2 == 0) ? 5 : 10);
      }
      out.push_back(id * 100 + 99);
    }(eng, order, id));
  }
  eng.run();
  return order;
}

/// Yield-heavy churn: 63 of every 64 awaits are same-time yields, the
/// 64th a 1 ns delay.
Task<void> churn_task(Engine& e, uint32_t iters) {
  for (uint32_t i = 0; i < iters; ++i) {
    if ((i & 63u) == 63u) {
      co_await e.delay(1);
    } else {
      co_await e.yield();
    }
  }
}

}  // namespace

TEST(TwoTierSchedulerTest, SameTimeEventsRunInInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  for (int id = 0; id < 8; ++id) {
    eng.spawn([](Engine& e, std::vector<int>& out, int id) -> Task<void> {
      out.push_back(id);
      co_await e.yield();
      out.push_back(10 + id);
      co_await e.yield();
      out.push_back(20 + id);
    }(eng, order, id));
  }
  eng.run();
  // Strict FIFO among same-time events: all first-round pushes, then all
  // second-round, then all third-round, each in spawn order.
  std::vector<int> expect;
  for (int round = 0; round < 3; ++round) {
    for (int id = 0; id < 8; ++id) expect.push_back(round * 10 + id);
  }
  EXPECT_EQ(order, expect);
  EXPECT_EQ(eng.now(), 0);
}

TEST(TwoTierSchedulerTest, MaturedHeapEntryRunsBeforeNewerRingEntry) {
  // A sleeper scheduled for t=10 (heap) was inserted before anything that
  // will be ring-scheduled at t=10, so it must run first even though the
  // ring is checked first in the dispatch loop.
  Engine eng;
  std::vector<std::string> order;
  eng.spawn([](Engine& e, std::vector<std::string>& out) -> Task<void> {
    co_await e.delay(10);
    out.push_back("sleeper");  // heap entry, seq small
    co_await e.yield();
    out.push_back("sleeper-after-yield");
  }(eng, order));
  eng.spawn([](Engine& e, std::vector<std::string>& out) -> Task<void> {
    co_await e.delay(10);
    out.push_back("second-sleeper");
    co_return;
  }(eng, order));
  eng.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "sleeper");
  // The yield (ring, newer seq) runs after the second matured heap entry
  // (older seq) — exactly the (time, seq) total order.
  EXPECT_EQ(order[1], "second-sleeper");
  EXPECT_EQ(order[2], "sleeper-after-yield");
}

TEST(TwoTierSchedulerTest, InterleavedScheduleIsPinned) {
  // Same-time yields and 5/10 ns delays interleave across four tasks, so
  // ring entries and matured future entries meet at equal timestamps.
  // The order is the (time, seq) order, pinned literally.
  const std::vector<int> expect = {
      0,   100, 200, 300, 1,   101, 201, 301, 10,  210, 11,  211, 110, 310,
      20,  220, 111, 311, 21,  221, 99,  299, 120, 320, 121, 321, 199, 399};
  EXPECT_EQ(run_interleaved(), expect);
}

TEST(TwoTierSchedulerTest, DispatchCountersTrackRingAndHeap) {
  Engine eng;
  eng.run_task([](Engine& e) -> Task<void> {
    for (int i = 0; i < 10; ++i) co_await e.yield();
    co_await e.delay(5);
  }(eng));
  // Every dispatch is counted; the 10 yields (plus spawn wakeups) hit the
  // ring, the delay goes through the future tiers.
  EXPECT_GT(eng.events_dispatched(), 10u);
  EXPECT_GE(eng.now_ring_hits(), 10u);
  EXPECT_LT(eng.now_ring_hits(), eng.events_dispatched());

  // Yield-heavy churn: at least 98% of its dispatches must come from the
  // ring (63 of 64 awaits are yields, plus the spawn wakeups).
  Engine churn;
  for (int t = 0; t < 64; ++t) churn.spawn(churn_task(churn, 1024));
  churn.run();
  EXPECT_GE(100 * churn.now_ring_hits(), 98 * churn.events_dispatched())
      << churn.now_ring_hits() << " of " << churn.events_dispatched();
}

TEST(TwoTierSchedulerTest, RingGrowsPastInitialCapacity) {
  // More than 256 (the initial ring capacity) simultaneous same-time
  // wakeups force ring growth mid-run; FIFO order must survive.
  Engine eng;
  std::vector<int> order;
  for (int id = 0; id < 1000; ++id) {
    eng.spawn([](Engine& e, std::vector<int>& out, int id) -> Task<void> {
      co_await e.yield();
      out.push_back(id);
    }(eng, order, id));
  }
  eng.run();
  ASSERT_EQ(order.size(), 1000u);
  for (int id = 0; id < 1000; ++id) EXPECT_EQ(order[id], id);
}

TEST(TwoTierSchedulerTest, DispatchProbeSeesMonotonicTimeSeqOrder) {
  Engine eng;
  std::vector<std::pair<SimTime, uint64_t>> trace;
  eng.set_dispatch_probe([&trace](SimTime t, uint64_t seq) {
    trace.emplace_back(t, seq);
  });
  for (int id = 0; id < 6; ++id) {
    eng.spawn([](Engine& e, int id) -> Task<void> {
      for (int i = 0; i < 4; ++i) {
        if ((i + id) % 2 == 0) {
          co_await e.yield();
        } else {
          co_await e.delay(3);
        }
      }
    }(eng, id));
  }
  eng.run();
  ASSERT_FALSE(trace.empty());
  // The dispatched stream must be sorted by (time, seq) — the scheduler's
  // core determinism invariant.
  for (size_t i = 1; i < trace.size(); ++i) {
    const bool ordered =
        trace[i - 1].first < trace[i].first ||
        (trace[i - 1].first == trace[i].first &&
         trace[i - 1].second < trace[i].second);
    ASSERT_TRUE(ordered) << "out of order at " << i;
  }
}

namespace {

/// Timer-heavy program spanning several calendar buckets (16,384 ns
/// each) and far past the 512-bucket window, so it exercises bucket
/// maturation, in-bucket sorting, late arrivals behind the drain cursor,
/// and window rotation. Returns the observed completion order.
std::vector<int> run_calendar_mix() {
  Engine eng;
  std::vector<int> order;
  for (int id = 0; id < 40; ++id) {
    eng.spawn([](Engine& e, std::vector<int>& out, int id) -> Task<void> {
      // Deterministic per-id delays: some sub-bucket (same 16,384 ns
      // bucket), some a bucket or two out, some far beyond the ~8.4 ms
      // window so the heap tier and rotation both engage.
      const SimDuration near = 100 + 37 * id;           // sub-bucket
      const SimDuration mid = 5000 * (1 + id % 7);      // 0-2 buckets out
      const SimDuration far = 20'000'000 + 9999 * id;   // past the window
      co_await e.delay(near);
      co_await e.delay(mid);
      // Same-bucket re-arm: maturing this bucket schedules a new timer
      // landing at/behind the drain cursor (cal_insert_sorted path).
      co_await e.delay(1);
      co_await e.delay(far);
      out.push_back(id);
    }(eng, order, id));
  }
  eng.run();
  return order;
}

}  // namespace

TEST(CalendarSchedulerTest, CalendarMixOrderIsPinned) {
  // Completion order of the 40 timer chains (the order of their summed
  // delays), pinned literally.
  const std::vector<int> expect = {
      0,  1,  2,  3,  4,  7,  5,  8,  6,  9,  10, 11, 14, 12,
      15, 13, 16, 17, 18, 21, 19, 22, 20, 23, 24, 25, 28, 26,
      29, 27, 30, 31, 32, 35, 33, 36, 34, 37, 38, 39};
  EXPECT_EQ(run_calendar_mix(), expect);
}

TEST(CalendarSchedulerTest, CalendarAbsorbsNearTimers) {
  Engine eng;
  eng.run_task([](Engine& e) -> Task<void> {
    // All within one window once the calendar engages.
    for (int i = 0; i < 64; ++i) co_await e.delay(1000 + i * 333);
  }(eng));
  EXPECT_GT(eng.calendar_hits(), 0u);
  EXPECT_LE(eng.calendar_hits(), eng.events_dispatched());
}

TEST(CalendarSchedulerTest, ProbeOrderHoldsAcrossWindowRotation) {
  Engine eng;
  std::vector<std::pair<SimTime, uint64_t>> trace;
  eng.set_dispatch_probe([&trace](SimTime t, uint64_t seq) {
    trace.emplace_back(t, seq);
  });
  for (int id = 0; id < 12; ++id) {
    eng.spawn([](Engine& e, int id) -> Task<void> {
      // Alternate short hops and window-sized jumps: every iteration
      // lands in a different window, forcing repeated rotation.
      for (int i = 0; i < 6; ++i) {
        co_await e.delay(200 + 17 * id);
        co_await e.delay(9'000'000 + 1234 * id);
      }
    }(eng, id));
  }
  eng.run();
  ASSERT_FALSE(trace.empty());
  for (size_t i = 1; i < trace.size(); ++i) {
    const bool ordered =
        trace[i - 1].first < trace[i].first ||
        (trace[i - 1].first == trace[i].first &&
         trace[i - 1].second < trace[i].second);
    ASSERT_TRUE(ordered) << "out of order at " << i;
  }
  EXPECT_GT(eng.calendar_hits(), 0u);
}

namespace {

constexpr SimTime kBucket = 16'384;          // calendar bucket width
constexpr SimTime kWindow = 512 * kBucket;   // calendar window, ~8.4 ms

/// One await of a generated program. With grid == 0 it wakes `arg` ns
/// after now (0 is a yield or a zero delay); otherwise on the arg-th
/// multiple of `grid` after now, so processes that drew the same point
/// meet there, scheduled from the ring, the calendar and the heap.
struct Step {
  SimTime arg = 0;
  SimTime grid = 0;
  SimTime wake_at(SimTime now) const {
    return grid == 0 ? now + arg : (now / grid + 1 + arg) * grid;
  }
};
using Program = std::vector<std::vector<Step>>;  // one list per process

Program random_program(uint64_t seed, int procs, int steps) {
  Rng rng(seed);
  Program prog(static_cast<size_t>(procs));
  for (std::vector<Step>& list : prog) {
    for (int i = 0; i < steps; ++i) {
      Step st;
      switch (rng.uniform(8)) {
        case 0:  // yield / zero delay: the now ring
          break;
        case 1:  // inside the drain bucket: a late arrival behind the cursor
          st.arg = static_cast<SimTime>(rng.uniform(1, 64));
          break;
        case 2:  // a few buckets ahead
          st.arg = static_cast<SimTime>(rng.uniform(1, 4 * kBucket));
          break;
        case 3:  // anywhere in the window: bucket slots wrap around
          st.arg = static_cast<SimTime>(rng.uniform(kBucket, kWindow - 1));
          break;
        case 4:  // past the window: the heap, then a rotation
          st.arg = static_cast<SimTime>(rng.uniform(kWindow, 3 * kWindow));
          break;
        case 5:  // exact bucket boundaries, some past the window
          st.arg = kBucket * static_cast<SimTime>(rng.uniform(1, 600));
          break;
        default:  // equal-time ties on a shared grid, near and far
          st.grid = 40'000;
          st.arg = static_cast<SimTime>(rng.uniform(0, 300));
          break;
      }
      list.push_back(st);
    }
  }
  return prog;
}

using Trace = std::vector<std::pair<SimTime, int>>;  // (time, process)

/// The order a single (time, seq) priority queue dispatches `prog` in,
/// starting at `start` with every process spawned in index order.
Trace reference_order(const Program& prog, SimTime start) {
  struct Ev {
    SimTime time;
    uint64_t seq;
    int proc;
  };
  auto later = [](const Ev& a, const Ev& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  };
  std::priority_queue<Ev, std::vector<Ev>, decltype(later)> queue(later);
  uint64_t seq = 0;
  for (size_t p = 0; p < prog.size(); ++p) {
    queue.push({start, seq++, static_cast<int>(p)});
  }
  std::vector<size_t> next(prog.size(), 0);
  SimTime now = start;
  Trace out;
  while (!queue.empty()) {
    const Ev ev = queue.top();
    queue.pop();
    now = std::max(now, ev.time);
    out.emplace_back(now, ev.proc);
    const auto p = static_cast<size_t>(ev.proc);
    if (next[p] < prog[p].size()) {
      const SimTime t = prog[p][next[p]++].wake_at(now);
      queue.push({std::max(now, t), seq++, ev.proc});
    }
  }
  return out;
}

/// Spawns `prog` on `eng` and runs it; returns the dispatch order.
Trace engine_order(Engine& eng, const Program& prog) {
  Trace out;
  for (size_t p = 0; p < prog.size(); ++p) {
    eng.spawn([](Engine& e, const std::vector<Step>& steps, Trace& trace,
                 int proc) -> Task<void> {
      trace.emplace_back(e.now(), proc);
      for (const Step& st : steps) {
        if (st.grid != 0) {
          co_await e.sleep_until(st.wake_at(e.now()));
        } else if (st.arg == 0 && proc % 2 == 0) {
          co_await e.yield();
        } else {
          co_await e.delay(st.arg);
        }
        trace.emplace_back(e.now(), proc);
      }
    }(eng, prog[p], out, static_cast<int>(p)));
  }
  eng.run();
  return out;
}

}  // namespace

TEST(CalendarSchedulerTest, RandomProgramsMatchReferenceQueue) {
  uint64_t ring = 0;
  uint64_t calendar = 0;
  uint64_t heap = 0;
  // Engines built one after another, each running two programs back to
  // back: the second starts mid-window on a slab whose nodes all sit on
  // the free list.
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Engine eng;
    for (uint64_t round = 0; round < 2; ++round) {
      const Program prog = random_program(seed * 2 + round, 24, 40);
      const SimTime start = eng.now();
      const Trace want = reference_order(prog, start);
      const Trace got = engine_order(eng, prog);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << "seed " << seed << " round " << round << " dispatch " << i;
      }
    }
    ring += eng.now_ring_hits();
    calendar += eng.calendar_hits();
    heap += eng.events_dispatched() - eng.now_ring_hits() -
            eng.calendar_hits();
  }
  // Every tier served dispatches.
  EXPECT_GT(ring, 0u);
  EXPECT_GT(calendar, 0u);
  EXPECT_GT(heap, 0u);
}

namespace {

// Counts global operator new calls while armed (see the replacements at
// the end of this file).
uint64_t g_news = 0;
bool g_count_news = false;

/// 512 sleepers, one per calendar bucket, for three windows: a rotation
/// spreads them over every bucket of the window, and each re-arms one
/// window later.
void run_every_bucket(Engine& eng) {
  for (SimTime i = 0; i < 512; ++i) {
    eng.spawn([](Engine& e, SimTime offset) -> Task<void> {
      co_await e.delay(offset);
      for (int round = 0; round < 2; ++round) co_await e.delay(kWindow);
    }(eng, i * kBucket + 1));
  }
  eng.run();
}

}  // namespace

TEST(CalendarSchedulerTest, FreshEngineCalendarAllocatesPerSlabNotPerBucket) {
  {
    Engine warm;  // fills the frame pool's freelists
    run_every_bucket(warm);
  }
  g_news = 0;
  g_count_news = true;
  uint64_t calendar_hits = 0;
  {
    Engine eng;
    run_every_bucket(eng);
    calendar_hits = eng.calendar_hits();
  }
  g_count_news = false;
  EXPECT_EQ(calendar_hits, 3u * 512u);
  // One slab serves all 512 buckets: with its growth, the drain buffer,
  // the heap, the ring and the root registry the engine makes 18
  // allocations. Storage per bucket took at least one per bucket (529).
  EXPECT_LT(g_news, 64u);
}

namespace {

// Coroutines with different local footprints so the stress test churns
// several frame-pool size classes at once.
Task<void> small_frame_task(Engine& e) { co_await e.delay(1); }

Task<void> large_frame_task(Engine& e) {
  std::uint64_t pad[48] = {};
  for (int i = 0; i < 48; ++i) pad[i] = static_cast<std::uint64_t>(i);
  co_await e.delay(2);
  // Keep pad alive across the suspend so it is part of the frame.
  std::uint64_t sum = 0;
  for (std::uint64_t v : pad) sum += v;
  NVMECR_CHECK(sum == 48 * 47 / 2);
}

// Frame above FramePool::kMaxPooledBytes: pad lives across the suspend.
constexpr std::uint64_t kOversizedPad = 320;
static_assert(kOversizedPad * sizeof(std::uint64_t) >
              detail::FramePool::kMaxPooledBytes);

Task<void> oversized_frame_task(Engine& e) {
  std::uint64_t pad[kOversizedPad] = {};
  for (std::uint64_t i = 0; i < kOversizedPad; ++i) pad[i] = i;
  co_await e.delay(3);
  std::uint64_t sum = 0;
  for (std::uint64_t v : pad) sum += v;
  NVMECR_CHECK(sum == kOversizedPad * (kOversizedPad - 1) / 2);
}

}  // namespace

TEST(FramePoolTest, StressRecyclesFramesAndLeaksNothing) {
  const uint64_t live_before = frames_live();
  const uint64_t recycled_before = frames_recycled();
  for (int wave = 0; wave < 50; ++wave) {
    Engine eng;
    for (int i = 0; i < 100; ++i) {
      eng.spawn(small_frame_task(eng));
      eng.spawn(large_frame_task(eng));
    }
    eng.run();
  }
  // Steady-state churn is served from the freelists, and a fully drained
  // engine leaves no frame alive (the leak probe for eager root destroy).
  EXPECT_GT(frames_recycled(), recycled_before);
  EXPECT_EQ(frames_live(), live_before);
}

TEST(FramePoolTest, OversizedFrameBypassesPool) {
  // A frame too large for any size class goes to the global allocator.
  // Freeing it feeds no freelist, so allocating the same frame again
  // recycles nothing.
  const uint64_t live_before = frames_live();
  Engine eng;
  for (int round = 0; round < 2; ++round) {
    const uint64_t recycled_before = frames_recycled();
    {
      Task<void> never_started = oversized_frame_task(eng);
      EXPECT_EQ(frames_live(), live_before + 1);
    }
    EXPECT_EQ(frames_recycled(), recycled_before) << "round " << round;
  }
  // Pooled and global frames mix in one run; the origin header routes
  // each free.
  for (int i = 0; i < 32; ++i) {
    eng.spawn(small_frame_task(eng));
    eng.spawn(oversized_frame_task(eng));
  }
  eng.run();
  EXPECT_EQ(frames_live(), live_before);
}

}  // namespace
}  // namespace nvmecr::sim

// Replacement global allocation functions for the counting test above;
// they behave as the defaults otherwise. Not inlined, so the compiler
// never sees a new-expression's pointer reach free() directly.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (nvmecr::sim::g_count_news) ++nvmecr::sim::g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
