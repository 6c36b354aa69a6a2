// Resilience layer tests (DESIGN.md §13): typed retryable errors and the
// shim errno mapping, RetryDevice re-submitting the same command,
// link-fault windows on the fabric, detection hysteresis (a 10x
// straggler must NOT be declared dead; a crashed target MUST be,
// deterministically), balancer domain exclusion with
// typed exhaustion, mid-checkpoint failover to a partner-domain spare,
// background healing back to full redundancy, and the 2-of-8 fault-storm
// acceptance run with bit-identical metrics across two runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/models.h"
#include "nvmecr/posix_shim.h"
#include "nvmecr/runtime.h"
#include "obs/metrics.h"
#include "offload/pipeline.h"
#include "resilience/failover.h"
#include "resilience/retry.h"
#include "simcore/trace.h"
#include "workloads/comd.h"

namespace nvmecr {
namespace {

using namespace nvmecr::literals;
using nvmecr_rt::Cluster;
using nvmecr_rt::ClusterSpec;
using nvmecr_rt::RuntimeConfig;
using nvmecr_rt::Scheduler;
using resilience::deploy_resilient;
using resilience::HealthMonitor;
using resilience::kDeadAfterMisses;
using resilience::kHeartbeatPeriod;
using resilience::ResilientSystem;
using resilience::TargetState;

ClusterSpec make_spec(uint32_t storage_nodes, uint32_t storage_racks,
                      uint32_t compute_nodes = 4) {
  ClusterSpec spec;
  spec.compute_nodes = compute_nodes;
  spec.storage_nodes = storage_nodes;
  spec.storage_racks = storage_racks;
  return spec;
}

sim::Task<Status> write_file(baselines::StorageClient& c,
                             const std::string& path, uint64_t bytes,
                             uint64_t chunk = 1_MiB) {
  auto fd = co_await c.create(path);
  NVMECR_CO_RETURN_IF_ERROR(fd.status());
  uint64_t off = 0;
  while (off < bytes) {
    const uint64_t n = std::min<uint64_t>(chunk, bytes - off);
    NVMECR_CO_RETURN_IF_ERROR(co_await c.write(*fd, n));
    off += n;
  }
  NVMECR_CO_RETURN_IF_ERROR(co_await c.fsync(*fd));
  co_return co_await c.close(*fd);
}

sim::Task<Status> read_file(baselines::StorageClient& c,
                            const std::string& path, uint64_t bytes,
                            uint64_t chunk = 1_MiB) {
  auto fd = co_await c.open_read(path);
  NVMECR_CO_RETURN_IF_ERROR(fd.status());
  uint64_t off = 0;
  while (off < bytes) {
    const uint64_t n = std::min<uint64_t>(chunk, bytes - off);
    NVMECR_CO_RETURN_IF_ERROR(co_await c.read(*fd, n));
    off += n;
  }
  co_return co_await c.close(*fd);
}

// ---------------------------------------------------------------------------
// Typed errors + shim errno mapping (satellite a)

TEST(ResilienceStatusTest, RetryableTaxonomyAndErrnos) {
  EXPECT_TRUE(is_retryable(ErrorCode::kTimedOut));
  EXPECT_TRUE(is_retryable(ErrorCode::kUnreachable));
  EXPECT_TRUE(is_retryable(ErrorCode::kUnavailable));
  EXPECT_FALSE(is_retryable(ErrorCode::kIoError));
  EXPECT_FALSE(is_retryable(ErrorCode::kCorruption));
  EXPECT_FALSE(is_retryable(ErrorCode::kInvalidArgument));

  // The POSIX shim surfaces the new codes as the right errnos.
  EXPECT_EQ(nvmecr_rt::to_errno(TimedOutError("x")),
            nvmecr_rt::ShimErrno::kTimedOut);
  EXPECT_EQ(nvmecr_rt::to_errno(UnreachableError("x")),
            nvmecr_rt::ShimErrno::kHostUnreach);
  EXPECT_EQ(static_cast<int>(nvmecr_rt::ShimErrno::kTimedOut), 110);
  EXPECT_EQ(static_cast<int>(nvmecr_rt::ShimErrno::kHostUnreach), 113);
}

// ---------------------------------------------------------------------------
// RetryDevice re-submission

/// Terminal device that records every command it receives and answers
/// tagged reads with a fixed tag. The next `fail_next` commands fail with
/// a retryable error.
class ProbeDevice final : public hw::BlockDevice {
 public:
  static constexpr uint64_t kTag = 0x5eed;
  uint64_t capacity() const override { return 1_GiB; }
  uint32_t hw_block_size() const override { return 4096; }
  sim::Task<Status> submit(hw::IoCmd cmd, uint64_t* tag = nullptr) override {
    cmds.push_back(cmd);
    if (fail_next > 0) {
      --fail_next;
      co_return UnavailableError("probe busy");
    }
    if (tag != nullptr) *tag = kTag;
    co_return OkStatus();
  }
  std::vector<hw::IoCmd> cmds;
  uint32_t fail_next = 0;
};

// A retry re-submits the very same command: offset, length, seed and
// batch size reach the device unchanged on every attempt, and the tag of
// the successful attempt comes back.
TEST(RetryDeviceTest, ResubmitsTheSameCommand) {
  Cluster cluster(make_spec(1, 1));
  sim::Engine& eng = cluster.engine();
  const fabric::NodeId node = cluster.storage_nodes()[0];
  HealthMonitor monitor(cluster);
  auto owned = std::make_unique<ProbeDevice>();
  ProbeDevice& probe = *owned;
  resilience::RetryDevice dev(eng, std::move(owned), monitor, node,
                              /*jitter_seed=*/1);

  probe.fail_next = 1;
  Status w = eng.run_task(dev.write_tagged(8192, 64_KiB, /*seed=*/42, 8));
  EXPECT_TRUE(w.ok()) << w.to_string();
  probe.fail_next = 2;
  auto tag = eng.run_task(dev.read_tagged(8192, 64_KiB, 8));
  ASSERT_TRUE(tag.ok()) << tag.status().to_string();
  EXPECT_EQ(*tag, ProbeDevice::kTag);
  EXPECT_EQ(dev.retries(), 3u);
  ASSERT_EQ(probe.cmds.size(), 5u);
  for (size_t i = 0; i < probe.cmds.size(); ++i) {
    SCOPED_TRACE(i);
    const hw::IoCmd& c = probe.cmds[i];
    const bool write = i < 2;
    EXPECT_EQ(c.op, write ? hw::IoCmd::Op::kWrite : hw::IoCmd::Op::kRead);
    EXPECT_EQ(c.offset, 8192u);
    EXPECT_EQ(c.len, 64_KiB);
    EXPECT_TRUE(c.tagged);
    EXPECT_EQ(c.seed, write ? 42u : 0u);
    EXPECT_EQ(c.subcmds, 8u);
  }
}

// ---------------------------------------------------------------------------
// Fabric link-fault windows

TEST(NetworkFaultTest, LinkDownTimesOutThenRecovers) {
  Cluster cluster(make_spec(2, 1));
  fabric::Network& net = cluster.network();
  const fabric::NodeId a = cluster.compute_nodes()[0];
  const fabric::NodeId b = cluster.storage_nodes()[0];

  net.add_link_down(b, /*from=*/0, /*until=*/1 * kMillisecond);
  EXPECT_FALSE(net.link_up(b, 0));
  EXPECT_FALSE(net.link_up(b, 999'999));
  EXPECT_TRUE(net.link_up(b, 1 * kMillisecond));

  cluster.engine().run_task([](Cluster& c, fabric::Network& n,
                               fabric::NodeId src,
                               fabric::NodeId dst) -> sim::Task<void> {
    // During the window the transfer burns the transport timeout and
    // fails typed-retryable.
    Status s = co_await n.transfer(src, dst, 1_MiB);
    EXPECT_EQ(s.code(), ErrorCode::kTimedOut);
    EXPECT_EQ(c.engine().now(), n.params().transport_timeout);
    // After the window it goes through.
    co_await c.engine().sleep_until(1 * kMillisecond);
    s = co_await n.transfer(src, dst, 1_MiB);
    EXPECT_TRUE(s.ok()) << s.to_string();
  }(cluster, net, a, b));
}

// A link that drops after submission but before the last byte lands:
// the move runs to its fault-free completion time, where the completion
// check finds the wire gone and the sender burns the transport timeout.
TEST(NetworkFaultTest, LinkDropMidTransferTimesOutAtCompletion) {
  auto move = [](Cluster& c, bool drop) {
    fabric::Network& net = c.network();
    const fabric::NodeId b = c.storage_nodes()[0];
    if (drop) net.add_link_down(b, /*from=*/100 * kMicrosecond);
    const Status s =
        c.engine().run_task(net.transfer(c.compute_nodes()[0], b, 4_MiB));
    return std::make_pair(s, c.engine().now());
  };
  Cluster clean(make_spec(2, 1));
  const auto [clean_status, clean_done] = move(clean, false);
  ASSERT_TRUE(clean_status.ok()) << clean_status.to_string();
  ASSERT_GT(clean_done, 100 * kMicrosecond);  // the drop is mid-flight

  Cluster cluster(make_spec(2, 1));
  const auto [s, done] = move(cluster, true);
  EXPECT_EQ(s.code(), ErrorCode::kTimedOut);
  EXPECT_NE(s.message().find("link flapped during transfer"),
            std::string::npos)
      << s.to_string();
  EXPECT_EQ(done, clean_done + cluster.network().params().transport_timeout);
}

// The comparator models ride the same fabric move: a GlusterFS create
// whose directory RPC crosses a downed storage link fails typed-retryable
// instead of completing as if the wire were there.
TEST(NetworkFaultTest, ComparatorCreateAcrossDownedLinkTimesOut) {
  Cluster cluster(make_spec(2, 1));
  baselines::GlusterFsModel gluster(cluster, /*nranks=*/1,
                                    /*procs_per_node=*/1);
  cluster.network().partition(cluster.storage_nodes(), /*from=*/0);
  const Status s = cluster.engine().run_task(
      [](baselines::StorageSystem& sys) -> sim::Task<Status> {
        auto client = co_await sys.connect(0);
        NVMECR_CHECK(client.ok());
        auto fd = co_await (*client)->create("/ckpt/rank0");
        co_return fd.status();
      }(gluster));
  EXPECT_EQ(s.code(), ErrorCode::kTimedOut) << s.to_string();
}

// ---------------------------------------------------------------------------
// Detection hysteresis (satellite c)

// A straggling SSD at 10x service time still completes every IO: the
// monitor must never declare it suspect or dead, and the workload
// finishes (slowly) on the primary with zero failovers.
TEST(HysteresisTest, TenXStragglerIsNotFailedOver) {
  Cluster cluster(make_spec(4, 4));
  Scheduler sched(cluster);
  auto job = sched.allocate(1, 1, 64_MiB, 1);
  ASSERT_TRUE(job.ok());
  auto sys = deploy_resilient(cluster, sched, *job).value();
  HealthMonitor& monitor = sys->monitor();

  const fabric::NodeId node = sys->primary_node_of(0);
  cluster.storage_ssd(cluster.storage_ssd_index(node))
      .set_straggler(10.0, /*from=*/0, /*until=*/SimTime(1) << 60);

  cluster.engine().run_task(
      [](ResilientSystem& s, HealthMonitor& m,
         fabric::NodeId n) -> sim::Task<void> {
        auto c = co_await s.connect(0);
        NVMECR_CHECK(c.ok());
        EXPECT_TRUE((co_await write_file(**c, "/slow", 8_MiB)).ok());
        EXPECT_EQ(m.state(n), TargetState::kHealthy);
        EXPECT_TRUE((co_await read_file(**c, "/slow", 8_MiB)).ok());
      }(*sys, monitor, node));

  EXPECT_EQ(monitor.state(node), TargetState::kHealthy);
  EXPECT_EQ(monitor.dead_since(node), 0);
  EXPECT_EQ(sys->failovers(), 0u);
}

// A crashed target must be declared dead within the detection window:
// kMaxAttempts IO timeouts plus the backoffs between them. The declared
// time is deterministic — two identical runs agree exactly.
TEST(HysteresisTest, CrashedTargetDeclaredDeadDeterministically) {
  auto run_once = [](SimTime crash_at) -> std::pair<SimTime, uint64_t> {
    Cluster cluster(make_spec(4, 4));
    Scheduler sched(cluster);
    auto job = sched.allocate(1, 1, 64_MiB, 1);
    NVMECR_CHECK(job.ok());
    auto sys = deploy_resilient(cluster, sched, *job).value();

    const fabric::NodeId node = sys->primary_node_of(0);
    hw::NvmeSsd& ssd = cluster.storage_ssd(cluster.storage_ssd_index(node));
    ssd.schedule_crash(crash_at);

    cluster.engine().run_task(
        [](Cluster& c, ResilientSystem& s,
           SimTime at) -> sim::Task<void> {
          auto conn = co_await s.connect(0);
          NVMECR_CHECK(conn.ok());
          auto client = std::move(*conn);
          co_await c.engine().sleep_until(at);
          // The checkpoint stream keeps flowing; the resilience layer
          // absorbs the death (detection + failover to a spare).
          EXPECT_TRUE((co_await write_file(*client, "/ckpt", 4_MiB)).ok());
        }(cluster, *sys, crash_at));

    const SimTime dead_since = sys->monitor().dead_since(node);
    NVMECR_CHECK(dead_since != 0);
    return {dead_since, sys->failovers()};
  };

  const SimTime crash_at = 2 * kMillisecond;
  auto [dead1, failovers1] = run_once(crash_at);
  auto [dead2, failovers2] = run_once(crash_at);

  // Deterministic: identical runs declare death at the identical tick.
  EXPECT_EQ(dead1, dead2);
  EXPECT_EQ(failovers1, failovers2);
  EXPECT_GE(failovers1, 1u);

  // Within the detection window: the first IO lands at the crash point,
  // then at most kMaxAttempts timeouts + max backoffs (with jitter).
  const SimDuration io_timeout = 500'000;  // hw::NvmeSsd default
  const SimTime window =
      resilience::kMaxAttempts *
      (io_timeout + static_cast<SimDuration>(
                        static_cast<double>(resilience::kMaxBackoff) *
                        (1.0 + resilience::kBackoffJitter)));
  EXPECT_GE(dead1, crash_at);
  EXPECT_LE(dead1, crash_at + window);
}

// Heartbeat-based detection: misses accrue hysteresis, recovery flips
// the state machine through healing, a mid-heal relapse goes straight
// back to dead.
TEST(HysteresisTest, HeartbeatStateMachine) {
  static_assert(kDeadAfterMisses == 3);
  constexpr SimDuration P = kHeartbeatPeriod;
  Cluster cluster(make_spec(2, 2));
  HealthMonitor monitor(cluster);
  const fabric::NodeId node = cluster.storage_nodes()[0];
  monitor.track(node);

  nvmf::NvmfTarget& target = cluster.target(0);
  target.schedule_crash(/*at=*/P + P / 2, /*recover_at=*/6 * P + P / 2);

  cluster.engine().spawn(monitor.heartbeat(/*until=*/10 * P));
  cluster.engine().run();

  // Probes at P (ok), 2P/3P/4P (miss -> suspect -> dead at the third
  // miss, the fourth probe), 7P+ (ok -> healing). Healing only
  // completes via note_healed, which nothing issued here.
  EXPECT_EQ(monitor.state(node), TargetState::kHealing);
  EXPECT_EQ(monitor.dead_since(node), 4 * P);

  monitor.note_healed(node);
  EXPECT_EQ(monitor.state(node), TargetState::kHealthy);

  // Relapse during healing: no fresh hysteresis.
  monitor.note_miss(node);
  monitor.note_miss(node);
  monitor.note_miss(node);
  EXPECT_EQ(monitor.state(node), TargetState::kDead);
  monitor.note_ok(node);
  EXPECT_EQ(monitor.state(node), TargetState::kHealing);
  monitor.note_miss(node);
  EXPECT_EQ(monitor.state(node), TargetState::kDead);
}

// A target that flaps just under the hysteresis boundary — repeated
// outages two probe periods long against kDeadAfterMisses = 3 — must
// oscillate healthy <-> suspect (one false alarm per flap, never a
// death), and once it finally dies for real and heals, converge to
// healthy. The whole dance must be deterministic across two runs.
TEST(HysteresisTest, FlappingTargetConvergesWithBoundedFalseAlarms) {
  struct Outcome {
    uint64_t transitions = 0;
    uint64_t false_alarms = 0;
    uint64_t deaths = 0;
    TargetState final_state = TargetState::kDead;
  };
  static_assert(kDeadAfterMisses == 3);
  constexpr uint32_t kFlaps = 6;
  constexpr SimDuration P = kHeartbeatPeriod;
  auto run_flap_scenario = [&]() {
    Cluster cluster(make_spec(2, 2));
    obs::MetricsRegistry metrics;
    cluster.install_observer({nullptr, &metrics});
    HealthMonitor monitor(cluster);
    const fabric::NodeId node = cluster.storage_nodes()[0];
    monitor.track(node);

    // Probes land at multiples of P. Each flap window [1.5P, 3.5P)
    // (mod 6P) eats exactly two probes: suspect, then recovery — one
    // false alarm, never a death.
    nvmf::NvmfTarget& target = cluster.target(0);
    for (uint32_t i = 0; i < kFlaps; ++i) {
      const SimTime base = static_cast<SimTime>(i) * 6 * P;
      target.schedule_crash(base + P + P / 2, base + 3 * P + P / 2);
    }
    // Then one real outage spanning three probes: declared dead, comes
    // back, and (after the healer's report) converges to healthy.
    const SimTime real = static_cast<SimTime>(kFlaps) * 6 * P;
    target.schedule_crash(real + P + P / 2, real + 4 * P + P / 2);

    cluster.engine().spawn(monitor.heartbeat(/*until=*/real + 10 * P));
    cluster.engine().run();

    EXPECT_EQ(monitor.state(node), TargetState::kHealing);
    monitor.note_healed(node);

    auto counter = [&metrics](const char* name) -> uint64_t {
      const obs::Counter* c = metrics.find_counter(name);
      return c != nullptr ? c->value() : 0;
    };
    Outcome out;
    out.transitions = monitor.transitions();
    out.false_alarms = counter("resilience.false_alarms");
    out.deaths = counter("resilience.deaths");
    out.final_state = monitor.state(node);
    return out;
  };

  const Outcome a = run_flap_scenario();
  EXPECT_EQ(a.final_state, TargetState::kHealthy);
  // Bounded: exactly one false alarm per flap — a flap does not spiral
  // into extra transitions, and only the real outage registers a death.
  EXPECT_EQ(a.false_alarms, kFlaps);
  EXPECT_EQ(a.deaths, 1u);
  // Per flap: healthy->suspect->healthy; the real outage adds
  // suspect, dead, healing, healthy.
  EXPECT_EQ(a.transitions, 2u * kFlaps + 4u);

  const Outcome b = run_flap_scenario();
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.false_alarms, b.false_alarms);
  EXPECT_EQ(a.deaths, b.deaths);
  EXPECT_EQ(b.final_state, TargetState::kHealthy);
}

// ---------------------------------------------------------------------------
// Balancer domain exclusion (satellite b)

TEST(BalancerExcludeTest, ValidatesAndExhaustsTyped) {
  Cluster cluster(make_spec(4, 2));
  const fabric::Topology& topo = cluster.topology();

  nvmecr_rt::BalancerRequest req;
  req.rank_nodes = {cluster.compute_nodes()[0]};
  req.storage_nodes = cluster.storage_nodes();
  req.num_ssds = 1;
  req.min_procs_per_ssd = 1;

  // Out-of-range excluded domain is an input error.
  req.exclude_domains = {topo.rack_count() + 7};
  auto r = nvmecr_rt::StorageBalancer::assign(topo, req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);

  // Excluding one storage rack leaves the other.
  const fabric::RackId d0 = topo.failure_domain(cluster.storage_nodes()[0]);
  req.exclude_domains = {d0};
  r = nvmecr_rt::StorageBalancer::assign(topo, req);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  for (fabric::NodeId n : r->ssd_nodes) {
    EXPECT_NE(topo.failure_domain(n), d0);
  }

  // Excluding every storage domain is a TYPED exhaustion — kUnavailable,
  // returned immediately, never a loop.
  std::vector<fabric::RackId> all;
  for (fabric::NodeId n : cluster.storage_nodes()) {
    all.push_back(topo.failure_domain(n));
  }
  req.exclude_domains = all;
  r = nvmecr_rt::StorageBalancer::assign(topo, req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);
}

// Partner domain also dead at failover time: ensure_spare surfaces the
// typed exhaustion to the IO instead of hanging or spinning.
TEST(BalancerExcludeTest, PartnerDomainAlsoDeadSurfacesExhaustion) {
  // Two storage racks only: primary in one, the sole partner in the
  // other. Killing both leaves no eligible spare domain.
  Cluster cluster(make_spec(2, 2));
  Scheduler sched(cluster);
  auto job = sched.allocate(1, 1, 64_MiB, 1);
  ASSERT_TRUE(job.ok());
  auto sys = deploy_resilient(cluster, sched, *job).value();

  // Connect while healthy, then kill every storage domain: primary AND
  // its only partner. The write must fail typed, not hang.
  Status result = cluster.engine().run_task(
      [](Cluster& cl, ResilientSystem& s,
         HealthMonitor& m) -> sim::Task<Status> {
        auto c = co_await s.connect(0);
        NVMECR_CO_RETURN_IF_ERROR(c.status());
        for (fabric::NodeId n : cl.storage_nodes()) {
          m.track(n);
          cl.storage_ssd(cl.storage_ssd_index(n))
              .schedule_crash(cl.engine().now());
          m.note_exhausted(n);
        }
        NVMECR_CHECK(m.dead_domains().size() == 2);
        co_return co_await write_file(**c, "/doomed", 1_MiB);
      }(cluster, *sys, sys->monitor()));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), ErrorCode::kUnavailable)
      << result.to_string();
}

// ---------------------------------------------------------------------------
// Mid-checkpoint failover + healing (tentpole)

TEST(FailoverTest, MidCheckpointPivotThenHealRestoresPrimary) {
  Cluster cluster(make_spec(4, 4));
  obs::MetricsRegistry metrics;
  cluster.install_observer({nullptr, &metrics});
  Scheduler sched(cluster);
  auto job = sched.allocate(1, 1, 64_MiB, 1);
  ASSERT_TRUE(job.ok());
  auto sys = deploy_resilient(cluster, sched, *job).value();

  const fabric::NodeId node = sys->primary_node_of(0);
  hw::NvmeSsd& ssd = cluster.storage_ssd(cluster.storage_ssd_index(node));
  const SimTime recover_at = 80 * kMillisecond;

  // Heartbeat (probes the device) + healer, both bounded.
  sys->spawn_daemons(/*until=*/200 * kMillisecond);

  std::unique_ptr<baselines::StorageClient> client;
  cluster.engine().run_task(
      [](Cluster& c, ResilientSystem& s, hw::NvmeSsd& dev, SimTime rec,
         std::unique_ptr<baselines::StorageClient>& out) -> sim::Task<void> {
        auto conn = co_await s.connect(0);
        NVMECR_CHECK(conn.ok());
        out = std::move(*conn);
        baselines::StorageClient& cl = *out;
        // First two chunks land on the primary...
        auto fd = co_await cl.create("/mid");
        NVMECR_CHECK(fd.ok());
        EXPECT_TRUE((co_await cl.write(*fd, 1_MiB)).ok());
        EXPECT_TRUE((co_await cl.write(*fd, 1_MiB)).ok());
        // ...then the device dies mid-checkpoint.
        dev.schedule_crash(c.engine().now(), rec);
        EXPECT_TRUE((co_await cl.write(*fd, 1_MiB)).ok());
        EXPECT_TRUE((co_await cl.write(*fd, 1_MiB)).ok());
        EXPECT_TRUE((co_await cl.fsync(*fd)).ok());
        EXPECT_TRUE((co_await cl.close(*fd)).ok());
        // Degraded restart read works immediately (served by the spare).
        EXPECT_TRUE((co_await read_file(cl, "/mid", 4_MiB)).ok());
      }(cluster, *sys, ssd, recover_at, client));

  // The checkpoint completed in degraded mode and was then healed: the
  // engine ran past recover_at (heartbeat flipped the node to healing,
  // the healer rewrote the file through the primary chain).
  EXPECT_GE(sys->failovers(), 1u);
  const resilience::DegradedEntry* e = sys->degraded_entry(0, "/mid");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->complete);
  EXPECT_EQ(e->bytes, 4_MiB);
  EXPECT_EQ(e->state, resilience::DegradedState::kHealed);
  EXPECT_EQ(sys->healed_bytes(), 4_MiB);
  EXPECT_EQ(sys->monitor().state(node), TargetState::kHealthy);

  // Nothing is left degraded once the healer finished.
  EXPECT_TRUE(sys->degraded_ranks().empty());

  // Metrics flowed through the registry.
  EXPECT_EQ(metrics.find_counter("resilience.failovers")->value(),
            sys->failovers());
  EXPECT_EQ(metrics.find_counter("resilience.heal_bytes")->value(), 4_MiB);
  EXPECT_GE(metrics.find_counter("resilience.deaths")->value(), 1u);

  // After healing, a fresh read is served by the primary chain again.
  cluster.engine().run_task(
      [](std::unique_ptr<baselines::StorageClient>& cl) -> sim::Task<void> {
        EXPECT_TRUE((co_await read_file(*cl, "/mid", 4_MiB)).ok());
      }(client));
}

// Same pivot scenario, traced: the exported trace must interleave the
// health instants, the pivot marker, and nested/overlapping spans from
// the resilience and runtime layers so a failover is reconstructible
// from chrome://tracing alone.
TEST(FailoverTest, TraceCapturesPivotMarkersAndOverlappingSpans) {
  Cluster cluster(make_spec(4, 4));
  sim::TraceCollector trace;
  obs::MetricsRegistry metrics;
  obs::Observer o;
  o.trace = &trace;
  o.metrics = &metrics;
  cluster.install_observer(o);
  Scheduler sched(cluster);
  auto job = sched.allocate(1, 1, 64_MiB, 1);
  ASSERT_TRUE(job.ok());
  auto sys = deploy_resilient(cluster, sched, *job).value();

  const fabric::NodeId node = sys->primary_node_of(0);
  hw::NvmeSsd& ssd = cluster.storage_ssd(cluster.storage_ssd_index(node));
  const SimTime recover_at = 80 * kMillisecond;

  sys->spawn_daemons(/*until=*/200 * kMillisecond);

  cluster.engine().run_task(
      [](Cluster& c, ResilientSystem& s, hw::NvmeSsd& dev,
         SimTime rec) -> sim::Task<void> {
        auto conn = co_await s.connect(0);
        NVMECR_CHECK(conn.ok());
        baselines::StorageClient& cl = **conn;
        auto fd = co_await cl.create("/mid");
        NVMECR_CHECK(fd.ok());
        EXPECT_TRUE((co_await cl.write(*fd, 1_MiB)).ok());
        dev.schedule_crash(c.engine().now(), rec);
        EXPECT_TRUE((co_await cl.write(*fd, 1_MiB)).ok());
        EXPECT_TRUE((co_await cl.fsync(*fd)).ok());
        EXPECT_TRUE((co_await cl.close(*fd)).ok());
        EXPECT_TRUE((co_await read_file(cl, "/mid", 2_MiB)).ok());
      }(cluster, *sys, ssd, recover_at));
  ASSERT_GE(sys->failovers(), 1u);

  const std::string json = trace.to_json();
  // Pivot marker and health-state instants line up on their tracks.
  EXPECT_NE(json.find("failover_start:rank0"), std::string::npos);
  EXPECT_NE(json.find("resilience/health"), std::string::npos);
  const std::string n = std::to_string(node);
  EXPECT_NE(json.find("node" + n + ":dead"), std::string::npos);
  EXPECT_NE(json.find("node" + n + ":healing"), std::string::npos);
  EXPECT_NE(json.find("node" + n + ":healthy"), std::string::npos);
  // The pivot and the later heal both appear as spans.
  EXPECT_NE(json.find("\"failover:/mid\""), std::string::npos);
  EXPECT_NE(json.find("\"heal:/mid\""), std::string::npos);

  // Structural check: locate the failover span's [ts, ts+dur) window.
  const size_t pos = json.find("\"name\":\"failover:/mid\"");
  ASSERT_NE(pos, std::string::npos);
  double fo_ts = 0.0, fo_dur = 0.0;
  ASSERT_EQ(std::sscanf(json.c_str() + json.find("\"ts\":", pos),
                        "\"ts\":%lf,\"dur\":%lf", &fo_ts, &fo_dur),
            2);
  ASSERT_GT(fo_dur, 0.0);
  // Walk every complete ("X") span and classify it against the window:
  // the spare-side create/write spans nest strictly inside the failover
  // span, and the primary-side spans that hit the dead device close
  // before the pivot — the /mid op stream straddles the window.
  size_t nested = 0;
  size_t before_pivot = 0;
  for (size_t p = json.find("\"ph\":\"X\""); p != std::string::npos;
       p = json.find("\"ph\":\"X\"", p + 1)) {
    double ts = 0.0, dur = 0.0;
    if (std::sscanf(json.c_str() + json.find("\"ts\":", p),
                    "\"ts\":%lf,\"dur\":%lf", &ts, &dur) != 2) {
      continue;
    }
    if (ts >= fo_ts && ts + dur <= fo_ts + fo_dur && dur < fo_dur) ++nested;
    if (ts + dur <= fo_ts) ++before_pivot;
  }
  EXPECT_GT(nested, 0u);
  EXPECT_GT(before_pivot, 0u);
  // The heal span reopens the same file only after the pivot window has
  // closed (the device must first recover and be declared healing).
  const size_t heal_pos = json.find("\"name\":\"heal:/mid\"");
  ASSERT_NE(heal_pos, std::string::npos);
  double heal_ts = 0.0;
  ASSERT_EQ(std::sscanf(json.c_str() + json.find("\"ts\":", heal_pos),
                        "\"ts\":%lf", &heal_ts),
            1);
  EXPECT_GT(heal_ts, fo_ts + fo_dur);
}

// A target dead before the first byte: the checkpoint goes straight to
// the spare, completes there, and reads back through the rank's own
// session (the restart path: ResilientClient routes degraded files to
// the spare).
TEST(FailoverTest, StraightToSpareCheckpointReadsBackThroughSession) {
  Cluster cluster(make_spec(4, 4));
  Scheduler sched(cluster);
  auto job = sched.allocate(1, 1, 64_MiB, 1);
  ASSERT_TRUE(job.ok());
  auto sys = deploy_resilient(cluster, sched, *job).value();

  const fabric::NodeId node = sys->primary_node_of(0);

  cluster.engine().run_task(
      [](Cluster& cl, ResilientSystem& s, fabric::NodeId n) -> sim::Task<void> {
        auto conn = co_await s.connect(0);
        NVMECR_CHECK(conn.ok());
        baselines::StorageClient& session = **conn;
        // Target dies before the first byte: straight-to-spare pivot.
        cl.storage_ssd(cl.storage_ssd_index(n))
            .schedule_crash(cl.engine().now());
        s.monitor().note_exhausted(n);
        EXPECT_TRUE((co_await write_file(session, "/deg", 2_MiB)).ok());
        EXPECT_TRUE((co_await read_file(session, "/deg", 2_MiB)).ok());
      }(cluster, *sys, node));

  EXPECT_GE(sys->failovers(), 1u);
  const resilience::DegradedEntry* e = sys->degraded_entry(0, "/deg");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->complete);
  EXPECT_EQ(e->state, resilience::DegradedState::kDegraded);
}

// ---------------------------------------------------------------------------
// Fault storm: 2 of 8 targets die mid-checkpoint under a CoMD-style run
// (acceptance). The run completes, restart reads from the fast tier (no
// PFS deployed at all), healing restores full redundancy, and the whole
// failover/metric stream is bit-identical across two runs.

struct StormOutcome {
  uint64_t failovers = 0;
  uint64_t retries = 0;
  uint64_t heal_bytes = 0;
  uint64_t transitions = 0;
  uint64_t degraded_ckpts = 0;
  std::vector<SimTime> dead_since;
  SimDuration total_time = 0;
  bool ok = false;
  bool healed = false;
};

StormOutcome run_fault_storm(uint32_t kill, SimTime kill_at,
                             SimTime recover_at) {
  StormOutcome out;
  Cluster cluster(make_spec(/*storage_nodes=*/8, /*storage_racks=*/4,
                            /*compute_nodes=*/8));
  obs::MetricsRegistry metrics;
  cluster.install_observer({nullptr, &metrics});
  Scheduler sched(cluster);

  workloads::ComdParams params;
  params.nranks = 8;
  params.procs_per_node = 1;
  params.atoms_per_rank = 8192;
  params.bytes_per_atom = 512;  // 4 MiB per rank per checkpoint
  params.io_chunk = 1_MiB;
  params.checkpoints = 3;
  params.compute_per_period = 2 * kMillisecond;
  params.keep_last = 3;  // keep everything: reads may heal late

  auto job = sched.allocate(params.nranks, params.procs_per_node, 64_MiB,
                            /*num_ssds=*/8);
  NVMECR_CHECK(job.ok());
  auto deployed = deploy_resilient(cluster, sched, *job, {},
                                   redundancy::Scheme::kPartner)
                      .value();
  ResilientSystem& sys = *deployed;
  HealthMonitor& monitor = sys.monitor();

  // Kill the first `kill` primary targets mid-checkpoint; they come back
  // later and get healed.
  std::vector<fabric::NodeId> victims;
  for (uint32_t i = 0; i < kill; ++i) {
    const fabric::NodeId n = job->assignment.ssd_nodes[i];
    victims.push_back(n);
    cluster.storage_ssd(cluster.storage_ssd_index(n))
        .schedule_crash(kill_at, recover_at);
    cluster.target(cluster.storage_ssd_index(n))
        .schedule_crash(kill_at, recover_at);
  }

  sys.spawn_daemons(/*until=*/recover_at + 100 * kMillisecond);

  auto r = workloads::ComdDriver::run(cluster, sys, params);
  out.ok = r.ok();
  if (!r.ok()) return out;

  out.failovers = sys.failovers();
  out.heal_bytes = sys.healed_bytes();
  out.transitions = monitor.transitions();
  out.total_time = r->total_time;
  const obs::Counter* retries = metrics.find_counter("resilience.retries");
  out.retries = retries != nullptr ? retries->value() : 0;
  const obs::Counter* deg =
      metrics.find_counter("resilience.degraded_ckpts");
  out.degraded_ckpts = deg != nullptr ? deg->value() : 0;
  for (fabric::NodeId n : victims) out.dead_since.push_back(monitor.dead_since(n));

  // Full redundancy restored: nothing left degraded, victims healthy.
  out.healed = sys.degraded_ranks().empty();
  for (fabric::NodeId n : victims) {
    if (monitor.state(n) != TargetState::kHealthy) out.healed = false;
  }
  return out;
}

TEST(FaultStormTest, TwoOfEightTargetsDieAndTheRunSurvives) {
  // Kill mid-first-checkpoint (compute ~2ms, then IO), recover at 60ms.
  StormOutcome a = run_fault_storm(2, 3 * kMillisecond, 60 * kMillisecond);
  ASSERT_TRUE(a.ok) << "checkpoint/restart must survive the storm";
  EXPECT_GE(a.failovers, 1u);
  EXPECT_GE(a.degraded_ckpts, 1u);
  for (SimTime t : a.dead_since) EXPECT_GT(t, 0);
  // Healing restored full redundancy before the horizon.
  EXPECT_TRUE(a.healed);
  EXPECT_GT(a.heal_bytes, 0u);

  // Determinism: the same storm produces the identical failover/metric
  // stream, tick for tick.
  StormOutcome b = run_fault_storm(2, 3 * kMillisecond, 60 * kMillisecond);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.heal_bytes, b.heal_bytes);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.degraded_ckpts, b.degraded_ckpts);
  EXPECT_EQ(a.dead_since, b.dead_since);
  EXPECT_EQ(a.total_time, b.total_time);
}

// ---------------------------------------------------------------------------
// Degraded operation: one CoMD job (8 ranks x 2 checkpoints of 4 MiB)
// through the full resilience stack (retrying device wrapper + health
// monitor + ResilientSystem), healthy and with 1 of 8 targets dead from
// t=0, so every IO of its ranks pivots to a partner-domain spare.
// Simulated time is deterministic, so the times are pinned exactly; a
// model change re-pins them and says why.

struct DegradedRun {
  SimDuration total_time = 0;
  uint64_t failovers = 0;
};

DegradedRun run_comd_resilient(bool kill_first) {
  Cluster cluster(make_spec(/*storage_nodes=*/8, /*storage_racks=*/4,
                            /*compute_nodes=*/8));
  Scheduler sched(cluster);
  workloads::ComdParams params;
  params.nranks = 8;
  params.procs_per_node = 1;
  params.atoms_per_rank = 8192;
  params.bytes_per_atom = 512;  // 4 MiB per rank: IO-dominated job
  params.io_chunk = 1_MiB;
  params.checkpoints = 2;
  params.compute_per_period = 2 * kMillisecond;
  params.keep_last = 2;
  auto job = sched.allocate(params.nranks, params.procs_per_node, 128_MiB,
                            /*num_ssds=*/8);
  NVMECR_CHECK(job.ok());

  RuntimeConfig config;
  config.fs.io_batch_hugeblocks = 256;
  auto sys = deploy_resilient(cluster, sched, *job, config).value();
  if (kill_first) {
    const fabric::NodeId victim = job->assignment.ssd_nodes[0];
    const uint32_t idx = cluster.storage_ssd_index(victim);
    cluster.storage_ssd(idx).schedule_crash(0);
    cluster.target(idx).schedule_crash(0);
    sys->monitor().note_exhausted(victim);  // detection already converged
  }
  auto m = workloads::ComdDriver::run(cluster, *sys, params);
  NVMECR_CHECK(m.ok());
  return {m->total_time, sys->failovers()};
}

TEST(DegradedModeTest, OneDeadTargetOfEightHasPinnedOverhead) {
  const DegradedRun healthy = run_comd_resilient(/*kill_first=*/false);
  const DegradedRun degraded = run_comd_resilient(/*kill_first=*/true);
  EXPECT_EQ(healthy.failovers, 0u);
  EXPECT_EQ(degraded.failovers, 2u);
  EXPECT_EQ(healthy.total_time, 8'688'985);   // 8.69 ms
  EXPECT_EQ(degraded.total_time, 12'778'675);  // 12.78 ms: 1.471x
}

// ---------------------------------------------------------------------------
// Offload interaction: a target dying mid-checkpoint revokes the rank's
// offload grant — the stages fall back to host-side compute, the
// degraded manifest records it, and the checkpoint still completes
// through the resilience layer's failover.

TEST(OffloadResilienceTest, TargetDeathMidCheckpointFallsBackToHost) {
  Cluster cluster(make_spec(4, 4));
  Scheduler sched(cluster);
  auto job = sched.allocate(1, 1, 64_MiB, 1);
  ASSERT_TRUE(job.ok());
  auto sys = deploy_resilient(cluster, sched, *job).value();

  offload::OffloadOptions oopts;
  oopts.stages = nvmf::kOffloadDigest;
  offload::OffloadSystem off(cluster, *sys, *job, oopts);

  const fabric::NodeId node = sys->primary_node_of(0);
  const uint32_t idx = cluster.storage_ssd_index(node);

  cluster.engine().run_task(
      [](Cluster& c, offload::OffloadSystem& o, uint32_t ssd_idx,
         fabric::NodeId n) -> sim::Task<void> {
        auto conn = co_await o.connect(0);
        NVMECR_CHECK(conn.ok());
        baselines::StorageClient& cl = **conn;
        EXPECT_EQ(o.granted(0), nvmf::kOffloadDigest);
        auto fd = co_await cl.create("/mid");
        NVMECR_CHECK(fd.ok());
        // First chunks digest on the target...
        EXPECT_TRUE((co_await cl.write(*fd, 1_MiB)).ok());
        EXPECT_TRUE((co_await cl.write(*fd, 1_MiB)).ok());
        // ...then the whole storage node dies mid-checkpoint: the SSD
        // (so the resilient device pivots to a spare) and the target
        // daemon (so the offload grant is revoked).
        c.storage_ssd(ssd_idx).schedule_crash(c.engine().now());
        c.target(ssd_idx).schedule_crash(c.engine().now());
        EXPECT_TRUE((co_await cl.write(*fd, 1_MiB)).ok());
        EXPECT_TRUE((co_await cl.write(*fd, 1_MiB)).ok());
        EXPECT_TRUE((co_await cl.fsync(*fd)).ok());
        EXPECT_TRUE((co_await cl.close(*fd)).ok());
        EXPECT_TRUE((co_await read_file(cl, "/mid", 4_MiB)).ok());
        (void)n;
      }(cluster, off, idx, node));

  // The checkpoint survived via failover AND the offload session fell
  // back cleanly: grant revoked, fallback logged, host CPU burned for
  // the post-death chunks.
  EXPECT_GE(sys->failovers(), 1u);
  EXPECT_EQ(off.granted(0), 0u);
  EXPECT_EQ(off.fallbacks(), 1u);
  ASSERT_FALSE(off.fallback_log().empty());
  EXPECT_NE(off.fallback_log().back().find("fell back"), std::string::npos);
  EXPECT_GT(off.host_compute_ns(), 0u);
  // The target only digested the two pre-death chunks.
  EXPECT_GE(cluster.target(idx).compute_busy_ns(), 1u);
}

}  // namespace
}  // namespace nvmecr
