// Determinism regression tests for the three-tier scheduler and the
// frame pool (DESIGN.md §11). These host fast paths must never change
// *what* the simulation computes. The tests pin that down at full-system
// scale, a fig07-style CoMD run over the real NVMe-CR stack, by
// fingerprinting the complete dispatch schedule. The same run also pins
// the fast paths' host-side shape: the share of dispatches the calendar
// serves, how many coroutine frames the run allocates, and that a warm
// pool recycles every one of them.
#include <cstdint>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "hw/payload_store.h"
#include "obs/observer.h"
#include "obs/profile.h"
#include "offload/pipeline.h"
#include "simcore/profile.h"
#include "workloads/apps.h"
#include "workloads/comd.h"

namespace nvmecr {
namespace {

using bench::default_runtime_config;
using bench::partition_for;
using bench::weak_scaling_params;
using nvmecr_rt::Cluster;
using nvmecr_rt::NvmecrSystem;
using nvmecr_rt::Scheduler;
using workloads::ComdDriver;
using workloads::ComdParams;

/// Order-sensitive digest of the full (time, seq) dispatch stream plus
/// the run's observable outcome. Any reordering — even a swap of two
/// same-time events — changes `hash`. The host-side counters after it
/// are deterministic too, but they describe how the host got there, not
/// what was simulated.
struct RunFingerprint {
  uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  uint64_t events = 0;
  SimTime final_time = 0;
  SimDuration total_time = 0;
  double efficiency = 0.0;
  uint64_t calendar_hits = 0;   // dispatches served by the calendar tier
  uint64_t frames = 0;          // coroutine frames allocated by the run
  uint64_t tag_reads = 0;       // PayloadStore tag reads, all SSDs

  bool operator==(const RunFingerprint&) const = default;
};

// Golden values for run_fingerprinted(28, 2); see
// GoldenScheduleFingerprint for the update procedure.
constexpr uint64_t kGoldenHash = 16411536983975935818ull;
constexpr uint64_t kGoldenEvents = 71870;
constexpr SimTime kGoldenFinalTime = 7434117816;
// Upper bound on the golden run's coroutine frames: today's 31,108
// (0.433 per event) plus 10% headroom. Re-splitting a flattened device
// fast path into awaited sub-tasks breaks it: with the pure forwarders
// awaiting their inner submit, the run took 0.483 frames per event.
constexpr uint64_t kGoldenFramesLimit = 34200;

enum class OffloadMode { kNone, kPassthrough, kAllStages };

RunFingerprint run_fingerprinted(uint32_t nranks, uint32_t checkpoints,
                                 bool profiled = false,
                                 OffloadMode offload = OffloadMode::kNone) {
  ComdParams params = weak_scaling_params(nranks);
  params.checkpoints = checkpoints;
  const uint64_t frames0 = sim::frame_allocations();

  Cluster cluster;
  // Wall-clock profiling must be invisible to the schedule: install the
  // full profiler pair when asked, before any subsystem spins up.
  sim::DispatchProfiler prof;
  obs::EpochProfiler epoch;
  if (profiled) {
    obs::Observer o;
    o.dispatch = &prof;
    o.epoch = &epoch;
    cluster.install_observer(o);
  }
  RunFingerprint fp;
  SimTime last_time = 0;
  uint64_t last_seq = 0;
  bool first = true;
  cluster.engine().set_dispatch_probe([&](SimTime t, uint64_t seq) {
    // The dispatch order must be monotone in (time, seq) regardless of
    // which tier an event came from.
    EXPECT_TRUE(first || t > last_time || (t == last_time && seq > last_seq))
        << "dispatch out of order at t=" << t << " seq=" << seq;
    first = false;
    last_time = t;
    last_seq = seq;
    fp.hash = mix64(fp.hash ^ mix64(static_cast<uint64_t>(t)));
    fp.hash = mix64(fp.hash ^ seq);
    ++fp.events;
  });

  Scheduler sched(cluster);
  auto job = sched.allocate(params.nranks, params.procs_per_node,
                            partition_for(params), /*num_ssds=*/4);
  NVMECR_CHECK(job.ok());
  NvmecrSystem system(cluster, *job, default_runtime_config());
  std::optional<offload::OffloadSystem> off;
  if (offload != OffloadMode::kNone) {
    offload::OffloadOptions opts;
    if (offload == OffloadMode::kPassthrough) {
      opts.stages = 0;
      opts.digest_checks = false;
    } else {
      opts.stages = nvmf::kOffloadAll;
      opts.codec = *offload::find_codec("lz4-class");
    }
    off.emplace(cluster, system, *job, opts);
  }
  baselines::StorageSystem& run_sys =
      off ? static_cast<baselines::StorageSystem&>(*off)
          : static_cast<baselines::StorageSystem&>(system);
  auto m = ComdDriver::run(cluster, run_sys, params);
  NVMECR_CHECK(m.ok());

  fp.final_time = cluster.engine().now();
  fp.total_time = m->total_time;
  fp.efficiency = m->checkpoint_efficiency();
  fp.calendar_hits = cluster.engine().calendar_hits();
  fp.frames = sim::frame_allocations() - frames0;
  for (uint32_t i = 0; i < cluster.storage_nodes().size(); ++i) {
    fp.tag_reads += cluster.storage_ssd(i).payload().tag_reads();
  }
  return fp;
}

TEST(PerfDeterminismTest, RepeatedRunsAreBitIdentical) {
  const RunFingerprint a = run_fingerprinted(28, 2);
  const RunFingerprint b = run_fingerprinted(28, 2);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.events, 0u);
}

TEST(PerfDeterminismTest, WarmFramePoolRecyclesEveryFrame) {
  // The pool keeps freed slots for the life of the process, so a run
  // repeated in the same process is served entirely from the freelists
  // (a process's first run recycles about 98.6%).
  run_fingerprinted(28, 2);
  const uint64_t recycled0 = sim::frames_recycled();
  const RunFingerprint fp = run_fingerprinted(28, 2);
  EXPECT_GT(fp.frames, 0u);
  EXPECT_EQ(sim::frames_recycled() - recycled0, fp.frames);
}

TEST(PerfDeterminismTest, RegistryPresetsReproduceLegacyIoProfiles) {
  // The ProxyAppPreset table moved into the application registry
  // (workloads/apps.h) when the AppDriver restart harness landed. Pin
  // the CoMD profile the registry hands out to the exact numbers the
  // legacy params_from_preset produced — the AppDriver refactor left
  // ComdDriver and the golden schedule fingerprint below bit-identical,
  // and this keeps the registry from drifting under it.
  const workloads::AppSpec* comd = workloads::find_app("CoMD");
  ASSERT_NE(comd, nullptr);
  const ComdParams p = workloads::io_params_for(*comd, 224);
  EXPECT_EQ(p.nranks, 224u);
  EXPECT_EQ(p.procs_per_node, 28u);
  EXPECT_EQ(p.bytes_per_atom, 512u);
  EXPECT_EQ(p.atoms_per_rank, (156ull << 20) / 512u);
  EXPECT_EQ(p.io_chunk, 4ull << 20);
  EXPECT_EQ(p.compute_per_period, 2900 * kMillisecond);
  EXPECT_DOUBLE_EQ(p.compute_jitter, 0.03);
  EXPECT_EQ(p.checkpoints, 5u);
}

TEST(PerfDeterminismTest, GoldenScheduleFingerprint) {
  // Golden (time, seq) trace over a fig07-style run, pinned so an
  // unintended scheduling change anywhere in the stack (engine, sync
  // primitives, devices, fabric) fails loudly. If a change to the
  // simulation is *intentional*, re-run this test and update the
  // constants from the failure output.
  const RunFingerprint fp = run_fingerprinted(28, 2);
  EXPECT_EQ(fp.hash, kGoldenHash) << "events=" << fp.events
                                  << " final_time=" << fp.final_time;
  EXPECT_EQ(fp.events, kGoldenEvents);
  EXPECT_EQ(fp.final_time, kGoldenFinalTime);
  // Nearly every dispatch of a real run is a near-future timer, which the
  // calendar serves; bypassing it sends them all to the heap.
  EXPECT_GE(100 * fp.calendar_hits, 99 * fp.events)
      << "calendar_hits=" << fp.calendar_hits;
  EXPECT_LE(fp.frames, kGoldenFramesLimit);
  // Restart verifies what it reads: every rank file is read back tagged.
  EXPECT_GT(fp.tag_reads, 0u);
}

TEST(PerfDeterminismTest, ProfilingDoesNotPerturbSchedule) {
  // Arming the dispatch profiler + epoch analyzer reads host clocks into
  // profiler-private buckets only. The golden fingerprint must not move
  // by a single (time, seq) pair, and the profile scopes may not await
  // anything: the profiled run allocates exactly the plain run's frames.
  const RunFingerprint plain = run_fingerprinted(28, 2);
  const RunFingerprint fp = run_fingerprinted(28, 2, /*profiled=*/true);
  EXPECT_EQ(fp.hash, kGoldenHash);
  EXPECT_EQ(fp.events, kGoldenEvents);
  EXPECT_EQ(fp.final_time, kGoldenFinalTime);
  EXPECT_EQ(fp.frames, plain.frames);
}

TEST(PerfDeterminismTest, DisabledOffloadWrapperKeepsGoldenFingerprint) {
  // Routing I/O through OffloadSystem with no stages granted and no
  // codec must be a pure pass-through: not one (time, seq) pair of the
  // golden schedule may move, and each StorageClient call costs exactly
  // one extra frame (the wrapper's own). Per rank that is 126 calls:
  // connect, 2 checkpoints x 42 calls and 41 restart calls.
  const RunFingerprint plain = run_fingerprinted(28, 2);
  const RunFingerprint fp =
      run_fingerprinted(28, 2, /*profiled=*/false, OffloadMode::kPassthrough);
  EXPECT_EQ(fp.hash, kGoldenHash) << "events=" << fp.events
                                  << " final_time=" << fp.final_time;
  EXPECT_EQ(fp.events, kGoldenEvents);
  EXPECT_EQ(fp.final_time, kGoldenFinalTime);
  EXPECT_EQ(fp.frames - plain.frames, 28u * 126u);
}

// Golden values for the fixed offload-enabled config (all four stages
// granted, lz4-class codec) over the same fig07-style run. Update like
// kGoldenHash when a schedule change is intentional.
constexpr uint64_t kOffloadGoldenHash = 10412633153962282906ull;
constexpr uint64_t kOffloadGoldenEvents = 58626;
constexpr SimTime kOffloadGoldenFinalTime = 6891699442;

TEST(PerfDeterminismTest, OffloadEnabledScheduleIsPinned) {
  // The offload pipeline (negotiation round trips, target compute
  // reservations, compressed wire transfers) is itself deterministic:
  // two runs agree bit-for-bit and match the pinned constants.
  const RunFingerprint a =
      run_fingerprinted(28, 2, /*profiled=*/false, OffloadMode::kAllStages);
  const RunFingerprint b =
      run_fingerprinted(28, 2, /*profiled=*/false, OffloadMode::kAllStages);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.hash, kGoldenHash);  // the grant genuinely changes the run
  EXPECT_EQ(a.hash, kOffloadGoldenHash) << "events=" << a.events
                                        << " final_time=" << a.final_time;
  EXPECT_EQ(a.events, kOffloadGoldenEvents);
  EXPECT_EQ(a.final_time, kOffloadGoldenFinalTime);
}

}  // namespace
}  // namespace nvmecr
