// Multi-job tests for the §III-F security model: the scheduler hands
// storage to jobs at NVMe-namespace granularity; SSDs are shared between
// applications, with namespace isolation keeping them apart, and
// "the number of concurrent jobs an SSD can support is only limited by
// its bandwidth".
#include <gtest/gtest.h>

#include "hw/ram_device.h"
#include "nvmecr/runtime.h"
#include "simcore/event.h"
#include "workloads/comd.h"

namespace nvmecr {
namespace {

using namespace nvmecr::literals;
using nvmecr_rt::Cluster;
using nvmecr_rt::RuntimeConfig;
using nvmecr_rt::Scheduler;

TEST(MultiJobTest, SeekRepositionsReadCursor) {
  // (Coverage for the lseek surface the N-1 adapter uses.)
  sim::Engine eng;
  hw::RamDevice dev(64_MiB, 4096);
  auto fs = eng.run_task(microfs::MicroFs::format(eng, dev, {})).value();
  eng.run_task([](microfs::MicroFs& m) -> sim::Task<void> {
    auto fd = (co_await m.creat("/f")).value();
    std::vector<std::byte> a(1000, std::byte{0x41}), b(1000, std::byte{0x42});
    EXPECT_TRUE((co_await m.write(*&fd, a)).ok());
    EXPECT_TRUE((co_await m.write(fd, b)).ok());
    co_await m.close(fd);

    auto rfd = (co_await m.open("/f", microfs::OpenFlags::ReadOnly())).value();
    EXPECT_TRUE(m.seek(rfd, 1000).ok());
    std::vector<std::byte> out(1000);
    EXPECT_EQ(*(co_await m.read(rfd, out)), 1000u);
    for (auto x : out) EXPECT_EQ(x, std::byte{0x42});
    // Seek back.
    EXPECT_TRUE(m.seek(rfd, 0).ok());
    EXPECT_EQ(*(co_await m.read(rfd, out)), 1000u);
    for (auto x : out) EXPECT_EQ(x, std::byte{0x41});
    // Out-of-range and bad-fd seeks rejected.
    EXPECT_EQ(m.seek(rfd, 5000).code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(m.seek(999, 0).code(), ErrorCode::kBadFd);
    co_await m.close(rfd);
  }(*fs));
}

TEST(MultiJobTest, TwoJobsGetDisjointNamespaces) {
  Cluster cluster;
  Scheduler sched(cluster);
  auto job_a = sched.allocate(56, 28, 256_MiB, 2);
  auto job_b = sched.allocate(56, 28, 256_MiB, 2);
  ASSERT_TRUE(job_a.ok());
  ASSERT_TRUE(job_b.ok());
  // Same SSDs (both want the closest partners) but different namespaces.
  for (uint32_t s = 0; s < 2; ++s) {
    EXPECT_NE(job_a->nsid_per_ssd[s], job_b->nsid_per_ssd[s]);
  }
  sched.release(*job_a);
  sched.release(*job_b);
}

TEST(MultiJobTest, JobsAreIsolatedAndBothComplete) {
  Cluster cluster;
  Scheduler sched(cluster);
  auto job_a = sched.allocate(28, 28, 128_MiB, 2);
  auto job_b = sched.allocate(28, 28, 128_MiB, 2);
  ASSERT_TRUE(job_a.ok());
  ASSERT_TRUE(job_b.ok());
  RuntimeConfig config;
  config.fs.io_batch_hugeblocks = 64;
  nvmecr_rt::NvmecrSystem sys_a(cluster, *job_a, config);
  nvmecr_rt::NvmecrSystem sys_b(cluster, *job_b, config);

  workloads::ComdParams params;
  params.nranks = 28;
  params.atoms_per_rank = 8192;
  params.bytes_per_atom = 512;
  params.checkpoints = 2;
  params.compute_per_period = 10 * kMillisecond;
  params.io_chunk = 1_MiB;

  // Run both jobs concurrently on the shared cluster: same engine, same
  // SSDs, different namespaces. (ComdDriver::run drains the engine, so
  // drive both with one joint spawn set.)
  StatusOr<workloads::JobMetrics> ma = InternalError("unset");
  StatusOr<workloads::JobMetrics> mb = InternalError("unset");
  // Sequential driver calls still share the cluster state; job B runs
  // after job A and must see untouched namespaces.
  ma = workloads::ComdDriver::run(cluster, sys_a, params);
  mb = workloads::ComdDriver::run(cluster, sys_b, params);
  ASSERT_TRUE(ma.ok()) << ma.status().to_string();
  ASSERT_TRUE(mb.ok()) << mb.status().to_string();
  EXPECT_GT(ma->checkpoint_efficiency(), 0.2);
  EXPECT_GT(mb->checkpoint_efficiency(), 0.2);

  // Load accounting is per-namespace: both jobs wrote the same volume.
  const auto bytes_a = sys_a.bytes_per_server();
  const auto bytes_b = sys_b.bytes_per_server();
  ASSERT_EQ(bytes_a.size(), bytes_b.size());
  for (size_t s = 0; s < bytes_a.size(); ++s) {
    EXPECT_EQ(bytes_a[s], bytes_b[s]);
    EXPECT_GT(bytes_a[s], 0u);
  }
  sched.release(*job_a);
  sched.release(*job_b);
}

TEST(MultiJobTest, ConcurrentJobsShareSsdBandwidth) {
  // Two jobs hammering the same SSD concurrently each see roughly half
  // the bandwidth — the §III-F claim that concurrent jobs per SSD are
  // bandwidth-limited, not namespace-limited.
  auto run = [](bool concurrent) {
    Cluster cluster;
    Scheduler sched(cluster);
    auto job_a = sched.allocate(8, 28, 256_MiB, 1).value();
    auto job_b = sched.allocate(8, 28, 256_MiB, 1).value();
    RuntimeConfig config;
    config.fs.io_batch_hugeblocks = 128;
    nvmecr_rt::NvmecrSystem sys_a(cluster, job_a, config);
    nvmecr_rt::NvmecrSystem sys_b(cluster, job_b, config);
    sim::Engine& eng = cluster.engine();
    auto writer = [](nvmecr_rt::NvmecrSystem& sys, int rank) -> sim::Task<void> {
      auto client = (co_await sys.connect(rank)).value();
      auto fd = (co_await client->create("/x")).value();
      for (int i = 0; i < 16; ++i) {
        NVMECR_CHECK((co_await client->write(fd, 4_MiB)).ok());
      }
      NVMECR_CHECK((co_await client->fsync(fd)).ok());
      NVMECR_CHECK((co_await client->close(fd)).ok());
    };
    for (int r = 0; r < 8; ++r) eng.spawn(writer(sys_a, r));
    if (concurrent) {
      for (int r = 0; r < 8; ++r) eng.spawn(writer(sys_b, r));
    }
    eng.run();
    if (!concurrent) {
      for (int r = 0; r < 8; ++r) eng.spawn(writer(sys_b, r));
      eng.run();
    }
    return eng.now();
  };
  const SimTime concurrent = run(true);
  const SimTime sequential = run(false);
  // Perfect bandwidth sharing: concurrent ~= sequential total time.
  const double ratio = static_cast<double>(concurrent) /
                       static_cast<double>(sequential);
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.1);
}

// Makespan efficiency: two 4 GiB checkpoints in 2 s each (barrier to
// barrier) against a 2.2 GB/s hardware peak reach ~0.976 of it.
TEST(JobMetricsTest, MakespanEfficiencyAgainstHardwarePeak) {
  workloads::JobMetrics m;
  m.checkpoint_times = {2 * kSecond, 2 * kSecond};
  m.checkpoint_on_pfs = {false, false};
  m.fast_checkpoints = 2;
  m.bytes_per_checkpoint = 4ull << 30;
  m.hw_peak_write = 2200000000ull;
  m.checkpoint_time = 4 * kSecond;
  EXPECT_NEAR(m.checkpoint_efficiency_makespan(), 0.976, 0.0005);
}

}  // namespace
}  // namespace nvmecr
