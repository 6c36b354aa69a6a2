// Integration tests of the upper stack: storage balancer, scheduler,
// the NVMe-CR runtime system, the comparator models, the POSIX shim,
// multi-level routing, and full CoMD job runs across systems.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baselines/models.h"
#include "common/rng.h"
#include "nvmecr/balancer.h"
#include "nvmecr/cluster.h"
#include "nvmecr/multilevel.h"
#include "nvmecr/posix_shim.h"
#include "nvmecr/runtime.h"
#include "workloads/comd.h"

namespace nvmecr {
namespace {

using namespace nvmecr::literals;
using baselines::StorageClient;
using nvmecr_rt::BalancerAssignment;
using nvmecr_rt::BalancerRequest;
using nvmecr_rt::Cluster;
using nvmecr_rt::ClusterSpec;
using nvmecr_rt::JobAllocation;
using nvmecr_rt::RuntimeConfig;
using nvmecr_rt::Scheduler;
using nvmecr_rt::StorageBalancer;
using workloads::ComdDriver;
using workloads::ComdParams;

// ---------------------------------------------------------------------
// Balancer
// ---------------------------------------------------------------------

TEST(BalancerTest, EvenRoundRobinAcrossSsds) {
  fabric::Topology topo = fabric::Topology::paper_testbed();
  BalancerRequest req;
  for (uint32_t r = 0; r < 448; ++r) {
    req.rank_nodes.push_back(
        topo.nodes_with_role(fabric::NodeRole::kCompute)[r / 28]);
  }
  req.storage_nodes = topo.nodes_with_role(fabric::NodeRole::kStorage);
  req.num_ssds = 8;
  auto a = StorageBalancer::assign(topo, req);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->ssd_nodes.size(), 8u);
  for (uint32_t per : a->ranks_per_ssd) EXPECT_EQ(per, 56u);  // perfect
  // Slots within each SSD are dense 0..55.
  std::vector<std::set<uint32_t>> slots(8);
  for (uint32_t r = 0; r < 448; ++r) {
    EXPECT_TRUE(slots[a->ssd_of_rank[r]].insert(a->slot_of_rank[r]).second);
  }
  for (const auto& s : slots) EXPECT_EQ(s.size(), 56u);
}

TEST(BalancerTest, DerivesSsdCountFromGuidance) {
  fabric::Topology topo = fabric::Topology::paper_testbed();
  BalancerRequest req;
  for (uint32_t r = 0; r < 112; ++r) {
    req.rank_nodes.push_back(
        topo.nodes_with_role(fabric::NodeRole::kCompute)[r / 28]);
  }
  req.storage_nodes = topo.nodes_with_role(fabric::NodeRole::kStorage);
  auto a = StorageBalancer::assign(topo, req);
  ASSERT_TRUE(a.ok());
  // 112 ranks at >= 56 per SSD -> 2 SSDs.
  EXPECT_EQ(a->ssd_nodes.size(), 2u);
}

TEST(BalancerTest, PlacesDataInPartnerFailureDomain) {
  fabric::Topology topo = fabric::Topology::paper_testbed();
  BalancerRequest req;
  req.rank_nodes = {topo.nodes_with_role(fabric::NodeRole::kCompute)[0]};
  req.storage_nodes = topo.nodes_with_role(fabric::NodeRole::kStorage);
  req.num_ssds = 1;
  auto a = StorageBalancer::assign(topo, req);
  ASSERT_TRUE(a.ok());
  EXPECT_NE(topo.failure_domain(a->ssd_nodes[0]),
            topo.failure_domain(req.rank_nodes[0]));
}

TEST(BalancerTest, RefusesSameDomain) {
  // Compute and storage in ONE rack: no partner domain exists.
  fabric::Topology topo;
  topo.add_rack(4, fabric::NodeRole::kCompute);
  const auto storage_in_same_rack = topo.nodes_in_rack(0);
  BalancerRequest req;
  req.rank_nodes = {storage_in_same_rack[0]};
  req.storage_nodes = {storage_in_same_rack[1]};
  req.num_ssds = 1;
  EXPECT_FALSE(StorageBalancer::assign(topo, req).ok());
}

TEST(BalancerTest, PartnerDomainsSortedByDistance) {
  fabric::Topology topo = fabric::Topology::paper_testbed();
  const auto storage = topo.nodes_with_role(fabric::NodeRole::kStorage);
  auto partners = StorageBalancer::partner_domains(topo, 0, storage);
  ASSERT_EQ(partners.size(), 1u);
  EXPECT_EQ(partners[0], 1u);
}

// ---------------------------------------------------------------------
// Round-robin striping (OrangeFS-style data placement)
// ---------------------------------------------------------------------

/// Per-stripe walk: the definition `stripe_share` computes in O(1).
uint64_t stripe_share_reference(uint64_t off, uint64_t len, uint64_t unit,
                                size_t index, size_t nservers) {
  uint64_t share = 0;
  for (uint64_t pos = off; pos < off + len;) {
    const uint64_t stripe = pos / unit;
    const uint64_t stripe_end = std::min(off + len, (stripe + 1) * unit);
    if (stripe % nservers == index) share += stripe_end - pos;
    pos = stripe_end;
  }
  return share;
}

TEST(StripeShareTest, MatchesPerStripeReference) {
  Rng rng(13);
  for (int i = 0; i < 4000; ++i) {
    const uint64_t unit = i % 4 == 0 ? 64_KiB : rng.uniform(1, 70000);
    const size_t n = rng.uniform(1, 12);
    uint64_t off = rng.uniform(0, 100 * unit);
    uint64_t len = rng.uniform(0, 40 * unit);
    if (i % 8 == 1) off -= off % unit;  // aligned start
    if (i % 8 == 2) len -= len % unit;  // whole stripes
    if (i % 16 == 3) len = 0;
    if (i % 8 == 5) off += uint64_t{1} << 40;  // far into a large file
    uint64_t total = 0;
    for (size_t s = 0; s < n; ++s) {
      const uint64_t share = baselines::stripe_share(off, len, unit, s, n);
      ASSERT_EQ(share, stripe_share_reference(off, len, unit, s, n))
          << "off " << off << " len " << len << " unit " << unit
          << " server " << s << " of " << n;
      total += share;
    }
    ASSERT_EQ(total, len);
  }
}

TEST(StripeShareTest, ZeroLengthStripedIoCompletes) {
  // A zero-length write at offset 0 once made the per-stripe walk
  // underflow its last-stripe index and loop ~2.8e14 times.
  Cluster cluster;
  baselines::OrangeFsModel system(cluster, 1, 28);
  cluster.engine().run_task(
      [](baselines::OrangeFsModel& sys) -> sim::Task<void> {
        auto client = (co_await sys.connect(0)).value();
        auto fd = co_await client->create("/empty");
        EXPECT_TRUE(fd.ok());
        if (!fd.ok()) co_return;
        EXPECT_TRUE((co_await client->write(*fd, 0)).ok());
        EXPECT_TRUE((co_await client->read(*fd, 0)).ok());
        EXPECT_TRUE((co_await client->close(*fd)).ok());
      }(system));
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

TEST(SchedulerTest, AllocatesAndReleasesNamespaces) {
  Cluster cluster;
  Scheduler sched(cluster);
  auto job = sched.allocate(112, 28, 512_MiB, 2);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->nsid_per_ssd.size(), 2u);
  uint32_t with_ns = 0;
  for (uint32_t s = 0; s < cluster.storage_nodes().size(); ++s) {
    with_ns += cluster.storage_ssd(s).namespace_count();
  }
  EXPECT_EQ(with_ns, 2u);
  sched.release(*job);
  with_ns = 0;
  for (uint32_t s = 0; s < cluster.storage_nodes().size(); ++s) {
    with_ns += cluster.storage_ssd(s).namespace_count();
  }
  EXPECT_EQ(with_ns, 0u);
}

// ---------------------------------------------------------------------
// NVMe-CR runtime
// ---------------------------------------------------------------------

struct RuntimeFixture {
  Cluster cluster;
  Scheduler sched{cluster};

  JobAllocation alloc(uint32_t nranks, uint64_t part = 256_MiB,
                      uint32_t ssds = 0) {
    auto job = sched.allocate(nranks, 28, part, ssds);
    NVMECR_CHECK(job.ok());
    return std::move(job).value();
  }
};

TEST(NvmecrRuntimeTest, ClientWritesAndReadsBack) {
  RuntimeFixture f;
  nvmecr_rt::NvmecrSystem system(f.cluster, f.alloc(4), RuntimeConfig{});
  f.cluster.engine().run_task([](nvmecr_rt::NvmecrSystem& sys) -> sim::Task<void> {
    auto client = (co_await sys.connect(0)).value();
    auto fd = co_await client->create("/ckpt0");
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE((co_await client->write(*fd, 8_MiB)).ok());
    EXPECT_TRUE((co_await client->fsync(*fd)).ok());
    EXPECT_TRUE((co_await client->close(*fd)).ok());
    auto rfd = co_await client->open_read("/ckpt0");
    EXPECT_TRUE(rfd.ok());
    EXPECT_TRUE((co_await client->read(*rfd, 8_MiB)).ok());
    EXPECT_TRUE((co_await client->close(*rfd)).ok());
    EXPECT_TRUE((co_await client->unlink("/ckpt0")).ok());
  }(system));
}

TEST(NvmecrRuntimeTest, InstancesAreIsolated) {
  // Two ranks sharing one SSD: same path, different partitions — no
  // interference (private namespaces, §III-E).
  RuntimeFixture f;
  nvmecr_rt::NvmecrSystem system(f.cluster, f.alloc(2, 256_MiB, 1),
                                 RuntimeConfig{});
  f.cluster.engine().run_task([](nvmecr_rt::NvmecrSystem& sys) -> sim::Task<void> {
    auto c0 = (co_await sys.connect(0)).value();
    auto c1 = (co_await sys.connect(1)).value();
    auto fd0 = co_await c0->create("/same-name");
    auto fd1 = co_await c1->create("/same-name");
    EXPECT_TRUE(fd0.ok());
    EXPECT_TRUE(fd1.ok());
    EXPECT_TRUE((co_await c0->write(*fd0, 1_MiB)).ok());
    EXPECT_TRUE((co_await c1->write(*fd1, 2_MiB)).ok());
    EXPECT_TRUE((co_await c0->close(*fd0)).ok());
    EXPECT_TRUE((co_await c1->close(*fd1)).ok());
    // Each reads back its own content (sizes differ).
    auto r0 = co_await c0->open_read("/same-name");
    EXPECT_TRUE((co_await c0->read(*r0, 1_MiB)).ok());
    EXPECT_TRUE((co_await c0->close(*r0)).ok());
  }(system));
}

TEST(NvmecrRuntimeTest, KernelPathAttributesKernelTime) {
  RuntimeFixture f;
  RuntimeConfig config;
  config.userspace = false;
  {
    nvmecr_rt::NvmecrSystem system(f.cluster, f.alloc(1), config);
    f.cluster.engine().run_task(
        [](nvmecr_rt::NvmecrSystem& sys) -> sim::Task<void> {
          auto client = (co_await sys.connect(0)).value();
          auto fd = co_await client->create("/x");
          EXPECT_TRUE((co_await client->write(*fd, 4_MiB)).ok());
          EXPECT_TRUE((co_await client->close(*fd)).ok());
          client.reset();  // flush stats
          EXPECT_GT(sys.kernel_time(), 0);
        }(system));
  }
}

TEST(NvmecrRuntimeTest, UserspacePathHasZeroKernelTime) {
  RuntimeFixture f;
  nvmecr_rt::NvmecrSystem system(f.cluster, f.alloc(1), RuntimeConfig{});
  f.cluster.engine().run_task(
      [](nvmecr_rt::NvmecrSystem& sys) -> sim::Task<void> {
        auto client = (co_await sys.connect(0)).value();
        auto fd = co_await client->create("/x");
        EXPECT_TRUE((co_await client->write(*fd, 4_MiB)).ok());
        EXPECT_TRUE((co_await client->close(*fd)).ok());
        client.reset();
        EXPECT_EQ(sys.kernel_time(), 0);
      }(system));
}

TEST(NvmecrRuntimeTest, GlobalNamespaceSerializesCreates) {
  // Drilldown baseline: creates through the global namespace lock take
  // far longer than private-namespace creates at equal concurrency.
  auto run = [](bool private_ns) {
    RuntimeFixture f;
    RuntimeConfig config;
    config.private_namespace = private_ns;
    nvmecr_rt::NvmecrSystem system(f.cluster, f.alloc(16, 128_MiB, 2),
                                   config);
    sim::JoinCounter join(f.cluster.engine());
    for (int r = 0; r < 16; ++r) {
      join.spawn([](nvmecr_rt::NvmecrSystem& sys, int rank) -> sim::Task<void> {
        auto client = (co_await sys.connect(rank)).value();
        for (int i = 0; i < 8; ++i) {
          auto fd = co_await client->create("/f" + std::to_string(i));
          EXPECT_TRUE(fd.ok());
          EXPECT_TRUE((co_await client->close(*fd)).ok());
        }
      }(system, r));
    }
    f.cluster.engine().run();
    return f.cluster.engine().now();
  };
  const SimTime with_private = run(true);
  const SimTime with_global = run(false);
  EXPECT_GT(with_global, with_private * 2);
}

TEST(NvmecrRuntimeTest, MpiCommCrSplitDuringInit) {
  RuntimeFixture f;
  auto comm = minimpi::Comm::world(f.cluster.engine(), 4);
  nvmecr_rt::NvmecrSystem system(f.cluster, f.alloc(4, 128_MiB, 2),
                                 RuntimeConfig{}, comm.get());
  sim::JoinCounter join(f.cluster.engine());
  int connected = 0;
  for (int r = 0; r < 4; ++r) {
    join.spawn([](nvmecr_rt::NvmecrSystem& sys, int rank,
                  int& done) -> sim::Task<void> {
      auto client = co_await sys.connect(rank);
      EXPECT_TRUE(client.ok());
      ++done;
    }(system, r, connected));
  }
  f.cluster.engine().run();
  EXPECT_EQ(connected, 4);
  EXPECT_EQ(f.cluster.engine().live_roots(), 0);
}

// ---------------------------------------------------------------------
// POSIX shim
// ---------------------------------------------------------------------

TEST(PosixShimTest, InterceptsExpectedSymbols) {
  EXPECT_TRUE(nvmecr_rt::PosixShim::intercepts("open"));
  EXPECT_TRUE(nvmecr_rt::PosixShim::intercepts("write"));
  EXPECT_TRUE(nvmecr_rt::PosixShim::intercepts("MPI_Init"));
  EXPECT_FALSE(nvmecr_rt::PosixShim::intercepts("mmap"));
  EXPECT_FALSE(nvmecr_rt::PosixShim::intercepts("socket"));
}

TEST(PosixShimTest, LifecycleAndErrnoMapping) {
  RuntimeFixture f;
  nvmecr_rt::NvmecrSystem system(f.cluster, f.alloc(1), RuntimeConfig{});
  nvmecr_rt::PosixShim shim;
  f.cluster.engine().run_task([](nvmecr_rt::NvmecrSystem& sys,
                                 nvmecr_rt::PosixShim& sh) -> sim::Task<void> {
    EXPECT_FALSE(sh.initialized());
    // Named (not temporary) functor: see the GCC-12 coroutine-argument
    // note in DESIGN.md.
    std::function<sim::Task<
        StatusOr<std::unique_ptr<baselines::StorageClient>>>()>
        connect = [&sys]() { return sys.connect(0); };
    Status s = co_await sh.mpi_init(connect);
    EXPECT_TRUE(s.ok());
    EXPECT_TRUE(sh.initialized());

    const int fd = co_await sh.open("/dump", /*create=*/true);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(co_await sh.write(fd, 1_MiB), static_cast<int64_t>(1_MiB));
    EXPECT_EQ(co_await sh.fsync(fd), 0);
    EXPECT_EQ(co_await sh.close(fd), 0);
    // ENOENT via the errno mapping.
    EXPECT_EQ(co_await sh.open("/missing", false),
              -static_cast<int>(nvmecr_rt::ShimErrno::kENOENT));
    EXPECT_EQ(co_await sh.close(1234),
              -static_cast<int>(nvmecr_rt::ShimErrno::kEBADF));
    EXPECT_TRUE((co_await sh.mpi_finalize()).ok());
    EXPECT_FALSE(sh.initialized());
  }(system, shim));
}

// ---------------------------------------------------------------------
// Multi-level policy
// ---------------------------------------------------------------------

TEST(MultiLevelTest, OneInTenGoesToPfs) {
  nvmecr_rt::MultiLevelPolicy policy(10);
  int pfs = 0;
  for (uint32_t i = 0; i < 30; ++i) pfs += policy.is_pfs_checkpoint(i);
  EXPECT_EQ(pfs, 3);
  EXPECT_TRUE(policy.is_pfs_checkpoint(0));
  EXPECT_TRUE(policy.is_pfs_checkpoint(10));
  // The newest checkpoint stays on the fast tier for fast restart.
  EXPECT_FALSE(policy.is_pfs_checkpoint(9));
}

// ---------------------------------------------------------------------
// Full CoMD job runs across systems
// ---------------------------------------------------------------------

ComdParams small_params(uint32_t nranks) {
  ComdParams p;
  p.nranks = nranks;
  p.procs_per_node = 28;
  p.atoms_per_rank = 4096;
  p.bytes_per_atom = 512;  // 2 MiB per rank per checkpoint
  p.checkpoints = 3;
  p.compute_per_period = 20 * kMillisecond;
  p.io_chunk = 1_MiB;
  return p;
}

TEST(ComdDriverTest, NvmecrRunProducesSaneMetrics) {
  Cluster cluster;
  Scheduler sched(cluster);
  const ComdParams params = small_params(28);
  auto job = sched.allocate(params.nranks, 28, 64_MiB, 2);
  ASSERT_TRUE(job.ok());
  RuntimeConfig config;
  config.fs.io_batch_hugeblocks = 64;
  nvmecr_rt::NvmecrSystem system(cluster, *job, config);
  auto m = ComdDriver::run(cluster, system, params);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->checkpoint_times.size(), 3u);
  // Small bursts land in capacitor-backed device RAM, so perceived
  // bandwidth may exceed the sustained-flash peak (efficiency > 1).
  EXPECT_GT(m->checkpoint_efficiency(), 0.2);
  EXPECT_LE(m->checkpoint_efficiency(), 4.0);
  EXPECT_GT(m->recovery_efficiency(), 0.2);
  // The per-rank perceived-bandwidth metric can exceed 1 under light
  // load (ranks' IO windows barely overlap).
  EXPECT_LE(m->recovery_efficiency(), 1.5);
  EXPECT_GT(m->progress_rate(), 0.0);
  EXPECT_LT(m->progress_rate(), 1.0);
  EXPECT_EQ(m->server_bytes.size(), 2u);
  EXPECT_LT(m->load_cov(), 0.05);  // round-robin balance
  EXPECT_EQ(m->kernel_time, 0);
}

TEST(ComdDriverTest, DfsModelsRunAndRankBelowNvmecr) {
  const ComdParams params = small_params(28);
  double eff_nvmecr = 0, eff_gluster = 0, eff_orange = 0;
  {
    Cluster cluster;
    Scheduler sched(cluster);
    auto job = sched.allocate(params.nranks, 28, 64_MiB, 8);
    ASSERT_TRUE(job.ok());
    RuntimeConfig config;
    config.fs.io_batch_hugeblocks = 64;
    nvmecr_rt::NvmecrSystem system(cluster, *job, config);
    auto m = ComdDriver::run(cluster, system, params);
    ASSERT_TRUE(m.ok());
    eff_nvmecr = m->checkpoint_efficiency();
  }
  {
    Cluster cluster;
    baselines::GlusterFsModel system(cluster, params.nranks, 28);
    auto m = ComdDriver::run(cluster, system, params);
    ASSERT_TRUE(m.ok()) << m.status().to_string();
    eff_gluster = m->checkpoint_efficiency();
    EXPECT_GT(m->kernel_time, 0);
  }
  {
    Cluster cluster;
    baselines::OrangeFsModel system(cluster, params.nranks, 28);
    auto m = ComdDriver::run(cluster, system, params);
    ASSERT_TRUE(m.ok()) << m.status().to_string();
    eff_orange = m->checkpoint_efficiency();
  }
  EXPECT_GT(eff_nvmecr, eff_gluster);
  EXPECT_GT(eff_gluster, eff_orange);
}

TEST(ComdDriverTest, CrailRunsOnSingleServer) {
  Cluster cluster;
  ComdParams params = small_params(28);
  baselines::CrailModel system(cluster, params.nranks, 28, 64_MiB);
  auto m = ComdDriver::run(cluster, system, params);
  ASSERT_TRUE(m.ok()) << m.status().to_string();
  EXPECT_GT(m->checkpoint_efficiency(), 0.2);
  EXPECT_EQ(m->server_bytes.size(), 1u);
}

TEST(ComdDriverTest, LustreIsBoundByRaidPipes) {
  Cluster cluster;
  ComdParams params = small_params(28);
  baselines::LustreModel system(cluster);
  auto m = ComdDriver::run(cluster, system, params);
  ASSERT_TRUE(m.ok()) << m.status().to_string();
  // Peak is 4 x 1.5 GB/s; efficiency must be positive and bounded.
  EXPECT_GT(m->checkpoint_efficiency(), 0.3);
  EXPECT_LE(m->checkpoint_efficiency(), 1.0);
  EXPECT_EQ(m->server_bytes.size(), 4u);
}

TEST(ComdDriverTest, MultiLevelRoutesToPfs) {
  Cluster cluster;
  Scheduler sched(cluster);
  ComdParams params = small_params(28);
  params.checkpoints = 4;
  params.keep_last = 4;  // no unlinks across tiers in this short run
  auto job = sched.allocate(params.nranks, 28, 64_MiB, 2);
  ASSERT_TRUE(job.ok());
  RuntimeConfig config;
  config.fs.io_batch_hugeblocks = 64;
  nvmecr_rt::NvmecrSystem system(cluster, *job, config);
  baselines::LustreModel pfs(cluster);
  auto m = ComdDriver::run(cluster, system, params, &pfs, 4);
  ASSERT_TRUE(m.ok()) << m.status().to_string();
  ASSERT_EQ(m->checkpoint_on_pfs.size(), 4u);
  EXPECT_TRUE(m->checkpoint_on_pfs[0]);
  EXPECT_FALSE(m->checkpoint_on_pfs[3]);
  // The PFS checkpoint is slower than the fast-tier ones.
  EXPECT_GT(m->checkpoint_times[0], m->checkpoint_times[1]);
}

}  // namespace
}  // namespace nvmecr
