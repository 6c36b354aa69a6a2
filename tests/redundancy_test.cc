// Redundancy engine tests: placement invariants, end-to-end
// recoverability after a failure-domain loss (partner replica and XOR
// decode, both proven byte-identical via the stream digest), the kNone
// fallback to the PFS tier, plus the satellite coverage for the
// multi-level router edges, balancer input validation, and CacheStats
// metrics export.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "baselines/models.h"
#include "nvmecr/cache.h"
#include "nvmecr/multilevel.h"
#include "nvmecr/runtime.h"
#include "obs/metrics.h"
#include "redundancy/engine.h"
#include "redundancy/placement.h"
#include "redundancy/reconstruct.h"

namespace nvmecr {
namespace {

using namespace nvmecr::literals;
using redundancy::RecoverySource;
using redundancy::Scheme;
using nvmecr_rt::Cluster;
using nvmecr_rt::ClusterSpec;
using nvmecr_rt::JobAllocation;
using nvmecr_rt::Scheduler;

ClusterSpec make_spec(uint32_t storage_nodes, uint32_t storage_racks) {
  ClusterSpec spec;
  spec.compute_nodes = 4;
  spec.storage_nodes = storage_nodes;
  spec.storage_racks = storage_racks;
  return spec;
}

struct RedundancyFixture {
  RedundancyFixture(uint32_t storage_nodes, uint32_t storage_racks)
      : cluster(make_spec(storage_nodes, storage_racks)), sched(cluster) {}

  Cluster cluster;
  Scheduler sched;

  JobAllocation alloc(uint32_t nranks, uint32_t ssds) {
    auto job = sched.allocate(nranks, /*procs_per_node=*/1, 256_MiB, ssds);
    NVMECR_CHECK(job.ok());
    return std::move(job).value();
  }

  fabric::RackId primary_domain(const JobAllocation& job, uint32_t rank) {
    return cluster.topology().failure_domain(
        job.assignment.ssd_nodes[job.assignment.ssd_of_rank[rank]]);
  }

  void fail_domain(fabric::RackId rack) {
    for (fabric::NodeId n : cluster.storage_nodes()) {
      if (cluster.topology().failure_domain(n) == rack) {
        cluster.storage_ssd(cluster.storage_ssd_index(n)).fail_device();
      }
    }
  }
};

sim::Task<Status> write_file(baselines::StorageClient& c,
                             const std::string& path, uint64_t bytes) {
  auto fd = co_await c.create(path);
  NVMECR_CO_RETURN_IF_ERROR(fd.status());
  uint64_t off = 0;
  while (off < bytes) {
    const uint64_t n = std::min<uint64_t>(4_MiB, bytes - off);
    NVMECR_CO_RETURN_IF_ERROR(co_await c.write(*fd, n));
    off += n;
  }
  NVMECR_CO_RETURN_IF_ERROR(co_await c.fsync(*fd));
  co_return co_await c.close(*fd);
}

sim::Task<Status> read_file(baselines::StorageClient& c,
                            const std::string& path, uint64_t bytes) {
  auto fd = co_await c.open_read(path);
  NVMECR_CO_RETURN_IF_ERROR(fd.status());
  uint64_t off = 0;
  while (off < bytes) {
    const uint64_t n = std::min<uint64_t>(4_MiB, bytes - off);
    NVMECR_CO_RETURN_IF_ERROR(co_await c.read(*fd, n));
    off += n;
  }
  co_return co_await c.close(*fd);
}

// ---------------------------------------------------------------------------
// Placement invariants

TEST(RedundancyPlacementTest, PartnerAvoidsPrimaryAndComputeDomains) {
  RedundancyFixture f(/*storage_nodes=*/4, /*storage_racks=*/2);
  JobAllocation job = f.alloc(/*nranks=*/4, /*ssds=*/2);
  auto plan = redundancy::plan_redundancy(
      f.cluster.topology(), job.assignment, job.rank_nodes,
      f.cluster.storage_nodes(), Scheme::kPartner);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  for (uint32_t r = 0; r < 4; ++r) {
    const fabric::NodeId replica =
        plan->assignment.ssd_nodes[plan->assignment.ssd_of_rank[r]];
    const fabric::RackId rd = f.cluster.topology().failure_domain(replica);
    EXPECT_NE(rd, f.primary_domain(job, r)) << "rank " << r;
    EXPECT_NE(rd, f.cluster.topology().failure_domain(job.rank_nodes[r]))
        << "rank " << r;
  }
}

TEST(RedundancyPlacementTest, PartnerNeedsSecondStorageDomain) {
  RedundancyFixture f(4, /*storage_racks=*/1);
  JobAllocation job = f.alloc(4, 2);
  auto plan = redundancy::plan_redundancy(
      f.cluster.topology(), job.assignment, job.rank_nodes,
      f.cluster.storage_nodes(), Scheme::kPartner);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), ErrorCode::kInvalidArgument);
}

TEST(RedundancyPlacementTest, XorSetsSpanDistinctDomains) {
  RedundancyFixture f(/*storage_nodes=*/5, /*storage_racks=*/5);
  JobAllocation job = f.alloc(4, 4);
  auto plan = redundancy::plan_redundancy(
      f.cluster.topology(), job.assignment, job.rank_nodes,
      f.cluster.storage_nodes(), Scheme::kXor);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  ASSERT_EQ(plan->set_members.size(), 1u);
  ASSERT_EQ(plan->set_members[0].size(), 4u);

  std::set<fabric::RackId> set_domains;
  for (uint32_t m : plan->set_members[0]) {
    set_domains.insert(f.primary_domain(job, m));
  }
  EXPECT_EQ(set_domains.size(), 4u) << "members must span distinct domains";
  for (uint32_t m : plan->set_members[0]) {
    const fabric::NodeId parity =
        plan->assignment.ssd_nodes[plan->assignment.ssd_of_rank[m]];
    EXPECT_EQ(set_domains.count(f.cluster.topology().failure_domain(parity)),
              0u)
        << "parity of rank " << m << " must sit outside the set's domains";
  }
}

TEST(RedundancyPlacementTest, XorRejectsImpossibleShapes) {
  static_assert(redundancy::kXorSetSize == 4);
  RedundancyFixture f(4, 2);
  JobAllocation job = f.alloc(4, 4);  // only 2 storage domains available
  auto plan = redundancy::plan_redundancy(
      f.cluster.topology(), job.assignment, job.rank_nodes,
      f.cluster.storage_nodes(), Scheme::kXor);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), ErrorCode::kInvalidArgument);

  // Five domains are enough, but 6 ranks do not divide into sets of 4.
  RedundancyFixture g(/*storage_nodes=*/5, /*storage_racks=*/5);
  JobAllocation six = g.alloc(6, 5);
  plan = redundancy::plan_redundancy(g.cluster.topology(), six.assignment,
                                     six.rank_nodes,
                                     g.cluster.storage_nodes(), Scheme::kXor);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("multiple of kXorSetSize"),
            std::string::npos)
      << plan.status().to_string();
}

// ---------------------------------------------------------------------------
// End-to-end recoverability

TEST(RedundancyRecoveryTest, PartnerReplicaSurvivesDomainLoss) {
  RedundancyFixture f(4, 2);
  obs::MetricsRegistry metrics;
  f.cluster.install_observer({nullptr, &metrics});
  JobAllocation job = f.alloc(4, 2);
  nvmecr_rt::NvmecrSystem primary(f.cluster, job, {});
  auto dep = redundancy::deploy_redundancy(f.cluster, f.sched, primary, job,
                                           Scheme::kPartner);
  ASSERT_TRUE(dep.ok()) << dep.status().to_string();
  redundancy::RedundantSystem& sys = *dep->system;

  std::vector<std::unique_ptr<baselines::StorageClient>> clients;
  f.cluster.engine().run_task([](redundancy::RedundantSystem& s,
                                 std::vector<std::unique_ptr<
                                     baselines::StorageClient>>& cs)
                                  -> sim::Task<void> {
    for (uint32_t r = 0; r < 4; ++r) {
      auto c = co_await s.connect(static_cast<int>(r));
      NVMECR_CHECK(c.ok());
      cs.push_back(std::move(*c));
      EXPECT_TRUE((co_await write_file(*cs.back(), "/ckpt0", 16_MiB)).ok());
      EXPECT_TRUE((co_await write_file(*cs.back(), "/ckpt1", 16_MiB)).ok());
    }
    co_await s.quiesce();
  }(sys, clients));

  // Every file is fully replicated and digest-verified.
  for (uint32_t r = 0; r < 4; ++r) {
    const redundancy::FileManifest* m = sys.manifest(r, "/ckpt1");
    ASSERT_NE(m, nullptr);
    EXPECT_TRUE(m->complete);
    EXPECT_TRUE(m->replica_ok);
    EXPECT_EQ(m->replica_bytes, 16_MiB);
  }
  // Full replication: redundant bytes == primary checkpoint bytes.
  EXPECT_EQ(sys.redundant_bytes(), 4u * 2u * 16_MiB);
  EXPECT_EQ(metrics.find_counter("redundancy.replica_bytes")->value(),
            sys.redundant_bytes());
  EXPECT_EQ(sys.degraded_files(), 0u);

  // Before the fault, recovery serves straight from the fast tier.
  redundancy::Reconstructor recon(sys);
  f.cluster.engine().run_task([](redundancy::Reconstructor& rc)
                                  -> sim::Task<void> {
    auto c = rc.client(1);
    EXPECT_TRUE((co_await read_file(*c, "/ckpt1", 16_MiB)).ok());
  }(recon));
  ASSERT_NE(recon.find_report(1, "/ckpt1"), nullptr);
  EXPECT_EQ(recon.find_report(1, "/ckpt1")->source,
            RecoverySource::kFastTier);

  // *** the rack holding every primary SSD dies ***
  f.fail_domain(f.primary_domain(job, 0));

  f.cluster.engine().run_task([](redundancy::Reconstructor& rc)
                                  -> sim::Task<void> {
    for (uint32_t r = 0; r < 4; ++r) {
      auto c = rc.client(r);
      EXPECT_TRUE((co_await read_file(*c, "/ckpt1", 16_MiB)).ok())
          << "rank " << r;
    }
  }(recon));
  for (uint32_t r = 0; r < 4; ++r) {
    const redundancy::RecoveryReport* rep = recon.find_report(r, "/ckpt1");
    ASSERT_NE(rep, nullptr) << "rank " << r;
    EXPECT_EQ(rep->source, RecoverySource::kPartner) << "rank " << r;
    EXPECT_TRUE(rep->digest_ok) << "rank " << r;
    EXPECT_EQ(rep->bytes, 16_MiB);
    EXPECT_EQ(rep->bytes_read, 16_MiB);
  }
  EXPECT_EQ(metrics.find_counter("redundancy.reconstructions")->value(), 4u);
}

TEST(RedundancyRecoveryTest, XorDecodeRebuildsLostMember) {
  RedundancyFixture f(/*storage_nodes=*/5, /*storage_racks=*/5);
  JobAllocation job = f.alloc(4, 4);
  nvmecr_rt::NvmecrSystem primary(f.cluster, job, {});
  auto dep = redundancy::deploy_redundancy(f.cluster, f.sched, primary, job,
                                           Scheme::kXor);
  ASSERT_TRUE(dep.ok()) << dep.status().to_string();
  redundancy::RedundantSystem& sys = *dep->system;

  std::vector<std::unique_ptr<baselines::StorageClient>> clients;
  uint64_t total_written = 0;
  f.cluster.engine().run_task([](redundancy::RedundantSystem& s,
                                 std::vector<std::unique_ptr<
                                     baselines::StorageClient>>& cs,
                                 uint64_t& total) -> sim::Task<void> {
    for (uint32_t r = 0; r < 4; ++r) {
      auto c = co_await s.connect(static_cast<int>(r));
      NVMECR_CHECK(c.ok());
      cs.push_back(std::move(*c));
    }
    for (const char* path : {"/ckpt0", "/ckpt1"}) {
      for (uint32_t r = 0; r < 4; ++r) {
        EXPECT_TRUE((co_await write_file(*cs[r], path, 24_MiB)).ok());
        total += 24_MiB;
      }
    }
    co_await s.quiesce();
  }(sys, clients, total_written));

  for (uint32_t r = 0; r < 4; ++r) {
    const redundancy::FileManifest* m = sys.manifest(r, "/ckpt1");
    ASSERT_NE(m, nullptr);
    EXPECT_TRUE(m->complete);
    EXPECT_TRUE(m->parity_ok) << "rank " << r;
  }
  EXPECT_EQ(sys.degraded_files(), 0u);
  // Erasure-coded overhead is a fraction (~1/(K-1)) of full replication.
  EXPECT_GT(sys.redundant_bytes(), 0u);
  EXPECT_LT(sys.redundant_bytes(), total_written / 2);

  // *** rank 0's primary SSD domain dies; the other members survive ***
  f.fail_domain(f.primary_domain(job, 0));

  redundancy::Reconstructor recon(sys);
  f.cluster.engine().run_task([](redundancy::Reconstructor& rc)
                                  -> sim::Task<void> {
    auto lost = rc.client(0);
    EXPECT_TRUE((co_await read_file(*lost, "/ckpt1", 24_MiB)).ok());
    auto survivor = rc.client(1);
    EXPECT_TRUE((co_await read_file(*survivor, "/ckpt1", 24_MiB)).ok());
  }(recon));

  const redundancy::RecoveryReport* rep = recon.find_report(0, "/ckpt1");
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->source, RecoverySource::kXor);
  EXPECT_TRUE(rep->digest_ok);
  EXPECT_EQ(rep->bytes, 24_MiB);
  // Decode read the 3 survivors' files plus their parity segments.
  EXPECT_GT(rep->bytes_read, 3u * 24_MiB);
  // A member whose domain survived restores from the fast tier.
  EXPECT_EQ(recon.find_report(1, "/ckpt1")->source,
            RecoverySource::kFastTier);
}

TEST(RedundancyRecoveryTest, NoneFallsBackToOlderPfsCheckpoint) {
  RedundancyFixture f(4, 2);
  JobAllocation job = f.alloc(4, 2);
  nvmecr_rt::NvmecrSystem primary(f.cluster, job, {});
  auto dep = redundancy::deploy_redundancy(f.cluster, f.sched, primary, job,
                                           Scheme::kNone);
  ASSERT_TRUE(dep.ok()) << dep.status().to_string();
  redundancy::RedundantSystem& sys = *dep->system;
  baselines::LustreModel pfs(f.cluster);

  std::unique_ptr<baselines::StorageClient> fast, slow;
  f.cluster.engine().run_task(
      [](redundancy::RedundantSystem& s, baselines::LustreModel& p,
         std::unique_ptr<baselines::StorageClient>& fc,
         std::unique_ptr<baselines::StorageClient>& sc) -> sim::Task<void> {
        auto f1 = co_await s.connect(0);
        auto s1 = co_await p.connect(0);
        NVMECR_CHECK(f1.ok() && s1.ok());
        fc = std::move(*f1);
        sc = std::move(*s1);
        // Older checkpoint on the PFS, newest on the fast tier only.
        EXPECT_TRUE((co_await write_file(*sc, "/step0", 8_MiB)).ok());
        EXPECT_TRUE((co_await write_file(*fc, "/step1", 8_MiB)).ok());
      }(sys, pfs, fast, slow));

  f.fail_domain(f.primary_domain(job, 0));

  redundancy::Reconstructor recon(sys);
  auto reconstructed = recon.client(0);
  f.cluster.engine().run_task(
      [](baselines::StorageClient& fast_client,
         baselines::StorageClient& recon_client,
         baselines::StorageClient& pfs_client) -> sim::Task<void> {
        // The newest checkpoint (/step1, fast tier only) is unrecoverable
        // under kNone: both fast-tier sources fail — the fast tier lost
        // its device and the reconstruction view has no redundancy
        // stream to rebuild from. (The PFS model is bandwidth-only and
        // does not track namespaces, so "what the PFS holds" is what was
        // written to it: only /step0.)
        EXPECT_FALSE((co_await read_file(fast_client, "/step1", 8_MiB)).ok());
        EXPECT_FALSE(
            (co_await read_file(recon_client, "/step1", 8_MiB)).ok());
        // Restart therefore falls back to the older PFS checkpoint
        // /step0, and that read succeeds.
        EXPECT_TRUE((co_await read_file(pfs_client, "/step0", 8_MiB)).ok());
      }(*fast, *reconstructed, *slow));
}

// ---------------------------------------------------------------------------
// Multi-level policy edges (satellite)

TEST(MultiLevelEdgeTest, IntervalZeroNeverRoutesToPfs) {
  nvmecr_rt::MultiLevelPolicy policy(0);
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_FALSE(policy.is_pfs_checkpoint(i)) << i;
  }
}

TEST(MultiLevelEdgeTest, IntervalOneAlwaysRoutesToPfs) {
  nvmecr_rt::MultiLevelPolicy policy(1);
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(policy.is_pfs_checkpoint(i)) << i;
  }
}

TEST(MultiLevelEdgeTest, RecoveryLevelRestoresFromPfsWhenFastTierLost) {
  RedundancyFixture f(4, 1);
  JobAllocation job = f.alloc(1, 1);
  nvmecr_rt::NvmecrSystem fast_sys(f.cluster, job, {});
  baselines::LustreModel pfs(f.cluster);

  std::unique_ptr<baselines::StorageClient> fast, slow;
  f.cluster.engine().run_task(
      [](nvmecr_rt::NvmecrSystem& fs, baselines::LustreModel& p,
         std::unique_ptr<baselines::StorageClient>& fc,
         std::unique_ptr<baselines::StorageClient>& sc) -> sim::Task<void> {
        auto f1 = co_await fs.connect(0);
        auto s1 = co_await p.connect(0);
        NVMECR_CHECK(f1.ok() && s1.ok());
        fc = std::move(*f1);
        sc = std::move(*s1);
        EXPECT_TRUE((co_await write_file(*fc, "/a", 4_MiB)).ok());
        EXPECT_TRUE((co_await write_file(*sc, "/a", 4_MiB)).ok());
      }(fast_sys, pfs, fast, slow));

  // Fast tier dies: the PFS copy still serves the checkpoint.
  f.fail_domain(f.primary_domain(job, 0));
  f.cluster.engine().run_task(
      [](baselines::StorageClient& fast_client,
         baselines::StorageClient& pfs_client) -> sim::Task<void> {
        EXPECT_FALSE((co_await read_file(fast_client, "/a", 4_MiB)).ok());
        EXPECT_TRUE((co_await read_file(pfs_client, "/a", 4_MiB)).ok());
      }(*fast, *slow));
}

// ---------------------------------------------------------------------------
// Balancer input validation (satellite)

TEST(BalancerValidationTest, RejectsDegenerateRequests) {
  RedundancyFixture f(4, 2);
  const fabric::Topology& topo = f.cluster.topology();

  nvmecr_rt::BalancerRequest req;
  req.storage_nodes = f.cluster.storage_nodes();
  auto r = nvmecr_rt::StorageBalancer::assign(topo, req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);  // no ranks

  req.rank_nodes = {f.cluster.compute_nodes()[0]};
  req.storage_nodes.clear();
  r = nvmecr_rt::StorageBalancer::assign(topo, req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);  // no storage

  req.storage_nodes = f.cluster.storage_nodes();
  req.num_ssds = 0;
  req.min_procs_per_ssd = 0;
  r = nvmecr_rt::StorageBalancer::assign(topo, req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);  // 0/0 sizing

  req.min_procs_per_ssd = 56;
  req.rank_nodes = {topo.node_count() + 5};
  r = nvmecr_rt::StorageBalancer::assign(topo, req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);  // out of range

  req.rank_nodes = {f.cluster.compute_nodes()[0]};
  r = nvmecr_rt::StorageBalancer::assign(topo, req);
  EXPECT_TRUE(r.ok()) << r.status().to_string();  // sane request passes
}

// ---------------------------------------------------------------------------
// CacheStats -> MetricsRegistry (satellite)

TEST(CacheMetricsTest, CacheStatsExportToRegistry) {
  RedundancyFixture f(4, 1);
  obs::MetricsRegistry metrics;
  JobAllocation job = f.alloc(1, 1);
  nvmecr_rt::NvmecrSystem sys(f.cluster, job, {});

  f.cluster.engine().run_task(
      [](RedundancyFixture& fx, nvmecr_rt::NvmecrSystem& s,
         obs::MetricsRegistry& reg) -> sim::Task<void> {
        auto conn = co_await s.connect(0);
        NVMECR_CHECK(conn.ok());
        auto inner = std::move(*conn);
        nvmecr_rt::CachedClient cache(fx.cluster.engine(), std::move(inner),
                                      /*capacity_bytes=*/64_MiB);
        cache.set_observer({nullptr, &reg});

        // Warm write populates the cache; the read-back is a pure hit.
        EXPECT_TRUE((co_await write_file(cache, "/warm", 8_MiB)).ok());
        EXPECT_TRUE((co_await read_file(cache, "/warm", 8_MiB)).ok());
        EXPECT_EQ(cache.stats().hit_bytes, 8_MiB);
        EXPECT_EQ(reg.find_counter("cache.hit_bytes")->value(), 8_MiB);
        EXPECT_EQ(reg.find_counter("cache.miss_bytes")->value(), 0u);
        EXPECT_EQ(reg.find_gauge("cache.resident_bytes")->value(),
                  static_cast<double>(8_MiB));

        // A big file pushes the warm one out: eviction shows up too.
        EXPECT_TRUE((co_await write_file(cache, "/big", 60_MiB)).ok());
        EXPECT_GE(reg.find_counter("cache.evictions")->value(), 1u);
        EXPECT_EQ(reg.find_counter("cache.evictions")->value(),
                  cache.stats().evictions);

        // A cold read after eviction is a miss.
        EXPECT_TRUE((co_await read_file(cache, "/warm", 8_MiB)).ok());
        EXPECT_EQ(reg.find_counter("cache.miss_bytes")->value(), 8_MiB);
        EXPECT_EQ(reg.find_gauge("cache.resident_bytes")->value(),
                  static_cast<double>(cache.stats().resident_bytes));
      }(f, sys, metrics));
}

}  // namespace
}  // namespace nvmecr
