// Offload pipeline tests: codec accounting, capability negotiation,
// per-stage host/target compute routing (digest, compression,
// delta-compaction), dead-target fallback to host compute, and the
// target-side XOR parity scheme's fabric savings + decode path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baselines/models.h"
#include "bench_util.h"
#include "nvmecr/runtime.h"
#include "offload/codec.h"
#include "offload/pipeline.h"
#include "redundancy/engine.h"
#include "redundancy/reconstruct.h"

namespace nvmecr {
namespace {

using namespace nvmecr::literals;
using nvmecr_rt::Cluster;
using nvmecr_rt::ClusterSpec;
using nvmecr_rt::JobAllocation;
using nvmecr_rt::Scheduler;
using offload::Codec;
using offload::OffloadOptions;
using offload::OffloadSystem;

// ---------------------------------------------------------------------------
// Codec

TEST(CodecTest, NoneIsIdentity) {
  const Codec c = offload::codec_none();
  EXPECT_FALSE(c.enabled());
  EXPECT_EQ(c.wire_bytes(4_MiB), 4_MiB);
  EXPECT_EQ(c.compress_cost(4_MiB), 0);
  EXPECT_EQ(c.decompress_cost(4_MiB), 0);
}

TEST(CodecTest, ShrinksAndCharges) {
  const Codec c = offload::codec_lz4_class();
  EXPECT_TRUE(c.enabled());
  EXPECT_EQ(c.wire_bytes(4_MiB), 2_MiB);
  EXPECT_EQ(c.wire_bytes(0), 0u);
  EXPECT_GE(c.wire_bytes(1), 1u);  // non-empty input never vanishes
  EXPECT_EQ(c.compress_cost(1000), 300);
  EXPECT_EQ(c.decompress_cost(1000), 150);
  // Decompression is cheaper than compression for every preset.
  for (const Codec& p : offload::codec_presets()) {
    EXPECT_LE(p.decompress_ns_per_byte, p.compress_ns_per_byte) << p.name;
  }
}

TEST(CodecTest, FindByName) {
  ASSERT_TRUE(offload::find_codec("zstd-class").has_value());
  EXPECT_DOUBLE_EQ(offload::find_codec("zstd-class")->ratio, 3.0);
  EXPECT_FALSE(offload::find_codec("gzip").has_value());
}

// ---------------------------------------------------------------------------
// Pipeline fixtures

// `path` by value: these coroutines are spawned deferred, so a caller's
// temporary string must be copied into the frame.
sim::Task<Status> write_file(baselines::StorageClient& c, std::string path,
                             uint64_t bytes) {
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

sim::Task<Status> read_file(baselines::StorageClient& c, std::string path,
                            uint64_t bytes) {
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

struct OffloadFixture {
  explicit OffloadFixture(uint32_t offload_caps = nvmf::kOffloadAll)
      : cluster(make_spec(offload_caps)), sched(cluster) {
    auto j = sched.allocate(/*nranks=*/2, /*procs_per_node=*/1, 256_MiB,
                            /*num_ssds=*/2);
    NVMECR_CHECK(j.ok());
    job = std::move(j).value();
    inner = std::make_unique<nvmecr_rt::NvmecrSystem>(cluster, job,
                                                      nvmecr_rt::RuntimeConfig{});
  }

  static ClusterSpec make_spec(uint32_t caps) {
    ClusterSpec spec;
    spec.compute_nodes = 2;
    spec.storage_nodes = 2;
    spec.pfs_servers = 2;  // LustreModel hosts OSSes on storage nodes
    spec.nvmf.offload_caps = caps;
    return spec;
  }

  std::unique_ptr<baselines::StorageClient> connect(OffloadSystem& sys,
                                                    int rank) {
    std::unique_ptr<baselines::StorageClient> out;
    cluster.engine().run_task(
        [](OffloadSystem& s, int r,
           std::unique_ptr<baselines::StorageClient>& o) -> sim::Task<void> {
          auto c = co_await s.connect(r);
          NVMECR_CHECK(c.ok());
          o = std::move(*c);
        }(sys, rank, out));
    return out;
  }

  Status run(sim::Task<Status> t) {
    Status out;
    cluster.engine().run_task(
        [](sim::Task<Status> task, Status& o) -> sim::Task<void> {
          o = co_await std::move(task);
        }(std::move(t), out));
    return out;
  }

  nvmf::NvmfTarget& target_of(uint32_t rank) {
    return cluster.target(cluster.storage_ssd_index(
        job.assignment.ssd_nodes[job.assignment.ssd_of_rank[rank]]));
  }

  Cluster cluster;
  Scheduler sched;
  JobAllocation job;
  std::unique_ptr<nvmecr_rt::NvmecrSystem> inner;
};

TEST(OffloadPipelineTest, NegotiationIntersectsAdvertisedCaps) {
  OffloadFixture f(nvmf::kOffloadDigest | nvmf::kOffloadCompress);
  OffloadOptions opts;
  opts.stages = nvmf::kOffloadAll;
  OffloadSystem sys(f.cluster, *f.inner, f.job, opts);
  auto client = f.connect(sys, 0);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(sys.granted(0), nvmf::kOffloadDigest | nvmf::kOffloadCompress);
  EXPECT_EQ(sys.fallbacks(), 0u);
}

TEST(OffloadPipelineTest, ZeroStagesSkipsNegotiation) {
  OffloadFixture f;
  OffloadOptions opts;
  opts.stages = 0;
  OffloadSystem sys(f.cluster, *f.inner, f.job, opts);
  auto client = f.connect(sys, 0);
  EXPECT_EQ(sys.granted(0), 0u);
}

TEST(OffloadPipelineTest, DigestRunsOnGrantedTarget) {
  OffloadFixture f;
  OffloadOptions opts;
  opts.stages = nvmf::kOffloadDigest;
  OffloadSystem sys(f.cluster, *f.inner, f.job, opts);
  auto client = f.connect(sys, 0);
  EXPECT_TRUE(f.run(write_file(*client, "/ckpt", 32_MiB)).ok());
  // The CRC ran on the target's offload cores, not the host.
  EXPECT_GT(f.target_of(0).compute_busy_ns(), 0u);
  EXPECT_EQ(sys.host_compute_ns(), 0u);
}

TEST(OffloadPipelineTest, DigestFallsBackToHostWithoutGrant) {
  OffloadFixture f;
  OffloadOptions opts;
  opts.stages = 0;  // nothing negotiated: digest must run host-side
  OffloadSystem sys(f.cluster, *f.inner, f.job, opts);
  auto client = f.connect(sys, 0);
  EXPECT_TRUE(f.run(write_file(*client, "/ckpt", 32_MiB)).ok());
  EXPECT_EQ(f.target_of(0).compute_busy_ns(), 0u);
  // 0.05 ns/B over 32 MiB.
  // Slack: the cost is charged per 4 MiB extent with ns truncation.
  EXPECT_GE(sys.host_compute_ns(), static_cast<uint64_t>(0.05 * 32_MiB) - 16);
}

TEST(OffloadPipelineTest, CompressedRoundTripTargetDecode) {
  OffloadFixture f;
  OffloadOptions opts;
  opts.stages = nvmf::kOffloadCompress;
  opts.digest_checks = false;
  opts.codec = offload::codec_lz4_class();
  OffloadSystem sys(f.cluster, *f.inner, f.job, opts);
  auto client = f.connect(sys, 0);
  EXPECT_TRUE(f.run(write_file(*client, "/ckpt", 32_MiB)).ok());
  // Host paid the compress cost and nothing else.
  const auto compress_ns =
      static_cast<uint64_t>(opts.codec.compress_cost(32_MiB));
  EXPECT_GE(sys.host_compute_ns(), compress_ns - 16);  // per-extent rounding
  // Half the bytes landed on the device.
  uint64_t stored = 0;
  for (uint64_t b : sys.bytes_per_server()) stored += b;
  EXPECT_LT(stored, 20_MiB);
  // Read back full raw size; the target pays the inflate.
  const uint64_t busy_before = f.target_of(0).compute_busy_ns();
  EXPECT_TRUE(f.run(read_file(*client, "/ckpt", 32_MiB)).ok());
  EXPECT_GE(f.target_of(0).compute_busy_ns() - busy_before,
            static_cast<uint64_t>(opts.codec.decompress_cost(32_MiB)) - 16);
  EXPECT_LE(sys.host_compute_ns(), compress_ns);  // no decompress charged
}

TEST(OffloadPipelineTest, CompressedRoundTripHostDecode) {
  OffloadFixture f;
  OffloadOptions opts;
  opts.stages = 0;  // codec on, no grant: decompression stays host-side
  opts.digest_checks = false;
  opts.codec = offload::codec_lz4_class();
  OffloadSystem sys(f.cluster, *f.inner, f.job, opts);
  auto client = f.connect(sys, 0);
  EXPECT_TRUE(f.run(write_file(*client, "/ckpt", 32_MiB)).ok());
  EXPECT_TRUE(f.run(read_file(*client, "/ckpt", 32_MiB)).ok());
  EXPECT_EQ(f.target_of(0).compute_busy_ns(), 0u);
  EXPECT_GE(sys.host_compute_ns(),
            static_cast<uint64_t>(opts.codec.compress_cost(32_MiB) +
                                  opts.codec.decompress_cost(32_MiB)) -
                32);
}

TEST(OffloadPipelineTest, CompactionMaterializesRestartImage) {
  OffloadFixture f;
  OffloadOptions opts;
  opts.stages = nvmf::kOffloadCompact;
  opts.digest_checks = false;
  OffloadSystem sys(f.cluster, *f.inner, f.job, opts);
  auto client = f.connect(sys, 0);
  // Full base then a small delta: the target folds the chain into a
  // full-size image covering the newest checkpoint.
  EXPECT_TRUE(f.run(write_file(*client, "/c0", 64_MiB)).ok());
  EXPECT_TRUE(f.run(write_file(*client, "/c1", 8_MiB)).ok());
  EXPECT_EQ(sys.restart_image_bytes(0, "/c0"), 0u);  // not the newest
  EXPECT_EQ(sys.restart_image_bytes(0, "/c1"), 64_MiB);
  EXPECT_GT(f.target_of(0).compute_busy_ns(), 0u);
  // Restart reads the one materialized image, not the delta chain.
  EXPECT_TRUE(f.run(read_file(*client, "/c1", 64_MiB)).ok());
  // Unlinking the covered checkpoint drops the image.
  EXPECT_TRUE(f.run([](baselines::StorageClient& c) -> sim::Task<Status> {
                co_return co_await c.unlink("/c1");
              }(*client))
                  .ok());
  EXPECT_EQ(sys.restart_image_bytes(0, "/c1"), 0u);
}

TEST(OffloadPipelineTest, DeadTargetFallsBackToHostCompute) {
  // Inner system independent of the NVMf target (PFS model), so the
  // data path survives the target daemon's death and only the offload
  // stages have to fall back.
  OffloadFixture f;
  baselines::LustreModel pfs(f.cluster);
  OffloadOptions opts;
  opts.stages = nvmf::kOffloadDigest;
  OffloadSystem sys(f.cluster, pfs, f.job, opts);
  auto client = f.connect(sys, 0);
  EXPECT_EQ(sys.granted(0), nvmf::kOffloadDigest);
  f.target_of(0).schedule_crash(f.cluster.engine().now());
  EXPECT_TRUE(f.run(write_file(*client, "/ckpt", 16_MiB)).ok());
  // Grant revoked, fallback recorded in the degraded manifest, CRC ran
  // host-side.
  EXPECT_EQ(sys.granted(0), 0u);
  EXPECT_EQ(sys.fallbacks(), 1u);
  ASSERT_FALSE(sys.fallback_log().empty());
  EXPECT_NE(sys.fallback_log().back().find("fell back"), std::string::npos);
  EXPECT_GT(sys.host_compute_ns(), 0u);
}

// ---------------------------------------------------------------------------
// Target-side XOR parity (redundancy::Scheme::kXorTarget)

struct XorRunResult {
  uint64_t ckpt_fabric_bytes = 0;
  uint64_t target_busy_ns = 0;
  uint64_t host_encode_ns = 0;
  bool recovered = false;
};

XorRunResult run_xor_scheme(redundancy::Scheme scheme, bool fail_and_recover) {
  ClusterSpec spec;
  spec.compute_nodes = 8;
  spec.storage_nodes = 8;
  spec.storage_racks = 8;
  Cluster cluster(spec);
  Scheduler sched(cluster);
  auto job = sched.allocate(/*nranks=*/8, /*procs_per_node=*/1, 256_MiB,
                            /*num_ssds=*/4);
  NVMECR_CHECK(job.ok());
  nvmecr_rt::NvmecrSystem primary(cluster, *job, {});
  auto dep = redundancy::deploy_redundancy(cluster, sched, primary, *job,
                                           scheme);
  NVMECR_CHECK(dep.ok());
  redundancy::RedundantSystem& sys = *dep->system;

  XorRunResult res;
  std::vector<std::unique_ptr<baselines::StorageClient>> clients(8);
  sim::Engine& eng = cluster.engine();
  eng.run_task(
      [](sim::Engine& e, Cluster& cl, redundancy::RedundantSystem& s,
         std::vector<std::unique_ptr<baselines::StorageClient>>& cs,
         XorRunResult& r) -> sim::Task<void> {
        for (uint32_t rank = 0; rank < 8; ++rank) {
          auto c = co_await s.connect(static_cast<int>(rank));
          NVMECR_CHECK(c.ok());
          cs[rank] = std::move(*c);
        }
        const uint64_t fabric0 = cl.network().total_bytes_sent();
        sim::StatusJoiner joiner(e);
        for (uint32_t rank = 0; rank < 8; ++rank) {
          joiner.spawn(write_file(*cs[rank], "/ckpt", 16_MiB));
        }
        NVMECR_CHECK((co_await joiner.join()).ok());
        co_await s.quiesce();
        r.ckpt_fabric_bytes = cl.network().total_bytes_sent() - fabric0;
      }(eng, cluster, sys, clients, res));
  for (uint32_t t = 0; t < 8; ++t) {
    res.target_busy_ns += cluster.target(t).compute_busy_ns();
  }
  res.host_encode_ns = sys.host_encode_ns();
  EXPECT_EQ(sys.degraded_files(), 0u) << redundancy::scheme_name(scheme);

  if (fail_and_recover) {
    // Lose rank 0's primary failure domain, then rebuild through the
    // reconstruction view.
    const fabric::RackId lost = cluster.topology().failure_domain(
        job->assignment.ssd_nodes[job->assignment.ssd_of_rank[0]]);
    for (fabric::NodeId n : cluster.storage_nodes()) {
      if (cluster.topology().failure_domain(n) == lost) {
        cluster.storage_ssd(cluster.storage_ssd_index(n)).fail_device();
      }
    }
    redundancy::Reconstructor recon(sys);
    auto view = recon.client(0);
    eng.run_task(
        [](std::unique_ptr<baselines::StorageClient>& v,
           XorRunResult& r) -> sim::Task<void> {
          r.recovered = (co_await read_file(*v, "/ckpt", 16_MiB)).ok();
        }(view, res));
    const redundancy::RecoveryReport* rep = recon.find_report(0, "/ckpt");
    EXPECT_TRUE(rep != nullptr && rep->digest_ok);
    if (rep != nullptr) {
      EXPECT_EQ(rep->source, redundancy::RecoverySource::kXor);
    }
  }
  return res;
}

/// Checkpoint fabric bytes of an 8-rank CoMD job (one rank per node,
/// ~149 MiB per rank per checkpoint, 2 checkpoints, no restart) over the
/// same XOR set size of 4.
uint64_t comd_xor_fabric_bytes(redundancy::Scheme scheme) {
  workloads::ComdParams params = bench::weak_scaling_params(8);
  params.procs_per_node = 1;
  params.checkpoints = 2;
  params.do_recovery = false;
  ClusterSpec spec;
  spec.compute_nodes = 8;
  spec.storage_nodes = 8;
  spec.storage_racks = 8;
  Cluster cluster(spec);
  Scheduler sched(cluster);
  auto job = sched.allocate(params.nranks, params.procs_per_node,
                            bench::partition_for(params) * 2,
                            /*num_ssds=*/4);
  NVMECR_CHECK(job.ok());
  nvmecr_rt::NvmecrSystem primary(cluster, *job,
                                  bench::default_runtime_config());
  auto dep = redundancy::deploy_redundancy(cluster, sched, primary, *job,
                                           scheme);
  NVMECR_CHECK(dep.ok());
  const uint64_t fabric0 = cluster.network().total_bytes_sent();
  NVMECR_CHECK(workloads::ComdDriver::run(cluster, *dep->system, params).ok());
  return cluster.network().total_bytes_sent() - fabric0;
}

TEST(XorTargetTest, SavesFabricBytesAndMovesEncodeToTargets) {
  const XorRunResult host = run_xor_scheme(redundancy::Scheme::kXor, false);
  const XorRunResult tgt =
      run_xor_scheme(redundancy::Scheme::kXorTarget, false);
  // Host-side encode burns host CPU and ships parity over the fabric;
  // target-side burns target compute and keeps parity writes loopback.
  EXPECT_GT(host.host_encode_ns, 0u);
  EXPECT_EQ(host.target_busy_ns, 0u);
  EXPECT_EQ(tgt.host_encode_ns, 0u);
  EXPECT_GT(tgt.target_busy_ns, 0u);
  ASSERT_GT(host.ckpt_fabric_bytes, 0u);
  const double savings =
      1.0 - static_cast<double>(tgt.ckpt_fabric_bytes) /
                static_cast<double>(host.ckpt_fabric_bytes);
  EXPECT_GE(savings, 0.15) << "fabric " << host.ckpt_fabric_bytes << " -> "
                           << tgt.ckpt_fabric_bytes;

  // Second case: the CoMD job saves at least a quarter of its
  // checkpoint fabric bytes.
  const uint64_t comd_host = comd_xor_fabric_bytes(redundancy::Scheme::kXor);
  const uint64_t comd_tgt =
      comd_xor_fabric_bytes(redundancy::Scheme::kXorTarget);
  ASSERT_GT(comd_host, 0u);
  const double comd_savings = 1.0 - static_cast<double>(comd_tgt) /
                                        static_cast<double>(comd_host);
  EXPECT_GE(comd_savings, 0.25) << "fabric " << comd_host << " -> "
                                << comd_tgt;
}

TEST(XorTargetTest, DecodesAfterDomainLoss) {
  const XorRunResult r = run_xor_scheme(redundancy::Scheme::kXorTarget, true);
  EXPECT_TRUE(r.recovered);
}

}  // namespace
}  // namespace nvmecr
