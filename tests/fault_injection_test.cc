// Failure-injection tests: media errors, whole-device loss, silent
// corruption of on-device structures, and torn internal-state
// checkpoints. The runtime's guarantee (§III-E): "a completely written
// checkpoint file will never hold corrupted data and can safely be used
// for recovery" — errors must surface as errors, never as silent bad
// data.
#include <gtest/gtest.h>

#include "hw/nvme_ssd.h"
#include "hw/ram_device.h"
#include "microfs/microfs.h"
#include "nvmecr/runtime.h"
#include "redundancy/engine.h"
#include "simcore/engine.h"

namespace nvmecr {
namespace {

using namespace nvmecr::literals;

struct SsdFsFixture {
  sim::Engine eng;
  hw::NvmeSsd ssd{eng, hw::SsdSpec{.capacity = 8_GiB}};
  uint32_t nsid = ssd.create_namespace(1_GiB).value();
  uint32_t queue = ssd.alloc_queue().value();
  std::unique_ptr<hw::BlockDevice> dev = ssd.open_queue(nsid, queue);

  std::unique_ptr<microfs::MicroFs> format(microfs::Options options = {}) {
    return eng.run_task(microfs::MicroFs::format(eng, *dev, options)).value();
  }
};

TEST(FaultInjectionTest, InjectedIoErrorPropagatesThroughWrite) {
  SsdFsFixture f;
  auto fs = f.format();
  f.eng.run_task([](SsdFsFixture& fx, microfs::MicroFs& m) -> sim::Task<void> {
    auto fd = co_await m.creat("/a");
    EXPECT_TRUE(fd.ok());
    fx.ssd.inject_io_errors(1);
    // The next device command (the data write) fails; microfs surfaces it.
    Status s = co_await m.write_tagged(*fd, 1_MiB);
    EXPECT_EQ(s.code(), ErrorCode::kIoError);
    // After the injected error drains, writes work again.
    EXPECT_TRUE((co_await m.write_tagged(*fd, 1_MiB)).ok());
    co_await m.close(*fd);
  }(f, *fs));
}

TEST(FaultInjectionTest, FailedDeviceErrorsEverything) {
  SsdFsFixture f;
  auto fs = f.format();
  f.eng.run_task([](SsdFsFixture& fx, microfs::MicroFs& m) -> sim::Task<void> {
    auto fd = co_await m.creat("/a");
    EXPECT_TRUE((co_await m.write_tagged(*fd, 64_KiB)).ok());
    fx.ssd.fail_device();
    EXPECT_EQ((co_await m.write_tagged(*fd, 64_KiB)).code(),
              ErrorCode::kIoError);
    // Metadata ops also reach the device (log append) and fail.
    EXPECT_EQ((co_await m.creat("/b")).status().code(), ErrorCode::kIoError);
  }(f, *fs));
}

TEST(FaultInjectionTest, CorruptedLogRecordsAreSkippedOnRecovery) {
  SsdFsFixture f;
  microfs::Options options;
  options.coalesce_window = 0;
  {
    auto fs = f.format(options);
    f.eng.run_task([](microfs::MicroFs& m) -> sim::Task<void> {
      for (int i = 0; i < 4; ++i) {
        auto fd = co_await m.creat("/f" + std::to_string(i));
        EXPECT_TRUE((co_await m.write_tagged(*fd, 64_KiB)).ok());
        co_await m.close(*fd);
      }
    }(*fs));
  }
  // Smash a byte in the middle of the log region (starts at 4096; each
  // slot is 192 B): records with bad CRCs are ignored, the rest replay.
  ASSERT_TRUE(f.ssd.corrupt_media(f.nsid, 4096 + 2 * 192 + 10, 4).ok());
  auto fs = f.eng.run_task(microfs::MicroFs::recover(f.eng, *f.dev, options));
  ASSERT_TRUE(fs.ok());
  // Some records were lost, but recovery is consistent: whatever files
  // survive verify cleanly.
  auto names = (*fs)->readdir("/");
  ASSERT_TRUE(names.ok());
  EXPECT_LT(names->size(), 4u);
  f.eng.run_task([](microfs::MicroFs& m,
                    std::vector<std::string> survivors) -> sim::Task<void> {
    for (const auto& n : survivors) {
      EXPECT_TRUE((co_await m.verify_tagged("/" + n)).ok()) << n;
    }
  }(**fs, *names));
}

TEST(FaultInjectionTest, TornStateCheckpointFallsBackToOlderRegion) {
  SsdFsFixture f;
  microfs::Options options;
  options.checkpoint_free_threshold = 0;  // no background checkpoint
  {
    auto fs = f.format(options);
    f.eng.run_task([](microfs::MicroFs& m) -> sim::Task<void> {
      auto fd = co_await m.creat("/before");
      EXPECT_TRUE((co_await m.write_tagged(*fd, 128_KiB)).ok());
      co_await m.close(*fd);
      // Format wrote the epoch-2 checkpoint (region A); this one is
      // epoch 3 (region B) and becomes the newest.
      EXPECT_TRUE((co_await m.checkpoint_state()).ok());
      // Post-checkpoint tail lives only in the log (epoch-3 records).
      auto fd2 = co_await m.creat("/after");
      EXPECT_TRUE((co_await m.write_tagged(*fd2, 64_KiB)).ok());
      co_await m.close(*fd2);
    }(*fs));
  }
  // Corrupt the NEWEST checkpoint region. Geometry: log at 4096 with
  // 4096 slots of 192 B (rounded to 4 KiB); epoch 3 is odd -> region B.
  const uint64_t log_bytes = round_up(4096ull * 192, 4096);
  const uint64_t ckpt_bytes = [&] {
    // Mirror compute_geometry's auto sizing for this namespace.
    const uint64_t upper_blocks = f.dev->capacity() / (32_KiB);
    return round_up(std::max<uint64_t>(256_KiB, 64_KiB + 16 * upper_blocks),
                    4096);
  }();
  const uint64_t region_b = 4096 + log_bytes + ckpt_bytes;
  ASSERT_TRUE(f.ssd.corrupt_media(f.nsid, region_b + 8, 16).ok());

  auto fs = f.eng.run_task(microfs::MicroFs::recover(f.eng, *f.dev, options));
  ASSERT_TRUE(fs.ok());
  // Fallback to the epoch-2 checkpoint + replay of the epoch>=2 log tail
  // still reconstructs everything.
  EXPECT_TRUE((*fs)->stat("/before").ok());
  EXPECT_TRUE((*fs)->stat("/after").ok());
  f.eng.run_task([](microfs::MicroFs& m) -> sim::Task<void> {
    EXPECT_TRUE((co_await m.verify_tagged("/before")).ok());
    EXPECT_TRUE((co_await m.verify_tagged("/after")).ok());
  }(**fs));
}

TEST(FaultInjectionTest, VerifyDetectsDirectDataCorruption) {
  // Deterministic variant: corrupt the exact data region start.
  sim::Engine eng;
  hw::RamDevice dev(64_MiB, 4096);
  microfs::Options options;
  auto fs = eng.run_task(microfs::MicroFs::format(eng, dev, options)).value();
  eng.run_task([](microfs::MicroFs& m) -> sim::Task<void> {
    auto fd = co_await m.creat("/ckpt");
    EXPECT_TRUE((co_await m.write_tagged(*fd, 1_MiB)).ok());
    co_await m.close(*fd);
    EXPECT_TRUE((co_await m.verify_tagged("/ckpt")).ok());
  }(*fs));
  // Overwrite a wide swath covering the front of the data region with a
  // different pattern (firmware-level corruption); the file's hugeblocks
  // live there.
  eng.run_task([](hw::RamDevice& d) -> sim::Task<void> {
    EXPECT_TRUE(
        (co_await d.write_tagged(1_MiB, 48_MiB, /*seed=*/0xbad)).ok());
  }(dev));
  eng.run_task([](microfs::MicroFs& m) -> sim::Task<void> {
    Status s = co_await m.verify_tagged("/ckpt");
    EXPECT_EQ(s.code(), ErrorCode::kCorruption);
  }(*fs));
}

TEST(FaultInjectionTest, MultiErrorBurstFailsEachOpThenDrains) {
  SsdFsFixture f;
  auto fs = f.format();
  f.eng.run_task([](SsdFsFixture& fx, microfs::MicroFs& m) -> sim::Task<void> {
    auto fd = co_await m.creat("/a");
    EXPECT_TRUE(fd.ok());
    // A burst of three media errors: each op's first device command (the
    // data write) consumes one injection and aborts the op, so exactly
    // the next three writes fail, then service resumes.
    fx.ssd.inject_io_errors(3);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ((co_await m.write_tagged(*fd, 256_KiB)).code(),
                ErrorCode::kIoError)
          << "burst op " << i;
    }
    EXPECT_TRUE((co_await m.write_tagged(*fd, 256_KiB)).ok());
    EXPECT_TRUE((co_await m.close(*fd)).ok());
    // The namespace only reflects the successful write.
    EXPECT_TRUE((co_await m.verify_tagged("/a")).ok());
  }(f, *fs));
  EXPECT_EQ(fs->stat("/a")->size, 256_KiB);
}

TEST(FaultInjectionTest, GroupCommitDrainErrorRetainsDirtySlots) {
  SsdFsFixture f;
  microfs::Options options;
  options.coalesce_window = 64;
  options.checkpoint_free_threshold = 0;  // no background checkpoint
  auto fs = f.format(options);
  f.eng.run_task([](SsdFsFixture& fx, microfs::MicroFs& m) -> sim::Task<void> {
    auto fd = co_await m.creat("/a");
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE((co_await m.write_tagged(*fd, 64_KiB)).ok());
    // Coalesced extension: the WRITE record is updated in DRAM and its
    // slot rewrite deferred to the next flush point.
    EXPECT_TRUE((co_await m.write_tagged(*fd, 64_KiB)).ok());
    EXPECT_GE(m.log_dirty_slots(), 1u);

    // The drain write is the first device command fsync issues; fail it.
    fx.ssd.inject_io_errors(1);
    EXPECT_EQ((co_await m.fsync(*fd)).code(), ErrorCode::kIoError);
    // The failed rewrite must stay dirty — dropping it would let a later
    // crash replay the stale (shorter) record silently.
    EXPECT_GE(m.log_dirty_slots(), 1u);

    // Retry succeeds and clears the dirty set.
    EXPECT_TRUE((co_await m.fsync(*fd)).ok());
    EXPECT_EQ(m.log_dirty_slots(), 0u);
    EXPECT_TRUE((co_await m.close(*fd)).ok());
  }(f, *fs));
  // Crash/recover: the retried rewrite is what replays.
  fs.reset();
  auto rec = f.eng.run_task(microfs::MicroFs::recover(f.eng, *f.dev, options));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->stat("/a")->size, 128_KiB);
  f.eng.run_task([](microfs::MicroFs& m) -> sim::Task<void> {
    EXPECT_TRUE((co_await m.verify_tagged("/a")).ok());
  }(**rec));
}

TEST(FaultInjectionTest, XorParityWriteErrorDegradesNotCorrupts) {
  nvmecr_rt::ClusterSpec spec;
  spec.compute_nodes = 4;
  spec.storage_nodes = 5;
  spec.storage_racks = 5;
  nvmecr_rt::Cluster cluster(spec);
  nvmecr_rt::Scheduler sched(cluster);
  auto job = sched.allocate(/*nranks=*/4, /*procs_per_node=*/1, 256_MiB,
                            /*ssds=*/4);
  ASSERT_TRUE(job.ok());
  nvmecr_rt::NvmecrSystem primary(cluster, *job, {});
  auto dep = redundancy::deploy_redundancy(cluster, sched, primary, *job,
                                           redundancy::Scheme::kXor);
  ASSERT_TRUE(dep.ok()) << dep.status().to_string();
  redundancy::RedundantSystem& sys = *dep->system;

  std::vector<std::unique_ptr<baselines::StorageClient>> clients;
  cluster.engine().run_task(
      [](nvmecr_rt::Cluster& cl, const nvmecr_rt::JobAllocation& store_job,
         redundancy::RedundantSystem& s,
         std::vector<std::unique_ptr<baselines::StorageClient>>& cs)
          -> sim::Task<void> {
        std::vector<int> fds;
        for (uint32_t r = 0; r < 4; ++r) {
          auto c = co_await s.connect(static_cast<int>(r));
          NVMECR_CHECK(c.ok());
          cs.push_back(std::move(*c));
          auto fd = co_await cs.back()->create("/ckpt0");
          EXPECT_TRUE(fd.ok());
          EXPECT_TRUE((co_await cs.back()->write(*fd, 8_MiB)).ok());
          fds.push_back(*fd);
        }
        // Parity encodes fire once the whole erasure set has closed;
        // poison every store-side SSD so those background writes fail.
        for (fabric::NodeId n : store_job.assignment.ssd_nodes) {
          cl.storage_ssd(cl.storage_ssd_index(n)).inject_io_errors(1000);
        }
        for (uint32_t r = 0; r < 4; ++r) {
          EXPECT_TRUE((co_await cs[r]->close(fds[r])).ok());
        }
        co_await s.quiesce();
      }(cluster, dep->store_job, sys, clients));

  // Clear leftover injections (a store SSD can double as another rank's
  // primary) before exercising the read path.
  for (fabric::NodeId n : dep->store_job.assignment.ssd_nodes) {
    cluster.storage_ssd(cluster.storage_ssd_index(n)).inject_io_errors(0);
  }

  // The checkpoint is degraded (no parity protection), never corrupted:
  // manifests say parity_ok == false and the primary copy still reads.
  EXPECT_GT(sys.degraded_files(), 0u);
  for (uint32_t r = 0; r < 4; ++r) {
    const redundancy::FileManifest* m = sys.manifest(r, "/ckpt0");
    ASSERT_NE(m, nullptr) << "rank " << r;
    EXPECT_TRUE(m->complete) << "rank " << r;
    EXPECT_FALSE(m->parity_ok) << "rank " << r;
  }
  cluster.engine().run_task(
      [](std::vector<std::unique_ptr<baselines::StorageClient>>& cs)
          -> sim::Task<void> {
        auto fd = co_await cs[0]->open_read("/ckpt0");
        EXPECT_TRUE(fd.ok());
        EXPECT_TRUE((co_await cs[0]->read(*fd, 8_MiB)).ok());
        EXPECT_TRUE((co_await cs[0]->close(*fd)).ok());
      }(clients));
}

TEST(FaultInjectionTest, ErrorMidRecoverSurfacesTypedNeverCorrupts) {
  SsdFsFixture f;
  microfs::Options options;
  options.coalesce_window = 0;
  {
    auto fs = f.format(options);
    f.eng.run_task([](microfs::MicroFs& m) -> sim::Task<void> {
      EXPECT_TRUE((co_await m.mkdir("/d")).ok());
      for (int i = 0; i < 6; ++i) {
        auto fd = co_await m.creat("/d/f" + std::to_string(i));
        EXPECT_TRUE(fd.ok());
        EXPECT_TRUE((co_await m.write_tagged(*fd, 96_KiB)).ok());
        EXPECT_TRUE((co_await m.close(*fd)).ok());
      }
    }(*fs));
  }
  // Sweep the error over successive device commands of the recovery
  // path (superblock, checkpoint regions, log scan): each attempt must
  // either mount a consistent filesystem or fail with a typed error.
  int failures = 0, successes = 0;
  for (uint32_t k = 0; k < 24; ++k) {
    f.ssd.inject_io_errors(1, /*after=*/k);
    auto fs = f.eng.run_task(microfs::MicroFs::recover(f.eng, *f.dev, options));
    f.ssd.inject_io_errors(0);  // clear any unconsumed injection
    if (!fs.ok()) {
      ++failures;
      const ErrorCode code = fs.status().code();
      EXPECT_TRUE(code == ErrorCode::kIoError ||
                  code == ErrorCode::kCorruption)
          << "k=" << k << ": " << fs.status().to_string();
      continue;
    }
    ++successes;
    // A mount that claims success must be fully consistent.
    auto report = f.eng.run_task((*fs)->fsck());
    ASSERT_TRUE(report.ok()) << "k=" << k;
    EXPECT_TRUE(report->clean()) << "k=" << k << "\n" << report->to_string();
    EXPECT_EQ((*fs)->readdir("/d")->size(), 6u) << "k=" << k;
  }
  // The sweep crossed both regimes.
  EXPECT_GT(failures, 0);
  EXPECT_GT(successes, 0);
}

}  // namespace
}  // namespace nvmecr
