// Parameterized sweeps (TEST_P) over the microfs configuration space and
// the device geometry: the same canonical workload + crash-recovery
// sequence must satisfy every invariant at every point of the grid.
#include <gtest/gtest.h>

#include <tuple>

#include "hw/nvme_ssd.h"
#include "hw/ram_device.h"
#include "microfs/microfs.h"
#include "simcore/engine.h"

namespace nvmecr::microfs {
namespace {

using namespace nvmecr::literals;

// ---------------------------------------------------------------------
// MicroFs configuration grid: hugeblock size x coalescing x submission
// batching. Each point runs a canonical multi-file workload, crashes,
// recovers, and checks namespace/content/accounting invariants.
// ---------------------------------------------------------------------

using FsConfig = std::tuple<uint64_t /*hugeblock*/, uint32_t /*window*/,
                            uint32_t /*io_batch*/>;

class MicroFsConfigSweep : public ::testing::TestWithParam<FsConfig> {
 protected:
  Options make_options() const {
    Options options;
    options.hugeblock_size = std::get<0>(GetParam());
    options.coalesce_window = std::get<1>(GetParam());
    options.io_batch_hugeblocks = std::get<2>(GetParam());
    options.log_slots = 512;
    return options;
  }
};

TEST_P(MicroFsConfigSweep, CanonicalWorkloadSurvivesCrash) {
  sim::Engine eng;
  hw::RamDevice dev(128_MiB, 4096);
  const Options options = make_options();

  uint64_t used_blocks_before_crash = 0;
  {
    auto fs = eng.run_task(MicroFs::format(eng, dev, options)).value();
    eng.run_task([](MicroFs& m, uint64_t& used) -> sim::Task<void> {
      EXPECT_TRUE((co_await m.mkdir("/ckpt")).ok());
      // Three generations of checkpoints with retention of two.
      for (int step = 0; step < 3; ++step) {
        auto fd = co_await m.creat("/ckpt/step" + std::to_string(step));
        EXPECT_TRUE(fd.ok());
        // Misaligned stream: header then fixed chunks.
        EXPECT_TRUE((co_await m.write_tagged(*fd, 200)).ok());
        for (int i = 0; i < 6; ++i) {
          EXPECT_TRUE((co_await m.write_tagged(*fd, 512_KiB)).ok());
        }
        EXPECT_TRUE((co_await m.fsync(*fd)).ok());
        EXPECT_TRUE((co_await m.close(*fd)).ok());
        if (step >= 2) {
          EXPECT_TRUE(
              (co_await m.unlink("/ckpt/step" + std::to_string(step - 2)))
                  .ok());
        }
      }
      // A byte-content file alongside the tagged ones.
      auto meta = co_await m.creat("/ckpt/manifest");
      std::vector<std::byte> bytes(3000, std::byte{0x6d});
      EXPECT_TRUE((co_await m.write(*meta, bytes)).ok());
      EXPECT_TRUE((co_await m.close(*meta)).ok());
      used = m.data_region_blocks() - m.free_blocks();
    }(*fs, used_blocks_before_crash));
    // Crash: no clean shutdown.
  }

  auto fs = eng.run_task(MicroFs::recover(eng, dev, options)).value();
  // Namespace invariant.
  auto names = fs->readdir("/ckpt");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"manifest", "step1", "step2"}));
  // Size + content invariants.
  const uint64_t expect_size = 200 + 6 * 512_KiB;
  EXPECT_EQ(fs->stat("/ckpt/step1")->size, expect_size);
  EXPECT_EQ(fs->stat("/ckpt/step2")->size, expect_size);
  EXPECT_EQ(fs->stat("/ckpt/manifest")->size, 3000u);
  eng.run_task([](MicroFs& m) -> sim::Task<void> {
    EXPECT_TRUE((co_await m.verify_tagged("/ckpt/step1")).ok());
    EXPECT_TRUE((co_await m.verify_tagged("/ckpt/step2")).ok());
    auto fd = co_await m.open("/ckpt/manifest", OpenFlags::ReadOnly());
    std::vector<std::byte> out(3000);
    EXPECT_EQ(*(co_await m.read(*fd, out)), 3000u);
    for (auto b : out) EXPECT_EQ(b, std::byte{0x6d});
    co_await m.close(*fd);
  }(*fs));
  // Block accounting invariant: recovery reconstructs exactly the same
  // allocation census the crashed instance had.
  EXPECT_EQ(fs->data_region_blocks() - fs->free_blocks(),
            used_blocks_before_crash);
  // Device-resident dirfile agrees with the namespace.
  eng.run_task([](MicroFs& m) -> sim::Task<void> {
    auto stream = co_await m.read_dirfile("/ckpt");
    EXPECT_TRUE(stream.ok());
    if (stream.ok()) {
      EXPECT_EQ(live_view(*stream).size(), 3u);
    }
  }(*fs));
}

TEST_P(MicroFsConfigSweep, OverwriteAfterRecoveryKeepsAccounting) {
  sim::Engine eng;
  hw::RamDevice dev(128_MiB, 4096);
  const Options options = make_options();
  {
    auto fs = eng.run_task(MicroFs::format(eng, dev, options)).value();
    eng.run_task([](MicroFs& m) -> sim::Task<void> {
      auto fd = co_await m.creat("/f");
      EXPECT_TRUE((co_await m.write_tagged(*fd, 2_MiB)).ok());
      co_await m.close(*fd);
    }(*fs));
  }
  auto fs = eng.run_task(MicroFs::recover(eng, dev, options)).value();
  // Truncate-recreate on the recovered instance, then write again.
  eng.run_task([](MicroFs& m) -> sim::Task<void> {
    auto fd = co_await m.creat("/f");  // O_TRUNC frees the old blocks
    EXPECT_TRUE((co_await m.write_tagged(*fd, 1_MiB)).ok());
    co_await m.close(*fd);
    EXPECT_TRUE((co_await m.verify_tagged("/f")).ok());
  }(*fs));
  const uint64_t hb = std::get<0>(GetParam());
  EXPECT_EQ(fs->stat("/f")->size, 1_MiB);
  // Exactly the file's blocks plus the root dirfile remain allocated.
  const uint64_t file_blocks = ceil_div(1_MiB, hb);
  const uint64_t used = fs->data_region_blocks() - fs->free_blocks();
  EXPECT_GE(used, file_blocks);
  EXPECT_LE(used, file_blocks + 2);  // root dirfile
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, MicroFsConfigSweep,
    ::testing::Combine(
        ::testing::Values(4_KiB, 8_KiB, 32_KiB, 128_KiB, 1_MiB),
        ::testing::Values(0u, 8u, 64u),
        ::testing::Values(1u, 16u, 256u)),
    [](const ::testing::TestParamInfo<FsConfig>& info) {
      return "hb" + std::to_string(std::get<0>(info.param) >> 10) +
             "K_win" + std::to_string(std::get<1>(info.param)) + "_batch" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------
// Device geometry sweep: channels x device RAM. Invariants: content
// integrity and sustained bandwidth bounded by the spec.
// ---------------------------------------------------------------------

using DevConfig = std::tuple<uint32_t /*channels*/, uint64_t /*ram*/>;

class SsdGeometrySweep : public ::testing::TestWithParam<DevConfig> {};

TEST_P(SsdGeometrySweep, SustainedWriteBoundedBySpec) {
  sim::Engine eng;
  hw::SsdSpec spec;
  spec.capacity = 2_GiB;
  spec.channels = std::get<0>(GetParam());
  spec.device_ram = std::get<1>(GetParam());
  hw::NvmeSsd ssd(eng, spec, "sweep");
  const uint32_t nsid = ssd.create_namespace(1_GiB).value();
  const uint32_t q = ssd.alloc_queue().value();
  auto dev = ssd.open_queue(nsid, q);
  constexpr uint64_t kTotal = 512_MiB;
  eng.run_task([](hw::BlockDevice& d) -> sim::Task<void> {
    for (uint64_t off = 0; off < kTotal; off += 4_MiB) {
      EXPECT_TRUE((co_await d.write_tagged(off, 4_MiB, 3, 128)).ok());
    }
    EXPECT_TRUE((co_await d.flush()).ok());
  }(*dev));
  const double bps = bandwidth_bps(kTotal, eng.now());
  EXPECT_LE(bps, static_cast<double>(spec.write_bw) * 1.02);
  EXPECT_GE(bps, static_cast<double>(spec.write_bw) * 0.80);
  // Integrity regardless of geometry.
  eng.run_task([](hw::BlockDevice& d) -> sim::Task<void> {
    auto tag = co_await d.read_tagged(0, kTotal);
    EXPECT_TRUE(tag.ok());
    if (tag.ok()) {
      EXPECT_EQ(*tag, hw::PayloadStore::expected_tag(3, d.tag_origin(),
                                                     kTotal, 4096));
    }
  }(*dev));
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, SsdGeometrySweep,
    ::testing::Combine(::testing::Values(1u, 4u, 7u, 16u),
                       ::testing::Values(uint64_t{0}, 64_MiB, 256_MiB)),
    [](const ::testing::TestParamInfo<DevConfig>& info) {
      return "ch" + std::to_string(std::get<0>(info.param)) + "_ram" +
             std::to_string(std::get<1>(info.param) >> 20) + "M";
    });

// ---------------------------------------------------------------------
// Payload store block-size sweep.
// ---------------------------------------------------------------------

class PayloadStoreBlockSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PayloadStoreBlockSweep, PatternRoundtripAtEveryBlockSize) {
  const uint32_t bs = GetParam();
  hw::PayloadStore store(bs);
  const uint64_t len = 16ull * bs;
  ASSERT_TRUE(store.write_pattern(bs, len, 9).ok());
  auto tag = store.read_combined_tag(bs, len);
  ASSERT_TRUE(tag.ok());
  EXPECT_EQ(*tag, hw::PayloadStore::expected_tag(9, bs, len, bs));
  // Partial overwrite changes exactly the covered blocks' contribution.
  ASSERT_TRUE(store.write_pattern(2 * bs, bs, 11).ok());
  auto tag2 = store.read_combined_tag(bs, len);
  ASSERT_TRUE(tag2.ok());
  EXPECT_EQ(*tag2, *tag - hw::PayloadStore::block_tag(9, 2) +
                       hw::PayloadStore::block_tag(11, 2));
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, PayloadStoreBlockSweep,
                         ::testing::Values(512u, 4096u, 16384u, 65536u));

}  // namespace
}  // namespace nvmecr::microfs
