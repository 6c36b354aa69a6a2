// End-to-end tests of the MicroFs filesystem: POSIX-surface semantics,
// durability, state checkpointing, crash recovery, and randomized
// recovery-equivalence property tests.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "hw/ram_device.h"
#include "microfs/microfs.h"
#include "simcore/engine.h"

namespace nvmecr::microfs {
namespace {

using namespace nvmecr::literals;

std::vector<std::byte> make_bytes(size_t n, unsigned char fill) {
  return std::vector<std::byte>(n, std::byte{fill});
}

struct Fixture {
  sim::Engine eng;
  hw::RamDevice dev{64_MiB, 4096};

  std::unique_ptr<MicroFs> format(Options options = {}) {
    auto fs = eng.run_task(MicroFs::format(eng, dev, options));
    NVMECR_CHECK(fs.ok());
    return std::move(fs).value();
  }
  std::unique_ptr<MicroFs> recover(Options options = {}) {
    auto fs = eng.run_task(MicroFs::recover(eng, dev, options));
    NVMECR_CHECK(fs.ok());
    return std::move(fs).value();
  }
};

// ---------------------------------------------------------------------
// Namespace semantics
// ---------------------------------------------------------------------

TEST(MicroFsTest, FormatCreatesRoot) {
  Fixture f;
  auto fs = f.format();
  auto st = fs->stat("/");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->ino, kRootIno);
  EXPECT_EQ(st->type, InodeType::kDirectory);
  EXPECT_TRUE(fs->readdir("/")->empty());
}

TEST(MicroFsTest, MkdirAndNesting) {
  Fixture f;
  auto fs = f.format();
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    EXPECT_TRUE((co_await m.mkdir("/ckpt")).ok());
    EXPECT_TRUE((co_await m.mkdir("/ckpt/step10")).ok());
    EXPECT_EQ((co_await m.mkdir("/ckpt")).code(), ErrorCode::kExists);
    EXPECT_EQ((co_await m.mkdir("/missing/sub")).code(),
              ErrorCode::kNotFound);
  }(*fs));
  auto names = fs->readdir("/");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"ckpt"});
}

TEST(MicroFsTest, PathValidation) {
  Fixture f;
  auto fs = f.format();
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    EXPECT_EQ((co_await m.mkdir("relative")).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ((co_await m.mkdir("/trailing/")).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ((co_await m.mkdir("/a//b")).code(),
              ErrorCode::kInvalidArgument);
    const std::string long_name(100, 'x');
    EXPECT_EQ((co_await m.mkdir("/" + long_name)).code(),
              ErrorCode::kNameTooLong);
  }(*fs));
}

TEST(MicroFsTest, CreatOpenCloseUnlink) {
  Fixture f;
  auto fs = f.format();
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    auto fd = co_await m.creat("/file");
    EXPECT_TRUE(fd.ok());
    EXPECT_EQ(m.open_file_count(), 1);
    EXPECT_TRUE((co_await m.close(*fd)).ok());
    EXPECT_EQ(m.open_file_count(), 0);
    EXPECT_EQ((co_await m.close(*fd)).code(), ErrorCode::kBadFd);

    auto fd2 = co_await m.open("/file", OpenFlags::ReadOnly());
    EXPECT_TRUE(fd2.ok());
    // Unlink while open is refused.
    EXPECT_FALSE((co_await m.unlink("/file")).ok());
    EXPECT_TRUE((co_await m.close(*fd2)).ok());
    EXPECT_TRUE((co_await m.unlink("/file")).ok());
    EXPECT_EQ((co_await m.open("/file", OpenFlags::ReadOnly())).status().code(),
              ErrorCode::kNotFound);
  }(*fs));
  EXPECT_EQ(fs->stats().creates, 1u);
  EXPECT_EQ(fs->stats().unlinks, 1u);
}

TEST(MicroFsTest, UnlinkNonEmptyDirRefused) {
  Fixture f;
  auto fs = f.format();
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    EXPECT_TRUE((co_await m.mkdir("/d")).ok());
    auto fd = co_await m.creat("/d/f");
    co_await m.close(*fd);
    EXPECT_EQ((co_await m.unlink("/d")).code(), ErrorCode::kNotEmpty);
    EXPECT_TRUE((co_await m.unlink("/d/f")).ok());
    EXPECT_TRUE((co_await m.unlink("/d")).ok());
  }(*fs));
}

TEST(MicroFsTest, PermissionChecks) {
  Fixture f;
  Options options;
  options.uid = 100;
  auto fs = f.format(options);
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    auto fd = co_await m.creat("/private", 0600);
    co_await m.close(*fd);
  }(*fs));
  // A different uid mounting the same partition cannot open 0600 files.
  Options other = options;
  other.uid = 200;
  auto fs2 = f.recover(other);
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    EXPECT_EQ((co_await m.open("/private", OpenFlags::ReadOnly()))
                  .status()
                  .code(),
              ErrorCode::kPermission);
    EXPECT_EQ((co_await m.open("/private", OpenFlags::ReadWrite()))
                  .status()
                  .code(),
              ErrorCode::kPermission);
  }(*fs2));
}

// ---------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------

TEST(MicroFsTest, ByteWriteReadRoundtrip) {
  Fixture f;
  auto fs = f.format();
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    auto fd = co_await m.creat("/data");
    auto first = make_bytes(10000, 0x41);
    auto second = make_bytes(5000, 0x42);
    EXPECT_EQ(*(co_await m.write(*fd, first)), 10000u);
    EXPECT_EQ(*(co_await m.write(*fd, second)), 5000u);
    co_await m.close(*fd);

    auto st = m.stat("/data");
    EXPECT_EQ(st->size, 15000u);

    auto rfd = co_await m.open("/data", OpenFlags::ReadOnly());
    std::vector<std::byte> out(15000);
    EXPECT_EQ(*(co_await m.read(*rfd, out)), 15000u);
    for (int i = 0; i < 10000; ++i) EXPECT_EQ(out[i], std::byte{0x41});
    for (int i = 10000; i < 15000; ++i) EXPECT_EQ(out[i], std::byte{0x42});
    co_await m.close(*rfd);
  }(*fs));
}

TEST(MicroFsTest, WritesSpanHugeblocks) {
  Fixture f;
  Options options;
  options.hugeblock_size = 32_KiB;
  auto fs = f.format(options);
  uint64_t used_before_write = 0;
  f.eng.run_task([](MicroFs& m, uint64_t& before) -> sim::Task<void> {
    auto fd = co_await m.creat("/big");
    before = m.data_region_blocks() - m.free_blocks();
    auto data = make_bytes(100000, 0x7e);  // > 3 hugeblocks
    EXPECT_TRUE((co_await m.write(*fd, data)).ok());
    co_await m.close(*fd);
    auto rfd = co_await m.open("/big", OpenFlags::ReadOnly());
    std::vector<std::byte> out(100000);
    EXPECT_EQ(*(co_await m.read(*rfd, out)), 100000u);
    EXPECT_EQ(out, data);
    co_await m.close(*rfd);
  }(*fs, used_before_write));
  // 100000 bytes / 32 KiB -> 4 hugeblocks beyond the root dirfile.
  EXPECT_EQ(fs->data_region_blocks() - fs->free_blocks(),
            used_before_write + 4);
}

TEST(MicroFsTest, TaggedWriteVerifies) {
  Fixture f;
  auto fs = f.format();
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    auto fd = co_await m.creat("/ckpt0");
    EXPECT_TRUE((co_await m.write_tagged(*fd, 1_MiB)).ok());
    EXPECT_TRUE((co_await m.write_tagged(*fd, 1_MiB)).ok());
    co_await m.close(*fd);
    EXPECT_TRUE((co_await m.verify_tagged("/ckpt0")).ok());
    EXPECT_EQ(m.stat("/ckpt0")->size, 2_MiB);
  }(*fs));
}

TEST(MicroFsTest, MixedContentKindsRejected) {
  Fixture f;
  auto fs = f.format();
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    auto fd = co_await m.creat("/mix");
    EXPECT_TRUE((co_await m.write_tagged(*fd, 64_KiB)).ok());
    auto data = make_bytes(100, 1);
    EXPECT_EQ((co_await m.write(*fd, data)).status().code(),
              ErrorCode::kInvalidArgument);
    std::vector<std::byte> out(100);
    EXPECT_EQ((co_await m.read(*fd, out)).status().code(),
              ErrorCode::kInvalidArgument);
    co_await m.close(*fd);
  }(*fs));
}

TEST(MicroFsTest, TruncateOnCreatReleasesBlocks) {
  Fixture f;
  auto fs = f.format();
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    auto fd = co_await m.creat("/t");
    const uint64_t used_empty = m.data_region_blocks() - m.free_blocks();
    EXPECT_TRUE((co_await m.write_tagged(*fd, 1_MiB)).ok());
    co_await m.close(*fd);
    const uint64_t used = m.data_region_blocks() - m.free_blocks();
    EXPECT_GT(used, used_empty);
    auto fd2 = co_await m.creat("/t");  // O_TRUNC
    co_await m.close(*fd2);
    // Back to only the root dirfile's block(s).
    EXPECT_EQ(m.data_region_blocks() - m.free_blocks(), used_empty);
    EXPECT_EQ(m.stat("/t")->size, 0u);
  }(*fs));
}

TEST(MicroFsTest, UnalignedTaggedStreamPaysPaddingAmplification) {
  Fixture f;
  Options options;
  options.hugeblock_size = 256_KiB;
  auto fs = f.format(options);
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    auto fd = co_await m.creat("/c");
    auto header = make_bytes(0, 0);
    // A 256-byte header followed by 1 MiB chunks misaligns every write.
    EXPECT_TRUE((co_await m.write_tagged(*fd, 256)).ok());
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE((co_await m.write_tagged(*fd, 1_MiB)).ok());
    }
    co_await m.close(*fd);
  }(*fs));
  // Device bytes exceed payload bytes: each misaligned 1 MiB write spans
  // 5 hugeblocks (1.25 MiB).
  EXPECT_GT(fs->stats().data_bytes_written,
            fs->stats().payload_bytes_written * 5 / 4 - 256_KiB);
}

TEST(MicroFsTest, DirfileOnDeviceMatchesNamespace) {
  Fixture f;
  auto fs = f.format();
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    EXPECT_TRUE((co_await m.mkdir("/dir")).ok());
    for (int i = 0; i < 5; ++i) {
      auto fd = co_await m.creat("/dir/f" + std::to_string(i));
      co_await m.close(*fd);
    }
    EXPECT_TRUE((co_await m.unlink("/dir/f2")).ok());

    auto stream = co_await m.read_dirfile("/dir");
    EXPECT_TRUE(stream.ok());
    auto live = live_view(*stream);
    std::set<std::string> names;
    for (const auto& d : live) names.insert(d.name);
    EXPECT_EQ(names, (std::set<std::string>{"f0", "f1", "f3", "f4"}));
  }(*fs));
}

// ---------------------------------------------------------------------
// State checkpointing + recovery
// ---------------------------------------------------------------------

TEST(MicroFsTest, ExplicitCheckpointTruncatesLog) {
  Fixture f;
  auto fs = f.format();
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      auto fd = co_await m.creat("/f" + std::to_string(i));
      co_await m.close(*fd);
    }
    const uint32_t before = m.log_free_slots();
    EXPECT_TRUE((co_await m.checkpoint_state()).ok());
    EXPECT_GT(m.log_free_slots(), before);
    EXPECT_EQ(m.log_free_slots(), m.log_capacity());
  }(*fs));
  EXPECT_GE(fs->stats().state_checkpoints, 2u);  // format + explicit
}

TEST(MicroFsTest, AutoCheckpointTriggersWhenLogFills) {
  Fixture f;
  Options options;
  options.log_slots = 32;
  options.checkpoint_free_threshold = 0.5;
  options.coalesce_window = 0;  // every op takes a slot
  auto fs = f.format(options);
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      auto fd = co_await m.creat("/f" + std::to_string(i));
      co_await m.close(*fd);  // close triggers the background thread check
    }
  }(*fs));
  f.eng.run();
  EXPECT_GE(fs->stats().state_checkpoints, 2u);
  EXPECT_GT(fs->log_free_slots(), 0u);
}

TEST(MicroFsTest, LogFullForcesInlineCheckpoint) {
  Fixture f;
  Options options;
  options.log_slots = 8;
  options.checkpoint_free_threshold = 0;  // no background checkpoint
  options.coalesce_window = 0;
  auto fs = f.format(options);
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    // 20 creates with an 8-slot ring: append must transparently force
    // checkpoints instead of failing.
    for (int i = 0; i < 20; ++i) {
      auto fd = co_await m.creat("/f" + std::to_string(i));
      EXPECT_TRUE(fd.ok());
      co_await m.close(*fd);
    }
  }(*fs));
  EXPECT_GT(fs->log_counters().forced_full, 0u);
  EXPECT_GE(fs->stats().state_checkpoints, 2u);
}

TEST(MicroFsTest, RecoverEmptyFilesystem) {
  Fixture f;
  { auto fs = f.format(); }
  auto fs = f.recover();
  EXPECT_TRUE(fs->stat("/").ok());
  EXPECT_TRUE(fs->readdir("/")->empty());
}

TEST(MicroFsTest, RecoverRestoresNamespaceAndBytes) {
  Fixture f;
  {
    auto fs = f.format();
    f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
      EXPECT_TRUE((co_await m.mkdir("/ckpt")).ok());
      auto fd = co_await m.creat("/ckpt/meta");
      auto data = make_bytes(5000, 0x33);
      EXPECT_TRUE((co_await m.write(*fd, data)).ok());
      co_await m.close(*fd);
    }(*fs));
    // No explicit checkpoint: recovery must replay the log.
  }
  auto fs = f.recover();
  EXPECT_GT(fs->stats().replayed_records, 0u);
  auto st = fs->stat("/ckpt/meta");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 5000u);
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    auto fd = co_await m.open("/ckpt/meta", OpenFlags::ReadOnly());
    std::vector<std::byte> out(5000);
    EXPECT_EQ(*(co_await m.read(*fd, out)), 5000u);
    for (auto b : out) EXPECT_EQ(b, std::byte{0x33});
    co_await m.close(*fd);
  }(*fs));
}

TEST(MicroFsTest, RecoverVerifiesTaggedCheckpointContent) {
  Fixture f;
  {
    auto fs = f.format();
    f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
      auto fd = co_await m.creat("/rank0.ckpt");
      for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE((co_await m.write_tagged(*fd, 1_MiB)).ok());
      }
      co_await m.close(*fd);
    }(*fs));
  }
  auto fs = f.recover();
  EXPECT_EQ(fs->stat("/rank0.ckpt")->size, 8_MiB);
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    // The recovered block mapping must point at the same device blocks
    // the original wrote — the tagged verify proves it byte-for-block.
    EXPECT_TRUE((co_await m.verify_tagged("/rank0.ckpt")).ok());
  }(*fs));
}

TEST(MicroFsTest, RecoverAfterCheckpointPlusTail) {
  Fixture f;
  {
    auto fs = f.format();
    f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
      auto fd = co_await m.creat("/a");
      EXPECT_TRUE((co_await m.write_tagged(*fd, 2_MiB)).ok());
      co_await m.close(*fd);
      EXPECT_TRUE((co_await m.checkpoint_state()).ok());
      // Post-checkpoint tail that only exists in the log.
      auto fd2 = co_await m.creat("/b");
      EXPECT_TRUE((co_await m.write_tagged(*fd2, 1_MiB)).ok());
      co_await m.close(*fd2);
    }(*fs));
  }
  auto fs = f.recover();
  EXPECT_EQ(fs->stat("/a")->size, 2_MiB);
  EXPECT_EQ(fs->stat("/b")->size, 1_MiB);
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    EXPECT_TRUE((co_await m.verify_tagged("/a")).ok());
    EXPECT_TRUE((co_await m.verify_tagged("/b")).ok());
  }(*fs));
}

TEST(MicroFsTest, CoalescingShrinksReplayLength) {
  auto run = [](uint32_t window) {
    Fixture f;
    Options options;
    options.coalesce_window = window;
    {
      auto fs = f.format(options);
      f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
        auto fd = co_await m.creat("/ckpt");
        for (int i = 0; i < 50; ++i) {
          EXPECT_TRUE((co_await m.write_tagged(*fd, 128_KiB)).ok());
        }
        co_await m.close(*fd);
      }(*fs));
    }
    auto fs = f.recover(options);
    return fs->stats().replayed_records;
  };
  const uint64_t with = run(64);
  const uint64_t without = run(0);
  EXPECT_EQ(with, 2u);      // create + one coalesced write
  EXPECT_EQ(without, 51u);  // create + 50 writes
}

// An append that runs out of hugeblocks is never logged, so it must not
// keep any block: replay would hand such blocks to a later file, whose
// recovered block map would then point at another file's data.
TEST(MicroFsTest, NoSpaceWriteKeepsNoBlocks) {
  Fixture f;
  const uint64_t B = Options{}.hugeblock_size;
  {
    auto fs = f.format();
    f.eng.run_task([](MicroFs& m, uint64_t hb) -> sim::Task<void> {
      auto a = co_await m.creat("/a");
      auto b = co_await m.creat("/b");
      EXPECT_TRUE((co_await m.write_tagged(*b, (m.free_blocks() - 8) * hb))
                      .ok());
      co_await m.close(*b);
      EXPECT_EQ(m.free_blocks(), 8u);

      EXPECT_EQ((co_await m.write_tagged(*a, 16 * hb)).code(),
                ErrorCode::kNoSpace);
      EXPECT_EQ(m.free_blocks(), 8u);
      EXPECT_EQ(m.stat("/a")->size, 0u);
      co_await m.close(*a);

      EXPECT_TRUE((co_await m.unlink("/b")).ok());
      auto c = co_await m.creat("/c");
      EXPECT_TRUE((co_await m.write_tagged(*c, 4 * hb)).ok());
      co_await m.close(*c);
      auto report = co_await m.fsck();
      EXPECT_TRUE(report.ok());
      if (report.ok()) {
        EXPECT_TRUE(report->clean()) << report->to_string();
      }
    }(*fs, B));
  }
  auto fs = f.recover();
  auto report = f.eng.run_task(fs->fsck());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->to_string();
  f.eng.run_task([](MicroFs& m) -> sim::Task<void> {
    Status s = co_await m.verify_tagged("/c");
    EXPECT_TRUE(s.ok()) << s.to_string();
  }(*fs));
}

// fsck counts each hugeblock a file holds once, and the count equals the
// pool's allocated blocks, also once unlinked files' blocks are reused
// and after recover() rebuilds the pool from the log.
TEST(MicroFsTest, FsckCountsEveryAllocatedBlockOnce) {
  Fixture f;
  const uint64_t B = Options{}.hugeblock_size;
  auto allocated = [](const MicroFs& m) {
    return m.data_region_blocks() - m.free_blocks();
  };
  auto check = [&allocated](MicroFs& m, sim::Engine& eng) {
    auto report = eng.run_task(m.fsck());
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean()) << report->to_string();
    EXPECT_EQ(report->blocks_referenced, allocated(m));
    // /small 4, /big 20, /g 6, and the root directory file's one block.
    EXPECT_EQ(report->blocks_referenced, 31u);
  };
  {
    auto fs = f.format();
    f.eng.run_task([](MicroFs& m, uint64_t hb) -> sim::Task<void> {
      // /big takes all but 10 blocks, /small 4 of those 10.
      auto big = co_await m.creat("/big");
      EXPECT_TRUE(
          (co_await m.write_tagged(*big, (m.free_blocks() - 10) * hb)).ok());
      co_await m.close(*big);
      auto small = co_await m.creat("/small");
      EXPECT_TRUE((co_await m.write_tagged(*small, 3 * hb + 1)).ok());
      co_await m.close(*small);
      // Re-created, /big (20 blocks) and /g (6) wrap the ring into
      // blocks the first /big held.
      EXPECT_TRUE((co_await m.unlink("/big")).ok());
      big = co_await m.creat("/big");
      EXPECT_TRUE((co_await m.write_tagged(*big, 20 * hb)).ok());
      co_await m.close(*big);
      auto g = co_await m.creat("/g");
      EXPECT_TRUE((co_await m.write_tagged(*g, 5 * hb + 100)).ok());
      co_await m.close(*g);
    }(*fs, B));
    check(*fs, f.eng);
  }
  auto fs = f.recover();
  check(*fs, f.eng);
}

/// A tagged device command: offset, length, subcmds.
using TaggedCmd = std::tuple<uint64_t, uint64_t, uint32_t>;

/// Forwards to `inner` and records every command submitted through it.
class CommandLog final : public hw::BlockDevice {
 public:
  explicit CommandLog(hw::BlockDevice& inner) : inner_(inner) {}
  uint64_t capacity() const override { return inner_.capacity(); }
  uint32_t hw_block_size() const override { return inner_.hw_block_size(); }
  uint64_t tag_origin() const override { return inner_.tag_origin(); }
  sim::Task<Status> submit(hw::IoCmd cmd, uint64_t* tag = nullptr) override {
    cmds.push_back(cmd);
    return inner_.submit(cmd, tag);
  }

  /// The tagged commands recorded since command `from`.
  std::vector<TaggedCmd> tagged_since(size_t from) const {
    std::vector<TaggedCmd> out;
    for (size_t i = from; i < cmds.size(); ++i) {
      if (cmds[i].tagged) {
        out.emplace_back(cmds[i].offset, cmds[i].len, cmds[i].subcmds);
      }
    }
    return out;
  }

  std::vector<hw::IoCmd> cmds;

 private:
  hw::BlockDevice& inner_;
};

/// Tagged IO over file hugeblocks [first, last] as a walk over the
/// per-hugeblock map issues it: from `first`, one command per stretch of
/// device-contiguous hugeblocks, at most `batch` each.
std::vector<TaggedCmd> per_block_walk(const std::vector<uint64_t>& blocks,
                                      uint64_t first, uint64_t last,
                                      uint64_t batch, uint64_t data_base,
                                      uint64_t B) {
  std::vector<TaggedCmd> out;
  for (uint64_t hb = first; hb <= last;) {
    uint64_t n = 1;
    while (hb + n <= last && n < batch &&
           blocks[hb + n] == blocks[hb + n - 1] + 1) {
      ++n;
    }
    out.emplace_back(data_base + blocks[hb] * B, n * B,
                     static_cast<uint32_t>(n));
    hb += n;
  }
  return out;
}

// Two files appended alternately get fragmented block maps, many runs of
// one hugeblock. Tagged IO over them must issue exactly the commands of
// the per-hugeblock walk: offsets, lengths and subcmds.
TEST(MicroFsTest, HugeblockIoFollowsFragmentedBlockMap) {
  sim::Engine eng;
  hw::RamDevice ram(64_MiB, 4096);
  CommandLog dev(ram);
  Options options;
  options.io_batch_hugeblocks = 4;
  const uint64_t B = options.hugeblock_size;
  auto fs = eng.run_task(MicroFs::format(eng, dev, options)).value();
  eng.run_task([](MicroFs& m, CommandLog& d, uint64_t B) -> sim::Task<void> {
    auto a = co_await m.creat("/a");
    auto b = co_await m.creat("/b");
    // The root dirfile holds block 0; a fresh pool hands out the rest in
    // index order, so the appends below map these blocks.
    EXPECT_EQ(m.data_region_blocks() - m.free_blocks(), 1u);
    uint64_t next = 1;
    std::vector<uint64_t> blocks[2];
    uint64_t data_base = 0;
    const uint64_t appends[] = {1, 1, 1, 1, 6, 1, 1, 3, 9, 2, 1, 1, 5};
    for (size_t i = 0; i < std::size(appends); ++i) {
      std::vector<uint64_t>& file = blocks[i % 2];
      const uint64_t first = file.size();
      for (uint64_t k = 0; k < appends[i]; ++k) file.push_back(next++);
      const int fd = i % 2 == 0 ? *a : *b;
      const size_t from = d.cmds.size();
      EXPECT_TRUE((co_await m.write_tagged(fd, appends[i] * B)).ok());
      const auto got = d.tagged_since(from);
      if (i == 0 && !got.empty()) data_base = std::get<0>(got[0]) - B;
      EXPECT_EQ(got, per_block_walk(file, first, file.size() - 1, 4,
                                    data_base, B))
          << "append " << i;
    }
    // The whole of /a (7 runs), then from the middle of its third run.
    EXPECT_EQ(blocks[0].size(), 24u);
    const uint64_t starts[] = {0, 3};
    for (const uint64_t from_hb : starts) {
      EXPECT_TRUE(m.seek(*a, from_hb * B + 100).ok());
      const size_t from = d.cmds.size();
      EXPECT_TRUE((co_await m.read_tagged(*a, 24 * B)).ok());
      EXPECT_EQ(d.tagged_since(from),
                per_block_walk(blocks[0], from_hb, 23, 4, data_base, B))
          << "read from hugeblock " << from_hb;
    }
    co_await m.close(*a);
    co_await m.close(*b);
    EXPECT_TRUE((co_await m.verify_tagged("/b")).ok());
  }(*fs, dev, B));
}

// Table I counts a file's block map as the per-hugeblock array the paper
// keeps: 38 appends of 128 hugeblocks grow it as a std::vector grows, to
// 8192 slots; a truncating open keeps the slots; an instance recovered
// from a state checkpoint sizes the array to the blocks it maps.
TEST(MicroFsTest, DramFootprintModelsPerHugeblockArrays) {
  sim::Engine eng;
  hw::RamDevice dev(256_MiB, 4096);
  const uint64_t B = Options{}.hugeblock_size;
  auto fs = eng.run_task(MicroFs::format(eng, dev)).value();
  uint64_t empty = 0;  // footprint with /ckpt created, no blocks mapped
  eng.run_task([](MicroFs& m, uint64_t B, uint64_t& empty) -> sim::Task<void> {
    auto fd = co_await m.creat("/ckpt");
    empty = m.dram_footprint();
    for (int i = 0; i < 38; ++i) {
      EXPECT_TRUE((co_await m.write_tagged(*fd, 128 * B)).ok());
    }
    co_await m.close(*fd);
    EXPECT_EQ(m.dram_footprint(), empty + 8192 * sizeof(uint64_t));
    EXPECT_TRUE((co_await m.checkpoint_state()).ok());
  }(*fs, B, empty));

  auto recovered = eng.run_task(MicroFs::recover(eng, dev)).value();
  EXPECT_EQ(recovered->dram_footprint(),
            empty + 38 * 128 * sizeof(uint64_t));

  eng.run_task([](MicroFs& m) -> sim::Task<void> {
    auto fd = co_await m.creat("/ckpt");  // O_TRUNC
    co_await m.close(*fd);
  }(*fs));
  EXPECT_EQ(fs->stat("/ckpt")->size, 0u);
  EXPECT_EQ(fs->dram_footprint(), empty + 8192 * sizeof(uint64_t));
}

TEST(MicroFsTest, MountOfGarbageDeviceFails) {
  sim::Engine eng;
  hw::RamDevice dev(8_MiB, 4096);
  auto fs = eng.run_task(MicroFs::recover(eng, dev));
  EXPECT_FALSE(fs.ok());
}

// ---------------------------------------------------------------------
// Randomized recovery-equivalence property test
// ---------------------------------------------------------------------

struct RefFile {
  uint64_t size = 0;
  bool tagged = false;
};

// Applies a random op sequence, then recovers from the device and checks
// the namespace, sizes, and tagged content all match a reference model.
void recovery_fuzz(uint64_t seed, Options options, int ops) {
  Fixture f;
  std::map<std::string, RefFile> ref;
  {
    auto fs = f.format(options);
    Rng rng(seed);
    f.eng.run_task([](MicroFs& m, std::map<std::string, RefFile>& model,
                      Rng& rand, int nops) -> sim::Task<void> {
      for (int i = 0; i < nops; ++i) {
        const uint64_t action = rand.uniform(10);
        const std::string path = "/f" + std::to_string(rand.uniform(12));
        if (action < 4) {  // create or truncate
          auto fd = co_await m.creat(path);
          EXPECT_TRUE(fd.ok());
          co_await m.close(*fd);
          model[path] = RefFile{};
        } else if (action < 8) {  // append
          auto it = model.find(path);
          if (it == model.end()) continue;
          auto fd = co_await m.open(path, OpenFlags::ReadWrite());
          EXPECT_TRUE(fd.ok());
          const uint64_t len = (1 + rand.uniform(64)) * 4_KiB;
          if (it->second.size == 0 || it->second.tagged) {
            EXPECT_TRUE((co_await m.write_tagged(*fd, len)).ok());
            it->second.tagged = true;
          } else {
            auto data = std::vector<std::byte>(len, std::byte{0x5c});
            EXPECT_TRUE((co_await m.write(*fd, data)).ok());
          }
          it->second.size += len;
          co_await m.close(*fd);
        } else if (action < 9) {  // unlink
          auto it = model.find(path);
          if (it == model.end()) continue;
          EXPECT_TRUE((co_await m.unlink(path)).ok());
          model.erase(it);
        } else {  // occasional explicit checkpoint
          EXPECT_TRUE((co_await m.checkpoint_state()).ok());
        }
      }
    }(*fs, ref, rng, ops));
  }

  auto fs = f.recover(options);
  // Namespace equivalence.
  auto names = fs->readdir("/");
  ASSERT_TRUE(names.ok());
  std::set<std::string> got(names->begin(), names->end());
  std::set<std::string> want;
  for (const auto& [path, file] : ref) want.insert(path.substr(1));
  EXPECT_EQ(got, want);
  // Size + content equivalence.
  f.eng.run_task([](MicroFs& m, std::map<std::string, RefFile>& model)
                     -> sim::Task<void> {
    for (const auto& [path, file] : model) {
      auto st = m.stat(path);
      EXPECT_TRUE(st.ok()) << path;
      if (!st.ok()) continue;
      EXPECT_EQ(st->size, file.size) << path;
      if (file.tagged && file.size > 0) {
        EXPECT_TRUE((co_await m.verify_tagged(path)).ok()) << path;
      }
    }
    co_return;
  }(*fs, ref));
}

TEST(MicroFsRecoveryPropertyTest, WithCoalescing) {
  Options options;
  recovery_fuzz(101, options, 160);
}

TEST(MicroFsRecoveryPropertyTest, WithoutCoalescing) {
  Options options;
  options.coalesce_window = 0;
  recovery_fuzz(202, options, 160);
}

TEST(MicroFsRecoveryPropertyTest, TinyLogForcesCheckpoints) {
  Options options;
  options.log_slots = 16;
  options.checkpoint_free_threshold = 0.4;
  recovery_fuzz(303, options, 160);
}

TEST(MicroFsRecoveryPropertyTest, SmallHugeblocks) {
  Options options;
  options.hugeblock_size = 8_KiB;
  recovery_fuzz(404, options, 120);
}

TEST(MicroFsRecoveryPropertyTest, BatchedSubmission) {
  Options options;
  options.io_batch_hugeblocks = 16;
  recovery_fuzz(505, options, 120);
}

}  // namespace
}  // namespace nvmecr::microfs
