// Endurance/stress tests: operation-log ring wraparound across many
// state-checkpoint epochs, deep directory hierarchies, and long
// create/write/unlink cycles that must not leak hugeblocks or log slots.
#include <gtest/gtest.h>

#include "crashsim/workload.h"
#include "hw/ram_device.h"
#include "microfs/microfs.h"
#include "simcore/engine.h"

namespace nvmecr::microfs {
namespace {

using namespace nvmecr::literals;

TEST(StressTest, LogRingWrapsManyEpochs) {
  sim::Engine eng;
  hw::RamDevice dev(128_MiB, 4096);
  Options options;
  options.log_slots = 24;           // tiny ring: wraps constantly
  options.coalesce_window = 0;      // every op takes a slot
  options.checkpoint_free_threshold = 0.5;
  auto fs = eng.run_task(MicroFs::format(eng, dev, options)).value();
  eng.run_task([](MicroFs& m) -> sim::Task<void> {
    for (int round = 0; round < 40; ++round) {
      const std::string path = "/r" + std::to_string(round % 6);
      auto fd = co_await m.creat(path);  // truncates on reuse
      EXPECT_TRUE(fd.ok());
      EXPECT_TRUE((co_await m.write_tagged(*fd, 256_KiB)).ok());
      EXPECT_TRUE((co_await m.close(*fd)).ok());
    }
  }(*fs));
  eng.run();
  // Dozens of forced/background checkpoints, slots always recycled.
  EXPECT_GT(fs->stats().state_checkpoints, 5u);
  EXPECT_LE(fs->log_capacity() - fs->log_free_slots(), 24u);
  // Recovery after heavy wraparound reconstructs the live namespace.
  fs.reset();
  auto rec = eng.run_task(MicroFs::recover(eng, dev, options)).value();
  auto names = rec->readdir("/");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 6u);
  eng.run_task([](MicroFs& m,
                  std::vector<std::string> files) -> sim::Task<void> {
    for (const auto& n : files) {
      EXPECT_TRUE((co_await m.verify_tagged("/" + n)).ok()) << n;
    }
  }(*rec, *names));
}

TEST(StressTest, DeepDirectoryHierarchy) {
  sim::Engine eng;
  hw::RamDevice dev(128_MiB, 4096);
  auto fs = eng.run_task(MicroFs::format(eng, dev, {})).value();
  std::string path;
  eng.run_task([](MicroFs& m, std::string& deepest) -> sim::Task<void> {
    std::string p;
    for (int depth = 0; depth < 24; ++depth) {
      p += "/d" + std::to_string(depth);
      EXPECT_TRUE((co_await m.mkdir(p)).ok()) << p;
    }
    auto fd = co_await m.creat(p + "/leaf");
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE((co_await m.write_tagged(*fd, 64_KiB)).ok());
    EXPECT_TRUE((co_await m.close(*fd)).ok());
    deepest = p;
  }(*fs, path));
  // Every level lists exactly its child; crash-recover and re-check.
  fs.reset();
  auto rec = eng.run_task(MicroFs::recover(eng, dev, {})).value();
  std::string p;
  for (int depth = 0; depth < 24; ++depth) {
    auto names = rec->readdir(p.empty() ? "/" : p);
    ASSERT_TRUE(names.ok()) << p;
    ASSERT_EQ(names->size(), 1u) << p;
    p += "/d" + std::to_string(depth);
  }
  EXPECT_EQ(rec->stat(path + "/leaf")->size, 64_KiB);
  eng.run_task([](MicroFs& m, const std::string& leaf) -> sim::Task<void> {
    EXPECT_TRUE((co_await m.verify_tagged(leaf)).ok());
  }(*rec, path + "/leaf"));
}

TEST(StressTest, LongCycleDoesNotLeakBlocksOrSlots) {
  sim::Engine eng;
  hw::RamDevice dev(96_MiB, 4096);
  Options options;
  options.log_slots = 128;
  auto fs = eng.run_task(MicroFs::format(eng, dev, options)).value();
  uint64_t baseline_used = 0;
  eng.run_task([](MicroFs& m, uint64_t& baseline) -> sim::Task<void> {
    // Baseline after the root dirfile exists.
    auto fd0 = co_await m.creat("/warmup");
    co_await m.close(*fd0);
    EXPECT_TRUE((co_await m.unlink("/warmup")).ok());
    baseline = m.data_region_blocks() - m.free_blocks();
    // 150 create/write/unlink cycles, sizes varying; the partition is
    // far smaller than the cumulative traffic (~1.9 GiB), so any block
    // leak would exhaust the pool.
    for (int i = 0; i < 150; ++i) {
      const std::string path = "/cycle" + std::to_string(i % 3);
      auto fd = co_await m.creat(path);
      EXPECT_TRUE(fd.ok()) << i;
      const uint64_t len = (1 + i % 13) * 1_MiB;
      EXPECT_TRUE((co_await m.write_tagged(*fd, len)).ok()) << i;
      EXPECT_TRUE((co_await m.close(*fd)).ok());
      if (i % 3 == 2) {
        EXPECT_TRUE((co_await m.unlink("/cycle0")).ok());
        EXPECT_TRUE((co_await m.unlink("/cycle1")).ok());
        EXPECT_TRUE((co_await m.unlink("/cycle2")).ok());
      }
    }
  }(*fs, baseline_used));
  eng.run();
  // Everything unlinked: allocation census back to the baseline.
  EXPECT_EQ(fs->data_region_blocks() - fs->free_blocks(), baseline_used);
  EXPECT_EQ(fs->open_file_count(), 0);
}

TEST(StressTest, ManyFilesInOneDirectory) {
  sim::Engine eng;
  hw::RamDevice dev(256_MiB, 4096);
  auto fs = eng.run_task(MicroFs::format(eng, dev, {})).value();
  constexpr int kFiles = 600;
  eng.run_task([](MicroFs& m, int nfiles) -> sim::Task<void> {
    EXPECT_TRUE((co_await m.mkdir("/bulk")).ok());
    for (int i = 0; i < nfiles; ++i) {
      auto fd = co_await m.creat("/bulk/f" + std::to_string(i));
      EXPECT_TRUE(fd.ok()) << i;
      EXPECT_TRUE((co_await m.close(*fd)).ok());
    }
  }(*fs, kFiles));
  eng.run();
  auto names = fs->readdir("/bulk");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), static_cast<size_t>(kFiles));
  // The on-device dirfile stream agrees.
  eng.run_task([](MicroFs& m, size_t nfiles) -> sim::Task<void> {
    auto stream = co_await m.read_dirfile("/bulk");
    EXPECT_TRUE(stream.ok());
    if (stream.ok()) {
      EXPECT_EQ(live_view(*stream).size(), nfiles);
    }
  }(*fs, static_cast<size_t>(kFiles)));
  // Crash-recover with this many namespace entries.
  fs.reset();
  auto rec = eng.run_task(MicroFs::recover(eng, dev, {})).value();
  EXPECT_EQ(rec->readdir("/bulk")->size(), static_cast<size_t>(kFiles));
}

TEST(StressTest, SeededChurnSurvivesRepeatedCrashRecoverCycles) {
  // Long-run churn: each round drives a seeded random workload (its own
  // subtree, so rounds never collide), then "crashes" (drops the mount
  // without any shutdown) and recovers. After every cycle the full fsck
  // invariant set must hold and all tagged content must verify — a slow
  // leak of blocks, log slots, or dirents would compound across rounds
  // and trip the cross-checks.
  sim::Engine eng;
  hw::RamDevice dev(192_MiB, 4096);
  Options options;
  options.log_slots = 96;  // small ring: forced checkpoints mid-churn
  auto fs = eng.run_task(MicroFs::format(eng, dev, options)).value();
  for (int round = 0; round < 6; ++round) {
    crashsim::WorkloadSpec spec;
    spec.seed = 0xc0ffee + static_cast<uint64_t>(round);
    spec.ops = 48;
    spec.max_files = 12;
    spec.max_write = 64_KiB;
    spec.prefix = "/round" + std::to_string(round);
    auto issued = eng.run_task(crashsim::run_workload(*fs, spec));
    ASSERT_TRUE(issued.ok()) << "round " << round << ": "
                             << issued.status().to_string();

    fs.reset();  // crash: no fsync, no close, no checkpoint
    auto rec = eng.run_task(MicroFs::recover(eng, dev, options));
    ASSERT_TRUE(rec.ok()) << "round " << round << ": "
                          << rec.status().to_string();
    fs = std::move(rec).value();

    auto report = eng.run_task(fs->fsck());
    ASSERT_TRUE(report.ok()) << "round " << round;
    EXPECT_TRUE(report->clean())
        << "round " << round << "\n"
        << report->to_string();
    // Prior rounds' subtrees are still intact.
    for (int r = 0; r <= round; ++r) {
      EXPECT_TRUE(fs->stat("/round" + std::to_string(r)).ok()) << r;
    }
  }
  EXPECT_EQ(fs->open_file_count(), 0);
}

}  // namespace
}  // namespace nvmecr::microfs
