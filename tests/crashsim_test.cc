// Crash-point exploration harness tests: the recorder's boundary and
// journal model, crash/recover over every persistence boundary of
// scripted and seeded workloads (including torn-write variants), golden
// boundary counts for a pinned seed, the group-commit ring-wrap crash
// scenario, and a redundancy-style mirrored-replica run where a whole
// storage domain is lost at every crash instant.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crashsim/explore.h"
#include "crashsim/recorder.h"
#include "crashsim/workload.h"
#include "hw/ram_device.h"
#include "microfs/microfs.h"
#include "simcore/engine.h"

namespace nvmecr::crashsim {
namespace {

using namespace nvmecr::literals;
using microfs::MicroFs;

/// Format + workload against a recorded RamDevice. Returns the boundary
/// index right after format() (recovery is required from there on).
struct RecordedRun {
  sim::Engine eng;
  hw::RamDevice ram{64_MiB, 4096};
  RecordingDevice rec{ram};
  microfs::Options options;
  size_t post_format_boundary = 0;
  std::unique_ptr<MicroFs> fs;

  void format(microfs::Options opts = {}) {
    options = opts;
    auto f = eng.run_task(MicroFs::format(eng, rec, options));
    NVMECR_CHECK(f.ok());
    fs = std::move(f).value();
    post_format_boundary = rec.boundaries().size();
  }

  ExploreOptions explore_options(
      ExploreOptions::Torn torn = ExploreOptions::Torn::kSampled) const {
    ExploreOptions opts;
    opts.torn = torn;
    opts.fs = options;
    opts.require_recovery_from = post_format_boundary;
    return opts;
  }
};

TEST(CrashSimTest, RecorderJournalsWritesAndBoundaries) {
  sim::Engine eng;
  hw::RamDevice ram(1_MiB, 512);
  RecordingDevice rec(ram);
  eng.run_task([](RecordingDevice& d) -> sim::Task<void> {
    std::vector<std::byte> buf(1536, std::byte{0xab});
    EXPECT_TRUE((co_await d.write(0, buf)).ok());
    EXPECT_TRUE((co_await d.flush()).ok());
    EXPECT_TRUE((co_await d.write_tagged(4096, 2048, /*seed=*/7)).ok());
    // A batch of 8 commands is one simulated completion: one mutation and
    // one boundary. Reads record nothing.
    EXPECT_TRUE((co_await d.write_tagged(8192, 4096, /*seed=*/9, 8)).ok());
    EXPECT_TRUE((co_await d.read_tagged(8192, 4096, 8)).ok());
    std::vector<std::byte> out(512);
    EXPECT_TRUE((co_await d.read(0, out)).ok());
  }(rec));
  rec.record_teardown();

  ASSERT_EQ(rec.boundaries().size(), 5u);
  EXPECT_EQ(rec.boundaries()[0].kind, BoundaryKind::kWrite);
  EXPECT_EQ(rec.boundaries()[1].kind, BoundaryKind::kFlush);
  EXPECT_EQ(rec.boundaries()[2].kind, BoundaryKind::kWrite);
  EXPECT_EQ(rec.boundaries()[3].kind, BoundaryKind::kWrite);
  EXPECT_EQ(rec.boundaries()[4].kind, BoundaryKind::kTeardown);
  EXPECT_EQ(rec.journal_size(), 3u);
  EXPECT_EQ(rec.last_mutation_sectors(rec.boundaries()[3]), 8u);

  // The 1536-byte write spans 3 sectors; tearing after 1 sector leaves
  // exactly 512 durable bytes of it.
  EXPECT_EQ(rec.last_mutation_sectors(rec.boundaries()[0]), 3u);
  auto torn = rec.materialize(rec.boundaries()[0], /*torn_sectors=*/1);
  sim::Engine eng2;
  eng2.run_task([](hw::RamDevice& img) -> sim::Task<void> {
    std::vector<std::byte> head(512);
    EXPECT_TRUE((co_await img.read(0, head)).ok());
    for (std::byte b : head) EXPECT_EQ(b, std::byte{0xab});
    // Bytes past the tear read back as never written (zero).
    std::vector<std::byte> tail(512);
    EXPECT_TRUE((co_await img.read(512, tail)).ok());
    for (std::byte b : tail) EXPECT_EQ(b, std::byte{0});
  }(*torn));

  // The full state at the teardown boundary reproduces every write.
  auto full = rec.materialize(rec.boundaries()[4]);
  sim::Engine eng3;
  eng3.run_task([](hw::RamDevice& img) -> sim::Task<void> {
    std::vector<std::byte> all(1536);
    EXPECT_TRUE((co_await img.read(0, all)).ok());
    for (std::byte b : all) EXPECT_EQ(b, std::byte{0xab});
    auto tag = co_await img.read_tagged(4096, 2048);
    EXPECT_TRUE(tag.ok());
    if (tag.ok()) {
      EXPECT_EQ(*tag, hw::PayloadStore::expected_tag(7, 4096, 2048, 512));
    }
    auto batch = co_await img.read_tagged(8192, 4096);
    EXPECT_TRUE(batch.ok());
    if (batch.ok()) {
      EXPECT_EQ(*batch, hw::PayloadStore::expected_tag(9, 8192, 4096, 512));
    }
  }(*full));
}

// Tag mutations in a crash image: a pattern written one block off, a
// torn write that left its last block unwritten, and a range with one
// block of another seed each read back with a tag that differs from
// expected_tag, while the intact write matches it.
TEST(CrashSimTest, TagMutationsInImageDifferFromExpected) {
  sim::Engine eng;
  hw::RamDevice ram(1_MiB, 512);
  RecordingDevice rec(ram);
  eng.run_task([](RecordingDevice& d) -> sim::Task<void> {
    EXPECT_TRUE((co_await d.write_tagged(8192, 4096, /*seed=*/7)).ok());
    // Meant for 16384, landed one block later.
    EXPECT_TRUE((co_await d.write_tagged(16384 + 512, 4096, 7)).ok());
    EXPECT_TRUE((co_await d.write_tagged(32768, 4096, 7)).ok());
    EXPECT_TRUE((co_await d.write_tagged(32768 + 1024, 512, /*seed=*/8)).ok());
    EXPECT_TRUE((co_await d.write_tagged(65536, 4096, 7, 8)).ok());
  }(rec));
  const Boundary& last = rec.boundaries().back();
  ASSERT_EQ(rec.last_mutation_sectors(last), 8u);
  const auto full = rec.materialize(last);
  const auto torn = rec.materialize(last, /*torn_sectors=*/7);
  auto tag = [](const hw::RamDevice& img, uint64_t off) {
    auto t = img.payload().read_combined_tag(off, 4096);
    NVMECR_CHECK(t.ok());
    return *t;
  };
  auto expect = [](uint64_t off) {
    return hw::PayloadStore::expected_tag(7, off, 4096, 512);
  };
  EXPECT_EQ(tag(*full, 8192), expect(8192));
  EXPECT_NE(tag(*full, 16384), expect(16384));
  EXPECT_NE(tag(*full, 16384 + 512), expect(16384));
  EXPECT_NE(tag(*full, 32768), expect(32768));
  EXPECT_EQ(tag(*full, 65536), expect(65536));
  EXPECT_NE(tag(*torn, 65536), expect(65536));
}

// A zero-length write is one boundary with nothing to tear: it spans no
// sector (the sector span must not compute (offset + len - 1) / bs, which
// wraps for len 0 at offset 0 and would ask for 2^55 torn states).
TEST(CrashSimTest, ZeroLengthWriteHasNoTornStates) {
  sim::Engine eng;
  hw::RamDevice ram(1_MiB, 512);
  RecordingDevice rec(ram);
  eng.run_task([](RecordingDevice& d) -> sim::Task<void> {
    EXPECT_TRUE((co_await d.write(0, {})).ok());
  }(rec));
  ASSERT_EQ(rec.boundaries().size(), 1u);
  EXPECT_EQ(rec.last_mutation_sectors(rec.boundaries()[0]), 0u);

  ExploreOptions opts;
  opts.torn = ExploreOptions::Torn::kSampled;
  // The image holds no file system, so recovery fails with a typed error;
  // that is acceptable for a state before require_recovery_from.
  opts.require_recovery_from = 1;
  const ExploreResult res = explore(rec, opts);
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_EQ(res.states, 1u);
}

// The headline acceptance property: every persistence boundary of a
// reference seeded workload (well over 100 of them) recovers to an
// fsck-clean state with verifiable content, including torn variants.
TEST(CrashSimTest, ReferenceWorkloadRecoversAtEveryBoundary) {
  RecordedRun run;
  microfs::Options fsopts;
  fsopts.log_slots = 512;
  run.format(fsopts);

  WorkloadSpec spec;
  spec.seed = 20260807;
  spec.ops = 64;
  auto issued = run.eng.run_task(run_workload(*run.fs, spec));
  ASSERT_TRUE(issued.ok()) << issued.status().to_string();
  EXPECT_EQ(*issued, spec.ops);
  run.fs.reset();
  run.rec.record_teardown();

  ASSERT_GT(run.rec.boundaries().size(), 100u);
  const ExploreResult res = explore(run.rec, run.explore_options());
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_EQ(res.boundaries, run.rec.boundaries().size());
  EXPECT_GE(res.states, res.boundaries);  // torn variants add states
  EXPECT_GT(res.recovered, 100u);
  // Typed errors only happen for mid-format states (the boundaries
  // before the superblock+initial-checkpoint commit and their torn
  // variants — a handful, never the workload's own states).
  EXPECT_LE(res.typed_errors, 4 * (run.post_format_boundary + 1));
}

TEST(CrashSimTest, ExhaustiveTornVariantsOnSmallWorkload) {
  RecordedRun run;
  microfs::Options fsopts;
  fsopts.log_slots = 128;
  run.format(fsopts);

  WorkloadSpec spec;
  spec.seed = 7;
  spec.ops = 12;
  spec.max_write = 24 * 1024;  // multi-sector data writes
  auto issued = run.eng.run_task(run_workload(*run.fs, spec));
  ASSERT_TRUE(issued.ok()) << issued.status().to_string();
  run.fs.reset();
  run.rec.record_teardown();

  const ExploreResult res =
      explore(run.rec, run.explore_options(ExploreOptions::Torn::kExhaustive));
  EXPECT_TRUE(res.ok()) << res.summary();
  // Exhaustive tearing multiplies states well past the boundary count.
  EXPECT_GT(res.states, res.boundaries);
}

// Golden regression pin: the boundary/journal counts of a fixed-seed
// workload are part of the crash-exploration contract. If a change to
// microfs IO patterns is intentional, update the constants; an
// unintended change to write ordering or batching fails here first.
TEST(CrashSimTest, GoldenBoundaryCountsForPinnedSeed) {
  RecordedRun run;
  microfs::Options fsopts;
  fsopts.log_slots = 256;
  run.format(fsopts);

  WorkloadSpec spec;
  spec.seed = 42;
  spec.ops = 32;
  auto issued = run.eng.run_task(run_workload(*run.fs, spec));
  ASSERT_TRUE(issued.ok()) << issued.status().to_string();
  run.fs.reset();
  run.rec.record_teardown();

  constexpr size_t kGoldenBoundaries = 70;
  constexpr size_t kGoldenJournal = 66;
  constexpr size_t kGoldenPostFormat = 2;
  EXPECT_EQ(run.rec.boundaries().size(), kGoldenBoundaries);
  EXPECT_EQ(run.rec.journal_size(), kGoldenJournal);
  EXPECT_EQ(run.post_format_boundary, kGoldenPostFormat);
}

// Group-commit regression (the ring-wrap drain-order bug): coalesced
// slot rewrites deferred across a ring wrap must drain in LSN order and
// stay dirty until durable — a crash between the drain's device writes
// must never replay a stale (shorter) extension record. A tiny ring plus
// per-file coalescing streams engineers exactly that wrap; exploring
// every boundary covers the crash-between-drain-writes states.
TEST(CrashSimTest, GroupCommitRingWrapCrashNeverReplaysStaleRecords) {
  RecordedRun run;
  microfs::Options fsopts;
  fsopts.log_slots = 8;
  fsopts.coalesce_window = 64;
  fsopts.checkpoint_free_threshold = 0;  // no background checkpoint
  run.format(fsopts);

  auto st = run.eng.run_task([](MicroFs& m) -> sim::Task<Status> {
    auto fa = co_await m.creat("/a");
    NVMECR_CO_RETURN_IF_ERROR(fa.status());
    auto fb = co_await m.creat("/b");
    NVMECR_CO_RETURN_IF_ERROR(fb.status());
    // Alternating coalesced extension streams: both files' WRITE records
    // sit in dirty slots; repeated rounds force ring wraps (and forced
    // checkpoints once the ring fills), so drains cross the wrap point.
    for (int round = 0; round < 6; ++round) {
      for (int k = 0; k < 3; ++k) {
        NVMECR_CO_RETURN_IF_ERROR(co_await m.write_tagged(*fa, 40_KiB));
        NVMECR_CO_RETURN_IF_ERROR(co_await m.write_tagged(*fb, 40_KiB));
      }
      NVMECR_CO_RETURN_IF_ERROR(co_await m.fsync(*fa));
    }
    NVMECR_CO_RETURN_IF_ERROR(co_await m.close(*fa));
    NVMECR_CO_RETURN_IF_ERROR(co_await m.close(*fb));
    co_return OkStatus();
  }(*run.fs));
  ASSERT_TRUE(st.ok()) << st.to_string();
  run.fs.reset();
  run.rec.record_teardown();

  const ExploreResult res =
      explore(run.rec, run.explore_options(ExploreOptions::Torn::kNone));
  EXPECT_TRUE(res.ok()) << res.summary();
}

// Forced checkpoints triggered mid-operation (ring full inside log_op)
// snapshot mid-op state; the retried record must replay idempotently on
// top of it at every crash point after the checkpoint.
TEST(CrashSimTest, ForcedMidOpCheckpointRecoversAtEveryBoundary) {
  RecordedRun run;
  microfs::Options fsopts;
  fsopts.log_slots = 8;
  fsopts.coalesce_window = 0;  // every op takes a slot: frequent force
  fsopts.checkpoint_free_threshold = 0;  // no background checkpoint
  run.format(fsopts);

  auto st = run.eng.run_task([](MicroFs& m) -> sim::Task<Status> {
    NVMECR_CO_RETURN_IF_ERROR(co_await m.mkdir("/d"));
    for (int i = 0; i < 20; ++i) {
      auto fd = co_await m.creat("/d/f" + std::to_string(i));
      NVMECR_CO_RETURN_IF_ERROR(fd.status());
      NVMECR_CO_RETURN_IF_ERROR(co_await m.write_tagged(*fd, 32_KiB));
      NVMECR_CO_RETURN_IF_ERROR(co_await m.close(*fd));
      if (i % 3 == 2) {
        NVMECR_CO_RETURN_IF_ERROR(
            co_await m.unlink("/d/f" + std::to_string(i - 1)));
      }
    }
    co_return OkStatus();
  }(*run.fs));
  ASSERT_TRUE(st.ok()) << st.to_string();
  run.fs.reset();
  run.rec.record_teardown();

  const ExploreResult res = explore(run.rec, run.explore_options());
  EXPECT_TRUE(res.ok()) << res.summary();
}

// rename() is the newest WAL op; crash at every point of a rename-heavy
// script must recover either the old or the new name, never both or
// neither — fsck's dirfile/namespace cross-check enforces exactly that.
TEST(CrashSimTest, RenameCrashRecoversOldOrNewNameNeverBoth) {
  RecordedRun run;
  run.format();

  auto st = run.eng.run_task([](MicroFs& m) -> sim::Task<Status> {
    NVMECR_CO_RETURN_IF_ERROR(co_await m.mkdir("/src"));
    NVMECR_CO_RETURN_IF_ERROR(co_await m.mkdir("/dst"));
    for (int i = 0; i < 4; ++i) {
      const std::string from = "/src/f" + std::to_string(i);
      auto fd = co_await m.creat(from);
      NVMECR_CO_RETURN_IF_ERROR(fd.status());
      NVMECR_CO_RETURN_IF_ERROR(co_await m.write_tagged(*fd, 48_KiB));
      NVMECR_CO_RETURN_IF_ERROR(co_await m.close(*fd));
      NVMECR_CO_RETURN_IF_ERROR(
          co_await m.rename(from, "/dst/g" + std::to_string(i)));
    }
    // Same-directory rename and rename of an open file.
    auto fd = co_await m.creat("/src/keepopen");
    NVMECR_CO_RETURN_IF_ERROR(fd.status());
    NVMECR_CO_RETURN_IF_ERROR(co_await m.write_tagged(*fd, 32_KiB));
    NVMECR_CO_RETURN_IF_ERROR(co_await m.rename("/src/keepopen", "/src/r"));
    NVMECR_CO_RETURN_IF_ERROR(co_await m.write_tagged(*fd, 32_KiB));
    NVMECR_CO_RETURN_IF_ERROR(co_await m.close(*fd));
    co_return OkStatus();
  }(*run.fs));
  ASSERT_TRUE(st.ok()) << st.to_string();
  run.fs.reset();
  run.rec.record_teardown();

  const ExploreResult res = explore(run.rec, run.explore_options());
  EXPECT_TRUE(res.ok()) << res.summary();

  // The final boundary is the clean state: every rename fully applied.
  auto img = run.rec.materialize(run.rec.boundaries().back());
  sim::Engine eng;
  auto fs = eng.run_task(MicroFs::recover(eng, *img, run.options));
  ASSERT_TRUE(fs.ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE((*fs)->stat("/src/f" + std::to_string(i)).ok());
    EXPECT_TRUE((*fs)->stat("/dst/g" + std::to_string(i)).ok());
  }
  EXPECT_TRUE((*fs)->stat("/src/r").ok());
  EXPECT_EQ((*fs)->stat("/src/r")->size, 64_KiB);
}

// Redundancy-crossing run: the same seeded workload mirrored onto two
// devices (two storage domains). The primary domain is then lost and
// the recorded replica is crash-explored — at EVERY instant the
// surviving domain must recover to an fsck-clean state, and at the
// final boundary it serves the full namespace the primary had.
TEST(CrashSimTest, MirroredReplicaSurvivesDomainLossAtEveryBoundary) {
  WorkloadSpec spec;
  spec.seed = 99;
  spec.ops = 28;
  spec.w_unlink = 1;

  // Primary domain (plain device).
  sim::Engine peng;
  hw::RamDevice primary(64_MiB, 4096);
  auto pfs = peng.run_task(MicroFs::format(peng, primary, {})).value();
  ASSERT_TRUE(peng.run_task(run_workload(*pfs, spec)).ok());

  // Replica domain (recorded), fed the identical deterministic stream.
  RecordedRun run;
  run.format();
  auto issued = run.eng.run_task(run_workload(*run.fs, spec));
  ASSERT_TRUE(issued.ok());
  run.fs.reset();
  run.rec.record_teardown();

  const ExploreResult res = explore(run.rec, run.explore_options());
  EXPECT_TRUE(res.ok()) << res.summary();

  // Domain loss at the last instant: the replica alone reproduces the
  // primary's namespace byte for byte (tagged content verified by the
  // explorer above; names and sizes compared here).
  auto img = run.rec.materialize(run.rec.boundaries().back());
  sim::Engine eng;
  auto rfs = eng.run_task(MicroFs::recover(eng, *img, run.options));
  ASSERT_TRUE(rfs.ok());
  std::vector<std::string> pending{"/"};
  while (!pending.empty()) {
    const std::string dir = pending.back();
    pending.pop_back();
    auto pnames = pfs->readdir(dir);
    auto rnames = (*rfs)->readdir(dir);
    ASSERT_TRUE(pnames.ok() && rnames.ok()) << dir;
    EXPECT_EQ(*pnames, *rnames) << dir;
    for (const std::string& name : *pnames) {
      const std::string path = dir == "/" ? "/" + name : dir + "/" + name;
      auto pst = pfs->stat(path);
      auto rst = (*rfs)->stat(path);
      ASSERT_TRUE(pst.ok() && rst.ok()) << path;
      EXPECT_EQ(pst->size, rst->size) << path;
      EXPECT_EQ(pst->type, rst->type) << path;
      if (pst->type == microfs::InodeType::kDirectory) {
        pending.push_back(path);
      }
    }
  }
}

// Every recovered state of a seeded run also satisfies fsck directly
// (not just via the explorer): spot-check the midpoint boundary.
TEST(CrashSimTest, FsckPassesOnAMidRunCrashState) {
  RecordedRun run;
  run.format();
  WorkloadSpec spec;
  spec.seed = 3;
  spec.ops = 24;
  ASSERT_TRUE(run.eng.run_task(run_workload(*run.fs, spec)).ok());
  run.fs.reset();
  run.rec.record_teardown();

  const size_t mid =
      run.post_format_boundary +
      (run.rec.boundaries().size() - run.post_format_boundary) / 2;
  auto img = run.rec.materialize(run.rec.boundaries()[mid]);
  sim::Engine eng;
  auto fs = eng.run_task(MicroFs::recover(eng, *img, run.options));
  ASSERT_TRUE(fs.ok()) << fs.status().to_string();
  auto report = eng.run_task((*fs)->fsck());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->to_string();
  EXPECT_GT(report->files + report->directories, 0u);
}

}  // namespace
}  // namespace nvmecr::crashsim
