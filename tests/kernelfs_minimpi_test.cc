// Tests for the kernel filesystem cost models and the mini-MPI layer.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "kernelfs/localfs.h"
#include "minimpi/comm.h"
#include "simcore/event.h"

namespace nvmecr {
namespace {

using namespace nvmecr::literals;
using kernelfs::LocalFs;
using kernelfs::LocalFsParams;

struct FsFixture {
  sim::Engine eng;
  hw::NvmeSsd ssd{eng, hw::SsdSpec{.capacity = 8_GiB}};
  uint32_t nsid = ssd.create_namespace(4_GiB).value();
};

TEST(LocalFsTest, OpenWriteFsyncReadLifecycle) {
  FsFixture f;
  LocalFs fs(f.eng, f.ssd, f.nsid, LocalFsParams::xfs());
  f.eng.run_task([](LocalFs& fs2) -> sim::Task<void> {
    auto fd = co_await fs2.open("/ckpt/rank0", true);
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE((co_await fs2.write(*fd, 1_MiB)).ok());
    EXPECT_TRUE((co_await fs2.fsync(*fd)).ok());
    EXPECT_TRUE((co_await fs2.read(*fd, 1_MiB)).ok());
    EXPECT_TRUE((co_await fs2.close(*fd)).ok());
    EXPECT_TRUE((co_await fs2.unlink("/ckpt/rank0")).ok());
  }(fs));
  EXPECT_EQ(fs.bytes_written(), 1_MiB);
  EXPECT_EQ(fs.create_count(), 1u);
}

TEST(LocalFsTest, OpenWithoutCreateFailsOnMissing) {
  FsFixture f;
  LocalFs fs(f.eng, f.ssd, f.nsid);
  f.eng.run_task([](LocalFs& fs2) -> sim::Task<void> {
    auto fd = co_await fs2.open("/missing", false);
    EXPECT_EQ(fd.status().code(), ErrorCode::kNotFound);
  }(fs));
}

TEST(LocalFsTest, BadFdRejected) {
  FsFixture f;
  LocalFs fs(f.eng, f.ssd, f.nsid);
  f.eng.run_task([](LocalFs& fs2) -> sim::Task<void> {
    EXPECT_EQ((co_await fs2.write(99, 100)).code(), ErrorCode::kBadFd);
    EXPECT_EQ((co_await fs2.fsync(99)).code(), ErrorCode::kBadFd);
    EXPECT_EQ((co_await fs2.close(99)).code(), ErrorCode::kBadFd);
  }(fs));
}

TEST(LocalFsTest, ClosedFdIsRejectedThenReused) {
  // The fd table is a vector indexed by fd: close frees the slot, IO on
  // the closed fd fails, and the next open takes the slot back.
  FsFixture f;
  LocalFs fs(f.eng, f.ssd, f.nsid);
  f.eng.run_task([](LocalFs& fs2) -> sim::Task<void> {
    auto a = co_await fs2.open("/a", true);
    auto b = co_await fs2.open("/b", true);
    EXPECT_TRUE(a.ok() && b.ok());
    if (!a.ok() || !b.ok()) co_return;
    EXPECT_NE(*a, *b);
    EXPECT_TRUE((co_await fs2.close(*a)).ok());
    EXPECT_EQ((co_await fs2.write(*a, 100)).code(), ErrorCode::kBadFd);
    EXPECT_EQ((co_await fs2.close(*a)).code(), ErrorCode::kBadFd);
    auto c = co_await fs2.open("/c", true);
    EXPECT_TRUE(c.ok());
    if (!c.ok()) co_return;
    EXPECT_EQ(*c, *a);
    EXPECT_TRUE((co_await fs2.write(*c, 100)).ok());
    EXPECT_TRUE((co_await fs2.write(*b, 100)).ok());
  }(fs));
  EXPECT_EQ(fs.bytes_written(), 200u);
}

TEST(LocalFsTest, KernelTimeDominatesIoBoundRun) {
  // For a write+fsync workload nearly all time is inside syscalls —
  // the §IV-D observation for ext4/XFS (76-79% of benchmark time).
  FsFixture f;
  LocalFs fs(f.eng, f.ssd, f.nsid, LocalFsParams::ext4());
  f.eng.run_task([](LocalFs& fs2) -> sim::Task<void> {
    auto fd = co_await fs2.open("/dump", true);
    for (int i = 0; i < 64; ++i) co_await fs2.write(*fd, 1_MiB);
    co_await fs2.fsync(*fd);
    co_await fs2.close(*fd);
  }(fs));
  const double frac =
      static_cast<double>(fs.kernel_time()) / static_cast<double>(f.eng.now());
  EXPECT_GT(frac, 0.95);  // the whole run is syscalls here
}

TEST(LocalFsTest, Ext4SlowerThanXfsOnWriteback) {
  auto run = [](LocalFsParams params) {
    FsFixture f;
    LocalFs fs(f.eng, f.ssd, f.nsid, params);
    f.eng.run_task([](LocalFs& fs2) -> sim::Task<void> {
      auto fd = co_await fs2.open("/dump", true);
      for (int i = 0; i < 128; ++i) co_await fs2.write(*fd, 1_MiB);
      co_await fs2.fsync(*fd);
    }(fs));
    return f.eng.now();
  };
  const SimTime ext4 = run(LocalFsParams::ext4());
  const SimTime xfs = run(LocalFsParams::xfs());
  EXPECT_GT(ext4, xfs);
  // The writeback-pipeline ratio (1250 vs 1900 MB/s) should show through.
  EXPECT_GT(static_cast<double>(ext4) / static_cast<double>(xfs), 1.2);
}

TEST(LocalFsTest, ConcurrentCreatesSerializeOnDirLock) {
  FsFixture f;
  LocalFs fs(f.eng, f.ssd, f.nsid);
  sim::JoinCounter join(f.eng);
  for (int i = 0; i < 16; ++i) {
    join.spawn([](LocalFs& fs2, int id) -> sim::Task<void> {
      auto fd = co_await fs2.open("/f" + std::to_string(id), true);
      EXPECT_TRUE(fd.ok());
    }(fs, i));
  }
  f.eng.run();
  EXPECT_EQ(fs.create_count(), 16u);
  // 16 creates serialized at >= dir_op_cost each.
  EXPECT_GE(f.eng.now(), 16 * LocalFsParams{}.dir_op_cost);
}

TEST(LocalFsTest, UnlinkedFileStaysUsableThroughOpenFd) {
  // POSIX: unlink removes the name; the open fd keeps the file.
  FsFixture f;
  LocalFs fs(f.eng, f.ssd, f.nsid);
  f.eng.run_task([](LocalFs& fs2) -> sim::Task<void> {
    auto fd = co_await fs2.open("/a", true);
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) co_return;
    EXPECT_TRUE((co_await fs2.unlink("/a")).ok());
    EXPECT_TRUE((co_await fs2.write(*fd, 1_MiB)).ok());
    EXPECT_TRUE((co_await fs2.fsync(*fd)).ok());
    EXPECT_TRUE((co_await fs2.read(*fd, 1_MiB)).ok());
    EXPECT_TRUE((co_await fs2.close(*fd)).ok());
    EXPECT_EQ((co_await fs2.open("/a", false)).status().code(),
              ErrorCode::kNotFound);
  }(fs));
  EXPECT_EQ(fs.bytes_written(), 1_MiB);
}

TEST(LocalFsTest, RecreatedPathDoesNotSeeUnlinkedFileWrites) {
  // fd1's file lost its name before /a was created again, so bytes
  // written through fd1 belong to the old file, not the new one.
  FsFixture f;
  LocalFs fs(f.eng, f.ssd, f.nsid);
  f.eng.run_task([](sim::Engine& e, hw::NvmeSsd& ssd,
                    LocalFs& fs2) -> sim::Task<void> {
    auto fd1 = co_await fs2.open("/a", true);
    EXPECT_TRUE((co_await fs2.unlink("/a")).ok());
    auto fd2 = co_await fs2.open("/a", true);
    EXPECT_TRUE(fd1.ok() && fd2.ok());
    if (!fd1.ok() || !fd2.ok()) co_return;
    EXPECT_NE(*fd1, *fd2);
    EXPECT_TRUE((co_await fs2.write(*fd1, 1_MiB)).ok());

    const uint64_t reads_before = ssd.counters().read_commands;
    const SimTime before = e.now();
    EXPECT_TRUE((co_await fs2.read(*fd2, 1_MiB)).ok());
    EXPECT_EQ(e.now() - before, kernelfs::kSyscallTrap + kernelfs::kVfsPerOp);
    EXPECT_EQ(ssd.counters().read_commands, reads_before);
  }(f.eng, f.ssd, fs));
  EXPECT_EQ(fs.create_count(), 2u);
}

TEST(LocalFsTest, FsyncWithNoDirtyDataIsCheap) {
  FsFixture f;
  LocalFs fs(f.eng, f.ssd, f.nsid);
  f.eng.run_task([](sim::Engine& e, LocalFs& fs2) -> sim::Task<void> {
    auto fd = co_await fs2.open("/empty", true);
    const SimTime before = e.now();
    co_await fs2.fsync(*fd);
    // Journal commit + bounded cache flush only; far below a data
    // writeback.
    EXPECT_LT(e.now() - before, 2_ms);
  }(f.eng, fs));
}

// ---------------------------------------------------------------------
// minimpi
// ---------------------------------------------------------------------

TEST(MiniMpiTest, BarrierReleasesTogether) {
  sim::Engine eng;
  auto comm = minimpi::Comm::world(eng, 8);
  std::vector<SimTime> times(8);
  for (int r = 0; r < 8; ++r) {
    eng.spawn([](sim::Engine& e, minimpi::Comm& c, std::vector<SimTime>& t,
                 int rank) -> sim::Task<void> {
      co_await e.delay((rank + 1) * 10_us);
      co_await c.barrier(rank);
      t[static_cast<size_t>(rank)] = e.now();
    }(eng, *comm, times, r));
  }
  eng.run();
  for (int r = 0; r < 8; ++r) EXPECT_EQ(times[static_cast<size_t>(r)], times[0]);
  EXPECT_GT(times[0], 80_us);  // slowest arrival + collective cost
  EXPECT_EQ(eng.live_roots(), 0);
}

TEST(MiniMpiTest, AllgatherCollectsInRankOrder) {
  sim::Engine eng;
  auto comm = minimpi::Comm::world(eng, 5);
  std::vector<std::vector<uint64_t>> results(5);
  for (int r = 0; r < 5; ++r) {
    eng.spawn([](minimpi::Comm& c, std::vector<std::vector<uint64_t>>& out,
                 int rank) -> sim::Task<void> {
      out[static_cast<size_t>(rank)] =
          co_await c.allgather(rank, static_cast<uint64_t>(rank * 100));
    }(*comm, results, r));
  }
  eng.run();
  const std::vector<uint64_t> expect{0, 100, 200, 300, 400};
  for (const auto& res : results) EXPECT_EQ(res, expect);
}

TEST(MiniMpiTest, BcastDistributesRootValue) {
  sim::Engine eng;
  auto comm = minimpi::Comm::world(eng, 4);
  std::vector<uint64_t> got(4);
  for (int r = 0; r < 4; ++r) {
    eng.spawn([](minimpi::Comm& c, std::vector<uint64_t>& out,
                 int rank) -> sim::Task<void> {
      out[static_cast<size_t>(rank)] =
          co_await c.bcast(rank, rank == 2 ? 777u : 0u, 2);
    }(*comm, got, r));
  }
  eng.run();
  for (auto v : got) EXPECT_EQ(v, 777u);
}

TEST(MiniMpiTest, SplitGroupsByColor) {
  // 12 ranks split by rank % 3, the MPI_COMM_CR pattern (Figure 6).
  sim::Engine eng;
  auto comm = minimpi::Comm::world(eng, 12);
  std::vector<minimpi::Comm::SplitResult> results(12);
  for (int r = 0; r < 12; ++r) {
    eng.spawn([](minimpi::Comm& c, std::vector<minimpi::Comm::SplitResult>& out,
                 int rank) -> sim::Task<void> {
      out[static_cast<size_t>(rank)] = co_await c.split(rank, rank % 3);
    }(*comm, results, r));
  }
  eng.run();
  std::set<minimpi::Comm*> comms;
  for (int r = 0; r < 12; ++r) {
    const auto& res = results[static_cast<size_t>(r)];
    ASSERT_NE(res.comm, nullptr);
    EXPECT_EQ(res.comm->size(), 4);
    EXPECT_EQ(res.rank, r / 3);  // ranks 0,3,6,9 -> 0,1,2,3 within color
    comms.insert(res.comm);
  }
  EXPECT_EQ(comms.size(), 3u);
}

TEST(MiniMpiTest, SubCommunicatorCollectivesWork) {
  sim::Engine eng;
  auto comm = minimpi::Comm::world(eng, 6);
  std::vector<uint64_t> sums(6, 0);
  for (int r = 0; r < 6; ++r) {
    eng.spawn([](minimpi::Comm& c, std::vector<uint64_t>& out,
                 int rank) -> sim::Task<void> {
      auto sub = co_await c.split(rank, rank < 3 ? 0 : 1);
      auto vals = co_await sub.comm->allgather(sub.rank,
                                               static_cast<uint64_t>(rank));
      uint64_t sum = 0;
      for (auto v : vals) sum += v;
      out[static_cast<size_t>(rank)] = sum;
    }(*comm, sums, r));
  }
  eng.run();
  for (int r = 0; r < 3; ++r) EXPECT_EQ(sums[static_cast<size_t>(r)], 0u + 1 + 2);
  for (int r = 3; r < 6; ++r) EXPECT_EQ(sums[static_cast<size_t>(r)], 3u + 4 + 5);
}

TEST(MiniMpiTest, RepeatedBarriersReuseComm) {
  sim::Engine eng;
  auto comm = minimpi::Comm::world(eng, 3);
  int rounds_done = 0;
  for (int r = 0; r < 3; ++r) {
    eng.spawn([](minimpi::Comm& c, int& done, int rank) -> sim::Task<void> {
      for (int i = 0; i < 5; ++i) co_await c.barrier(rank);
      if (rank == 0) done = 5;
    }(*comm, rounds_done, r));
  }
  eng.run();
  EXPECT_EQ(rounds_done, 5);
  EXPECT_EQ(eng.live_roots(), 0);
}

}  // namespace
}  // namespace nvmecr
