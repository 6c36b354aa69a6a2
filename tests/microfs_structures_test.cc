// Tests for the microfs persistence structures: circular block pool,
// operation log (with coalescing), dirent codec, inode table.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>

#include "common/rng.h"
#include "common/units.h"
#include "hw/ram_device.h"
#include "microfs/block_pool.h"
#include "microfs/dirfile.h"
#include "microfs/inode.h"
#include "microfs/oplog.h"
#include "simcore/engine.h"

namespace nvmecr::microfs {
namespace {

using namespace nvmecr::literals;

// ---------------------------------------------------------------------
// BlockPool
// ---------------------------------------------------------------------

TEST(BlockPoolTest, AllocInIndexOrderWhenFresh) {
  BlockPool pool(8);
  for (uint64_t i = 0; i < 8; ++i) EXPECT_EQ(*pool.alloc(), i);
  EXPECT_EQ(pool.alloc().status().code(), ErrorCode::kNoSpace);
}

TEST(BlockPoolTest, FreeRecyclesFifo) {
  BlockPool pool(4);
  for (int i = 0; i < 4; ++i) (void)*pool.alloc();
  EXPECT_TRUE(pool.free(2).ok());
  EXPECT_TRUE(pool.free(0).ok());
  EXPECT_EQ(*pool.alloc(), 2u);  // freed order, not index order
  EXPECT_EQ(*pool.alloc(), 0u);
}

TEST(BlockPoolTest, DoubleFreeDetected) {
  BlockPool pool(4);
  (void)*pool.alloc();
  EXPECT_TRUE(pool.free(0).ok());
  EXPECT_EQ(pool.free(0).code(), ErrorCode::kInternal);
  EXPECT_EQ(pool.free(99).code(), ErrorCode::kInvalidArgument);
}

TEST(BlockPoolTest, CountsTrack) {
  BlockPool pool(10);
  EXPECT_EQ(pool.free_count(), 10u);
  (void)*pool.alloc();
  (void)*pool.alloc();
  EXPECT_EQ(pool.free_count(), 8u);
  EXPECT_EQ(pool.allocated_count(), 2u);
  EXPECT_TRUE(pool.is_allocated(0));
  EXPECT_FALSE(pool.is_allocated(5));
}

TEST(BlockPoolTest, DeterministicSequences) {
  // Two pools fed the same alloc/free sequence yield identical results —
  // the property log replay relies on.
  BlockPool a(64), b(64);
  Rng rng(5);
  std::vector<uint64_t> live;
  for (int i = 0; i < 500; ++i) {
    if (live.empty() || rng.uniform(3) != 0) {
      auto ba = a.alloc();
      auto bb = b.alloc();
      ASSERT_EQ(ba.ok(), bb.ok());
      if (ba.ok()) {
        ASSERT_EQ(*ba, *bb);
        live.push_back(*ba);
      }
    } else {
      const size_t pick = rng.uniform(live.size());
      const uint64_t block = live[pick];
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      ASSERT_TRUE(a.free(block).ok());
      ASSERT_TRUE(b.free(block).ok());
    }
  }
}

TEST(BlockPoolTest, SerializeRoundtrip) {
  BlockPool pool(32);
  for (int i = 0; i < 20; ++i) (void)*pool.alloc();
  ASSERT_TRUE(pool.free(3).ok());
  ASSERT_TRUE(pool.free(17).ok());
  std::vector<std::byte> buf;
  pool.serialize(buf);

  BlockPool restored;
  auto used = restored.deserialize(buf);
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(*used, buf.size());
  EXPECT_EQ(restored.free_count(), pool.free_count());
  EXPECT_EQ(restored.total(), pool.total());
  // Continued allocation matches.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(*pool.alloc(), *restored.alloc());
}

TEST(BlockPoolTest, RingWrapMatchesFifoReference) {
  // A small ring driven through many laps, so the head and tail indexes
  // wrap hundreds of times: the pool must stay exactly a FIFO free list.
  constexpr uint64_t kBlocks = 7;
  BlockPool pool(kBlocks);
  std::deque<uint64_t> fifo;
  for (uint64_t b = 0; b < kBlocks; ++b) fifo.push_back(b);
  std::vector<uint64_t> live;
  Rng rng(17);
  uint64_t allocs = 0;
  for (int step = 0; step < 4000; ++step) {
    if (fifo.empty()) {
      EXPECT_EQ(pool.alloc().status().code(), ErrorCode::kNoSpace);
    }
    if (!fifo.empty() && (live.empty() || rng.uniform(2) == 0)) {
      auto block = pool.alloc();
      ASSERT_TRUE(block.ok());
      ASSERT_EQ(*block, fifo.front());
      fifo.pop_front();
      live.push_back(*block);
      ++allocs;
    } else {
      const size_t pick = rng.uniform(live.size());
      const uint64_t block = live[pick];
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      ASSERT_TRUE(pool.free(block).ok());
      fifo.push_back(block);
      EXPECT_EQ(pool.free(block).code(), ErrorCode::kInternal);
    }
    ASSERT_EQ(pool.free_count(), fifo.size());
    for (uint64_t b = 0; b < kBlocks; ++b) {
      EXPECT_EQ(pool.is_allocated(b),
                std::find(live.begin(), live.end(), b) != live.end());
    }
  }
  EXPECT_GT(allocs, 100 * kBlocks);
  EXPECT_EQ(pool.free(kBlocks).code(), ErrorCode::kInvalidArgument);
  EXPECT_FALSE(pool.is_allocated(kBlocks));

  // A snapshot taken mid-lap restores the wrapped ring: free the live
  // blocks into both pools, then both hand out the reference sequence.
  std::vector<std::byte> buf;
  pool.serialize(buf);
  BlockPool restored;
  ASSERT_TRUE(restored.deserialize(buf).ok());
  for (uint64_t block : live) {
    ASSERT_TRUE(pool.free(block).ok());
    ASSERT_TRUE(restored.free(block).ok());
    fifo.push_back(block);
  }
  for (uint64_t want : fifo) {
    EXPECT_EQ(*pool.alloc(), want);
    EXPECT_EQ(*restored.alloc(), want);
  }
  EXPECT_EQ(restored.alloc().status().code(), ErrorCode::kNoSpace);
}

TEST(BlockPoolTest, DeserializeRejectsCorruption) {
  BlockPool pool(8);
  (void)*pool.alloc();
  std::vector<std::byte> buf;
  pool.serialize(buf);
  buf[10] ^= std::byte{0xff};
  BlockPool restored;
  EXPECT_FALSE(restored.deserialize(buf).ok());
}

// ---------------------------------------------------------------------
// InodeTable
// ---------------------------------------------------------------------

TEST(InodeTableTest, AllocAssignsSequentialIds) {
  InodeTable t;
  EXPECT_EQ(t.alloc(InodeType::kDirectory).ino, kRootIno);
  EXPECT_EQ(t.alloc(InodeType::kFile).ino, kRootIno + 1);
  EXPECT_EQ(t.count(), 2u);
}

TEST(InodeTableTest, InsertWithInoAdvancesCounter) {
  InodeTable t;
  ASSERT_TRUE(t.insert_with_ino(10, InodeType::kFile).ok());
  EXPECT_EQ(t.alloc(InodeType::kFile).ino, 11u);
  EXPECT_FALSE(t.insert_with_ino(10, InodeType::kFile).ok());  // duplicate
}

TEST(InodeTableTest, SerializeRoundtripPreservesEverything) {
  InodeTable t;
  Inode& a = t.alloc(InodeType::kFile);
  a.size = 123456;
  a.seed = 0xabcdef;
  a.mode = 0600;
  a.content = ContentKind::kTagged;
  a.blocks = {7, 8, 9};
  Inode& d = t.alloc(InodeType::kDirectory);
  d.size = 64;

  std::vector<std::byte> buf;
  t.serialize(buf);
  InodeTable r;
  auto used = r.deserialize(buf);
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(r.count(), 2u);
  const Inode* ra = r.get(a.ino);
  ASSERT_NE(ra, nullptr);
  EXPECT_EQ(ra->size, 123456u);
  EXPECT_EQ(ra->seed, 0xabcdefu);
  EXPECT_EQ(ra->mode, 0600u);
  EXPECT_EQ(ra->content, ContentKind::kTagged);
  EXPECT_EQ(ra->blocks, (std::vector<uint64_t>{7, 8, 9}));
  EXPECT_EQ(r.next_ino(), t.next_ino());
}

// ---------------------------------------------------------------------
// OpLog
// ---------------------------------------------------------------------

struct LogFixture {
  sim::Engine eng;
  hw::RamDevice dev{4_MiB};
  OpLog log{dev, 0, /*slots=*/64, /*coalesce_window=*/8};
};

LogRecord write_rec(Ino ino, uint64_t off, uint64_t len) {
  LogRecord r;
  r.type = OpType::kWrite;
  r.ino = ino;
  r.a = off;
  r.b = len;
  return r;
}

TEST(OpLogTest, RecordCodecRoundtrip) {
  LogRecord rec;
  rec.lsn = 42;
  rec.epoch = 3;
  rec.type = OpType::kCreate;
  rec.ino = 17;
  rec.parent = 1;
  rec.a = 0644;
  rec.b = 0xbeef;  // content seed
  rec.flags = kLogFlagTagged;
  rec.name = "rank0.ckpt";
  std::vector<std::byte> buf;
  OpLog::encode_record(rec, buf);
  EXPECT_EQ(buf.size(), OpLog::kRecordBytes);
  auto decoded = OpLog::decode_record(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->lsn, 42u);
  EXPECT_EQ(decoded->epoch, 3u);
  EXPECT_EQ(decoded->type, OpType::kCreate);
  EXPECT_EQ(decoded->ino, 17u);
  EXPECT_EQ(decoded->parent, 1u);
  EXPECT_EQ(decoded->a, 0644u);
  EXPECT_EQ(decoded->b, 0xbeefu);
  EXPECT_EQ(decoded->flags, kLogFlagTagged);
  EXPECT_EQ(decoded->name, "rank0.ckpt");
}

TEST(OpLogTest, DecodeRejectsBitFlip) {
  LogRecord rec = write_rec(5, 0, 100);
  rec.lsn = 1;
  std::vector<std::byte> buf;
  OpLog::encode_record(rec, buf);
  for (size_t i : {0ul, 10ul, 50ul}) {
    auto copy = buf;
    copy[i] ^= std::byte{1};
    EXPECT_FALSE(OpLog::decode_record(copy).ok()) << "flip at " << i;
  }
}

TEST(OpLogTest, AppendAndScanRoundtrip) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      LogRecord r;
      r.type = OpType::kCreate;
      r.ino = static_cast<Ino>(i + 2);
      r.parent = 1;
      r.name = "f" + std::to_string(i);
      EXPECT_TRUE((co_await fx.log.append(r)).ok());
    }
    auto scanned = co_await OpLog::scan(fx.dev, 0, 64, 0);
    EXPECT_TRUE(scanned.ok());
    EXPECT_EQ(scanned->size(), 10u);
    for (size_t i = 0; i + 1 < scanned->size(); ++i) {
      EXPECT_LT((*scanned)[i].second.lsn, (*scanned)[i + 1].second.lsn);
    }
  }(f));
}

TEST(OpLogTest, SequentialWritesCoalesce) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      bool coalesced = false;
      EXPECT_TRUE((co_await fx.log.append(
                       write_rec(5, static_cast<uint64_t>(i) * 1000, 1000),
                       true, &coalesced))
                      .ok());
      EXPECT_EQ(coalesced, i > 0);
    }
  }(f));
  EXPECT_EQ(f.log.live_records(), 1u);
  EXPECT_EQ(f.log.counters().appended, 1u);
  EXPECT_EQ(f.log.counters().coalesced, 19u);
}

TEST(OpLogTest, NonContiguousWritesDoNotCoalesce) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 0, 1000))).ok());
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 5000, 1000))).ok());
    EXPECT_TRUE((co_await fx.log.append(write_rec(6, 1000, 1000))).ok());
  }(f));
  EXPECT_EQ(f.log.live_records(), 3u);
}

TEST(OpLogTest, CoalesceAcrossInterleavedFileWithinWindow) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 0, 100))).ok());
    EXPECT_TRUE((co_await fx.log.append(write_rec(6, 0, 100))).ok());
    bool coalesced = false;
    // File 5 continues; its record is 2 back but inside the window.
    EXPECT_TRUE(
        (co_await fx.log.append(write_rec(5, 100, 100), true, &coalesced))
            .ok());
    EXPECT_TRUE(coalesced);
  }(f));
  EXPECT_EQ(f.log.live_records(), 2u);
}

TEST(OpLogTest, WindowBoundsTheSearch) {
  sim::Engine eng;
  hw::RamDevice dev(4_MiB);
  OpLog log(dev, 0, 64, /*coalesce_window=*/2);
  eng.run_task([](OpLog& l) -> sim::Task<void> {
    EXPECT_TRUE((co_await l.append(write_rec(5, 0, 100))).ok());
    EXPECT_TRUE((co_await l.append(write_rec(6, 0, 100))).ok());
    EXPECT_TRUE((co_await l.append(write_rec(7, 0, 100))).ok());
    bool coalesced = true;
    // File 5's record is now 3 back — outside the window of 2.
    EXPECT_TRUE((co_await l.append(write_rec(5, 100, 100), true, &coalesced))
                    .ok());
    EXPECT_FALSE(coalesced);
  }(log));
}

TEST(OpLogTest, AllowCoalesceFalseForcesNewSlot) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 0, 100))).ok());
    bool coalesced = true;
    EXPECT_TRUE(
        (co_await fx.log.append(write_rec(5, 100, 100), false, &coalesced))
            .ok());
    EXPECT_FALSE(coalesced);
  }(f));
  EXPECT_EQ(f.log.live_records(), 2u);
}

TEST(OpLogTest, EpochBoundaryStopsCoalescing) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 0, 100))).ok());
    fx.log.begin_epoch();
    bool coalesced = true;
    EXPECT_TRUE(
        (co_await fx.log.append(write_rec(5, 100, 100), true, &coalesced))
            .ok());
    EXPECT_FALSE(coalesced);
  }(f));
  EXPECT_EQ(f.log.live_records(), 2u);
}

TEST(OpLogTest, FullRingRejectsUntilTruncated) {
  sim::Engine eng;
  hw::RamDevice dev(4_MiB);
  OpLog log(dev, 0, /*slots=*/4, /*coalesce_window=*/0);
  eng.run_task([](OpLog& l) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(
          (co_await l.append(write_rec(static_cast<Ino>(i + 2), 0, 10))).ok());
    }
    EXPECT_EQ((co_await l.append(write_rec(99, 0, 10))).code(),
              ErrorCode::kUnavailable);
    const uint32_t e = l.begin_epoch();
    l.truncate_before(e);
    EXPECT_EQ(l.free_slots(), 4u);
    EXPECT_TRUE((co_await l.append(write_rec(99, 0, 10))).ok());
  }(log));
}

TEST(OpLogTest, ScanFiltersByEpoch) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(2, 0, 10))).ok());
    const uint32_t e = fx.log.begin_epoch();
    EXPECT_TRUE((co_await fx.log.append(write_rec(3, 0, 10))).ok());
    auto all = co_await OpLog::scan(fx.dev, 0, 64, 0);
    auto recent = co_await OpLog::scan(fx.dev, 0, 64, e);
    EXPECT_EQ(all->size(), 2u);
    EXPECT_EQ(recent->size(), 1u);
    EXPECT_EQ((*recent)[0].second.ino, 3u);
  }(f));
}

// ---------------------------------------------------------------------
// Group commit (deferred coalesced rewrites)
// ---------------------------------------------------------------------

TEST(OpLogGroupCommitTest, CoalescedExtensionsDeferDeviceWrites) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE((co_await fx.log.append(
                       write_rec(5, static_cast<uint64_t>(i) * 1000, 1000)))
                      .ok());
    }
    // 1 new-slot write; the 19 extensions are deferred, not on device.
    EXPECT_EQ(fx.log.counters().bytes_written, OpLog::kRecordBytes);
    EXPECT_EQ(fx.log.dirty_slots(), 1u);
    EXPECT_EQ(fx.log.counters().group_commits, 0u);

    // The flush drains the dirty slot in one batch.
    EXPECT_TRUE((co_await fx.log.flush()).ok());
    EXPECT_EQ(fx.log.dirty_slots(), 0u);
    EXPECT_EQ(fx.log.counters().group_commits, 1u);
    EXPECT_EQ(fx.log.counters().bytes_written, 2u * OpLog::kRecordBytes);

    // The scanned record carries the full coalesced range.
    auto scanned = co_await OpLog::scan(fx.dev, 0, 64, 0);
    EXPECT_TRUE(scanned.ok());
    if (!scanned.ok() || scanned->size() != 1u) co_return;
    EXPECT_EQ((*scanned)[0].second.a, 0u);
    EXPECT_EQ((*scanned)[0].second.b, 20000u);

    // A second flush with nothing dirty is a free no-op.
    EXPECT_TRUE((co_await fx.log.flush()).ok());
    EXPECT_EQ(fx.log.counters().group_commits, 1u);
    EXPECT_EQ(fx.log.counters().bytes_written, 2u * OpLog::kRecordBytes);
  }(f));
}

TEST(OpLogGroupCommitTest, NewSlotAppendDrainsPendingDeferred) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 0, 100))).ok());
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 100, 100))).ok());
    EXPECT_EQ(fx.log.dirty_slots(), 1u);
    // A different file's append takes a new slot — the pending deferred
    // rewrite rides the same drain (adjacent slots: one submission).
    EXPECT_TRUE((co_await fx.log.append(write_rec(6, 0, 100))).ok());
    EXPECT_EQ(fx.log.dirty_slots(), 0u);
    EXPECT_EQ(fx.log.counters().group_commits, 1u);
    auto scanned = co_await OpLog::scan(fx.dev, 0, 64, 0);
    EXPECT_TRUE(scanned.ok());
    if (!scanned.ok() || scanned->size() != 2u) co_return;
    EXPECT_EQ((*scanned)[0].second.b, 200u);  // extension made durable
  }(f));
}

TEST(OpLogGroupCommitTest, ScanBeforeFlushSeesStaleRecordNotCorruption) {
  // The documented durability contract: an unflushed extension is simply
  // absent from the device (the pre-extension record is intact) — a
  // crash loses the tail extension, never log integrity.
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 0, 100))).ok());
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 100, 100))).ok());
    auto scanned = co_await OpLog::scan(fx.dev, 0, 64, 0);
    EXPECT_TRUE(scanned.ok());
    if (!scanned.ok() || scanned->size() != 1u) co_return;
    EXPECT_EQ((*scanned)[0].second.b, 100u);  // pre-extension content
  }(f));
}

TEST(OpLogGroupCommitTest, TruncateDropsDirtyOfDiscardedEpoch) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 0, 100))).ok());
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 100, 100))).ok());
    EXPECT_EQ(fx.log.dirty_slots(), 1u);
    const uint32_t e = fx.log.begin_epoch();
    fx.log.truncate_before(e);
    // The deferred rewrite belonged to the truncated epoch: dropped, and
    // a later flush must not touch the (now reusable) slot.
    EXPECT_EQ(fx.log.dirty_slots(), 0u);
    const uint64_t bytes_before = fx.log.counters().bytes_written;
    EXPECT_TRUE((co_await fx.log.flush()).ok());
    EXPECT_EQ(fx.log.counters().bytes_written, bytes_before);
  }(f));
}

TEST(OpLogTest, RestoreContinuesAppending) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(2, 0, 10))).ok());
    EXPECT_TRUE((co_await fx.log.append(write_rec(3, 0, 10))).ok());
    auto scanned = co_await OpLog::scan(fx.dev, 0, 64, 0);

    OpLog fresh(fx.dev, 0, 64, 8);
    fresh.restore(*scanned, 1, 3);
    EXPECT_EQ(fresh.live_records(), 2u);
    EXPECT_TRUE((co_await fresh.append(write_rec(4, 0, 10))).ok());
    auto rescanned = co_await OpLog::scan(fx.dev, 0, 64, 0);
    EXPECT_EQ(rescanned->size(), 3u);
    EXPECT_EQ(rescanned->back().second.lsn, 3u);
  }(f));
}

// ---------------------------------------------------------------------
// Dirfile codec
// ---------------------------------------------------------------------

TEST(DirfileTest, EncodeDecodeRoundtrip) {
  std::vector<std::byte> buf;
  encode_dirent(Dirent{true, "alpha", 10}, buf);
  encode_dirent(Dirent{true, "beta", 11}, buf);
  encode_dirent(Dirent{false, "alpha", 10}, buf);
  auto decoded = decode_dirents(buf);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[0].name, "alpha");
  EXPECT_TRUE((*decoded)[0].add);
  EXPECT_FALSE((*decoded)[2].add);
}

TEST(DirfileTest, EncodedSizeMatchesHelper) {
  std::vector<std::byte> buf;
  const size_t n = encode_dirent(Dirent{true, "some-name", 42}, buf);
  EXPECT_EQ(n, dirent_encoded_size("some-name"));
  EXPECT_EQ(buf.size(), n);
}

TEST(DirfileTest, LiveViewFoldsTombstones) {
  std::vector<Dirent> stream{
      {true, "a", 1}, {true, "b", 2}, {false, "a", 1},
      {true, "c", 3}, {true, "a", 4},  // re-created with new ino
  };
  auto live = live_view(stream);
  ASSERT_EQ(live.size(), 3u);
  std::set<std::string> names;
  for (const auto& d : live) names.insert(d.name);
  EXPECT_EQ(names, (std::set<std::string>{"a", "b", "c"}));
  for (const auto& d : live) {
    if (d.name == "a") EXPECT_EQ(d.ino, 4u);
  }
}

TEST(DirfileTest, DecodeRejectsTruncation) {
  std::vector<std::byte> buf;
  encode_dirent(Dirent{true, "alpha", 10}, buf);
  buf.pop_back();
  EXPECT_FALSE(decode_dirents(buf).ok());
}

}  // namespace
}  // namespace nvmecr::microfs
