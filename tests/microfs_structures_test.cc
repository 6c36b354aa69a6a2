// Tests for the microfs persistence structures: circular block pool,
// operation log (with coalescing), dirent codec, inode table.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>
#include <set>

#include "common/rng.h"
#include "common/units.h"
#include "hw/ram_device.h"
#include "microfs/block_pool.h"
#include "microfs/codec.h"
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

/// A flat ring with one entry and one bit per hugeblock: the reference
/// BlockPool's run queues must match, in the blocks they hand out and in
/// the bytes they serialize.
class FlatRing {
 public:
  explicit FlatRing(uint64_t n) : ring_(n), allocated_(n, false), live_(n) {
    std::iota(ring_.begin(), ring_.end(), uint64_t{0});
  }

  StatusOr<uint64_t> alloc() {
    if (live_ == 0) return NoSpaceError("hugeblock pool exhausted");
    const uint64_t block = ring_[head_];
    head_ = (head_ + 1) % ring_.size();
    --live_;
    NVMECR_CHECK(!allocated_[block]);
    allocated_[block] = true;
    return block;
  }

  Status free(uint64_t block) {
    if (block >= ring_.size()) return InvalidArgumentError("out of range");
    if (!allocated_[block]) return InternalError("double free");
    allocated_[block] = false;
    ring_[(head_ + live_) % ring_.size()] = block;
    ++live_;
    return OkStatus();
  }

  uint64_t free_count() const { return live_; }
  bool is_allocated(uint64_t block) const { return allocated_[block]; }

  void serialize(std::vector<std::byte>& out) const {
    Encoder enc(out);
    enc.u64(ring_.size());
    enc.u64(head_);
    enc.u64(live_);
    for (uint64_t v : ring_) enc.u64(v);
    for (uint64_t i = 0; i < ring_.size(); i += 64) {
      uint64_t word = 0;
      for (uint64_t b = 0; b < 64 && i + b < ring_.size(); ++b) {
        if (allocated_[i + b]) word |= 1ull << b;
      }
      enc.u64(word);
    }
  }

 private:
  std::vector<uint64_t> ring_;
  std::vector<bool> allocated_;
  uint64_t head_ = 0;
  uint64_t live_ = 0;
};

/// The hugeblocks `runs` cover, one entry per hugeblock.
std::vector<uint64_t> expand(std::span<const BlockRun> runs) {
  std::vector<uint64_t> blocks;
  for (const BlockRun& run : runs) {
    for (uint64_t i = 0; i < run.count; ++i) blocks.push_back(run.start + i);
  }
  return blocks;
}

std::vector<std::byte> serialized(const BlockPool& pool) {
  std::vector<std::byte> buf;
  pool.serialize(buf);
  return buf;
}

TEST(BlockPoolTest, AllocInIndexOrderWhenFresh) {
  BlockPool pool(8);
  std::vector<BlockRun> runs;
  ASSERT_TRUE(pool.alloc(3, runs).ok());
  ASSERT_TRUE(pool.alloc(5, runs).ok());
  EXPECT_EQ(runs, (std::vector<BlockRun>{{0, 8}}));  // merged: contiguous
  EXPECT_EQ(pool.alloc(1, runs).code(), ErrorCode::kNoSpace);
  EXPECT_EQ(runs.size(), 1u);
}

TEST(BlockPoolTest, FreeRecyclesFifo) {
  BlockPool pool(4);
  std::vector<BlockRun> all;
  ASSERT_TRUE(pool.alloc(4, all).ok());
  const std::vector<BlockRun> freed = {{2, 1}, {0, 1}};
  EXPECT_TRUE(pool.free(freed).ok());
  std::vector<BlockRun> again;
  ASSERT_TRUE(pool.alloc(2, again).ok());
  EXPECT_EQ(again, freed);  // freed order, not index order
}

TEST(BlockPoolTest, DoubleFreeDetected) {
  BlockPool pool(4);
  std::vector<BlockRun> runs;
  ASSERT_TRUE(pool.alloc(1, runs).ok());
  EXPECT_TRUE(pool.free(runs).ok());
  EXPECT_EQ(pool.free(runs).code(), ErrorCode::kInternal);
  const BlockRun out_of_range[] = {{99, 1}};
  EXPECT_EQ(pool.free(out_of_range).code(), ErrorCode::kInvalidArgument);
  const BlockRun overflowing[] = {{2, UINT64_MAX}};
  EXPECT_EQ(pool.free(overflowing).code(), ErrorCode::kInvalidArgument);

  // All or nothing: a run whose second block is already free frees
  // nothing, not even its first block.
  runs.clear();
  ASSERT_TRUE(pool.alloc(3, runs).ok());  // blocks 1, 2, 3
  const BlockRun second[] = {{2, 1}};
  ASSERT_TRUE(pool.free(second).ok());
  const std::vector<std::byte> before = serialized(pool);
  const BlockRun straddling[] = {{1, 2}};
  EXPECT_EQ(pool.free(straddling).code(), ErrorCode::kInternal);
  EXPECT_TRUE(pool.is_allocated(1));
  EXPECT_EQ(pool.free_count(), 2u);
  EXPECT_EQ(serialized(pool), before);
  // So does a block listed twice, and a bad run after good ones.
  const BlockRun twice[] = {{1, 1}, {1, 1}};
  EXPECT_EQ(pool.free(twice).code(), ErrorCode::kInternal);
  const BlockRun good_then_bad[] = {{1, 1}, {3, 1}, {4, 1}};
  EXPECT_EQ(pool.free(good_then_bad).code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(pool.is_allocated(1));
  EXPECT_TRUE(pool.is_allocated(3));
  EXPECT_EQ(serialized(pool), before);
}

TEST(BlockPoolTest, CountsTrack) {
  BlockPool pool(10);
  EXPECT_EQ(pool.free_count(), 10u);
  std::vector<BlockRun> runs;
  ASSERT_TRUE(pool.alloc(2, runs).ok());
  EXPECT_EQ(pool.free_count(), 8u);
  EXPECT_EQ(pool.allocated_count(), 2u);
  EXPECT_TRUE(pool.is_allocated(0));
  EXPECT_FALSE(pool.is_allocated(5));
  EXPECT_FALSE(pool.is_allocated(10));
}

TEST(BlockPoolTest, DeterministicSequences) {
  // Two pools fed the same alloc/free sequence yield identical results —
  // the property log replay relies on.
  BlockPool a(64), b(64);
  Rng rng(5);
  std::vector<uint64_t> live;
  for (int i = 0; i < 500; ++i) {
    if (live.empty() || rng.uniform(3) != 0) {
      std::vector<BlockRun> ra, rb;
      const uint64_t n = 1 + rng.uniform(4);
      const Status sa = a.alloc(n, ra);
      ASSERT_EQ(sa.code(), b.alloc(n, rb).code());
      ASSERT_EQ(ra, rb);
      for (uint64_t block : expand(ra)) live.push_back(block);
    } else {
      const size_t pick = rng.uniform(live.size());
      const BlockRun run[] = {{live[pick], 1}};
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      ASSERT_TRUE(a.free(run).ok());
      ASSERT_TRUE(b.free(run).ok());
    }
  }
  EXPECT_EQ(serialized(a), serialized(b));
}

TEST(BlockPoolTest, SerializeRoundtrip) {
  BlockPool pool(32);
  std::vector<BlockRun> runs;
  ASSERT_TRUE(pool.alloc(20, runs).ok());
  const BlockRun freed[] = {{3, 1}, {17, 1}};
  ASSERT_TRUE(pool.free(freed).ok());
  std::vector<std::byte> buf = serialized(pool);

  BlockPool restored;
  auto used = restored.deserialize(buf);
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(*used, buf.size());
  EXPECT_EQ(restored.free_count(), pool.free_count());
  EXPECT_EQ(restored.total(), pool.total());
  EXPECT_EQ(serialized(restored), buf);
  // Continued allocation matches.
  std::vector<BlockRun> a, b;
  ASSERT_TRUE(pool.alloc(10, a).ok());
  ASSERT_TRUE(restored.alloc(10, b).ok());
  EXPECT_EQ(a, b);
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
    std::vector<BlockRun> runs;
    if (fifo.empty()) {
      EXPECT_EQ(pool.alloc(1, runs).code(), ErrorCode::kNoSpace);
    }
    if (!fifo.empty() && (live.empty() || rng.uniform(2) == 0)) {
      const uint64_t n = 1 + rng.uniform(fifo.size());
      ASSERT_TRUE(pool.alloc(n, runs).ok());
      for (uint64_t block : expand(runs)) {
        ASSERT_EQ(block, fifo.front());
        fifo.pop_front();
        live.push_back(block);
        ++allocs;
      }
    } else {
      const size_t pick = rng.uniform(live.size());
      const BlockRun run[] = {{live[pick], 1}};
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      ASSERT_TRUE(pool.free(run).ok());
      fifo.push_back(run[0].start);
      EXPECT_EQ(pool.free(run).code(), ErrorCode::kInternal);
    }
    ASSERT_EQ(pool.free_count(), fifo.size());
    for (uint64_t b = 0; b < kBlocks; ++b) {
      EXPECT_EQ(pool.is_allocated(b),
                std::find(live.begin(), live.end(), b) != live.end());
    }
  }
  EXPECT_GT(allocs, 100 * kBlocks);
  const BlockRun past_end[] = {{kBlocks, 1}};
  EXPECT_EQ(pool.free(past_end).code(), ErrorCode::kInvalidArgument);
  EXPECT_FALSE(pool.is_allocated(kBlocks));

  // A snapshot taken mid-lap restores the wrapped ring: free the live
  // blocks into both pools, then both hand out the reference sequence.
  BlockPool restored;
  ASSERT_TRUE(restored.deserialize(serialized(pool)).ok());
  for (uint64_t block : live) {
    const BlockRun run[] = {{block, 1}};
    ASSERT_TRUE(pool.free(run).ok());
    ASSERT_TRUE(restored.free(run).ok());
    fifo.push_back(block);
  }
  std::vector<BlockRun> a, b;
  ASSERT_TRUE(pool.alloc(kBlocks, a).ok());
  ASSERT_TRUE(restored.alloc(kBlocks, b).ok());
  EXPECT_EQ(expand(a), std::vector<uint64_t>(fifo.begin(), fifo.end()));
  EXPECT_EQ(b, a);
  EXPECT_EQ(restored.alloc(1, b).code(), ErrorCode::kNoSpace);
}

// Files grow by appends and are freed whole or in part, as MicroFs does
// with its block maps; after every step the pool must match the flat
// ring in the blocks it hands out, its counts, its bitmap and its bytes.
TEST(BlockPoolTest, MatchesFlatRingReference) {
  for (const uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    constexpr uint64_t kBlocks = 300;
    BlockPool pool(kBlocks);
    FlatRing ref(kBlocks);
    std::vector<std::vector<BlockRun>> files(6);
    Rng rng(seed);
    for (int step = 0; step < 3000; ++step) {
      std::vector<BlockRun>& file = files[rng.uniform(files.size())];
      const uint64_t op = rng.uniform(8);
      if (op < 5) {  // append n blocks
        const uint64_t n = 1 + rng.uniform(op == 0 ? 120 : 8);
        const size_t had = expand(file).size();
        const Status s = pool.alloc(n, file);
        if (ref.free_count() < n) {
          ASSERT_EQ(s.code(), ErrorCode::kNoSpace);
          ASSERT_EQ(expand(file).size(), had);
        } else {
          ASSERT_TRUE(s.ok());
          const std::vector<uint64_t> got = expand(file);
          for (size_t i = had; i < got.size(); ++i) {
            ASSERT_EQ(got[i], *ref.alloc());
          }
          for (size_t r = 1; r < file.size(); ++r) {  // maximal runs
            ASSERT_NE(file[r - 1].start + file[r - 1].count, file[r].start);
          }
        }
      } else if (op < 7) {  // free the whole file, or a tail cut mid-run
        std::vector<uint64_t> blocks = expand(file);
        const size_t keep = op == 5 ? 0 : rng.uniform(blocks.size() + 1);
        std::vector<BlockRun> tail;
        for (size_t i = keep; i < blocks.size(); ++i) {
          append_run(tail, {blocks[i], 1});
        }
        ASSERT_TRUE(pool.free(tail).ok());
        for (size_t i = keep; i < blocks.size(); ++i) {
          ASSERT_TRUE(ref.free(blocks[i]).ok());
        }
        blocks.resize(keep);
        file.clear();
        for (uint64_t b : blocks) append_run(file, {b, 1});
      } else if (!file.empty()) {  // a bad free changes nothing
        std::vector<BlockRun> bad = file;
        bad.push_back(file.front());
        ASSERT_EQ(pool.free(bad).code(), ErrorCode::kInternal);
      }
      ASSERT_EQ(pool.free_count(), ref.free_count());
      ASSERT_EQ(pool.allocated_count(), kBlocks - ref.free_count());
      for (uint64_t b = 0; b < kBlocks; ++b) {
        ASSERT_EQ(pool.is_allocated(b), ref.is_allocated(b)) << b;
      }
      std::vector<std::byte> want;
      ref.serialize(want);
      ASSERT_EQ(serialized(pool), want) << "step " << step;
    }
    const std::vector<std::byte> bytes = serialized(pool);
    BlockPool restored;
    ASSERT_TRUE(restored.deserialize(bytes).ok());
    EXPECT_EQ(serialized(restored), bytes);
  }
}

TEST(BlockPoolTest, DeserializeRejectsCorruption) {
  BlockPool pool(8);
  std::vector<BlockRun> runs;
  ASSERT_TRUE(pool.alloc(1, runs).ok());
  std::vector<std::byte> buf = serialized(pool);
  buf[10] ^= std::byte{0xff};
  BlockPool restored;
  EXPECT_FALSE(restored.deserialize(buf).ok());
}

// A count read from the device must be checked against the bytes that
// follow it before anything is sized by it: vector::resize throws
// length_error or bad_alloc on such counts, which aborts inside recover().
TEST(BlockPoolTest, DeserializeRejectsOversizedCounts) {
  for (const uint64_t total : {uint64_t{1} << 61, uint64_t{1} << 36}) {
    std::vector<std::byte> buf;
    Encoder enc(buf);
    enc.u64(total);
    enc.u64(0);  // head
    enc.u64(0);  // live
    enc.u64(0);
    BlockPool restored;
    EXPECT_EQ(restored.deserialize(buf).status().code(),
              ErrorCode::kCorruption);

    buf.clear();
    Inode inode;
    inode.serialize(enc);
    buf.resize(buf.size() - 8);  // replace the block count
    enc.u64(total);
    enc.u64(7);
    Decoder dec(buf);
    EXPECT_EQ(Inode().deserialize(dec).code(), ErrorCode::kCorruption);
  }
  // Ring entries fit but the bitmap words do not.
  std::vector<std::byte> buf = serialized(BlockPool(128));
  buf.resize(buf.size() - 8);
  BlockPool restored;
  EXPECT_EQ(restored.deserialize(buf).status().code(),
            ErrorCode::kCorruption);
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
  for (uint64_t b : {7, 8, 9}) a.blocks.push_back(b);
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
  EXPECT_EQ(ra->blocks.runs(), (std::vector<BlockRun>{{7, 3}}));
  EXPECT_EQ(r.next_ino(), t.next_ino());
}

// A fragmented map is held as its maximal runs but encoded one entry per
// hugeblock, byte for byte as the per-hugeblock array was.
TEST(InodeTableTest, FragmentedBlockMapRoundTrip) {
  const std::vector<uint64_t> blocks = {7, 8, 9, 3, 4, 20};
  Inode inode;
  inode.ino = 5;
  inode.size = 6 * 32_KiB;
  for (uint64_t b : blocks) inode.blocks.push_back(b);
  EXPECT_EQ(inode.blocks.runs(),
            (std::vector<BlockRun>{{7, 3}, {3, 2}, {20, 1}}));
  ASSERT_EQ(inode.blocks.size(), blocks.size());
  for (uint64_t hb = 0; hb < blocks.size(); ++hb) {
    EXPECT_EQ(inode.blocks.at(hb), blocks[hb]) << hb;
  }

  std::vector<std::byte> want;
  {
    Encoder enc(want);
    enc.u64(inode.ino);
    enc.u8(static_cast<uint8_t>(inode.type));
    enc.u32(inode.mode);
    enc.u32(inode.uid);
    enc.u64(inode.size);
    enc.u64(inode.seed);
    enc.u8(static_cast<uint8_t>(inode.content));
    enc.u64(blocks.size());
    for (uint64_t b : blocks) enc.u64(b);
  }
  std::vector<std::byte> got;
  Encoder enc(got);
  inode.serialize(enc);
  EXPECT_EQ(got, want);

  Inode back;
  Decoder dec(got);
  ASSERT_TRUE(back.deserialize(dec).ok());
  EXPECT_EQ(back.blocks.runs(), inode.blocks.runs());
  EXPECT_EQ(back.blocks.slots(), blocks.size());
  std::vector<std::byte> again;
  Encoder enc2(again);
  back.serialize(enc2);
  EXPECT_EQ(again, want);
}

// Table I counts each map as the per-hugeblock std::vector it replaced:
// slots grow to max(needed, 2 * mapped) on overflow and survive release.
TEST(InodeTableTest, BlockMapSlotsModelVectorGrowth) {
  BlockPool pool(8192);
  BlockMap map;
  for (int i = 0; i < 38; ++i) ASSERT_TRUE(map.grow(pool, 128).ok());
  EXPECT_EQ(map.size(), 38u * 128);
  EXPECT_EQ(map.slots(), 8192u);
  EXPECT_EQ(map.runs(), (std::vector<BlockRun>{{0, 38 * 128}}));
  EXPECT_EQ(map.grow(pool, 8192).code(), ErrorCode::kNoSpace);
  EXPECT_EQ(map.slots(), 8192u);
  ASSERT_TRUE(map.release(pool).ok());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.slots(), 8192u);
  EXPECT_EQ(pool.free_count(), 8192u);
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
    if (d.name == "a") {
      EXPECT_EQ(d.ino, 4u);
    }
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
