// Micro-benchmarks (google-benchmark) for the real data structures the
// control plane runs on: the DRAM B+Tree, the circular hugeblock pool
// (alone and under MicroFs file growth), operation-log record
// encode/append (with and without coalescing), the kernel-FS
// comparator model's per-write bookkeeping, the engine's timer tiers and
// CRC64.
// These measure host CPU, not simulated time — they justify the
// control-plane cost constants used by the simulation. They are
// informational: no CI job gates on them (perfbench/ is the host-time
// benchmark).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/crc.h"
#include "common/rng.h"
#include "hw/nvme_ssd.h"
#include "hw/ram_device.h"
#include "kernelfs/localfs.h"
#include "microfs/block_pool.h"
#include "microfs/bptree.h"
#include "microfs/microfs.h"
#include "microfs/oplog.h"
#include "simcore/engine.h"

namespace nvmecr::microfs {
namespace {

using namespace nvmecr::literals;

void BM_BpTreeInsert(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    BpTree<uint64_t, uint64_t> tree;
    state.ResumeTiming();
    for (uint64_t i = 0; i < n; ++i) tree.insert(mix64(i), i);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BpTreeInsert)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_BpTreeLookup(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  BpTree<uint64_t, uint64_t> tree;
  for (uint64_t i = 0; i < n; ++i) tree.insert(mix64(i), i);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.find(mix64(key++ % n)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BpTreeLookup)->Arg(16384)->Arg(131072);

void BM_BpTreePathLookup(benchmark::State& state) {
  // String-keyed lookups as the microfs namespace uses them.
  BpTree<std::string, uint64_t> tree;
  std::vector<std::string> paths;
  for (int i = 0; i < 4096; ++i) {
    paths.push_back("/ckpt/step0007/rank" + std::to_string(i) + ".ckpt");
    tree.insert(paths.back(), static_cast<uint64_t>(i));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.find(paths[i++ % paths.size()]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BpTreePathLookup);

void BM_BlockPoolAllocFree(benchmark::State& state) {
  // One run of 128 hugeblocks (a 4 MiB append of 32 KiB hugeblocks)
  // taken from the ring head and returned to its tail; items are
  // hugeblocks.
  constexpr uint64_t kRun = 128;
  BlockPool pool(1u << 20);
  std::vector<BlockRun> runs;
  for (auto _ : state) {
    runs.clear();
    NVMECR_CHECK(pool.alloc(kRun, runs).ok());
    benchmark::DoNotOptimize(runs.data());
    NVMECR_CHECK(pool.free(runs).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRun));
}
BENCHMARK(BM_BlockPoolAllocFree);

void BM_MicroFsTaggedAppend(benchmark::State& state) {
  // One file grown in 4 MiB tagged appends to range(0) MiB, then
  // truncated (untimed) and grown again: time per iteration is time per
  // append. It stays flat across file sizes because growing the block
  // map costs O(new runs), not a rescan of the whole map.
  constexpr uint64_t kAppend = 4_MiB;
  const uint64_t file_bytes = static_cast<uint64_t>(state.range(0)) * 1_MiB;
  const std::string path = "/rank0.ckpt";
  Options options;
  options.io_batch_hugeblocks = 256;  // as the scaling benches run it
  sim::Engine eng;
  hw::RamDevice dev(file_bytes + 16_MiB);
  auto fs = eng.run_task(MicroFs::format(eng, dev, options)).value();
  int fd = eng.run_task(fs->creat(path)).value();
  uint64_t size = 0;
  for (auto _ : state) {
    if (size == file_bytes) {
      state.PauseTiming();
      NVMECR_CHECK(eng.run_task(fs->close(fd)).ok());
      fd = eng.run_task(fs->creat(path)).value();
      size = 0;
      state.ResumeTiming();
    }
    NVMECR_CHECK(eng.run_task(fs->write_tagged(fd, kAppend)).ok());
    size += kAppend;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAppend));
}
BENCHMARK(BM_MicroFsTaggedAppend)->Arg(16)->Arg(64)->Arg(256);

void BM_LocalFsWrite(benchmark::State& state) {
  // range(0) files held open on one LocalFs (as a DFS server holds one
  // per rank), written 4 MiB at a time round-robin. write(2) finds its
  // file through the fd alone, so time per write stays flat in the
  // number of open files.
  const auto nfiles = static_cast<size_t>(state.range(0));
  sim::Engine eng;
  hw::NvmeSsd ssd(eng, hw::SsdSpec{.capacity = 8_GiB});
  const uint32_t nsid = ssd.create_namespace(4_GiB).value();
  kernelfs::LocalFs fs(eng, ssd, nsid);
  std::vector<int> fds;
  for (size_t i = 0; i < nfiles; ++i) {
    fds.push_back(
        eng.run_task(fs.open("/ckpt/rank" + std::to_string(i), true)).value());
  }
  size_t next = 0;
  for (auto _ : state) {
    NVMECR_CHECK(eng.run_task(fs.write(fds[next], 4_MiB)).ok());
    if (++next == nfiles) next = 0;
  }
}
BENCHMARK(BM_LocalFsWrite)->Arg(16)->Arg(256)->Arg(1024);

void BM_LogRecordEncode(benchmark::State& state) {
  LogRecord rec;
  rec.type = OpType::kWrite;
  rec.ino = 42;
  rec.a = 123456789;
  rec.b = 4 << 20;
  std::vector<std::byte> buf;
  for (auto _ : state) {
    OpLog::encode_record(rec, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          OpLog::kRecordBytes);
}
BENCHMARK(BM_LogRecordEncode);

sim::Task<void> far_future_timer(sim::Engine& eng, uint32_t id,
                                 uint32_t hops) {
  // Deterministic per-task delay stream, skewed so most timers land past
  // the calendar window (~8.4 ms) and exercise window rotation + the
  // heap spill tier rather than the bucketed fast path.
  uint64_t seed = mix64(id + 1);
  for (uint32_t i = 0; i < hops; ++i) {
    seed = mix64(seed);
    const SimDuration delay =
        (i % 8 == 0) ? static_cast<SimDuration>(100 + seed % 4000)
                     : static_cast<SimDuration>(1'000'000 + seed % 40'000'000);
    co_await eng.sleep_until(eng.now() + delay);
  }
}

sim::Task<void> near_timer(sim::Engine& eng, uint32_t id, uint32_t hops) {
  // e2e-shaped delays: fabric hops (1-8 us), device service (20-200 us),
  // with an occasional epoch-scale pause. This is the distribution the
  // calendar tier actually serves in a CoMD run.
  uint64_t seed = mix64(id + 1);
  for (uint32_t i = 0; i < hops; ++i) {
    seed = mix64(seed);
    SimDuration delay;
    if (i % 16 == 15) {
      delay = static_cast<SimDuration>(1'000'000 + seed % 4'000'000);
    } else if (i % 3 == 0) {
      delay = static_cast<SimDuration>(1'000 + seed % 7'000);
    } else {
      delay = static_cast<SimDuration>(20'000 + seed % 180'000);
    }
    co_await eng.sleep_until(eng.now() + delay);
  }
}

void BM_SchedulerNearTimer(benchmark::State& state) {
  uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine eng;
    for (uint32_t id = 0; id < 256; ++id) {
      eng.spawn(near_timer(eng, id, 128));
    }
    eng.run();
    events += eng.events_dispatched();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_SchedulerNearTimer)->Unit(benchmark::kMillisecond);

void BM_SchedulerFarFuture(benchmark::State& state) {
  // Worst case for the calendar tier: far-future-skewed timers that
  // mostly bypass the buckets and go through the heap and window
  // rotation — the counterpart to BM_SchedulerNearTimer.
  uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine eng;
    for (uint32_t id = 0; id < 64; ++id) {
      eng.spawn(far_future_timer(eng, id, 128));
    }
    eng.run();
    events += eng.events_dispatched();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_SchedulerFarFuture)->Unit(benchmark::kMillisecond);

void BM_Crc64(benchmark::State& state) {
  // Arg(0): the byte-at-a-time reference; Arg(1): the slice-by-16 hot
  // path, over the same 1 MiB buffer. Both produce the same CRC with one
  // table lookup per byte, so only host time tells them apart.
  const bool sliced = state.range(0) != 0;
  std::vector<unsigned char> buf(1_MiB);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(mix64(i) & 0xff);
  }
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sliced ? crc64(buf.data(), buf.size(), seed++)
               : nvmecr::detail::crc64_reference(buf.data(), buf.size(),
                                                 seed++));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
  state.SetLabel(sliced ? "slice-by-16" : "bytewise");
}
BENCHMARK(BM_Crc64)->Arg(0)->Arg(1);

void BM_OpLogAppend(benchmark::State& state) {
  const bool coalesce = state.range(0) != 0;
  sim::Engine eng;
  hw::RamDevice dev(64_MiB);
  OpLog log(dev, 0, 8192, coalesce ? 64 : 0);
  uint64_t off = 0;
  for (auto _ : state) {
    LogRecord rec;
    rec.type = OpType::kWrite;
    rec.ino = 7;
    rec.a = off;
    rec.b = 1_MiB;
    off += 1_MiB;
    eng.run_task([](OpLog& l, LogRecord r) -> sim::Task<void> {
      NVMECR_CHECK((co_await l.append(r)).ok());
    }(log, rec));
    if (!coalesce && log.free_slots() == 0) {
      state.PauseTiming();
      log.truncate_before(log.begin_epoch());
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_OpLogAppend)->Arg(0)->Arg(1);

}  // namespace
}  // namespace nvmecr::microfs

BENCHMARK_MAIN();
