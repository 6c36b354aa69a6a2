// Figure 7(c) + §IV-D — Direct-access evaluation: full-subscription
// (28 processes) checkpoint dump times on a LOCAL NVMe SSD for NVMe-CR,
// XFS, ext4, and raw SPDK, across checkpoint sizes; plus the percentage
// of benchmark time spent in the kernel.
//
// Paper shape: NVMe-CR ~= SPDK (no measurable software overhead); at
// 512 MB NVMe-CR is ~19% faster than XFS and ~83% faster than ext4;
// kernel-time fractions ~10% (NVMe-CR) vs 76.5% (XFS) vs 79% (ext4).
#include "bench_util.h"

#include "kernelfs/localfs.h"
#include "nvmf/spdk.h"
#include "simcore/event.h"

namespace nvmecr::bench {
namespace {

constexpr uint32_t kProcs = 28;
// The benchmark's user-side work: serializing/formatting the checkpoint
// image before it is written (~4.5 ns per byte, the CoMD dump routine's
// pace). It is part of "benchmark time" for the kernel-time fractions
// but not of the dump-time comparison.
constexpr double kGenNsPerByte = 4.5;
// Application-side (non-IO) kernel time: stdio/malloc/page faults while
// producing the image — charged identically for every system (~1.8 ns
// per byte reproduces the paper's ~10%% for a system whose IO path never
// enters the kernel).
constexpr double kAppKernelNsPerByte = 1.8;

struct Result {
  double seconds = 0;
  double kernel_fraction = 0;
};

/// NVMe-CR on the local SSD (userspace direct access).
Result run_nvmecr_local(uint64_t bytes_per_proc) {
  ClusterSpec spec;
  spec.local_ssds = true;
  Cluster cluster(spec);
  Scheduler sched(cluster);
  ComdParams params;
  params.nranks = kProcs;
  params.atoms_per_rank = bytes_per_proc / 512;
  params.bytes_per_atom = 512;
  params.checkpoints = 1;
  params.compute_per_period = kMillisecond;
  params.io_chunk = 1_MiB;
  params.do_recovery = false;
  auto job = sched.allocate(kProcs, kProcs, partition_for(params), 1);
  NVMECR_CHECK(job.ok());
  RuntimeConfig config = default_runtime_config();
  config.remote = false;
  nvmecr_rt::NvmecrSystem system(cluster, *job, config);
  auto m = ComdDriver::run(cluster, system, params);
  NVMECR_CHECK(m.ok());
  Result r;
  r.seconds = to_seconds(m->checkpoint_time);
  const double app_kernel =
      kAppKernelNsPerByte * static_cast<double>(bytes_per_proc) * kProcs;
  const double benchmark_time =
      static_cast<double>(m->checkpoint_time) +
      kGenNsPerByte * static_cast<double>(bytes_per_proc);
  r.kernel_fraction =
      (static_cast<double>(m->kernel_time) + app_kernel) /
      (benchmark_time * kProcs);
  return r;
}

/// ext4/XFS over the same local SSD: 28 processes write+fsync.
Result run_kernel_fs(kernelfs::LocalFsParams params, uint64_t bytes_per_proc) {
  sim::Engine eng;
  hw::NvmeSsd ssd(eng, hw::SsdSpec{});
  const uint32_t nsid = ssd.create_namespace(300_GiB).value();
  kernelfs::LocalFs fs(eng, ssd, nsid, params);
  sim::JoinCounter join(eng);
  for (uint32_t p = 0; p < kProcs; ++p) {
    join.spawn([](kernelfs::LocalFs& f, uint32_t rank,
                  uint64_t bytes) -> sim::Task<void> {
      auto fd = co_await f.open("/ckpt.rank" + std::to_string(rank), true);
      NVMECR_CHECK(fd.ok());
      uint64_t left = bytes;
      while (left > 0) {
        const uint64_t piece = std::min<uint64_t>(1_MiB, left);
        NVMECR_CHECK((co_await f.write(*fd, piece)).ok());
        left -= piece;
      }
      NVMECR_CHECK((co_await f.fsync(*fd)).ok());
      NVMECR_CHECK((co_await f.close(*fd)).ok());
    }(fs, p, bytes_per_proc));
  }
  eng.run();
  Result r;
  r.seconds = to_seconds(eng.now());
  const double app_kernel =
      kAppKernelNsPerByte * static_cast<double>(bytes_per_proc) * kProcs;
  const double benchmark_time =
      static_cast<double>(eng.now()) +
      kGenNsPerByte * static_cast<double>(bytes_per_proc);
  r.kernel_fraction =
      (static_cast<double>(fs.kernel_time()) + app_kernel) /
      (benchmark_time * kProcs);
  return r;
}

/// Raw SPDK: each process a namespace + queue, hugeblock-sized writes.
Result run_spdk_raw(uint64_t bytes_per_proc) {
  sim::Engine eng;
  hw::NvmeSsd ssd(eng, hw::SsdSpec{});
  sim::JoinCounter join(eng);
  for (uint32_t p = 0; p < kProcs; ++p) {
    const uint32_t nsid =
        ssd.create_namespace(bytes_per_proc + 64_MiB).value();
    join.spawn([](hw::NvmeSsd& dev_ssd, uint32_t ns,
                  uint64_t bytes) -> sim::Task<void> {
      auto dev = nvmf::SpdkLocalDevice::open(dev_ssd, ns).value();
      uint64_t off = 0;
      while (off < bytes) {
        const uint64_t piece = std::min<uint64_t>(1_MiB, bytes - off);
        NVMECR_CHECK((co_await dev->write_tagged(
                          off, round_up(piece, 32_KiB), 7,
                          static_cast<uint32_t>(piece / 32_KiB)))
                         .ok());
        off += piece;
      }
      NVMECR_CHECK((co_await dev->flush()).ok());
    }(ssd, nsid, bytes_per_proc));
  }
  eng.run();
  Result r;
  r.seconds = to_seconds(eng.now());
  const double app_kernel =
      kAppKernelNsPerByte * static_cast<double>(bytes_per_proc) * kProcs;
  const double benchmark_time =
      static_cast<double>(eng.now()) +
      kGenNsPerByte * static_cast<double>(bytes_per_proc);
  r.kernel_fraction = app_kernel / (benchmark_time * kProcs);
  return r;
}

}  // namespace
}  // namespace nvmecr::bench

int main() {
  using namespace nvmecr;
  using namespace nvmecr::bench;

  print_banner("Figure 7(c)",
               "local direct access: dump time (28 procs, write+fsync)");
  TablePrinter table({"ckpt size/proc", "NVMe-CR (s)", "SPDK (s)", "XFS (s)",
                      "ext4 (s)", "XFS vs NVMe-CR", "ext4 vs NVMe-CR"});
  Result last_nv, last_xfs, last_ext4, last_spdk;
  for (uint64_t mb : {64u, 128u, 256u, 512u}) {
    const uint64_t bytes = static_cast<uint64_t>(mb) << 20;
    const Result nv = run_nvmecr_local(bytes);
    const Result spdk = run_spdk_raw(bytes);
    const Result xfs = run_kernel_fs(kernelfs::LocalFsParams::xfs(), bytes);
    const Result ext4 = run_kernel_fs(kernelfs::LocalFsParams::ext4(), bytes);
    table.add_row({TablePrinter::num(mb) + " MB",
                   TablePrinter::num(nv.seconds, 3),
                   TablePrinter::num(spdk.seconds, 3),
                   TablePrinter::num(xfs.seconds, 3),
                   TablePrinter::num(ext4.seconds, 3),
                   pct(xfs.seconds / nv.seconds - 1.0),
                   pct(ext4.seconds / nv.seconds - 1.0)});
    last_nv = nv;
    last_xfs = xfs;
    last_ext4 = ext4;
    last_spdk = spdk;
  }
  table.print();

  print_banner("§IV-D", "percentage of benchmark time in the kernel (512 MB)");
  TablePrinter ktable({"system", "kernel time"});
  ktable.add_row({"NVMe-CR", pct(last_nv.kernel_fraction)});
  ktable.add_row({"SPDK", pct(last_spdk.kernel_fraction)});
  ktable.add_row({"XFS", pct(last_xfs.kernel_fraction)});
  ktable.add_row({"ext4", pct(last_ext4.kernel_fraction)});
  ktable.print();
  std::printf(
      "\nPaper reference: at 512 MB, NVMe-CR ~19%% faster than XFS, ~83%% "
      "faster than ext4, ~= SPDK; kernel time 10%% vs 76.5%% vs 79%%.\n");
  return 0;
}
