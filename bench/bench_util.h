// Shared helpers for the figure/table reproduction binaries: canonical
// workload parameterizations (matching §IV's stated totals) and runners
// that deploy a system on a fresh cluster and execute the CoMD job.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "baselines/models.h"
#include "common/table.h"
#include "nvmecr/runtime.h"
#include "obs/observer.h"
#include "workloads/comd.h"

namespace nvmecr::bench {

using namespace nvmecr::literals;
using baselines::StorageSystem;
using nvmecr_rt::Cluster;
using nvmecr_rt::ClusterSpec;
using nvmecr_rt::JobAllocation;
using nvmecr_rt::RuntimeConfig;
using nvmecr_rt::Scheduler;
using workloads::ComdDriver;
using workloads::ComdParams;
using workloads::JobMetrics;

/// Weak scaling (§IV-H): 32K atoms/process; 10 checkpoints totalling
/// 700 GB at 448 processes => ~156 MiB per rank per checkpoint
/// (~4.77 KiB per atom; see DESIGN.md on the paper's bytes-per-atom
/// inconsistency).
inline ComdParams weak_scaling_params(uint32_t nranks) {
  ComdParams p;
  p.nranks = nranks;
  p.procs_per_node = 28;
  p.atoms_per_rank = 32768;
  p.bytes_per_atom = 4772;
  p.checkpoints = 10;
  p.compute_per_period = 2900 * kMillisecond;
  p.io_chunk = 4_MiB;
  return p;
}

/// Strong scaling (§IV-H): 16,384K atoms total, 86 GB over 10
/// checkpoints => 8.6 GB per checkpoint (~525 B per atom).
inline ComdParams strong_scaling_params(uint32_t nranks) {
  ComdParams p;
  p.nranks = nranks;
  p.procs_per_node = 28;
  p.atoms_per_rank = 16384 * 1024 / nranks;
  p.bytes_per_atom = 525;
  p.checkpoints = 10;
  p.compute_per_period = 2900 * kMillisecond;
  p.io_chunk = 4_MiB;
  return p;
}

/// NVMe-CR runtime configuration used by the headline experiments
/// (32 KiB hugeblocks, provenance + coalescing on, userspace NVMf).
inline RuntimeConfig default_runtime_config() {
  RuntimeConfig config;
  config.fs.io_batch_hugeblocks = 256;  // simulation batching only
  return config;
}

/// Partition size covering keep_last+1 checkpoints plus metadata.
inline uint64_t partition_for(const ComdParams& p) {
  return round_up((p.keep_last + 1) * p.rank_checkpoint_bytes() + 64_MiB,
                  64_MiB);
}

/// Deploys NVMe-CR for `params` on a fresh cluster and runs the job.
/// `observer` (optional) instruments the whole stack — pass
/// obs::RunReport::observer() to capture a trace/metrics snapshot of the
/// run.
inline JobMetrics run_nvmecr(const ComdParams& params,
                             RuntimeConfig config = default_runtime_config(),
                             uint32_t num_ssds = 8,
                             const obs::Observer& observer = {}) {
  Cluster cluster;
  if (observer.any()) cluster.install_observer(observer);
  Scheduler sched(cluster);
  auto job = sched.allocate(params.nranks, params.procs_per_node,
                            partition_for(params), num_ssds);
  NVMECR_CHECK(job.ok());
  nvmecr_rt::NvmecrSystem system(cluster, *job, config);
  auto m = ComdDriver::run(cluster, system, params);
  NVMECR_CHECK(m.ok());
  return *m;
}

/// Runs one of the named comparator systems ("GlusterFS", "OrangeFS")
/// for `params` on a fresh cluster.
inline JobMetrics run_dfs(const std::string& name, const ComdParams& params) {
  Cluster cluster;
  std::unique_ptr<StorageSystem> system;
  if (name == "GlusterFS") {
    system = std::make_unique<baselines::GlusterFsModel>(
        cluster, params.nranks, params.procs_per_node);
  } else if (name == "OrangeFS") {
    system = std::make_unique<baselines::OrangeFsModel>(
        cluster, params.nranks, params.procs_per_node);
  } else {
    NVMECR_CHECK(false && "unknown system");
  }
  auto m = ComdDriver::run(cluster, *system, params);
  NVMECR_CHECK(m.ok());
  return *m;
}

inline std::string pct(double x, int precision = 1) {
  return TablePrinter::num(100.0 * x, precision) + "%";
}

}  // namespace nvmecr::bench
