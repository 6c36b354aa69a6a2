// The NVMe-CR runtime (§III-B, Figure 3): one storage-runtime instance
// per application process, each mounted on a private partition of a
// (remote) NVMe namespace and built on microfs.
//
// NvmecrSystem deploys the runtime for one job: it consumes the
// scheduler's JobAllocation, and connect(rank) performs exactly the
// paper's initialization sequence — MPI_COMM_CR split by shared SSD
// (Figure 6), NVMf qpair establishment, partitioning by rank slot, and
// microfs format — after which no instance ever coordinates with
// another.
//
// RuntimeConfig's toggles expose the drilldown axes of Figure 7(d):
//   userspace          off -> the Figure-2 kernel NVMf path (per-command
//                             kernel costs, time attributed as kernel)
//   private_namespace  off -> creates serialize through a global
//                             namespace service (distributed locking)
//   fs.metadata_provenance / fs.hugeblock_size / fs.coalesce_window as
//   in microfs::Options.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/storage_api.h"
#include "microfs/microfs.h"
#include "minimpi/comm.h"
#include "nvmecr/cluster.h"
#include "nvmf/overhead_device.h"
#include "nvmf/spdk.h"
#include "simcore/sync.h"

namespace nvmecr::nvmecr_rt {

struct RuntimeConfig {
  microfs::Options fs;

  /// Figure 4 (true) vs Figure 2 (false): userspace SPDK path or the
  /// in-kernel nvme(-rdma) path with syscall/interrupt costs.
  bool userspace = true;

  /// Private per-process namespaces (§III-E). When false, every create
  /// first acquires a cluster-global namespace lock over the network —
  /// the conventional-filesystem behaviour the drilldown starts from.
  bool private_namespace = true;

  /// Remote SSDs over NVMf (deployment mode) vs the compute node's local
  /// SSD (Figures 7(c)/8(a) local runs; requires ClusterSpec.local_ssds).
  bool remote = true;

  /// Optional hook applied to the qpair device right after connect()
  /// (remote mode only): receives the raw remote BlockDevice plus the
  /// storage node and rank it serves, and returns the device the rest of
  /// the chain is built on. The resilience layer installs its retrying /
  /// health-reporting wrapper here — keeping src/resilience out of the
  /// runtime's dependency set.
  std::function<std::unique_ptr<hw::BlockDevice>(
      std::unique_ptr<hw::BlockDevice>, fabric::NodeId storage_node,
      uint32_t rank)>
      device_wrapper;
};

class NvmecrClient;

class NvmecrSystem final : public baselines::StorageSystem {
 public:
  /// `comm`, when given, is used for the init-time collectives
  /// (MPI_COMM_CR split + setup barrier) exactly as §III-C describes;
  /// data/control plane operation never touches it afterwards.
  NvmecrSystem(Cluster& cluster, JobAllocation job, RuntimeConfig config,
               minimpi::Comm* comm = nullptr);
  ~NvmecrSystem() override;

  std::string name() const override { return "NVMe-CR"; }
  sim::Task<StatusOr<std::unique_ptr<baselines::StorageClient>>> connect(
      int rank) override;

  uint64_t hardware_peak_write_bw() const override;
  uint64_t hardware_peak_read_bw() const override;
  std::vector<uint64_t> bytes_per_server() const override;
  uint64_t metadata_bytes() const override { return metadata_bytes_; }
  SimDuration kernel_time() const override { return kernel_time_; }

  const JobAllocation& job() const { return job_; }
  const RuntimeConfig& config() const { return config_; }

  /// Aggregated microfs statistics across all clients that have closed
  /// (clients report their stats into the system on destruction).
  const microfs::MicroFsStats& aggregated_stats() const { return agg_stats_; }
  size_t peak_client_dram() const { return peak_client_dram_; }

  /// Runs the microfs fsck invariant checker over every live client's
  /// mounted filesystem (chaos campaigns' post-run corruption gate).
  /// Returns the concatenated, rank-prefixed issue list — empty means
  /// every instance is clean. Only clients still alive (connected and
  /// not yet destroyed) are checked.
  sim::Task<StatusOr<std::vector<std::string>>> fsck_all();
  size_t live_clients() const { return live_clients_.size(); }

 private:
  friend class NvmecrClient;

  /// Global-namespace emulation for the drilldown baseline: one lock on
  /// a "namespace home" storage node; creates RPC there and serialize.
  struct GlobalNamespace {
    explicit GlobalNamespace(sim::Engine& engine) : lock(engine) {}
    sim::FifoMutex lock;
    fabric::NodeId home = 0;
    SimDuration op_cost = 0;
  };

  Cluster& cluster_;
  JobAllocation job_;
  RuntimeConfig config_;
  minimpi::Comm* comm_;
  std::unique_ptr<GlobalNamespace> global_ns_;

  // Aggregation sinks (clients flush into these on destruction).
  microfs::MicroFsStats agg_stats_;
  uint64_t metadata_bytes_ = 0;
  SimDuration kernel_time_ = 0;
  size_t peak_client_dram_ = 0;

  /// Live-instance registry (rank -> client), maintained by the client's
  /// init/teardown so fsck_all can reach every mounted filesystem.
  std::map<int, NvmecrClient*> live_clients_;
};

}  // namespace nvmecr::nvmecr_rt
