// Simulated testbed cluster (§IV-A) and the job scheduler that hands
// NVMe namespaces to jobs (§III-F "Security Model", Slurm-GRES-style).
//
// A Cluster owns the engine, topology, network, the storage nodes' SSDs
// with their NVMf target daemons, and (optionally) per-compute-node
// local SSDs for the local-access experiments (Figures 7(c), 8(a)).
#pragma once

#include <memory>
#include <vector>

#include "fabric/network.h"
#include "fabric/topology.h"
#include "hw/nvme_ssd.h"
#include "nvmecr/balancer.h"
#include "nvmf/target.h"
#include "obs/observer.h"
#include "simcore/engine.h"

namespace nvmecr::nvmecr_rt {

using namespace nvmecr::literals;

struct ClusterSpec {
  uint32_t compute_nodes = 16;
  uint32_t storage_nodes = 8;
  /// Racks the storage nodes are spread over (round-robin remainder to
  /// the front racks). 1 reproduces the paper's single storage rack;
  /// redundancy schemes need >= 2 distinct storage failure domains.
  uint32_t storage_racks = 1;
  hw::SsdSpec ssd;                 // per storage node
  fabric::NetworkParams network;
  nvmf::NvmfParams nvmf;
  /// Equip compute nodes with a local SSD too (local experiments).
  bool local_ssds = false;

  /// Lustre-like PFS for the second checkpoint level (§IV-A: 4 storage
  /// servers, one 12 Gb/s RAID controller each).
  uint32_t pfs_servers = 4;
  uint64_t pfs_server_bw = 1500_MBps;

  static ClusterSpec paper_testbed() { return ClusterSpec{}; }
};

class Cluster {
 public:
  explicit Cluster(ClusterSpec spec = {});

  sim::Engine& engine() { return engine_; }
  const fabric::Topology& topology() const { return topo_; }
  fabric::Network& network() { return net_; }
  const ClusterSpec& spec() const { return spec_; }

  const std::vector<fabric::NodeId>& compute_nodes() const {
    return compute_nodes_;
  }
  const std::vector<fabric::NodeId>& storage_nodes() const {
    return storage_nodes_;
  }

  /// Compute node hosting `rank` when ranks fill nodes in blocks of
  /// `procs_per_node`.
  fabric::NodeId node_of_rank(uint32_t rank, uint32_t procs_per_node) const {
    return compute_nodes_[(rank / procs_per_node) % compute_nodes_.size()];
  }

  /// SSD + NVMf target of storage node `index` (0-based).
  hw::NvmeSsd& storage_ssd(uint32_t index) { return *storage_ssds_[index]; }
  nvmf::NvmfTarget& target(uint32_t index) { return *targets_[index]; }
  uint32_t storage_ssd_index(fabric::NodeId node) const;

  /// Liveness of storage node `node` at time `t`: its NVMf target daemon
  /// is alive and its SSD is not crashed. Heartbeat probes use it as the
  /// management-plane liveness check.
  bool storage_node_up(fabric::NodeId node, SimTime t) const {
    const uint32_t idx = storage_ssd_index(node);
    return targets_[idx]->alive(t) && !storage_ssds_[idx]->crashed_at(t);
  }

  /// Local SSD of a compute node (requires spec.local_ssds).
  hw::NvmeSsd& local_ssd(fabric::NodeId node);

  /// Aggregate hardware peak over `num_ssds` storage SSDs.
  uint64_t peak_write_bw(uint32_t num_ssds) const {
    return static_cast<uint64_t>(num_ssds) * spec_.ssd.write_bw;
  }
  uint64_t peak_read_bw(uint32_t num_ssds) const {
    return static_cast<uint64_t>(num_ssds) * spec_.ssd.read_bw;
  }

  /// Installs trace/metrics sinks on the whole testbed — network, every
  /// SSD, every NVMf target — and keeps a copy that runtime systems
  /// built on this cluster (NvmecrSystem) pick up for per-rank
  /// instrumentation. Pass {} to detach.
  void install_observer(const obs::Observer& o);
  const obs::Observer& observer() const { return observer_; }

  /// Copies the counters that live outside the obs layer — the engine's
  /// dispatch, now-ring, calendar and frame-pool counts (simcore cannot
  /// depend on obs), the payload stores' tag reads, the fabric's bytes
  /// sent and received, and the targets' compute busy time — into the
  /// installed metrics registry (`engine.*`, `payload.tag_reads`,
  /// `fabric.*`, `target.compute_busy_ns`). Drivers call this after a
  /// run; per-counter deltas make repeated calls safe. No-op without an
  /// installed metrics sink.
  void export_run_metrics();

 private:
  ClusterSpec spec_;
  sim::Engine engine_;
  fabric::Topology topo_;
  fabric::Network net_;
  std::vector<fabric::NodeId> compute_nodes_;
  std::vector<fabric::NodeId> storage_nodes_;
  std::vector<std::unique_ptr<hw::NvmeSsd>> storage_ssds_;
  std::vector<std::unique_ptr<nvmf::NvmfTarget>> targets_;
  std::vector<std::unique_ptr<hw::NvmeSsd>> local_ssds_;  // per compute node
  obs::Observer observer_;
  // Last values pushed by export_run_metrics().
  uint64_t exported_events_dispatched_ = 0;
  uint64_t exported_now_ring_hits_ = 0;
  uint64_t exported_calendar_hits_ = 0;
  uint64_t exported_frames_allocated_ = 0;
  uint64_t exported_frames_recycled_ = 0;
  uint64_t exported_tag_reads_ = 0;
  uint64_t exported_fabric_sent_ = 0;
  uint64_t exported_fabric_received_ = 0;
  uint64_t exported_compute_busy_ns_ = 0;
};

/// A job's storage allocation: the balancer result plus the NVMe
/// namespace created on each allocated SSD (the isolation granularity
/// the scheduler enforces, §III-F).
struct JobAllocation {
  BalancerAssignment assignment;
  std::vector<uint32_t> nsid_per_ssd;     // parallel to assignment.ssd_nodes
  std::vector<fabric::NodeId> rank_nodes; // compute node per rank
  uint64_t partition_bytes = 0;           // per-rank slice of a namespace
  uint32_t procs_per_node = 0;
};

class Scheduler {
 public:
  explicit Scheduler(Cluster& cluster) : cluster_(cluster) {}

  /// Allocates storage for a job of `nranks` ranks at `procs_per_node`,
  /// creating one namespace per chosen SSD sized for the job's
  /// partitions. `num_ssds` 0 = paper guidance (>= 56 procs per SSD).
  StatusOr<JobAllocation> allocate(uint32_t nranks, uint32_t procs_per_node,
                                   uint64_t partition_bytes,
                                   uint32_t num_ssds = 0);

  /// Allocates namespaces for an externally computed placement (the
  /// redundancy engine plans replica/parity placement itself and only
  /// needs the scheduler to carve the namespaces).
  StatusOr<JobAllocation> allocate_with_assignment(
      BalancerAssignment assignment, std::vector<fabric::NodeId> rank_nodes,
      uint32_t procs_per_node, uint64_t partition_bytes);

  /// Deletes the job's namespaces (the runtime is ephemeral — it
  /// terminates with the job, §I).
  void release(const JobAllocation& job);

 private:
  Status create_namespaces(JobAllocation& job);

  Cluster& cluster_;
};

}  // namespace nvmecr::nvmecr_rt
