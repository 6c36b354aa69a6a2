// Load-aware, fault-tolerance-aware storage balancer (§III-F, Figure 6).
//
// Given the cluster topology, the job's compute nodes, and the set of
// candidate storage nodes, the balancer:
//   1. derives failure domains (rack = shared ToR + PDU),
//   2. builds, per compute failure domain, the list of *partner* domains
//      (distinct storage-capable domains) sorted by switch-hop distance,
//   3. greedily allocates the requested number of SSDs on the closest
//      partner domains,
//   4. assigns processes to allocated SSDs round-robin so every SSD
//      carries an equal share (the CoV ~ 0 line of Figure 7(b)), while
//      never co-locating a process with its own checkpoint data's
//      failure domain.
//
// The result is pure data: the runtime applies it at init time and needs
// no further coordination (§III-F: "once the partitioning is complete,
// the load balancer does not need to be involved").
#pragma once

#include <vector>

#include "common/status.h"
#include "fabric/topology.h"

namespace nvmecr::nvmecr_rt {

struct BalancerRequest {
  /// Compute node of each rank (rank -> node).
  std::vector<fabric::NodeId> rank_nodes;
  /// Candidate storage nodes (each hosts one SSD).
  std::vector<fabric::NodeId> storage_nodes;
  /// SSDs to allocate; 0 = derive from the process:SSD guidance below.
  uint32_t num_ssds = 0;
  /// The paper's guidance: size the allocation so each SSD serves
  /// between `min_procs_per_ssd` and 2x that (56-112, §III-F).
  uint32_t min_procs_per_ssd = 56;
  /// Failure domains the assignment must avoid entirely (dead or
  /// suspect racks during failover re-requests). Candidate storage
  /// nodes in these domains are filtered out before placement; if
  /// nothing remains the balancer returns a typed kUnavailable
  /// exhaustion error rather than looping or degrading silently.
  std::vector<fabric::RackId> exclude_domains;
};

struct BalancerAssignment {
  /// Allocated storage nodes (one SSD each), closest partners first.
  std::vector<fabric::NodeId> ssd_nodes;
  /// For each rank, index into ssd_nodes.
  std::vector<uint32_t> ssd_of_rank;
  /// For each rank, its slot among the ranks sharing that SSD
  /// (the partition index within the namespace, Figure 6).
  std::vector<uint32_t> slot_of_rank;
  /// Ranks sharing each SSD (the MPI_COMM_CR size per SSD).
  std::vector<uint32_t> ranks_per_ssd;
};

class StorageBalancer {
 public:
  /// Computes the assignment. Fails with kInvalidArgument when no
  /// storage node lies outside a rank's failure domain (fault-tolerance
  /// would be void).
  static StatusOr<BalancerAssignment> assign(const fabric::Topology& topo,
                                             const BalancerRequest& request);

  /// Partner domains of `domain`: storage-capable failure domains other
  /// than `domain`, sorted by hop distance then id.
  static std::vector<fabric::RackId> partner_domains(
      const fabric::Topology& topo, fabric::RackId domain,
      const std::vector<fabric::NodeId>& storage_nodes);
};

}  // namespace nvmecr::nvmecr_rt
