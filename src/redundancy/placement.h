// Replica / parity placement for the redundancy engine.
//
// Placement reuses the balancer's failure-domain machinery
// (StorageBalancer::partner_domains) but solves a different problem:
// the primary assignment decides where a rank's *checkpoint data*
// lives; the redundancy plan decides where the *second copy* (partner
// replica or XOR parity segment) lives, such that no single failure
// domain holds both.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "fabric/topology.h"
#include "nvmecr/balancer.h"
#include "redundancy/scheme.h"

namespace nvmecr::redundancy {

using nvmecr_rt::BalancerAssignment;

/// Where each rank's redundant data goes, in the same shape the
/// scheduler consumes (Scheduler::allocate_with_assignment carves one
/// namespace per distinct store SSD).
struct RedundancyPlan {
  Scheme scheme = Scheme::kNone;

  /// Store placement: for rank r, assignment.ssd_nodes[assignment
  /// .ssd_of_rank[r]] is the SSD holding r's replica (kPartner) or r's
  /// parity segment (kXor). Empty for kNone.
  BalancerAssignment assignment;

  /// kXor: erasure-set id per rank and member ranks per set (members'
  /// primary SSDs span pairwise-distinct failure domains).
  std::vector<uint32_t> set_of_rank;
  std::vector<std::vector<uint32_t>> set_members;

  /// Primary SSD node per rank, copied from the primary assignment so
  /// downstream consumers (target-side parity encode, reconstruction)
  /// can resolve fabric endpoints without re-threading the primary job.
  std::vector<fabric::NodeId> primary_node_of_rank;
};

/// Plans redundant placement against an existing primary assignment.
///
/// kPartner invariants: a rank's replica SSD is in a different failure
/// domain than both its primary SSD and its compute node (nearest
/// eligible partner domain, least-loaded node within it).
///
/// kXor invariants: sets of exactly K = kXorSetSize ranks whose primary
/// SSDs span K distinct failure domains (requires nranks % K == 0 and at
/// least K storage domains); member m's parity segment lives in a domain
/// outside the whole set's primary domains when one exists, else in
/// m's own primary domain — either way a single domain loss destroys
/// at most one member's data share and never a parity segment needed
/// to rebuild it.
///
/// Fails with kInvalidArgument when the topology cannot satisfy the
/// scheme (e.g. a single storage rack).
StatusOr<RedundancyPlan> plan_redundancy(
    const fabric::Topology& topo, const BalancerAssignment& primary,
    const std::vector<fabric::NodeId>& rank_nodes,
    const std::vector<fabric::NodeId>& storage_nodes, Scheme scheme);

}  // namespace nvmecr::redundancy
