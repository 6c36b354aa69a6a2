#include "redundancy/placement.h"

#include <algorithm>
#include <map>
#include <set>

namespace nvmecr::redundancy {

using nvmecr_rt::StorageBalancer;

namespace {

/// Picks the least-loaded storage node whose failure domain is in
/// `allowed` (load = store partitions assigned so far; ties by node id).
/// Returns -1 when no candidate exists.
int pick_store_node(const fabric::Topology& topo,
                    const std::vector<fabric::NodeId>& storage_nodes,
                    const std::set<fabric::RackId>& allowed,
                    const std::map<fabric::NodeId, uint32_t>& load) {
  int best = -1;
  uint32_t best_load = UINT32_MAX;
  for (fabric::NodeId n : storage_nodes) {
    if (allowed.count(topo.failure_domain(n)) == 0) continue;
    const auto it = load.find(n);
    const uint32_t l = it == load.end() ? 0 : it->second;
    if (best < 0 || l < best_load) {
      best = static_cast<int>(n);
      best_load = l;
    }
  }
  return best;
}

/// Appends rank r -> store node n to the plan's assignment, reusing an
/// existing ssd_nodes entry for n when present.
void assign_rank(RedundancyPlan& plan, uint32_t rank, fabric::NodeId node) {
  auto& a = plan.assignment;
  uint32_t s = 0;
  for (; s < a.ssd_nodes.size(); ++s) {
    if (a.ssd_nodes[s] == node) break;
  }
  if (s == a.ssd_nodes.size()) {
    a.ssd_nodes.push_back(node);
    a.ranks_per_ssd.push_back(0);
  }
  a.ssd_of_rank[rank] = s;
  a.slot_of_rank[rank] = a.ranks_per_ssd[s]++;
}

StatusOr<RedundancyPlan> plan_partner(
    const fabric::Topology& topo, const BalancerAssignment& primary,
    const std::vector<fabric::NodeId>& rank_nodes,
    const std::vector<fabric::NodeId>& storage_nodes) {
  RedundancyPlan plan;
  plan.scheme = Scheme::kPartner;
  const auto nranks = static_cast<uint32_t>(rank_nodes.size());
  plan.assignment.ssd_of_rank.resize(nranks);
  plan.assignment.slot_of_rank.resize(nranks);

  std::map<fabric::NodeId, uint32_t> load;
  for (uint32_t r = 0; r < nranks; ++r) {
    const fabric::RackId primary_domain =
        topo.failure_domain(primary.ssd_nodes[primary.ssd_of_rank[r]]);
    const fabric::RackId compute_domain = topo.failure_domain(rank_nodes[r]);

    // Nearest partner domain of the primary that is also outside the
    // rank's compute domain: losing any one domain leaves either the
    // primary copy or the replica (and, with the balancer's own
    // partner-placement, the process) intact.
    std::set<fabric::RackId> allowed;
    for (fabric::RackId d :
         StorageBalancer::partner_domains(topo, primary_domain,
                                          storage_nodes)) {
      if (d != compute_domain) allowed.insert(d);
    }
    const int node = pick_store_node(topo, storage_nodes, allowed, load);
    if (node < 0) {
      return InvalidArgumentError(
          "partner replication needs a storage failure domain outside the "
          "primary's (ClusterSpec.storage_racks >= 2)");
    }
    assign_rank(plan, r, static_cast<fabric::NodeId>(node));
    ++load[static_cast<fabric::NodeId>(node)];
  }
  return plan;
}

StatusOr<RedundancyPlan> plan_xor(
    const fabric::Topology& topo, const BalancerAssignment& primary,
    const std::vector<fabric::NodeId>& rank_nodes,
    const std::vector<fabric::NodeId>& storage_nodes) {
  constexpr uint32_t k = kXorSetSize;
  const auto nranks = static_cast<uint32_t>(rank_nodes.size());
  if (nranks % k != 0) {
    return InvalidArgumentError(
        "nranks must be a multiple of kXorSetSize so every erasure set "
        "has exactly K members");
  }

  RedundancyPlan plan;
  plan.scheme = Scheme::kXor;
  plan.assignment.ssd_of_rank.resize(nranks);
  plan.assignment.slot_of_rank.resize(nranks);
  plan.set_of_rank.resize(nranks);

  // Bucket ranks by their primary SSD's failure domain, then form sets
  // by drawing one rank from the K fullest buckets — members of a set
  // always span K distinct domains, so a single domain loss destroys at
  // most one member's data share.
  std::map<fabric::RackId, std::vector<uint32_t>> buckets;
  for (uint32_t r = 0; r < nranks; ++r) {
    const fabric::NodeId pnode = primary.ssd_nodes[primary.ssd_of_rank[r]];
    buckets[topo.failure_domain(pnode)].push_back(r);
  }
  for (uint32_t set = 0; set < nranks / k; ++set) {
    // K fullest buckets (ties by domain id, for determinism).
    std::vector<fabric::RackId> order;
    for (const auto& [d, ranks] : buckets) {
      if (!ranks.empty()) order.push_back(d);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](fabric::RackId a, fabric::RackId b) {
                       return buckets[a].size() > buckets[b].size();
                     });
    if (order.size() < k) {
      return InvalidArgumentError(
          "xor erasure sets need their K ranks' primaries in K distinct "
          "storage failure domains (raise ClusterSpec.storage_racks)");
    }
    std::vector<uint32_t> members;
    for (uint32_t i = 0; i < k; ++i) {
      members.push_back(buckets[order[i]].back());
      buckets[order[i]].pop_back();
    }
    std::sort(members.begin(), members.end());
    for (uint32_t m : members) plan.set_of_rank[m] = set;
    plan.set_members.push_back(std::move(members));
  }

  // Parity placement per member: prefer a domain outside the whole
  // set's primary domains (then even a parity-domain loss costs
  // nothing); fall back to the member's OWN primary domain — safe,
  // because a loss there takes the member's data and its parity
  // segment, and the segment is recomputable from the K-1 survivors
  // while the data is covered by parity segments held elsewhere.
  std::map<fabric::NodeId, uint32_t> load;
  for (const auto& members : plan.set_members) {
    std::set<fabric::RackId> set_domains;
    for (uint32_t m : members) {
      set_domains.insert(topo.failure_domain(
          primary.ssd_nodes[primary.ssd_of_rank[m]]));
    }
    std::set<fabric::RackId> outside;
    for (fabric::NodeId n : storage_nodes) {
      const fabric::RackId d = topo.failure_domain(n);
      if (set_domains.count(d) == 0) outside.insert(d);
    }
    for (uint32_t m : members) {
      const fabric::NodeId pnode = primary.ssd_nodes[primary.ssd_of_rank[m]];
      std::set<fabric::RackId> allowed = outside;
      if (allowed.empty()) allowed.insert(topo.failure_domain(pnode));
      int node = pick_store_node(topo, storage_nodes, allowed, load);
      if (node < 0) {
        return InvalidArgumentError("no storage node for xor parity segment");
      }
      if (static_cast<fabric::NodeId>(node) == pnode &&
          storage_nodes.size() > 1) {
        std::map<fabric::NodeId, uint32_t> shadow = load;
        shadow[pnode] = UINT32_MAX - 1;
        node = pick_store_node(topo, storage_nodes, allowed, shadow);
      }
      assign_rank(plan, m, static_cast<fabric::NodeId>(node));
      ++load[static_cast<fabric::NodeId>(node)];
    }
  }
  return plan;
}

}  // namespace

StatusOr<RedundancyPlan> plan_redundancy(
    const fabric::Topology& topo, const BalancerAssignment& primary,
    const std::vector<fabric::NodeId>& rank_nodes,
    const std::vector<fabric::NodeId>& storage_nodes, Scheme scheme) {
  if (rank_nodes.empty()) {
    return InvalidArgumentError("plan_redundancy: rank_nodes is empty");
  }
  if (primary.ssd_of_rank.size() != rank_nodes.size()) {
    return InvalidArgumentError(
        "plan_redundancy: primary assignment does not cover all ranks");
  }
  const auto finish = [&](RedundancyPlan plan) {
    plan.primary_node_of_rank.reserve(rank_nodes.size());
    for (uint32_t r = 0; r < rank_nodes.size(); ++r) {
      plan.primary_node_of_rank.push_back(
          primary.ssd_nodes[primary.ssd_of_rank[r]]);
    }
    return plan;
  };
  switch (scheme) {
    case Scheme::kNone: {
      RedundancyPlan plan;
      plan.scheme = Scheme::kNone;
      return finish(std::move(plan));
    }
    case Scheme::kPartner: {
      NVMECR_ASSIGN_OR_RETURN(
          RedundancyPlan plan,
          plan_partner(topo, primary, rank_nodes, storage_nodes));
      return finish(std::move(plan));
    }
    case Scheme::kXor:
    case Scheme::kXorTarget: {
      // Same geometry; only the encode site differs.
      NVMECR_ASSIGN_OR_RETURN(
          RedundancyPlan plan,
          plan_xor(topo, primary, rank_nodes, storage_nodes));
      plan.scheme = scheme;
      return finish(std::move(plan));
    }
  }
  return InvalidArgumentError("unknown redundancy scheme");
}

}  // namespace nvmecr::redundancy
