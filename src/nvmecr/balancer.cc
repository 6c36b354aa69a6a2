#include "nvmecr/balancer.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/units.h"

namespace nvmecr::nvmecr_rt {

std::vector<fabric::RackId> StorageBalancer::partner_domains(
    const fabric::Topology& topo, fabric::RackId domain,
    const std::vector<fabric::NodeId>& storage_nodes) {
  std::set<fabric::RackId> domains;
  for (fabric::NodeId n : storage_nodes) {
    const fabric::RackId d = topo.failure_domain(n);
    if (d != domain) domains.insert(d);
  }
  std::vector<fabric::RackId> sorted(domains.begin(), domains.end());
  std::sort(sorted.begin(), sorted.end(),
            [&](fabric::RackId a, fabric::RackId b) {
              const uint32_t da = topo.rack_distance(domain, a);
              const uint32_t db = topo.rack_distance(domain, b);
              if (da != db) return da < db;
              return a < b;
            });
  return sorted;
}

StatusOr<BalancerAssignment> StorageBalancer::assign(
    const fabric::Topology& topo, const BalancerRequest& request) {
  if (request.rank_nodes.empty()) {
    return InvalidArgumentError("BalancerRequest.rank_nodes is empty");
  }
  if (request.storage_nodes.empty()) {
    return InvalidArgumentError("BalancerRequest.storage_nodes is empty");
  }
  if (request.num_ssds == 0 && request.min_procs_per_ssd == 0) {
    return InvalidArgumentError(
        "BalancerRequest.min_procs_per_ssd must be > 0 when num_ssds is "
        "derived from it");
  }
  for (fabric::NodeId n : request.rank_nodes) {
    if (n >= topo.node_count()) {
      return InvalidArgumentError("rank node out of topology range");
    }
  }
  for (fabric::NodeId n : request.storage_nodes) {
    if (n >= topo.node_count()) {
      return InvalidArgumentError("storage node out of topology range");
    }
  }
  for (fabric::RackId d : request.exclude_domains) {
    if (d >= topo.rack_count()) {
      return InvalidArgumentError("excluded domain out of topology range");
    }
  }
  const auto nranks = static_cast<uint32_t>(request.rank_nodes.size());

  // SSD count: explicit, or sized so each SSD serves at least
  // min_procs_per_ssd processes (§III-F), capped by availability.
  uint32_t num_ssds = request.num_ssds;
  if (num_ssds == 0) {
    num_ssds = std::max<uint32_t>(
        1, ceil_div(nranks, request.min_procs_per_ssd));
  }
  num_ssds = std::min<uint32_t>(
      num_ssds, static_cast<uint32_t>(request.storage_nodes.size()));

  // Allocate SSDs greedily on the partner domains closest to the job.
  // The job's "home" domains are those of its compute nodes.
  std::set<fabric::RackId> compute_domains;
  for (fabric::NodeId n : request.rank_nodes) {
    compute_domains.insert(topo.failure_domain(n));
  }
  // Drop candidates in excluded (dead/suspect) failure domains first; a
  // fully excluded candidate set is a typed exhaustion, not a retry.
  std::vector<fabric::NodeId> eligible;
  eligible.reserve(request.storage_nodes.size());
  for (fabric::NodeId n : request.storage_nodes) {
    const fabric::RackId d = topo.failure_domain(n);
    bool excluded = false;
    for (fabric::RackId x : request.exclude_domains) {
      if (x == d) {
        excluded = true;
        break;
      }
    }
    if (!excluded) eligible.push_back(n);
  }
  if (eligible.empty()) {
    return UnavailableError(
        "all candidate storage domains excluded (dead partner domains "
        "exhausted)");
  }

  // Order candidate storage nodes: partner-domain nodes first (by hop
  // distance to the nearest compute domain), same-domain nodes last.
  std::vector<fabric::NodeId> candidates = std::move(eligible);
  auto domain_rank = [&](fabric::NodeId n) {
    const fabric::RackId d = topo.failure_domain(n);
    uint32_t best = UINT32_MAX;
    bool same = false;
    for (fabric::RackId cd : compute_domains) {
      if (cd == d) same = true;
      best = std::min(best, topo.rack_distance(cd, d));
    }
    // Same-domain placements sort after every partner placement.
    return same ? 1000u + best : best;
  };
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](fabric::NodeId a, fabric::NodeId b) {
                     return domain_rank(a) < domain_rank(b);
                   });

  BalancerAssignment out;
  for (fabric::NodeId n : candidates) {
    if (out.ssd_nodes.size() >= num_ssds) break;
    out.ssd_nodes.push_back(n);
  }

  // Map each rank to the least-loaded SSD in a partner domain of its own
  // node (round-robin among equals keeps the load exactly even).
  out.ssd_of_rank.resize(nranks);
  out.slot_of_rank.resize(nranks);
  out.ranks_per_ssd.assign(out.ssd_nodes.size(), 0);
  for (uint32_t r = 0; r < nranks; ++r) {
    const fabric::RackId my_domain =
        topo.failure_domain(request.rank_nodes[r]);
    // Pick the least-loaded SSD outside the rank's own domain.
    int best = -1;
    for (uint32_t s = 0; s < out.ssd_nodes.size(); ++s) {
      if (topo.failure_domain(out.ssd_nodes[s]) == my_domain) continue;
      if (best < 0 || out.ranks_per_ssd[s] <
                          out.ranks_per_ssd[static_cast<uint32_t>(best)]) {
        best = static_cast<int>(s);
      }
    }
    if (best < 0) {
      return InvalidArgumentError("no storage outside rank's failure domain");
    }
    const auto s = static_cast<uint32_t>(best);
    out.ssd_of_rank[r] = s;
    out.slot_of_rank[r] = out.ranks_per_ssd[s]++;
  }
  return out;
}

}  // namespace nvmecr::nvmecr_rt
