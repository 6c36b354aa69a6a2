#include "chaos/inject.h"

#include <algorithm>

#include "fabric/network.h"

namespace nvmecr::chaos {

InjectionStats apply_schedule(nvmecr_rt::Cluster& cluster,
                              const FailureSchedule& sched,
                              const std::vector<uint32_t>* subset) {
  InjectionStats stats;
  const uint32_t nodes =
      static_cast<uint32_t>(cluster.storage_nodes().size());
  // The generator numbers storage racks from 0; the topology's racks
  // start with the compute rack.
  std::vector<fabric::RackId> storage_racks;
  for (fabric::NodeId n : cluster.storage_nodes()) {
    const fabric::RackId r = cluster.topology().rack_of(n);
    if (storage_racks.empty() || storage_racks.back() != r) {
      storage_racks.push_back(r);
    }
  }
  auto in_subset = [subset](uint32_t id) {
    return subset == nullptr ||
           std::find(subset->begin(), subset->end(), id) != subset->end();
  };
  for (const FailureEvent& e : sched.events) {
    if (!in_subset(e.id)) continue;
    ++stats.applied;
    switch (e.kind) {
      case FaultKind::kTargetCrash: {
        const uint32_t idx = e.victim % nodes;
        cluster.target(idx).schedule_crash(e.at, e.until);
        ++stats.target_crashes;
        break;
      }
      case FaultKind::kSsdCrash: {
        const uint32_t idx = e.victim % nodes;
        cluster.storage_ssd(idx).schedule_crash(e.at, e.until);
        ++stats.ssd_crashes;
        break;
      }
      case FaultKind::kLinkDown: {
        const fabric::NodeId node =
            cluster.storage_nodes()[e.victim % nodes];
        cluster.network().add_link_down(node, e.at, e.until);
        ++stats.link_downs;
        break;
      }
      case FaultKind::kStraggler: {
        const uint32_t idx = e.victim % nodes;
        cluster.storage_ssd(idx).set_straggler(e.factor, e.at, e.until);
        ++stats.stragglers;
        break;
      }
      case FaultKind::kPartition: {
        // Rack-granular partition: every storage node in the rack loses
        // fabric connectivity for the window.
        const fabric::RackId rack =
            storage_racks[e.victim % storage_racks.size()];
        std::vector<fabric::NodeId> members;
        for (fabric::NodeId n : cluster.storage_nodes()) {
          if (cluster.topology().rack_of(n) == rack) members.push_back(n);
        }
        cluster.network().partition(members, e.at, e.until);
        ++stats.partitions;
        break;
      }
      case FaultKind::kJobKill: {
        if (!stats.kill.has_value()) {
          workloads::KillSpec k;
          k.epoch = e.victim;
          k.point = e.kill_point;
          stats.kill = k;
        }
        break;
      }
    }
  }
  return stats;
}

}  // namespace nvmecr::chaos
