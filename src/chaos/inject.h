// Schedule injection: arms a FailureSchedule's events on a live Cluster
// through the existing fault hooks (NvmeSsd::schedule_crash /
// set_straggler, NvmfTarget::schedule_crash, fabric link-down windows).
// Everything is pre-armed before the run starts — the hooks are
// time-window based, so no injector daemon runs alongside the workload
// and determinism is preserved by construction.
#pragma once

#include <optional>
#include <vector>

#include "chaos/schedule.h"
#include "nvmecr/cluster.h"

namespace nvmecr::chaos {

struct InjectionStats {
  uint32_t target_crashes = 0;
  uint32_t ssd_crashes = 0;
  uint32_t link_downs = 0;
  uint32_t stragglers = 0;
  uint32_t partitions = 0;
  uint32_t applied = 0;
  /// First kJobKill event in the applied subset (at most one is armed).
  std::optional<workloads::KillSpec> kill;
};

/// Arms `sched`'s events on `cluster`. When `subset` is non-null only
/// event ids in it are armed (the shrinker's lever); victims wrap modulo
/// the cluster's actual storage-node / storage-rack counts, and a
/// partition's victim r is the r-th storage rack in topology order.
InjectionStats apply_schedule(nvmecr_rt::Cluster& cluster,
                              const FailureSchedule& sched,
                              const std::vector<uint32_t>* subset = nullptr);

}  // namespace nvmecr::chaos
