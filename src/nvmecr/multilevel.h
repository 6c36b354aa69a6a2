// Multi-level checkpointing (§III-F "Handling Cascading Failures",
// evaluated in §IV-I / Table II).
//
// Most checkpoints go to the fast ephemeral tier (NVMe-CR); every
// `interval`-th checkpoint is written to the slower but redundant
// parallel filesystem so checkpoint data survives cascading failures
// that take out both a process and its partner failure domain.
#pragma once

#include <cstdint>

#include "baselines/storage_api.h"

namespace nvmecr::nvmecr_rt {

class MultiLevelPolicy {
 public:
  /// `interval` = N means checkpoint indexes 0, N, 2N, ... (1-in-N, the
  /// paper uses one in ten) go to the PFS level — so the newest
  /// checkpoint, the one restart reads, normally lives on the fast tier.
  explicit MultiLevelPolicy(uint32_t interval) : interval_(interval) {}

  bool is_pfs_checkpoint(uint32_t checkpoint_index) const {
    return interval_ > 0 && checkpoint_index % interval_ == 0;
  }
  uint32_t interval() const { return interval_; }

 private:
  uint32_t interval_;
};

/// One candidate restart source for a rank, tagged with the tier class
/// it serves (workloads::RestorePlan holds a chain of them). Fast-tier
/// sources (the live session, a reconstruction client) can only serve
/// checkpoints whose ledger entry is on the fast tier; PFS sources only
/// PFS-routed ones. The tag must match before a source is probed: the
/// PFS model's open_read cannot report ENOENT (it performs an MDS op and
/// hands out a fresh fd regardless of the path), so a blind probe against
/// the wrong tier would "succeed" on a checkpoint never written there.
struct RestoreSource {
  baselines::StorageClient* client = nullptr;
  bool pfs_tier = false;
};

}  // namespace nvmecr::nvmecr_rt
