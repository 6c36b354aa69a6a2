// Checkpoint-epoch critical-path analyzer (DESIGN.md §9) — the runtime-
// produced analogue of the paper's Figure 7(d) layer decomposition.
//
// Instrumented layers (runtime/microfs → nvmf → hw) report how much
// *simulated* time each blocking step of a checkpoint op spent in a
// phase:
//
//   serialize    rank-side CPU: compression, CRC, FS op overhead,
//                NVMf initiator command build
//   oplog        metadata persistence (any device/fabric time reached
//                under a ProfileMetaScope is folded here)
//   fabric       NVMe-oF command/data/completion transfer time
//   target_queue target poll-group backlog + SSD controller queueing
//   flash        channel/flash service time inside the SSD
//   barrier      inter-rank synchronization waits (app layer)
//   target_compute  offloaded work (digest, decompress, compaction,
//                parity XOR) charged on the target's compute pool
//
// Deep layers don't know which rank or epoch they serve; they call
// record(engine, phase, d) and the analyzer decodes the rank from the
// engine's profile context (stamped by ProfileRankScope in the workload)
// and looks up that rank's current epoch (stamped by set_rank_epoch).
// The app layer, which knows both, uses record_rank directly.
//
// The drilldown reports, per epoch and phase, the cross-rank total /
// median / max and which rank was the straggler — max-vs-median is the
// straggler amplification the paper attributes to metadata contention.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "simcore/engine.h"
#include "simcore/profile.h"

namespace nvmecr::obs {

class EpochProfiler {
 public:
  enum class Phase : uint8_t {
    kSerialize = 0,
    kOplog,
    kFabric,
    kTargetQueue,
    kFlash,
    kBarrier,
    kTargetCompute,
    kOther,
  };
  static constexpr size_t kNumPhases = 8;
  static const char* phase_name(Phase p);

  /// Declares that `rank` is now working on checkpoint epoch `epoch`
  /// (the restart pass counts as one more epoch after the last
  /// checkpoint). Subsequent ctx-decoded record() calls for the rank
  /// book into this epoch.
  void set_rank_epoch(uint32_t rank, uint32_t epoch);

  /// Books `d` of phase `p` for the rank encoded in `engine`'s profile
  /// context (no-op when no rank is stamped — i.e. profiling off or the
  /// event is outside any rank's op). Under a ProfileMetaScope the time
  /// is redirected to the oplog phase regardless of `p`.
  void record(const sim::Engine& engine, Phase p, SimDuration d);

  /// Books `d` directly when the caller knows rank and epoch (app
  /// layer: barrier waits, compression).
  void record_rank(uint32_t rank, uint32_t epoch, Phase p, SimDuration d);

  size_t epoch_count() const { return epochs_.size(); }
  uint32_t rank_count() const { return max_rank_ + 1; }

  /// Total ns booked for (epoch, phase) across ranks; 0 if out of range.
  uint64_t phase_total_ns(uint32_t epoch, Phase p) const;
  /// Ns booked for (epoch, phase, rank); 0 if out of range.
  uint64_t rank_ns(uint32_t epoch, Phase p, uint32_t rank) const;

  struct PhaseStats {
    uint64_t total_ns = 0;
    uint64_t median_ns = 0;  // across ranks that touched the phase
    uint64_t max_ns = 0;
    uint32_t max_rank = 0;
    uint32_t ranks = 0;  // ranks with nonzero time in the phase
    /// Straggler amplification: max / median (0 when median is 0).
    double straggler() const {
      return median_ns ? static_cast<double>(max_ns) / median_ns : 0.0;
    }
  };
  PhaseStats phase_stats(uint32_t epoch, Phase p) const;

  /// The fig07d table: one row per (epoch, phase) with nonzero time —
  /// totals, median/max across ranks, straggler rank and amplification.
  std::string drilldown_table() const;

 private:
  struct EpochData {
    // phases[p] indexed by rank; ns of simulated time booked.
    std::array<std::vector<uint64_t>, kNumPhases> phases;
  };

  std::vector<uint64_t>& cell(uint32_t epoch, Phase p);

  std::vector<EpochData> epochs_;
  std::vector<uint32_t> rank_epoch_;  // current epoch per rank
  uint32_t max_rank_ = 0;
};

}  // namespace nvmecr::obs
