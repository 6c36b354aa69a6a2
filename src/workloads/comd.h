// CoMD proxy workload (§IV-A).
//
// ECP CoMD is a classical molecular-dynamics proxy app; for storage
// purposes its behaviour is: BSP timestep loop (compute phases separated
// by communication barriers) with periodic application-level N-N
// checkpointing — every rank serializes its atoms into a private file
// (header + bulk body), fsyncs, closes. Restart opens the newest
// checkpoint and reads it back. This module reproduces exactly that IO
// pattern (sizes, concurrency, sequence) against any StorageSystem and
// collects the metrics the paper's figures report: per-checkpoint times,
// efficiency (perceived bandwidth / hardware peak, §IV-H), recovery
// efficiency, application progress rate (§I footnote), and per-server
// load for the CoV figure.
#pragma once

#include <memory>
#include <vector>

#include "baselines/storage_api.h"
#include "common/stats.h"
#include "nvmecr/cluster.h"
#include "nvmecr/multilevel.h"

namespace nvmecr::workloads {

using namespace nvmecr::literals;

struct ComdParams {
  uint32_t nranks = 28;
  uint32_t procs_per_node = 28;

  /// Atoms per rank and serialized bytes per atom determine the per-rank
  /// checkpoint size. (The paper's strong-scaling section implies
  /// ~525 B/atom and its weak-scaling section ~4.8 KiB/atom; each bench
  /// sets these to match the stated totals — see DESIGN.md §4.)
  uint64_t atoms_per_rank = 32768;
  uint64_t bytes_per_atom = 4883;

  /// Periodic checkpoints per run (the paper takes 10).
  uint32_t checkpoints = 10;
  /// Compute phase between checkpoints (±jitter per rank/period).
  SimDuration compute_per_period = 2900 * kMillisecond;
  double compute_jitter = 0.03;

  /// Application write/read granularity (CoMD streams through stdio
  /// buffers) and the small header record preceding the atom dump —
  /// the misalignment source for hugeblock padding.
  uint64_t io_chunk = 4_MiB;
  uint64_t header_bytes = 256;

  /// Old checkpoints beyond this many are unlinked (bounded partitions).
  uint32_t keep_last = 2;

  /// Incremental checkpointing (§II-B, libhashckpt-style): the first
  /// checkpoint is full; later ones write only this fraction of the
  /// atom data (the dirty pages). 1.0 = every checkpoint full.
  double incremental_fraction = 1.0;

  /// Checkpoint compression (§II-B): data shrinks by this factor before
  /// it is written, at `compression_ns_per_byte` of CPU per input byte.
  /// 1.0 = off.
  double compression_ratio = 1.0;
  double compression_ns_per_byte = 0.3;  // ~3.3 GB/s single-core LZ4-class

  /// Honest incremental-restart accounting: instead of charging a full
  /// restore against the newest increment's size (the legacy shortcut),
  /// restart replays the retained delta chain — reading every kept
  /// checkpoint oldest-to-newest and paying 0.05 ns of host merge CPU
  /// per replayed body byte — unless the storage system offers a
  /// target-side materialized image (StorageSystem::restart_image_bytes,
  /// the offload pipeline's delta-compaction stage), which is read as
  /// one full-size stream with no merge.
  bool replay_increments = false;

  /// Run the restart phase after the checkpoint phase.
  bool do_recovery = true;

  uint64_t rank_checkpoint_bytes() const {
    return header_bytes + atoms_per_rank * bytes_per_atom;
  }
  uint64_t job_checkpoint_bytes() const {
    return rank_checkpoint_bytes() * nranks;
  }
};

struct JobMetrics {
  std::vector<SimDuration> checkpoint_times;  // barrier-to-barrier per ckpt
  std::vector<bool> checkpoint_on_pfs;
  /// Per-rank time spent inside fast-tier checkpoint IO (sum over fast
  /// checkpoints) and inside restart reads — the application-visible
  /// bandwidth the paper's efficiency metric uses (§IV-H).
  std::vector<SimDuration> rank_ckpt_io_time;
  std::vector<SimDuration> rank_recovery_io_time;
  uint32_t fast_checkpoints = 0;
  SimDuration total_time = 0;
  SimDuration compute_time = 0;   // sum of compute phases (slowest rank)
  SimDuration checkpoint_time = 0;
  SimDuration recovery_time = 0;
  uint64_t bytes_per_checkpoint = 0;
  uint64_t recovery_bytes = 0;
  uint64_t hw_peak_write = 0;
  uint64_t hw_peak_read = 0;
  /// Per-server stored bytes after the run (Figure 7(b)).
  std::vector<uint64_t> server_bytes;
  SimDuration kernel_time = 0;  // across all clients/servers
  /// Per-operation latency samples across all ranks (ns).
  Samples create_latency;
  Samples write_latency;

  /// Fast-tier checkpoint efficiency (§IV-H): the application-perceived
  /// aggregate bandwidth — per-rank bytes over the *mean* per-rank IO
  /// time — relative to the hardware peak. (Stragglers from placement
  /// imbalance lower every rank's barrier wait but not the bandwidth the
  /// application perceives while writing.)
  double checkpoint_efficiency() const;
  double recovery_efficiency() const;
  /// Conservative variant using barrier-to-barrier makespans (what the
  /// Table II wall-clock times are built from).
  double checkpoint_efficiency_makespan() const;
  /// Compute / total (§I footnote 1).
  double progress_rate() const {
    return total_time > 0
               ? static_cast<double>(compute_time) /
                     static_cast<double>(total_time)
               : 0.0;
  }
  /// Coefficient of variation of per-server load.
  double load_cov() const;
  /// Fraction of aggregate process time spent in the kernel (§IV-D).
  double kernel_fraction(uint32_t nranks) const {
    return total_time > 0 ? static_cast<double>(kernel_time) /
                                (static_cast<double>(total_time) * nranks)
                          : 0.0;
  }
};

// The ECP proxy-app presets (§IV-A: AMG, Ember, ExaMiniMD, miniAMR, ...)
// used to live here as CoMD-shaped ProxyAppPreset profiles. They moved
// into the application registry — workloads/apps.h: app_registry(),
// find_app(), io_params_for() — where each preset also carries a modeled
// state-evolution shape for restart verification.

class ComdDriver {
 public:
  /// Runs the checkpoint (and optionally restart) phases of one job on
  /// `system`. When `pfs` is non-null, every `pfs_interval`-th
  /// checkpoint routes to it (Table II's multi-level configuration).
  static StatusOr<JobMetrics> run(nvmecr_rt::Cluster& cluster,
                                  baselines::StorageSystem& system,
                                  const ComdParams& params,
                                  baselines::StorageSystem* pfs = nullptr,
                                  uint32_t pfs_interval = 0);
};

}  // namespace nvmecr::workloads
