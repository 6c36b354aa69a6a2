// Mid-checkpoint failover and background healing (DESIGN.md §13).
//
// deploy_resilient builds a job's whole resilient deployment and hands
// back one ResilientSystem that owns it: the HealthMonitor, the NVMe-CR
// runtime with every remote device behind a RetryDevice, optionally the
// redundancy engine over it, and the failover layer on top, which
// absorbs storage-target death while a checkpoint is in flight:
//
//        application rank
//              |
//        ResilientClient ------------------.
//              | healthy path              | after target death
//        inner client                 spare client (NvmecrSystem on a
//        (RedundantClient ->          partner domain EXCLUDING every
//         NvmecrClient)               dead domain, via the balancer's
//              |                      exclude_domains)
//        primary + replica NS         spare namespace
//
// Failover protocol, per file: every successful append is journaled
// (length only — content is the deterministic (rank, path) stream, so a
// replay regenerates identical bytes, exactly like a checkpoint library
// re-emitting from application memory). When an op fails with a
// RETRYABLE error and the HealthMonitor has declared the rank's primary
// target dead, the client (1) provisions a one-rank spare session placed
// by the StorageBalancer with exclude_domains = monitor.dead_domains(),
// (2) re-creates the file there and replays the journal, (3) redoes the
// failed op and continues. The checkpoint completes in DEGRADED mode —
// it lives on the spare only, without partner/parity redundancy — and is
// recorded as such in the degraded manifest.
//
// Healing: once the dead target answers probes again (monitor state
// kHealing), the bounded healer daemon rewrites each degraded file
// through the rank's inner client — which re-runs the redundancy
// engine's replication — marks it kHealed, counts resilience.heal_bytes,
// and reports note_healed() when the node's last degraded file is done.
//
// Restart: ResilientClient::open_read serves degraded files from the
// spare and everything else from the inner chain, so the driver's
// restart read through the rank's own session works unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/storage_api.h"
#include "nvmecr/cluster.h"
#include "nvmecr/runtime.h"
#include "redundancy/scheme.h"
#include "resilience/health.h"
#include "simcore/sync.h"

namespace nvmecr::redundancy {
class RedundantSystem;
}  // namespace nvmecr::redundancy

namespace nvmecr::resilience {

class ResilientClient;
class ResilientSystem;

/// Builds `job`'s resilient deployment, in this order: the HealthMonitor;
/// the NVMe-CR runtime on `base` with its device_wrapper replaced by a
/// RetryDevice (jitter streams seeded from `retry_seed`); for any
/// `scheme` but kNone, the redundancy engine over it (deploy_redundancy,
/// store on the same retrying config); and the failover layer on top.
/// Spares provisioned at failover use the same retrying config, so they
/// are themselves retried and health-tracked. Metrics and traces go to
/// the observer installed on `cluster`. The returned system owns every
/// layer; `job` is copied.
StatusOr<std::unique_ptr<ResilientSystem>> deploy_resilient(
    nvmecr_rt::Cluster& cluster, nvmecr_rt::Scheduler& scheduler,
    const nvmecr_rt::JobAllocation& job, nvmecr_rt::RuntimeConfig base = {},
    redundancy::Scheme scheme = redundancy::Scheme::kNone,
    uint64_t retry_seed = 42);

enum class DegradedState {
  kDegraded,  // lives on the spare only, no redundancy
  kHealed,    // rewritten through the inner chain, fully redundant again
};

/// One checkpoint file that finished in degraded mode.
struct DegradedEntry {
  DegradedState state = DegradedState::kDegraded;
  uint64_t bytes = 0;
  std::vector<uint64_t> writes;  // append lengths, replay order
  bool complete = false;         // closed on the spare
};

class ResilientSystem final : public baselines::StorageSystem {
 public:
  ~ResilientSystem() override;

  std::string name() const override { return inner_->name() + "+resilience"; }
  sim::Task<StatusOr<std::unique_ptr<baselines::StorageClient>>> connect(
      int rank) override;

  uint64_t hardware_peak_write_bw() const override {
    return inner_->hardware_peak_write_bw();
  }
  uint64_t hardware_peak_read_bw() const override {
    return inner_->hardware_peak_read_bw();
  }
  std::vector<uint64_t> bytes_per_server() const override {
    return inner_->bytes_per_server();
  }
  uint64_t metadata_bytes() const override { return inner_->metadata_bytes(); }
  SimDuration kernel_time() const override { return inner_->kernel_time(); }

  HealthMonitor& monitor() { return monitor_; }

  /// Primary storage target of `rank` under the inner deployment.
  fabric::NodeId primary_node_of(uint32_t rank) const;

  /// Failovers performed (spare sessions provisioned).
  uint64_t failovers() const { return failovers_; }
  /// Device bytes rewritten by the healer.
  uint64_t healed_bytes() const { return healed_bytes_; }

  /// Degraded-manifest lookup; nullptr when the file never degraded.
  const DegradedEntry* degraded_entry(uint32_t rank,
                                      const std::string& path) const;
  /// Ranks with at least one degraded (not yet healed) file.
  std::vector<uint32_t> degraded_ranks() const;

  /// Spawns the bounded management-plane daemons on the cluster engine:
  /// the monitor's heartbeat, then the healer, both until sim-time
  /// `until`.
  void spawn_daemons(SimTime until);

  /// Awaits the redundancy engine's outstanding background replication
  /// and parity work; returns at once without a redundancy layer.
  sim::Task<void> quiesce();

  /// fsck over the live runtime instances of the primary deployment
  /// ("primary rank R: ..."), then over every provisioned failover
  /// spare ("spare of rank R: ..."). The redundancy store is NOT
  /// scanned. Returns the concatenated issue list (empty = clean), or
  /// the first scan's error status (retryable when an instance is
  /// unreachable).
  sim::Task<StatusOr<std::vector<std::string>>> fsck_all();

 private:
  friend class ResilientClient;
  friend StatusOr<std::unique_ptr<ResilientSystem>> deploy_resilient(
      nvmecr_rt::Cluster&, nvmecr_rt::Scheduler&,
      const nvmecr_rt::JobAllocation&, nvmecr_rt::RuntimeConfig,
      redundancy::Scheme, uint64_t);

  /// Builds the monitor and the retrying primary runtime;
  /// deploy_resilient adds the rest.
  ResilientSystem(nvmecr_rt::Cluster& cluster, nvmecr_rt::Scheduler& scheduler,
                  const nvmecr_rt::JobAllocation& job,
                  nvmecr_rt::RuntimeConfig base, uint64_t retry_seed);

  struct RankState {
    explicit RankState(sim::Engine& e) : io_mutex(e) {}
    /// Serializes foreground client ops against the healer: the inner
    /// client is a single session and (like the redundancy engine's
    /// repl_mutex) does not tolerate concurrent operations.
    sim::FifoMutex io_mutex;
    ResilientClient* client = nullptr;  // live session registry
    /// The inner session, retained when the ResilientClient is torn
    /// down (a workload driver destroys its clients when the run ends).
    /// Healing must reuse a live session — a fresh connect would
    /// reformat the partition — so the healer falls back to this.
    std::unique_ptr<baselines::StorageClient> retained_inner;
    /// Spare session, provisioned on first failover of this rank.
    std::unique_ptr<nvmecr_rt::NvmecrSystem> spare_system;
    std::unique_ptr<baselines::StorageClient> spare_client;
    nvmecr_rt::JobAllocation spare_job;
    bool spare_allocated = false;
    std::map<std::string, DegradedEntry> degraded;
  };

  RankState& rank_state(uint32_t rank);

  /// Provisions rank's spare session (idempotent): balancer placement
  /// with exclude_domains = monitor.dead_domains(), one SSD, one rank.
  sim::Task<Status> ensure_spare(uint32_t rank);

  /// Bounded healer daemon: every kHealPeriod until sim-time `until`, scans
  /// for kHealing targets and rewrites their ranks' degraded files
  /// through the inner chain (restoring full redundancy), then reports
  /// note_healed().
  sim::Task<void> healer(SimTime until);

  /// Rewrites one degraded file through the rank's inner client.
  sim::Task<Status> heal_file(uint32_t rank, std::string path);
  sim::Task<void> heal_node(fabric::NodeId node);

  nvmecr_rt::Cluster& cluster_;
  nvmecr_rt::Scheduler& scheduler_;
  /// Maps each rank to its primary target.
  nvmecr_rt::JobAllocation primary_job_;
  HealthMonitor monitor_;
  /// The retrying config of the primary runtime, the redundancy store and
  /// every spare.
  nvmecr_rt::RuntimeConfig config_;
  nvmecr_rt::NvmecrSystem primary_;
  std::unique_ptr<redundancy::RedundantSystem> redundant_;  // null: kNone
  /// What the failover layer wraps: redundant_, else primary_.
  baselines::StorageSystem* inner_;

  obs::Observer obs_;
  obs::Counter* m_failovers_ = nullptr;
  obs::Counter* m_heal_bytes_ = nullptr;
  obs::Counter* m_degraded_ckpts_ = nullptr;

  // Declared after the systems: sessions close before the runtimes
  // they belong to are torn down.
  std::map<uint32_t, std::unique_ptr<RankState>> ranks_;

  uint64_t failovers_ = 0;
  uint64_t healed_bytes_ = 0;
};

/// Per-rank client: journals appends, absorbs primary-target death by
/// pivoting the stream to the spare session mid-checkpoint.
class ResilientClient final : public baselines::StorageClient {
 public:
  ResilientClient(ResilientSystem& sys, uint32_t rank,
                  std::unique_ptr<baselines::StorageClient> inner);
  ~ResilientClient() override;

  sim::Task<StatusOr<int>> create(const std::string& path) override;
  sim::Task<StatusOr<int>> open_read(const std::string& path) override;
  sim::Task<Status> write(int fd, uint64_t len) override;
  sim::Task<Status> read(int fd, uint64_t len) override;
  sim::Task<Status> fsync(int fd) override;
  sim::Task<Status> close(int fd) override;
  sim::Task<Status> unlink(const std::string& path) override;

  uint32_t rank() const { return rank_; }
  baselines::StorageClient& inner() { return *inner_; }

 private:
  friend class ResilientSystem;

  struct OpenFile {
    std::string path;
    bool writing = false;
    int inner_fd = -1;  // fd on the inner chain (healthy path)
    int spare_fd = -1;  // fd on the spare session (after failover)
    bool on_spare = false;
    uint64_t bytes = 0;
    std::vector<uint64_t> journal;  // append lengths (writing only)
  };

  /// True when `s` should trigger failover: retryable error and the
  /// monitor has declared this rank's primary target dead.
  bool should_failover(const Status& s) const;

  /// Pivots `f` to the spare: provisions the session if needed, creates
  /// the file there and replays the journal. The failed op is then
  /// redone on the spare by the caller.
  sim::Task<Status> failover_file(OpenFile& f);

  ResilientSystem& sys_;
  uint32_t rank_;
  fabric::NodeId primary_node_;
  std::unique_ptr<baselines::StorageClient> inner_;
  std::map<int, OpenFile> open_;
  int next_fd_ = 1000;  // private fd space (maps onto inner/spare fds)
};

}  // namespace nvmecr::resilience
