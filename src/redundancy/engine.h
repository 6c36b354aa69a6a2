// The redundancy engine: wraps a deployed storage system and mirrors
// every fast-tier checkpoint stream into a second failure domain,
// per the scheme (see scheme.h).
//
// Layering (one RedundantClient per rank, like the runtime itself):
//
//        application rank
//              |
//        RedundantClient ----------------.
//              | foreground              | background (overlapped)
//        primary NvmecrClient      store NvmecrClient (partner SSD)
//              |                         |
//        primary namespace         replica / parity namespace
//
// Replication is asynchronous: replica writes are spawned as engine
// tasks that ride behind the foreground write and are joined at
// fsync/close, so the checkpoint is only "done" once its redundancy
// is established — but the two streams overlap rather than serialize.
// XOR parity is encoded per erasure set once every member has closed
// its file (the SCR-style collective encode), running concurrently
// with whatever the application does next; quiesce() awaits stragglers.
//
// Content identity: the simulation carries no real payload bytes
// (microfs verifies tagged patterns device-side), so each stream is
// summarized by one 64-bit word per kDigestChunk bytes plus a CRC64
// digest over the word stream. Parity segments store genuinely XOR'ed
// words; reconstruction re-derives the lost stream's words from the
// K-1 survivors + parity and proves byte-identity by matching the
// recorded digest. A replica is only trusted when its stream digest
// equals the primary's.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/storage_api.h"
#include "nvmecr/cluster.h"
#include "nvmecr/runtime.h"
#include "redundancy/placement.h"
#include "redundancy/scheme.h"
#include "simcore/sync.h"

namespace nvmecr::redundancy {

class RedundantClient;

/// Content-fingerprint granularity: one 64-bit digest word summarizes this
/// many bytes (the simulation's stand-in for a data block; XOR parity and
/// reconstruction operate on these words, CRC64-validated).
inline constexpr uint64_t kDigestChunk = 4_MiB;

/// Single-core XOR encode/decode CPU cost per input byte.
inline constexpr double kXorNsPerByte = 0.15;

/// Digest word standing in for kDigestChunk bytes of checkpoint
/// content: deterministic in (rank, path, chunk index), the same
/// content model as the device-side tagged patterns.
uint64_t content_word(uint32_t rank, const std::string& path, uint64_t chunk);

/// CRC64 digest of a stream = (length, word sequence).
uint64_t stream_digest(uint64_t bytes, const std::vector<uint64_t>& words);

/// Bookkeeping for one fast-tier file of one rank.
struct FileManifest {
  uint64_t bytes = 0;
  uint64_t digest = 0;   // stream digest, set at close
  bool complete = false;

  // kPartner: replica stream health (replica_ok requires digest match).
  uint64_t replica_bytes = 0;
  uint64_t replica_digest = 0;
  bool replica_ok = false;
  bool replica_failed = false;  // background replication hit an error

  // kXor: this member's parity segment has been encoded + written.
  bool parity_ok = false;
};

/// One member's encoded parity segment (kXor), keyed by the member's
/// own file path.
struct ParitySegment {
  std::vector<uint64_t> words;             // P_m
  uint64_t device_bytes = 0;
  /// The erasure set's file-per-rank at encode time — decode uses this
  /// to locate the matching segment for a lost member's path.
  std::map<uint32_t, std::string> member_paths;
  bool ok = false;
};

class RedundantSystem final : public baselines::StorageSystem {
 public:
  /// `store` holds the replica/parity namespaces (placed per `plan`);
  /// null for Scheme::kNone. `primary` must outlive this system.
  RedundantSystem(nvmecr_rt::Cluster& cluster,
                  baselines::StorageSystem& primary,
                  std::unique_ptr<nvmecr_rt::NvmecrSystem> store,
                  RedundancyPlan plan, uint32_t nranks);
  ~RedundantSystem() override;

  std::string name() const override {
    return primary_.name() + "+" + scheme_name(plan_.scheme);
  }
  sim::Task<StatusOr<std::unique_ptr<baselines::StorageClient>>> connect(
      int rank) override;

  // Efficiency denominators stay the primary deployment's: redundancy
  // is overhead against the same hardware budget.
  uint64_t hardware_peak_write_bw() const override {
    return primary_.hardware_peak_write_bw();
  }
  uint64_t hardware_peak_read_bw() const override {
    return primary_.hardware_peak_read_bw();
  }
  std::vector<uint64_t> bytes_per_server() const override {
    return primary_.bytes_per_server();
  }
  uint64_t metadata_bytes() const override {
    return primary_.metadata_bytes() +
           (store_ != nullptr ? store_->metadata_bytes() : 0);
  }
  SimDuration kernel_time() const override {
    return primary_.kernel_time() +
           (store_ != nullptr ? store_->kernel_time() : 0);
  }

  /// Waits until no background replication/parity work is outstanding
  /// (call before injecting faults or tearing down).
  sim::Task<void> quiesce();

  const RedundancyPlan& plan() const { return plan_; }
  nvmecr_rt::Cluster& cluster() { return cluster_; }
  nvmecr_rt::NvmecrSystem* store() { return store_.get(); }

  /// Device bytes written to the redundancy store (replica + parity) —
  /// the write-overhead numerator of the Table-II-style comparison.
  uint64_t redundant_bytes() const { return redundant_bytes_; }
  /// Background replication/encode failures that degraded (not failed)
  /// a checkpoint.
  uint64_t degraded_files() const { return degraded_; }
  /// Host CPU burned encoding parity (kXor only; kXorTarget folds on
  /// the target's compute pool instead — see NvmfTarget::compute_busy_ns).
  uint64_t host_encode_ns() const { return host_encode_ns_; }

  /// Manifest of rank's file, nullptr when unknown.
  const FileManifest* manifest(uint32_t rank, const std::string& path) const;

 private:
  friend class RedundantClient;
  friend class Reconstructor;
  friend class RecoveryClient;

  struct RankState {
    explicit RankState(sim::Engine& e) : repl_mutex(e), joiner(e) {}
    std::unique_ptr<baselines::StorageClient> store_client;
    sim::FifoMutex repl_mutex;  // serializes ops on store_client
    sim::StatusJoiner joiner;   // foreground join point (fsync/close)
    RedundantClient* client = nullptr;  // live session, for reconstruction
    uint64_t xor_seq = 0;               // per-rank closed-file ordinal
    std::map<std::string, FileManifest> files;
    std::map<std::string, int> replica_fds;       // kPartner, open streams
    std::map<std::string, ParitySegment> parity;  // kXor
  };

  /// One checkpoint "wave" of an erasure set: members report their
  /// closed file here; the last close releases the parity encoders.
  struct SetProgress {
    explicit SetProgress(sim::Engine& e) : done(e) {}
    std::map<uint32_t, std::string> member_paths;  // rank -> path
    sim::Event done;
  };

  RankState& rank_state(uint32_t rank) { return *ranks_[rank]; }
  SetProgress& set_progress(uint32_t set, uint64_t seq);
  /// Parity file for `path` on the store namespace. Flat (slashes become
  /// underscores): microfs creates need an existing parent directory.
  std::string parity_path(const std::string& path) const {
    std::string p = "/xor";
    for (char c : path) p += c == '/' ? '_' : c;
    return p;
  }

  /// Background task: encode + write member `rank`'s parity segment for
  /// the set wave identified by (set, seq), once all members closed.
  sim::Task<void> encode_parity(uint32_t rank, std::string path,
                                uint32_t set, uint64_t seq);
  /// Wraps a background task with outstanding-count bookkeeping.
  sim::Task<void> run_background(sim::Task<void> task);
  void spawn_background(sim::Task<void> task);
  void note_degraded();

  nvmecr_rt::Cluster& cluster_;
  baselines::StorageSystem& primary_;
  std::unique_ptr<nvmecr_rt::NvmecrSystem> store_;
  RedundancyPlan plan_;

  std::vector<std::unique_ptr<RankState>> ranks_;
  std::map<uint64_t, std::unique_ptr<SetProgress>> set_progress_;

  uint64_t redundant_bytes_ = 0;
  uint64_t degraded_ = 0;
  uint64_t host_encode_ns_ = 0;
  int background_outstanding_ = 0;
  sim::Event background_idle_;

  // Cached metric instruments (null when observability is off).
  obs::Counter* replica_bytes_ctr_ = nullptr;
  obs::Counter* parity_bytes_ctr_ = nullptr;
  obs::Counter* degraded_ctr_ = nullptr;
  obs::Histogram* encode_ns_ = nullptr;
};

/// Per-rank client: foreground ops go to the primary runtime; the
/// redundancy stream rides behind them.
class RedundantClient final : public baselines::StorageClient {
 public:
  RedundantClient(RedundantSystem& sys, uint32_t rank,
                  std::unique_ptr<baselines::StorageClient> primary);
  ~RedundantClient() override;

  sim::Task<StatusOr<int>> create(const std::string& path) override;
  sim::Task<StatusOr<int>> open_read(const std::string& path) override;
  sim::Task<Status> write(int fd, uint64_t len) override;
  sim::Task<Status> read(int fd, uint64_t len) override;
  sim::Task<Status> fsync(int fd) override;
  sim::Task<Status> close(int fd) override;
  sim::Task<Status> unlink(const std::string& path) override;

  baselines::StorageClient& primary() { return *primary_; }
  uint32_t rank() const { return rank_; }

 private:
  struct OpenFile {
    std::string path;
    bool writing = false;
  };

  // Static (sys + rank, no `this`): replication tasks are owned by the
  // engine and must stay valid even if the client that spawned them is
  // torn down before they run.
  static sim::Task<Status> replicate_create(RedundantSystem& sys,
                                            uint32_t rank, std::string path);
  static sim::Task<Status> replicate_write(RedundantSystem& sys,
                                           uint32_t rank, std::string path,
                                           uint64_t len);
  static sim::Task<Status> replicate_fsync(RedundantSystem& sys,
                                           uint32_t rank, std::string path);
  static sim::Task<Status> replicate_close(RedundantSystem& sys,
                                           uint32_t rank, std::string path);

  RedundantSystem& sys_;
  uint32_t rank_;
  std::unique_ptr<baselines::StorageClient> primary_;
  std::map<int, OpenFile> open_;
};

/// Everything a redundant job needs, built in one call.
struct RedundantDeployment {
  RedundancyPlan plan;
  nvmecr_rt::JobAllocation store_job;  // empty for kNone
  std::unique_ptr<RedundantSystem> system;
};

/// Plans replica/parity placement against `primary_job`, carves the
/// store namespaces through the scheduler (partner: full-size
/// partitions; xor: ~1/(K-1)-size), deploys the store runtime, and
/// wires up the RedundantSystem.
StatusOr<RedundantDeployment> deploy_redundancy(
    nvmecr_rt::Cluster& cluster, nvmecr_rt::Scheduler& scheduler,
    baselines::StorageSystem& primary,
    const nvmecr_rt::JobAllocation& primary_job, Scheme scheme,
    nvmecr_rt::RuntimeConfig store_config = {});

}  // namespace nvmecr::redundancy
