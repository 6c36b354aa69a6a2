// Target-side computation offload (DESIGN.md "Offload pipeline").
//
// NVMe-oF targets have idle cores next to the data: once a checkpoint
// extent has landed, the target can digest it, keep it compressed,
// fold incremental deltas into a materialized restart image, or XOR
// parity out of it — work the host would otherwise burn its own cores
// and fabric bytes on. OffloadSystem is the host-side half: it wraps
// any StorageSystem, negotiates the stage set with each rank's target
// at connect time (NvmfTarget::negotiate_offload), and routes each
// stage to the granted side with an explicit cost model:
//
//   digest    granted: target CRCs the landed (wire) extent on its
//             offload cores; fsync awaits the verify. Else the host
//             CRCs the raw stream before shipping.
//   compress  the host always compresses when a codec is configured
//             (the wire and device carry compressed bytes); the grant
//             decides who decompresses on restart — the target (raw
//             bytes cross the fabric back, zero host CPU) or the host
//             (compressed bytes cross, host pays the inverse cost).
//   compact   granted: after each incremental checkpoint closes, the
//             target folds the delta into a materialized full image in
//             background target time; restart reads that one image
//             instead of replaying the retained delta chain.
//   parity    negotiated here, executed by the redundancy engine
//             (Scheme::kXorTarget) — see redundancy/engine.cc.
//
// A dead target revokes the session's grant: every stage falls back to
// host-side compute, the fallback is counted and recorded in a
// degraded-manifest log, and the job keeps running (the resilience
// interaction the fault tests exercise).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/storage_api.h"
#include "nvmecr/cluster.h"
#include "offload/codec.h"

namespace nvmecr::offload {

using namespace nvmecr::literals;

struct OffloadOptions {
  /// OffloadCap bits to request from each rank's target. The grant is
  /// `stages & target advertised caps`; 0 disables negotiation entirely.
  uint32_t stages = nvmf::kOffloadAll;

  /// Checkpoint codec; codec_none() disables the compression stage.
  Codec codec = codec_none();

  /// Run an integrity digest over every checkpoint stream (host- or
  /// target-side per the digest grant).
  bool digest_checks = true;
};

/// Where one rank's session stands with its target.
struct RankOffloadState {
  uint32_t granted = 0;  // OffloadCap bits in force (0 after fallback)
  std::string image_path;   // newest checkpoint the image covers
  uint64_t image_bytes = 0; // materialized full-state bytes
  SimTime image_ready = 0;  // fold completion on the target clock
};

class OffloadClient;

class OffloadSystem final : public baselines::StorageSystem {
 public:
  /// `inner` persists the data (must outlive this system); `job` maps
  /// each rank to its storage target for negotiation and compute
  /// placement — pass the same allocation `inner` was deployed on.
  OffloadSystem(nvmecr_rt::Cluster& cluster, baselines::StorageSystem& inner,
                const nvmecr_rt::JobAllocation& job, OffloadOptions opts);

  std::string name() const override { return inner_.name() + "+offload"; }
  sim::Task<StatusOr<std::unique_ptr<baselines::StorageClient>>> connect(
      int rank) override;

  uint64_t hardware_peak_write_bw() const override {
    return inner_.hardware_peak_write_bw();
  }
  uint64_t hardware_peak_read_bw() const override {
    return inner_.hardware_peak_read_bw();
  }
  std::vector<uint64_t> bytes_per_server() const override {
    return inner_.bytes_per_server();
  }
  uint64_t metadata_bytes() const override { return inner_.metadata_bytes(); }
  SimDuration kernel_time() const override { return inner_.kernel_time(); }
  uint64_t restart_image_bytes(int rank, const std::string& path) override;

  nvmecr_rt::Cluster& cluster() { return cluster_; }

  /// Stage mask in force for `rank` (0 = everything host-side).
  uint32_t granted(uint32_t rank) const;
  /// Host CPU burned on stages that ran host-side (ns).
  uint64_t host_compute_ns() const { return host_compute_ns_; }
  /// Sessions that lost their grant to a dead target.
  uint64_t fallbacks() const { return fallbacks_; }
  /// Degraded manifest: one line per fallback, for operators and tests.
  const std::vector<std::string>& fallback_log() const {
    return fallback_log_;
  }

 private:
  friend class OffloadClient;

  struct StoredFile {
    uint64_t raw_bytes = 0;
    uint64_t wire_bytes = 0;
    bool compressed = false;
  };
  struct RankSlot {
    RankOffloadState st;
    std::map<std::string, StoredFile> files;
  };

  nvmf::NvmfTarget& target_of(uint32_t rank);
  fabric::NodeId client_node(uint32_t rank) const {
    return job_.rank_nodes[rank];
  }
  /// Grant still usable? Revokes it (once, logged) when the target died.
  uint32_t active_grant(uint32_t rank);
  void charge_host(SimDuration work) {
    host_compute_ns_ += static_cast<uint64_t>(work);
  }

  nvmecr_rt::Cluster& cluster_;
  baselines::StorageSystem& inner_;
  nvmecr_rt::JobAllocation job_;
  OffloadOptions opts_;
  std::vector<RankSlot> ranks_;
  uint64_t host_compute_ns_ = 0;
  uint64_t fallbacks_ = 0;
  std::vector<std::string> fallback_log_;
};

/// Per-rank client: forwards to the inner client, running the granted
/// stages around each op per the cost model above.
class OffloadClient final : public baselines::StorageClient {
 public:
  OffloadClient(OffloadSystem& sys, uint32_t rank,
                std::unique_ptr<baselines::StorageClient> inner);

  sim::Task<StatusOr<int>> create(const std::string& path) override;
  sim::Task<StatusOr<int>> open_read(const std::string& path) override;
  sim::Task<Status> write(int fd, uint64_t len) override;
  sim::Task<Status> read(int fd, uint64_t len) override;
  sim::Task<Status> fsync(int fd) override;
  sim::Task<Status> close(int fd) override;
  sim::Task<Status> unlink(const std::string& path) override;

 private:
  struct OpenFile {
    std::string path;
    bool writing = false;
    // Write side.
    uint64_t raw_bytes = 0;
    uint64_t wire_bytes = 0;
    SimTime digest_done = 0;  // target-side verify completion
    // Read side.
    bool image = false;        // fabricated fd serving the target image
    uint64_t image_bytes = 0;  // image fds: total raw bytes served
    uint64_t raw_left = 0;     // compressed reads: raw bytes remaining
    uint64_t wire_left = 0;    // compressed reads: wire bytes remaining
  };

  /// One capsule/poll-group/completion exchange with the rank's target
  /// plus `payload` response bytes (the image-serving data path).
  sim::Task<Status> target_round_trip(uint64_t payload);

  OffloadSystem& sys_;
  uint32_t rank_;
  std::unique_ptr<baselines::StorageClient> inner_;
  std::map<int, OpenFile> open_;
  int next_image_fd_ = 1 << 20;  // disjoint from inner fds
};

}  // namespace nvmecr::offload
