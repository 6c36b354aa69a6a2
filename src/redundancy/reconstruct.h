// Reconstruct-on-restart: the read side of the redundancy engine.
//
// After a failure-domain loss, a rank's fast-tier checkpoint may be
// gone (device failed) or damaged (media corruption). The Reconstructor
// hands out per-rank read-only clients whose open_read() materializes
// the requested checkpoint from the best surviving source:
//
//   1. fast tier — the primary copy, verified by reading it back;
//   2. partner replica — the full copy in the partner domain (kPartner),
//      trusted only when its stream digest matched at close;
//   3. XOR decode — re-derive the lost stream's digest words from the
//      K-1 surviving members' files plus their parity segments (kXor),
//      then check them against the manifest's CRC64 digest;
//
// and fails otherwise, at which point the restart path walks on to the
// PFS tier (workloads::RestorePlan's chain). Materialization
// charges the real device reads (survivor files + parity segments) and
// decode CPU; subsequent read()s stream the DRAM-resident image at DRAM
// bandwidth.
//
// Reconstruction is an *online* rebuild: it reads survivors through the
// live client sessions registered with the RedundantSystem (a
// reconnect would reformat partitions — see runtime.h), so it must run
// while the surviving ranks' clients are still alive.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "redundancy/engine.h"

namespace nvmecr::redundancy {

enum class RecoverySource : uint8_t { kFastTier, kPartner, kXor };

struct RecoveryReport {
  uint32_t rank = 0;
  std::string path;
  RecoverySource source = RecoverySource::kFastTier;
  uint64_t bytes = 0;       // checkpoint size served to the application
  uint64_t bytes_read = 0;  // device bytes read to materialize it
  bool digest_ok = false;   // stream digest matched the manifest
  SimDuration took = 0;     // open_read() materialization time
};

class Reconstructor {
 public:
  explicit Reconstructor(RedundantSystem& system);

  /// Read-only client for `rank`; put it in a workloads::RestorePlan
  /// chain as a fast-tier source.
  std::unique_ptr<baselines::StorageClient> client(uint32_t rank);

  /// Every successful materialization, in completion order.
  const std::vector<RecoveryReport>& reports() const { return reports_; }
  /// Latest report for (rank, path); nullptr when never recovered.
  const RecoveryReport* find_report(uint32_t rank,
                                    const std::string& path) const;

 private:
  friend class RecoveryClient;

  RedundantSystem& sys_;
  std::vector<RecoveryReport> reports_;
  obs::Counter* reconstructions_ = nullptr;
  obs::Counter* read_bytes_ctr_ = nullptr;
  obs::Histogram* reconstruct_ns_ = nullptr;
};

/// One rank's restart session. Only open_read/read/close are legal.
class RecoveryClient final : public baselines::StorageClient {
 public:
  RecoveryClient(Reconstructor& owner, uint32_t rank)
      : owner_(owner), rank_(rank) {}

  sim::Task<StatusOr<int>> create(const std::string& path) override;
  sim::Task<StatusOr<int>> open_read(const std::string& path) override;
  sim::Task<Status> write(int fd, uint64_t len) override;
  sim::Task<Status> read(int fd, uint64_t len) override;
  sim::Task<Status> fsync(int fd) override;
  sim::Task<Status> close(int fd) override;
  sim::Task<Status> unlink(const std::string& path) override;

 private:
  struct OpenImage {
    uint64_t bytes = 0;
    uint64_t cursor = 0;
  };

  /// Full verification read of `path` through `c` (device-charged).
  static sim::Task<Status> read_all(baselines::StorageClient& c,
                                    const std::string& path, uint64_t bytes,
                                    uint64_t chunk);
  sim::Task<Status> materialize_partner(const FileManifest& m,
                                        const std::string& path,
                                        RecoveryReport& r);
  sim::Task<Status> decode_xor(const FileManifest& m, const std::string& path,
                               RecoveryReport& r);

  Reconstructor& owner_;
  uint32_t rank_;
  int next_fd_ = 1;
  std::map<int, OpenImage> open_;
};

}  // namespace nvmecr::redundancy
