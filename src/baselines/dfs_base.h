// Shared chassis for the distributed-filesystem comparator models
// (OrangeFS-like, GlusterFS-like). Each storage node runs a server with
// a kernel filesystem underneath (the "multiple software layers over
// POSIX filesystems" the paper calls out, §I) plus a metadata service
// whose shared-directory critical section serializes creates (the
// Figure 8(b) effect). Placement policy and costs are the subclass's
// business.
//
// These are behavioural models calibrated to reproduce the paper's
// measured efficiencies, not reimplementations of either codebase; the
// calibration constants are documented in EXPERIMENTS.md.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/storage_api.h"
#include "kernelfs/localfs.h"
#include "nvmecr/cluster.h"
#include "simcore/sync.h"

namespace nvmecr::baselines {

using namespace nvmecr::literals;
using nvmecr_rt::Cluster;

struct DfsCosts {
  /// Client-side FUSE/libc + protocol cost per operation.
  SimDuration client_per_op = 8_us;
  /// Server metadata critical section per namespace op (under the
  /// directory lock of the server owning the parent directory).
  SimDuration server_md_op = 60_us;
  /// Fixed + per-file metadata storage charged to the owning server
  /// (Table I accounting).
  uint64_t md_fixed_bytes = 0;
  uint64_t md_per_file_bytes = 4_KiB;

  /// Serverless (client-funded) metadata, DeltaFS-style: namespace ops
  /// never serialize on a shared directory service; each client appends
  /// a record to its own metadata log on its data server instead.
  bool serverless_metadata = false;
};

/// Bytes of [off, off+len) that land on the `index`-th of `nservers`
/// servers when stripes of `unit` bytes go round-robin (stripe k on
/// server k mod nservers). O(1): counts the server's whole stripes and
/// trims the partial head and tail stripes. Zero for `len == 0`.
uint64_t stripe_share(uint64_t off, uint64_t len, uint64_t unit,
                      size_t index, size_t nservers);

/// One storage server: kernel FS over the node's SSD + a directory lock.
struct DfsServer {
  DfsServer(sim::Engine& engine, hw::NvmeSsd& ssd, uint32_t nsid,
            kernelfs::LocalFsParams params)
      : fs(engine, ssd, nsid, params), dir_lock(engine) {}
  kernelfs::LocalFs fs;
  sim::FifoMutex dir_lock;
  uint64_t data_bytes = 0;
  uint64_t md_bytes = 0;
  uint64_t files = 0;
};

class DfsSystem : public StorageSystem {
 public:
  /// Deploys one server per storage node, each owning a namespace over
  /// its whole SSD, running `fs_params` underneath.
  DfsSystem(Cluster& cluster, uint32_t nranks, uint32_t procs_per_node,
            kernelfs::LocalFsParams fs_params, DfsCosts costs);
  ~DfsSystem() override;

  sim::Task<StatusOr<std::unique_ptr<StorageClient>>> connect(
      int rank) override;

  uint64_t hardware_peak_write_bw() const override {
    return cluster_.peak_write_bw(
        static_cast<uint32_t>(servers_.size()));
  }
  uint64_t hardware_peak_read_bw() const override {
    return cluster_.peak_read_bw(static_cast<uint32_t>(servers_.size()));
  }
  std::vector<uint64_t> bytes_per_server() const override;
  uint64_t metadata_bytes() const override;
  SimDuration kernel_time() const override;

  /// Metadata bytes per server (Table I is reported per storage node).
  std::vector<uint64_t> metadata_bytes_per_server() const;

 protected:
  friend class DfsClient;

  /// Where a file's data goes: list of (server, share-of-bytes weight).
  /// Whole-file policies return one entry; striping returns all servers.
  virtual std::vector<uint32_t> data_servers(const std::string& path) = 0;

  /// Server owning the (shared) parent directory of `path`.
  virtual uint32_t dir_server(const std::string& path) = 0;

  /// Stripe unit when data_servers returns several entries.
  virtual uint64_t stripe_unit() const { return 64_KiB; }

  Cluster& cluster_;
  uint32_t nranks_;
  uint32_t procs_per_node_;
  DfsCosts costs_;
  std::vector<std::unique_ptr<DfsServer>> servers_;
  std::vector<uint32_t> server_nsids_;
};

}  // namespace nvmecr::baselines
