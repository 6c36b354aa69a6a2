#include "baselines/models.h"

#include "hw/block_device.h"
#include "nvmf/spdk.h"

namespace nvmecr::baselines {

// ---------------------------------------------------------------------
// Crail
// ---------------------------------------------------------------------

class CrailClient final : public StorageClient {
 public:
  CrailClient(CrailModel& system, int rank, fabric::NodeId node,
              std::unique_ptr<hw::BlockDevice> dev, uint64_t base,
              uint64_t length)
      : system_(system), rank_(rank), node_(node), dev_(std::move(dev)),
        base_(base), length_(length) {}

  sim::Task<StatusOr<int>> create(const std::string& path) override {
    // Namenode round trip for the create.
    NVMECR_CO_RETURN_IF_ERROR(co_await system_.metadata_rpc(node_));
    const int fd = next_fd_++;
    files_[fd] = File{path, 0, 0, mix64(fnv1a(path.data(), path.size()))};
    co_return StatusOr<int>(fd);
  }

  sim::Task<StatusOr<int>> open_read(const std::string& path) override {
    NVMECR_CO_RETURN_IF_ERROR(co_await system_.metadata_rpc(node_));
    const int fd = next_fd_++;
    files_[fd] = File{path, 0, 0, mix64(fnv1a(path.data(), path.size()))};
    co_return StatusOr<int>(fd);
  }

  sim::Task<Status> write(int fd, uint64_t len) override {
    auto it = files_.find(fd);
    if (it == files_.end()) co_return BadFdError();
    // Block allocation through the namenode, once per alloc group.
    uint64_t pos = 0;
    while (pos < len) {
      const uint64_t in_group =
          system_.alloc_group_ -
          (it->second.write_off + pos) % system_.alloc_group_;
      const uint64_t piece = std::min(len - pos, in_group);
      if ((it->second.write_off + pos) % system_.alloc_group_ == 0) {
        NVMECR_CO_RETURN_IF_ERROR(co_await system_.metadata_rpc(node_));
      }
      const uint64_t dev_off =
          (base_ + (it->second.write_off + pos) % length_) /
          dev_->hw_block_size() * dev_->hw_block_size();
      const uint64_t aligned =
          round_up(piece, dev_->hw_block_size());
      const auto subcmds = static_cast<uint32_t>(
          ceil_div(aligned, 64_KiB));  // Crail's fixed 64 KiB buffers
      co_await system_.staging_->transfer_fair(aligned, 1_MiB);
      Status s = co_await dev_->write_tagged(
          std::min(dev_off, dev_->capacity() - aligned), aligned,
          it->second.seed, subcmds);
      if (!s.ok()) co_return s;
      pos += piece;
    }
    it->second.write_off += len;
    co_return OkStatus();
  }

  sim::Task<Status> read(int fd, uint64_t len) override {
    auto it = files_.find(fd);
    if (it == files_.end()) co_return BadFdError();
    // Block lookup.
    NVMECR_CO_RETURN_IF_ERROR(co_await system_.metadata_rpc(node_));
    const uint64_t aligned = round_up(len, dev_->hw_block_size());
    const uint64_t dev_off =
        (base_ + it->second.read_off % length_) / dev_->hw_block_size() *
        dev_->hw_block_size();
    co_await system_.staging_->transfer_fair(aligned, 1_MiB);
    auto tag = co_await dev_->read_tagged(
        std::min(dev_off, dev_->capacity() - aligned), aligned,
        static_cast<uint32_t>(ceil_div(aligned, 64_KiB)));
    if (!tag.ok()) co_return tag.status();
    it->second.read_off += len;
    co_return OkStatus();
  }

  sim::Task<Status> fsync(int fd) override {
    if (files_.find(fd) == files_.end()) co_return BadFdError();
    co_return co_await dev_->flush();
  }

  sim::Task<Status> close(int fd) override {
    if (files_.erase(fd) == 0) co_return BadFdError();
    co_return co_await system_.metadata_rpc(node_);  // updates file size
  }

  sim::Task<Status> unlink(const std::string& path) override {
    (void)path;
    co_return co_await system_.metadata_rpc(node_);
  }

 private:
  struct File {
    std::string path;
    uint64_t write_off = 0;
    uint64_t read_off = 0;
    uint64_t seed = 0;
  };

  CrailModel& system_;
  int rank_;
  fabric::NodeId node_;
  std::unique_ptr<hw::BlockDevice> dev_;
  uint64_t base_;
  uint64_t length_;
  std::map<int, File> files_;
  int next_fd_ = 3;
};

CrailModel::CrailModel(Cluster& cluster, uint32_t nranks,
                       uint32_t procs_per_node, uint64_t partition_bytes)
    : cluster_(cluster),
      nranks_(nranks),
      procs_per_node_(procs_per_node),
      partition_bytes_(partition_bytes),
      md_lock_(cluster.engine()) {
  // Single NVMe server: storage node 0 hosts both data and metadata.
  md_node_ = cluster.storage_nodes().front();
  staging_ = std::make_unique<sim::BandwidthResource>(cluster.engine(),
                                                      1980_MBps);
  auto nsid = cluster.storage_ssd(0).create_namespace(
      partition_bytes * nranks);
  NVMECR_CHECK(nsid.ok());
  nsid_ = *nsid;
}

CrailModel::~CrailModel() {
  (void)cluster_.storage_ssd(0).delete_namespace(nsid_);
}

sim::Task<Status> CrailModel::metadata_rpc(fabric::NodeId client) {
  NVMECR_CO_RETURN_IF_ERROR(
      co_await cluster_.network().transfer(client, md_node_, 128));
  co_await md_lock_.lock();  // single-threaded namenode
  co_await cluster_.engine().delay(md_service_);
  md_bytes_ += 256;
  md_lock_.unlock();
  co_return co_await cluster_.network().transfer(md_node_, client, 96);
}

sim::Task<StatusOr<std::unique_ptr<StorageClient>>> CrailModel::connect(
    int rank) {
  using Result = StatusOr<std::unique_ptr<StorageClient>>;
  const fabric::NodeId node = cluster_.node_of_rank(
      static_cast<uint32_t>(rank), procs_per_node_);
  auto dev = cluster_.target(0).connect(node, nsid_);
  if (!dev.ok()) co_return Result(dev.status());
  const uint64_t slot = next_slot_++;
  co_return Result(std::unique_ptr<StorageClient>(new CrailClient(
      *this, rank, node, std::move(dev).value(), slot * partition_bytes_,
      partition_bytes_)));
}

std::vector<uint64_t> CrailModel::bytes_per_server() const {
  return {const_cast<Cluster&>(cluster_).storage_ssd(0)
              .namespace_bytes_written(nsid_)};
}

// ---------------------------------------------------------------------
// Lustre
// ---------------------------------------------------------------------

class LustreClient final : public StorageClient {
 public:
  LustreClient(LustreModel& system, int rank, fabric::NodeId node)
      : system_(system), rank_(rank), node_(node) {}

  sim::Task<StatusOr<int>> create(const std::string& path) override {
    co_await syscall_enter();
    Status s = co_await mds_op(system_.mds_service_);
    syscall_exit();
    if (!s.ok()) co_return StatusOr<int>(s);
    system_.md_bytes_ += 4_KiB;
    const int fd = next_fd_++;
    files_[fd] = File{path, 0, 0};
    co_return StatusOr<int>(fd);
  }

  sim::Task<StatusOr<int>> open_read(const std::string& path) override {
    co_await syscall_enter();
    Status s = co_await mds_op(system_.mds_service_ / 2);
    syscall_exit();
    if (!s.ok()) co_return StatusOr<int>(s);
    const int fd = next_fd_++;
    files_[fd] = File{path, 0, 0};
    co_return StatusOr<int>(fd);
  }

  sim::Task<Status> write(int fd, uint64_t len) override {
    auto it = files_.find(fd);
    if (it == files_.end()) co_return BadFdError();
    co_await syscall_enter();
    // 1 MiB stripes round-robin across the OSS RAID pipes; the client
    // pays the kernel block path per RPC.
    Status s;
    uint64_t pos = 0;
    while (pos < len) {
      const uint64_t piece = std::min<uint64_t>(1_MiB, len - pos);
      const auto oss = static_cast<uint32_t>(
          ((it->second.write_off + pos) / 1_MiB) % system_.oss_pipes_.size());
      co_await system_.cluster_.engine().delay(kernelfs::kBlockLayerPerReq);
      s = co_await system_.cluster_.network().transfer(
          node_, oss_node(oss), piece + 256);
      if (!s.ok()) break;
      co_await system_.oss_pipes_[oss]->transfer(piece);
      system_.oss_bytes_[oss] += piece;
      s = co_await system_.cluster_.network().transfer(oss_node(oss), node_,
                                                       128);
      if (!s.ok()) break;
      pos += piece;
    }
    if (s.ok()) it->second.write_off += len;
    syscall_exit();
    co_return s;
  }

  sim::Task<Status> read(int fd, uint64_t len) override {
    auto it = files_.find(fd);
    if (it == files_.end()) co_return BadFdError();
    co_await syscall_enter();
    Status s;
    uint64_t pos = 0;
    while (pos < len) {
      const uint64_t piece = std::min<uint64_t>(1_MiB, len - pos);
      const auto oss = static_cast<uint32_t>(
          ((it->second.read_off + pos) / 1_MiB) % system_.oss_pipes_.size());
      co_await system_.cluster_.engine().delay(kernelfs::kBlockLayerPerReq);
      s = co_await system_.cluster_.network().transfer(node_, oss_node(oss),
                                                       256);
      if (!s.ok()) break;
      co_await system_.oss_pipes_[oss]->transfer(piece);
      s = co_await system_.cluster_.network().transfer(oss_node(oss), node_,
                                                       piece + 128);
      if (!s.ok()) break;
      pos += piece;
    }
    if (s.ok()) it->second.read_off += len;
    syscall_exit();
    co_return s;
  }

  sim::Task<Status> fsync(int fd) override {
    if (files_.find(fd) == files_.end()) co_return BadFdError();
    co_await syscall_enter();
    Status s = co_await mds_op(system_.mds_service_ / 4);
    syscall_exit();
    co_return s;
  }

  sim::Task<Status> close(int fd) override {
    if (files_.erase(fd) == 0) co_return BadFdError();
    co_await syscall_enter();
    Status s = co_await mds_op(system_.mds_service_ / 4);
    syscall_exit();
    co_return s;
  }

  sim::Task<Status> unlink(const std::string& path) override {
    (void)path;
    co_await syscall_enter();
    Status s = co_await mds_op(system_.mds_service_);
    if (s.ok() && system_.md_bytes_ >= 4_KiB) system_.md_bytes_ -= 4_KiB;
    syscall_exit();
    co_return s;
  }

 private:
  struct File {
    std::string path;
    uint64_t write_off = 0;
    uint64_t read_off = 0;
  };

  fabric::NodeId oss_node(uint32_t oss) const {
    // OSS daemons live on the last pfs_servers storage nodes.
    const auto& nodes = system_.cluster_.storage_nodes();
    return nodes[nodes.size() - system_.oss_pipes_.size() + oss];
  }

  sim::Task<void> syscall_enter() {
    syscall_start_ = system_.cluster_.engine().now();
    co_await system_.cluster_.engine().delay(kernelfs::kSyscallTrap +
                                             kernelfs::kVfsPerOp);
  }
  void syscall_exit() {
    system_.kernel_time_ +=
        system_.cluster_.engine().now() - syscall_start_;
  }

  sim::Task<Status> mds_op(SimDuration service) {
    NVMECR_CO_RETURN_IF_ERROR(co_await system_.cluster_.network().transfer(
        node_, system_.mds_node_, 256));
    co_await system_.mds_lock_.lock();
    co_await system_.cluster_.engine().delay(service);
    system_.mds_lock_.unlock();
    co_return co_await system_.cluster_.network().transfer(system_.mds_node_,
                                                           node_, 128);
  }

  LustreModel& system_;
  int rank_;
  fabric::NodeId node_;
  std::map<int, File> files_;
  int next_fd_ = 3;
  SimTime syscall_start_ = 0;
};

LustreModel::LustreModel(Cluster& cluster, uint32_t procs_per_node)
    : cluster_(cluster),
      procs_per_node_(procs_per_node),
      mds_node_(cluster.storage_nodes().front()),
      mds_lock_(cluster.engine()) {
  oss_bytes_.assign(cluster.spec().pfs_servers, 0);
  for (uint32_t i = 0; i < cluster.spec().pfs_servers; ++i) {
    oss_pipes_.push_back(std::make_unique<sim::BandwidthResource>(
        cluster.engine(), cluster.spec().pfs_server_bw));
  }
}

sim::Task<StatusOr<std::unique_ptr<StorageClient>>> LustreModel::connect(
    int rank) {
  using Result = StatusOr<std::unique_ptr<StorageClient>>;
  const fabric::NodeId node = cluster_.node_of_rank(
      static_cast<uint32_t>(rank), procs_per_node_);
  co_return Result(std::unique_ptr<StorageClient>(
      new LustreClient(*this, rank, node)));
}

std::vector<uint64_t> LustreModel::bytes_per_server() const {
  return oss_bytes_;
}

}  // namespace nvmecr::baselines
