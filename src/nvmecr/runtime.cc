#include "nvmecr/runtime.h"

#include "common/log.h"
#include "hw/block_device.h"
#include "kernelfs/kernel_costs.h"
#include "simcore/trace.h"

namespace nvmecr::nvmecr_rt {

using namespace nvmecr::literals;

namespace {

/// Kernel-path per-command costs for the Figure-2 configuration: trap +
/// VFS + block layer on submission; interrupt + context switch on
/// completion (the nvme_rdma/nvmet_rdma path's host share).
constexpr nvmf::OverheadCosts kKernelPathCosts{
    // Trap + VFS + block layer + nvme_rdma request setup.
    .per_op_submit = kernelfs::kSyscallTrap + kernelfs::kVfsPerOp +
                     kernelfs::kBlockLayerPerReq + 2_us,
    // Interrupt + softirq completion + context switch back.
    .per_op_complete = kernelfs::kInterruptPerReq + 2_us,
};

}  // namespace

/// One process's runtime instance: owns the device chain (qpair or local
/// queue -> optional kernel-cost wrapper -> partition view) and the
/// microfs mounted on it.
class NvmecrClient final : public baselines::StorageClient {
 public:
  NvmecrClient(NvmecrSystem& system, int rank) : system_(system), rank_(rank) {}

  ~NvmecrClient() override {
    if (auto it = system_.live_clients_.find(rank_);
        it != system_.live_clients_.end() && it->second == this) {
      system_.live_clients_.erase(it);
    }
    if (fs_ == nullptr) return;
    // Flush per-instance statistics into the system aggregates.
    const auto& st = fs_->stats();
    auto& agg = system_.agg_stats_;
    agg.creates += st.creates;
    agg.writes += st.writes;
    agg.reads += st.reads;
    agg.unlinks += st.unlinks;
    agg.data_bytes_written += st.data_bytes_written;
    agg.payload_bytes_written += st.payload_bytes_written;
    agg.data_bytes_read += st.data_bytes_read;
    agg.dirent_bytes_written += st.dirent_bytes_written;
    agg.ckpt_bytes_written += st.ckpt_bytes_written;
    agg.inode_writeback_bytes += st.inode_writeback_bytes;
    agg.state_checkpoints += st.state_checkpoints;
    system_.metadata_bytes_ += fs_->metadata_device_bytes();
    system_.peak_client_dram_ =
        std::max(system_.peak_client_dram_, fs_->dram_footprint());
    system_.kernel_time_ += kernel_time_;
  }

  /// Builds the device chain and formats the private partition. Mirrors
  /// §III-C: barrier, MPI_COMM_CR split, then uncoordinated forever.
  sim::Task<Status> init() {
    const auto rank = static_cast<uint32_t>(rank_);
    // Pick up the cluster-wide observability hookup; per-rank latency
    // histograms are shared aggregates, trace tracks are per rank.
    obs_ = system_.cluster_.observer();
    if (obs_.any()) {
      trace_track_ = "runtime/rank" + std::to_string(rank_);
    }
    if (obs_.metrics != nullptr) {
      h_create_ = obs_.metrics->histogram("runtime.create_ns");
      h_write_ = obs_.metrics->histogram("runtime.write_ns");
      h_read_ = obs_.metrics->histogram("runtime.read_ns");
      h_fsync_ = obs_.metrics->histogram("runtime.fsync_ns");
      h_close_ = obs_.metrics->histogram("runtime.close_ns");
    }
    const SimTime t0 = op_now();
    const JobAllocation& job = system_.job_;
    const uint32_t ssd_index = job.assignment.ssd_of_rank[rank];
    const uint32_t slot = job.assignment.slot_of_rank[rank];
    const fabric::NodeId my_node = job.rank_nodes[rank];

    if (system_.comm_ != nullptr) {
      // The only coordination in the runtime's lifetime (§III-C): agree
      // on setup completion and form the per-SSD communicator.
      auto sub = co_await system_.comm_->split(rank_, static_cast<int>(ssd_index));
      NVMECR_CHECK(sub.comm->size() ==
                   static_cast<int>(job.assignment.ranks_per_ssd[ssd_index]));
      NVMECR_CHECK(sub.rank == static_cast<int>(slot));
      co_await system_.comm_->barrier(rank_);
    }

    // Device chain.
    if (system_.config_.remote) {
      nvmf::NvmfTarget& target = system_.cluster_.target(
          system_.cluster_.storage_ssd_index(
              job.assignment.ssd_nodes[ssd_index]));
      auto dev = target.connect(my_node, job.nsid_per_ssd[ssd_index]);
      if (!dev.ok()) co_return dev.status();
      base_dev_ = std::move(dev).value();
      if (system_.config_.device_wrapper) {
        base_dev_ = system_.config_.device_wrapper(
            std::move(base_dev_), job.assignment.ssd_nodes[ssd_index], rank);
      }
    } else {
      // Local SSD on the process's own compute node: one namespace per
      // node's rank group, created lazily by slot 0 convention — here we
      // simply create a per-rank namespace (the local experiments use
      // few ranks).
      hw::NvmeSsd& ssd = system_.cluster_.local_ssd(my_node);
      auto nsid = ssd.create_namespace(job.partition_bytes);
      if (!nsid.ok()) co_return nsid.status();
      local_nsid_ = *nsid;
      local_ssd_ = &ssd;
      auto dev = nvmf::SpdkLocalDevice::open(ssd, *nsid);
      if (!dev.ok()) co_return dev.status();
      base_dev_ = std::move(dev).value();
    }

    hw::BlockDevice* chain = base_dev_.get();
    if (!system_.config_.userspace) {
      kernel_wrap_ = std::make_unique<nvmf::OverheadDevice>(
          system_.cluster_.engine(), *chain, kKernelPathCosts, &kernel_time_);
      chain = kernel_wrap_.get();
    }

    // Private partition of the shared namespace (Figure 6) — remote mode
    // slices by slot; local mode owns the whole namespace.
    const uint64_t base =
        system_.config_.remote ? slot * job.partition_bytes : 0;
    partition_ = std::make_unique<hw::PartitionView>(*chain, base,
                                                     job.partition_bytes);

    auto fs = co_await microfs::MicroFs::format(
        system_.cluster_.engine(), *partition_, system_.config_.fs);
    if (!fs.ok()) co_return fs.status();
    fs_ = std::move(fs).value();
    if (obs_.any()) {
      fs_->set_observer(obs_, "rank" + std::to_string(rank_));
      op_done("connect", t0, nullptr);
    }
    system_.live_clients_[rank_] = this;
    co_return OkStatus();
  }

  sim::Task<StatusOr<int>> create(const std::string& path) override {
    const SimTime t0 = op_now();
    if (!system_.config_.private_namespace) {
      NVMECR_CO_RETURN_IF_ERROR(co_await global_namespace_create());
    }
    auto r = co_await fs_->creat(path);
    op_done("create", t0, h_create_);
    co_return r;
  }

  sim::Task<StatusOr<int>> open_read(const std::string& path) override {
    const SimTime t0 = op_now();
    auto r = co_await fs_->open(path, microfs::OpenFlags::ReadOnly());
    op_done("open_read", t0, nullptr);
    co_return r;
  }

  sim::Task<Status> write(int fd, uint64_t len) override {
    const SimTime t0 = op_now();
    Status s = co_await fs_->write_tagged(fd, len);
    op_done("write", t0, h_write_);
    co_return s;
  }

  sim::Task<Status> read(int fd, uint64_t len) override {
    const SimTime t0 = op_now();
    Status s = co_await fs_->read_tagged(fd, len);
    op_done("read", t0, h_read_);
    co_return s;
  }

  sim::Task<Status> fsync(int fd) override {
    const SimTime t0 = op_now();
    Status s = co_await fs_->fsync(fd);
    op_done("fsync", t0, h_fsync_);
    co_return s;
  }

  sim::Task<Status> close(int fd) override {
    const SimTime t0 = op_now();
    Status s = co_await fs_->close(fd);
    op_done("close", t0, h_close_);
    co_return s;
  }

  sim::Task<Status> unlink(const std::string& path) override {
    const SimTime t0 = op_now();
    if (!system_.config_.private_namespace) {
      NVMECR_CO_RETURN_IF_ERROR(co_await global_namespace_create());
    }
    Status s = co_await fs_->unlink(path);
    op_done("unlink", t0, nullptr);
    co_return s;
  }

  microfs::MicroFs& fs() { return *fs_; }

 private:
  /// Drilldown baseline: a namespace-mutating op must take the global
  /// namespace lock on its home node — an RPC plus serialized critical
  /// section, the distributed-synchronization cost §I describes.
  sim::Task<Status> global_namespace_create() {
    NvmecrSystem::GlobalNamespace& ns = *system_.global_ns_;
    const fabric::NodeId my_node =
        system_.job_.rank_nodes[static_cast<uint32_t>(rank_)];
    fabric::Network& net = system_.cluster_.network();
    NVMECR_CO_RETURN_IF_ERROR(co_await net.transfer(my_node, ns.home, 128));
    NVMECR_CO_RETURN_IF_ERROR(co_await net.transfer(ns.home, my_node, 64));
    co_await ns.lock.lock();
    co_await system_.cluster_.engine().delay(ns.op_cost);
    ns.lock.unlock();
    NVMECR_CO_RETURN_IF_ERROR(co_await net.transfer(my_node, ns.home, 64));
    co_return co_await net.transfer(ns.home, my_node, 64);
  }

  SimTime op_now() const { return system_.cluster_.engine().now(); }

  /// Records a per-rank trace span and (optionally) an aggregate latency
  /// sample for one completed runtime API call. No-op when detached.
  void op_done(const char* name, SimTime t0, obs::Histogram* h) {
    if (!obs_.any()) return;
    const SimTime end = op_now();
    if (obs_.trace != nullptr) {
      obs_.trace->add_span(trace_track_, name, t0, end);
    }
    if (h != nullptr) h->add(static_cast<double>(end - t0));
  }

  NvmecrSystem& system_;
  int rank_;
  std::unique_ptr<hw::BlockDevice> base_dev_;
  std::unique_ptr<nvmf::OverheadDevice> kernel_wrap_;
  std::unique_ptr<hw::PartitionView> partition_;
  std::unique_ptr<microfs::MicroFs> fs_;
  hw::NvmeSsd* local_ssd_ = nullptr;
  uint32_t local_nsid_ = 0;
  SimDuration kernel_time_ = 0;

  // Observability (copied from the cluster at init; null when off).
  obs::Observer obs_;
  std::string trace_track_;
  obs::Histogram* h_create_ = nullptr;
  obs::Histogram* h_write_ = nullptr;
  obs::Histogram* h_read_ = nullptr;
  obs::Histogram* h_fsync_ = nullptr;
  obs::Histogram* h_close_ = nullptr;
};

NvmecrSystem::NvmecrSystem(Cluster& cluster, JobAllocation job,
                           RuntimeConfig config, minimpi::Comm* comm)
    : cluster_(cluster),
      job_(std::move(job)),
      config_(config),
      comm_(comm) {
  if (!config_.private_namespace) {
    global_ns_ = std::make_unique<GlobalNamespace>(cluster_.engine());
    global_ns_->home = job_.assignment.ssd_nodes.empty()
                           ? cluster_.storage_nodes().front()
                           : job_.assignment.ssd_nodes.front();
    global_ns_->op_cost = 25_us;  // dentry + lock-manager critical section
  }
}

NvmecrSystem::~NvmecrSystem() = default;

sim::Task<StatusOr<std::vector<std::string>>> NvmecrSystem::fsck_all() {
  std::vector<std::string> issues;
  for (auto& [rank, client] : live_clients_) {
    auto report = co_await client->fs().fsck();
    if (!report.ok()) {
      co_return StatusOr<std::vector<std::string>>(report.status());
    }
    for (const std::string& issue : report->issues) {
      issues.push_back("rank " + std::to_string(rank) + ": " + issue);
    }
  }
  co_return issues;
}

sim::Task<StatusOr<std::unique_ptr<baselines::StorageClient>>>
NvmecrSystem::connect(int rank) {
  using Result = StatusOr<std::unique_ptr<baselines::StorageClient>>;
  auto client = std::make_unique<NvmecrClient>(*this, rank);
  Status s = co_await client->init();
  if (!s.ok()) co_return Result(s);
  co_return Result(std::unique_ptr<baselines::StorageClient>(
      std::move(client)));
}

uint64_t NvmecrSystem::hardware_peak_write_bw() const {
  const auto n = static_cast<uint32_t>(job_.assignment.ssd_nodes.size());
  return cluster_.peak_write_bw(config_.remote ? n : 1);
}

uint64_t NvmecrSystem::hardware_peak_read_bw() const {
  const auto n = static_cast<uint32_t>(job_.assignment.ssd_nodes.size());
  return cluster_.peak_read_bw(config_.remote ? n : 1);
}

std::vector<uint64_t> NvmecrSystem::bytes_per_server() const {
  std::vector<uint64_t> out;
  for (uint32_t s = 0; s < job_.assignment.ssd_nodes.size(); ++s) {
    const hw::NvmeSsd& ssd = const_cast<Cluster&>(cluster_).storage_ssd(
        cluster_.storage_ssd_index(job_.assignment.ssd_nodes[s]));
    out.push_back(ssd.namespace_bytes_written(job_.nsid_per_ssd[s]));
  }
  return out;
}

}  // namespace nvmecr::nvmecr_rt
