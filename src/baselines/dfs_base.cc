#include "baselines/dfs_base.h"

namespace nvmecr::baselines {

namespace {
/// RPC envelope sizes, request and response.
constexpr uint64_t kRpcRequest = 256;
constexpr uint64_t kRpcResponse = 128;
/// Transfer chunk for data RPCs to a whole-file (unstriped) server.
constexpr uint64_t kDataChunk = 1_MiB;
}  // namespace

uint64_t stripe_share(uint64_t off, uint64_t len, uint64_t unit,
                      size_t index, size_t nservers) {
  if (len == 0 || index >= nservers) return 0;
  const uint64_t n = nservers;
  const uint64_t end = off + len;
  const uint64_t first = off / unit;
  const uint64_t last = (end - 1) / unit;
  // k0: this server's first stripe at or after `first`.
  const uint64_t k0 = first + (index + n - first % n) % n;
  if (k0 > last) return 0;
  const uint64_t count = (last - k0) / n + 1;
  uint64_t share = count * unit;
  // Only stripe `first` can start before `off`, and only stripe `last`
  // can run past `end`.
  if (k0 == first) share -= off - first * unit;
  if (k0 + (count - 1) * n == last) share -= (last + 1) * unit - end;
  return share;
}

/// Client session: forwards ops to servers per the system's placement.
class DfsClient final : public StorageClient {
 public:
  DfsClient(DfsSystem& system, int rank, fabric::NodeId node)
      : system_(system), rank_(rank), node_(node) {}

  sim::Task<StatusOr<int>> create(const std::string& path) override {
    using Result = StatusOr<int>;
    sim::Engine& eng = system_.cluster_.engine();
    co_await eng.delay(system_.costs_.client_per_op);

    if (system_.costs_.serverless_metadata) {
      // DeltaFS-style client-funded metadata: append a record to this
      // client's own metadata log on the file's data server — parallel
      // across clients, no shared-directory critical section.
      const uint32_t ds = system_.dir_server(path);
      DfsServer& dir = *system_.servers_[ds];
      NVMECR_CO_RETURN_IF_ERROR(co_await system_.cluster_.network().transfer(
          node_, server_node(ds), kRpcRequest + 160));
      Status ws = co_await append_md_log(ds);
      if (!ws.ok()) co_return Result(ws);
      dir.md_bytes += system_.costs_.md_per_file_bytes;
      ++dir.files;
      NVMECR_CO_RETURN_IF_ERROR(co_await system_.cluster_.network().transfer(
          server_node(ds), node_, kRpcResponse));
    } else {
      // Namespace op: RPC to the directory server, serialized under its
      // shared-directory lock (every rank's create lands here — the
      // Figure 8(b) bottleneck).
      const uint32_t ds = system_.dir_server(path);
      DfsServer& dir = *system_.servers_[ds];
      NVMECR_CO_RETURN_IF_ERROR(co_await system_.cluster_.network().transfer(
          node_, server_node(ds), kRpcRequest));
      co_await dir.dir_lock.lock();
      co_await eng.delay(system_.costs_.server_md_op);
      dir.md_bytes += system_.costs_.md_per_file_bytes;
      ++dir.files;
      dir.dir_lock.unlock();
      NVMECR_CO_RETURN_IF_ERROR(co_await system_.cluster_.network().transfer(
          server_node(ds), node_, kRpcResponse));
    }

    // Create the backing object(s) on the data server(s).
    const std::vector<uint32_t> data = system_.data_servers(path);
    std::vector<int> server_fds(system_.servers_.size(), -1);
    for (uint32_t s : data) {
      auto fd = co_await system_.servers_[s]->fs.open(
          object_name(path), /*create=*/true);
      if (!fd.ok()) co_return Result(fd.status());
      server_fds[s] = *fd;
    }

    const int fd = next_fd_++;
    open_files_[fd] = OpenFile{path, data, std::move(server_fds), 0, 0};
    co_return Result(fd);
  }

  sim::Task<StatusOr<int>> open_read(const std::string& path) override {
    using Result = StatusOr<int>;
    sim::Engine& eng = system_.cluster_.engine();
    co_await eng.delay(system_.costs_.client_per_op);

    // Lookup RPC to the directory server (reads contend with creates on
    // the same metadata service).
    const uint32_t ds = system_.dir_server(path);
    DfsServer& dir = *system_.servers_[ds];
    NVMECR_CO_RETURN_IF_ERROR(co_await system_.cluster_.network().transfer(
        node_, server_node(ds), kRpcRequest));
    co_await dir.dir_lock.lock();
    co_await eng.delay(system_.costs_.server_md_op / 2);  // lookup is lighter
    dir.dir_lock.unlock();
    NVMECR_CO_RETURN_IF_ERROR(co_await system_.cluster_.network().transfer(
        server_node(ds), node_, kRpcResponse));

    const std::vector<uint32_t> data = system_.data_servers(path);
    std::vector<int> server_fds(system_.servers_.size(), -1);
    for (uint32_t s : data) {
      auto fd = co_await system_.servers_[s]->fs.open(object_name(path),
                                                      /*create=*/false);
      if (!fd.ok()) co_return Result(fd.status());
      server_fds[s] = *fd;
    }
    const int fd = next_fd_++;
    open_files_[fd] = OpenFile{path, data, std::move(server_fds), 0, 0};
    co_return Result(fd);
  }

  sim::Task<Status> write(int fd, uint64_t len) override {
    auto it = open_files_.find(fd);
    if (it == open_files_.end()) co_return BadFdError();
    OpenFile& of = it->second;
    sim::Engine& eng = system_.cluster_.engine();

    // Data flows in stripe_unit pieces round-robin over the data
    // servers (one entry for whole-file placement). Per-stripe client
    // CPU is charged in aggregate and the payload moves per-server in
    // one transfer — bandwidth-exact, and it keeps the event count
    // independent of the stripe size.
    const uint64_t unit =
        of.servers.size() > 1 ? system_.stripe_unit() : kDataChunk;
    const uint64_t stripes = ceil_div(len, unit);
    co_await eng.delay(system_.costs_.client_per_op *
                       static_cast<SimDuration>(stripes));
    for (size_t i = 0; i < of.servers.size(); ++i) {
      const uint64_t share =
          stripe_share(of.write_off, len, unit, i, of.servers.size());
      if (share == 0) continue;
      const uint32_t s = of.servers[i];
      const uint64_t stripes_s = ceil_div(share, unit);
      NVMECR_CO_RETURN_IF_ERROR(co_await system_.cluster_.network().transfer(
          node_, server_node(s), kRpcRequest * stripes_s + share));
      Status st =
          co_await system_.servers_[s]->fs.write(of.server_fds[s], share);
      if (!st.ok()) co_return st;
      system_.servers_[s]->data_bytes += share;
      NVMECR_CO_RETURN_IF_ERROR(co_await system_.cluster_.network().transfer(
          server_node(s), node_, kRpcResponse * stripes_s));
    }
    of.write_off += len;
    co_return OkStatus();
  }

  sim::Task<Status> read(int fd, uint64_t len) override {
    auto it = open_files_.find(fd);
    if (it == open_files_.end()) co_return BadFdError();
    OpenFile& of = it->second;
    sim::Engine& eng = system_.cluster_.engine();
    const uint64_t unit =
        of.servers.size() > 1 ? system_.stripe_unit() : kDataChunk;
    const uint64_t stripes = ceil_div(len, unit);
    co_await eng.delay(system_.costs_.client_per_op *
                       static_cast<SimDuration>(stripes));
    for (size_t i = 0; i < of.servers.size(); ++i) {
      const uint64_t share =
          stripe_share(of.read_off, len, unit, i, of.servers.size());
      if (share == 0) continue;
      const uint32_t s = of.servers[i];
      const uint64_t stripes_s = ceil_div(share, unit);
      NVMECR_CO_RETURN_IF_ERROR(co_await system_.cluster_.network().transfer(
          node_, server_node(s), kRpcRequest * stripes_s));
      Status st =
          co_await system_.servers_[s]->fs.read(of.server_fds[s], share);
      if (!st.ok()) co_return st;
      NVMECR_CO_RETURN_IF_ERROR(co_await system_.cluster_.network().transfer(
          server_node(s), node_, kRpcResponse * stripes_s + share));
    }
    of.read_off += len;
    co_return OkStatus();
  }

  sim::Task<Status> fsync(int fd) override {
    auto it = open_files_.find(fd);
    if (it == open_files_.end()) co_return BadFdError();
    OpenFile& of = it->second;
    co_await system_.cluster_.engine().delay(system_.costs_.client_per_op);
    for (uint32_t s : of.servers) {
      NVMECR_CO_RETURN_IF_ERROR(co_await system_.cluster_.network().transfer(
          node_, server_node(s), kRpcRequest));
      NVMECR_CO_RETURN_IF_ERROR(co_await system_.cluster_.network().transfer(
          server_node(s), node_, kRpcResponse));
      Status st = co_await system_.servers_[s]->fs.fsync(of.server_fds[s]);
      if (!st.ok()) co_return st;
    }
    co_return OkStatus();
  }

  sim::Task<Status> close(int fd) override {
    auto it = open_files_.find(fd);
    if (it == open_files_.end()) co_return BadFdError();
    for (uint32_t s : it->second.servers) {
      Status st =
          co_await system_.servers_[s]->fs.close(it->second.server_fds[s]);
      if (!st.ok()) co_return st;
    }
    open_files_.erase(it);
    co_return OkStatus();
  }

  sim::Task<Status> unlink(const std::string& path) override {
    sim::Engine& eng = system_.cluster_.engine();
    co_await eng.delay(system_.costs_.client_per_op);
    const uint32_t ds = system_.dir_server(path);
    DfsServer& dir = *system_.servers_[ds];
    NVMECR_CO_RETURN_IF_ERROR(co_await system_.cluster_.network().transfer(
        node_, server_node(ds), kRpcRequest));
    co_await dir.dir_lock.lock();
    co_await eng.delay(system_.costs_.server_md_op);
    if (dir.md_bytes >= system_.costs_.md_per_file_bytes) {
      dir.md_bytes -= system_.costs_.md_per_file_bytes;
    }
    if (dir.files > 0) --dir.files;
    dir.dir_lock.unlock();
    NVMECR_CO_RETURN_IF_ERROR(co_await system_.cluster_.network().transfer(
        server_node(ds), node_, kRpcResponse));
    for (uint32_t s : system_.data_servers(path)) {
      Status st = co_await system_.servers_[s]->fs.unlink(object_name(path));
      if (!st.ok() && st.code() != ErrorCode::kNotFound) co_return st;
    }
    co_return OkStatus();
  }

 private:
  struct OpenFile {
    std::string path;
    std::vector<uint32_t> servers;   // data servers
    std::vector<int> server_fds;     // indexed by server
    uint64_t write_off = 0;
    uint64_t read_off = 0;
  };

  fabric::NodeId server_node(uint32_t s) const {
    return system_.cluster_.storage_nodes()[s];
  }

  /// Appends this client's metadata-log record through the server's
  /// kernel filesystem (DeltaFS writes its LSM-style md logs as plain
  /// files on the shared storage).
  sim::Task<Status> append_md_log(uint32_t s) {
    if (md_log_fd_ < 0) {
      auto fd = co_await system_.servers_[s]->fs.open(
          "/.mdlog.rank" + std::to_string(rank_), /*create=*/true);
      if (!fd.ok()) co_return fd.status();
      md_log_fd_ = *fd;
      md_log_server_ = s;
    }
    co_return co_await system_.servers_[md_log_server_]->fs.write(md_log_fd_,
                                                                  160);
  }
  /// Per-client object name so server-side files don't collide between
  /// ranks even for shared paths.
  std::string object_name(const std::string& path) const { return path; }

  DfsSystem& system_;
  int rank_;
  fabric::NodeId node_;
  std::map<int, OpenFile> open_files_;
  int next_fd_ = 3;
  int md_log_fd_ = -1;
  uint32_t md_log_server_ = 0;
};

DfsSystem::DfsSystem(Cluster& cluster, uint32_t nranks,
                     uint32_t procs_per_node,
                     kernelfs::LocalFsParams fs_params, DfsCosts costs)
    : cluster_(cluster),
      nranks_(nranks),
      procs_per_node_(procs_per_node),
      costs_(costs) {
  for (uint32_t s = 0; s < cluster.storage_nodes().size(); ++s) {
    hw::NvmeSsd& ssd = cluster.storage_ssd(s);
    const uint64_t size = ssd.free_capacity() / 2;
    auto nsid = ssd.create_namespace(size);
    NVMECR_CHECK(nsid.ok());
    server_nsids_.push_back(*nsid);
    servers_.push_back(std::make_unique<DfsServer>(cluster.engine(), ssd,
                                                   *nsid, fs_params));
    servers_.back()->md_bytes = costs.md_fixed_bytes;
  }
}

DfsSystem::~DfsSystem() {
  for (uint32_t s = 0; s < servers_.size(); ++s) {
    servers_[s].reset();
    (void)cluster_.storage_ssd(s).delete_namespace(server_nsids_[s]);
  }
}

sim::Task<StatusOr<std::unique_ptr<StorageClient>>> DfsSystem::connect(
    int rank) {
  using Result = StatusOr<std::unique_ptr<StorageClient>>;
  const fabric::NodeId node = cluster_.node_of_rank(
      static_cast<uint32_t>(rank), procs_per_node_);
  co_return Result(std::unique_ptr<StorageClient>(
      new DfsClient(*this, rank, node)));
}

std::vector<uint64_t> DfsSystem::bytes_per_server() const {
  // "Load (size of data stored) on each storage server" (§IV-C)
  // includes the server-resident metadata store.
  std::vector<uint64_t> out;
  for (const auto& s : servers_) out.push_back(s->data_bytes + s->md_bytes);
  return out;
}

std::vector<uint64_t> DfsSystem::metadata_bytes_per_server() const {
  std::vector<uint64_t> out;
  for (const auto& s : servers_) out.push_back(s->md_bytes);
  return out;
}

uint64_t DfsSystem::metadata_bytes() const {
  uint64_t total = 0;
  for (const auto& s : servers_) total += s->md_bytes;
  return total;
}

SimDuration DfsSystem::kernel_time() const {
  SimDuration total = 0;
  for (const auto& s : servers_) total += s->fs.kernel_time();
  return total;
}

}  // namespace nvmecr::baselines
