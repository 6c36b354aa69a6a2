#include "resilience/failover.h"

#include <cstdio>
#include <utility>

#include "redundancy/engine.h"
#include "resilience/retry.h"
#include "simcore/trace.h"

namespace nvmecr::resilience {

// ---------------------------------------------------------------------
// ResilientSystem
// ---------------------------------------------------------------------

namespace {

/// The healer's scan period (sim time).
constexpr SimDuration kHealPeriod = 500'000;  // 500 us

/// `config` with its device_wrapper set to wrap every remote qpair device
/// in a RetryDevice reporting into `monitor`, which tracks each storage
/// node on first sight. Each device's jitter stream is seeded from (seed,
/// node, rank), so runs are reproducible regardless of connect order.
nvmecr_rt::RuntimeConfig with_retry_wrapper(nvmecr_rt::RuntimeConfig config,
                                            nvmecr_rt::Cluster& cluster,
                                            HealthMonitor& monitor,
                                            uint64_t seed) {
  config.device_wrapper =
      [&engine = cluster.engine(), &monitor, seed,
       observer = cluster.observer()](std::unique_ptr<hw::BlockDevice> dev,
                                      fabric::NodeId node, uint32_t rank)
      -> std::unique_ptr<hw::BlockDevice> {
    const uint64_t dev_seed =
        mix64(seed ^ mix64((static_cast<uint64_t>(node) << 32) | rank));
    auto wrapped = std::make_unique<RetryDevice>(
        engine, std::move(dev), monitor, node, dev_seed);
    wrapped->set_observer(observer);
    return wrapped;
  };
  return config;
}

}  // namespace

ResilientSystem::ResilientSystem(nvmecr_rt::Cluster& cluster,
                                 nvmecr_rt::Scheduler& scheduler,
                                 const nvmecr_rt::JobAllocation& job,
                                 nvmecr_rt::RuntimeConfig base,
                                 uint64_t retry_seed)
    : cluster_(cluster),
      scheduler_(scheduler),
      primary_job_(job),
      monitor_(cluster),
      config_(with_retry_wrapper(std::move(base), cluster, monitor_,
                                 retry_seed)),
      primary_(cluster, job, config_),
      inner_(&primary_),
      obs_(cluster.observer()) {
  if (obs_.metrics != nullptr) {
    m_failovers_ = obs_.metrics->counter("resilience.failovers");
    m_heal_bytes_ = obs_.metrics->counter("resilience.heal_bytes");
    m_degraded_ckpts_ = obs_.metrics->counter("resilience.degraded_ckpts");
  }
}

ResilientSystem::~ResilientSystem() = default;

StatusOr<std::unique_ptr<ResilientSystem>> deploy_resilient(
    nvmecr_rt::Cluster& cluster, nvmecr_rt::Scheduler& scheduler,
    const nvmecr_rt::JobAllocation& job, nvmecr_rt::RuntimeConfig base,
    redundancy::Scheme scheme, uint64_t retry_seed) {
  std::unique_ptr<ResilientSystem> sys(
      new ResilientSystem(cluster, scheduler, job, std::move(base),
                          retry_seed));
  if (scheme != redundancy::Scheme::kNone) {
    auto dep = redundancy::deploy_redundancy(cluster, scheduler, sys->primary_,
                                             job, scheme, sys->config_);
    if (!dep.ok()) return dep.status();
    sys->redundant_ = std::move(dep->system);
    sys->inner_ = sys->redundant_.get();
  }
  // Track every primary target up front so the heartbeat covers targets
  // a rank has not touched yet.
  for (fabric::NodeId n : job.assignment.ssd_nodes) sys->monitor_.track(n);
  return sys;
}

void ResilientSystem::spawn_daemons(SimTime until) {
  cluster_.engine().spawn(monitor_.heartbeat(until));
  cluster_.engine().spawn(healer(until));
}

sim::Task<void> ResilientSystem::quiesce() {
  if (redundant_ != nullptr) co_await redundant_->quiesce();
}

fabric::NodeId ResilientSystem::primary_node_of(uint32_t rank) const {
  const auto& a = primary_job_.assignment;
  return a.ssd_nodes[a.ssd_of_rank[rank]];
}

ResilientSystem::RankState& ResilientSystem::rank_state(uint32_t rank) {
  auto it = ranks_.find(rank);
  if (it == ranks_.end()) {
    it = ranks_
             .emplace(rank,
                      std::make_unique<RankState>(cluster_.engine()))
             .first;
  }
  return *it->second;
}

sim::Task<StatusOr<std::unique_ptr<baselines::StorageClient>>>
ResilientSystem::connect(int rank) {
  auto inner = co_await inner_->connect(rank);
  std::unique_ptr<baselines::StorageClient> inner_client;
  if (inner.ok()) {
    inner_client = std::move(*inner);
  } else if (is_retryable(inner.status().code())) {
    // The rank's primary target is already unreachable at connect time.
    // Hand out a client with no inner session: every write goes straight
    // to a partner-domain spare (degraded from the first byte) instead
    // of failing the job before it starts.
    monitor_.note_exhausted(primary_node_of(static_cast<uint32_t>(rank)));
  } else {
    co_return inner;
  }
  std::unique_ptr<baselines::StorageClient> client =
      std::make_unique<ResilientClient>(*this, static_cast<uint32_t>(rank),
                                        std::move(inner_client));
  co_return client;
}

const DegradedEntry* ResilientSystem::degraded_entry(
    uint32_t rank, const std::string& path) const {
  auto it = ranks_.find(rank);
  if (it == ranks_.end()) return nullptr;
  auto jt = it->second->degraded.find(path);
  return jt == it->second->degraded.end() ? nullptr : &jt->second;
}

std::vector<uint32_t> ResilientSystem::degraded_ranks() const {
  std::vector<uint32_t> out;
  for (const auto& [rank, rs] : ranks_) {
    for (const auto& [path, e] : rs->degraded) {
      (void)path;
      if (e.state == DegradedState::kDegraded) {
        out.push_back(rank);
        break;
      }
    }
  }
  return out;
}

sim::Task<Status> ResilientSystem::ensure_spare(uint32_t rank) {
  RankState& rs = rank_state(rank);
  if (rs.spare_allocated) co_return OkStatus();

  nvmecr_rt::BalancerRequest req;
  req.rank_nodes = {primary_job_.rank_nodes[rank]};
  req.storage_nodes = cluster_.storage_nodes();
  req.num_ssds = 1;
  req.min_procs_per_ssd = 1;
  req.exclude_domains = monitor_.dead_domains();
  auto assign = nvmecr_rt::StorageBalancer::assign(cluster_.topology(), req);
  // Typed exhaustion (kUnavailable) when every partner domain is dead:
  // the caller surfaces it; no retry loop can help here.
  if (!assign.ok()) co_return assign.status();

  auto job = scheduler_.allocate_with_assignment(
      std::move(*assign), req.rank_nodes, 1, primary_job_.partition_bytes);
  if (!job.ok()) co_return job.status();
  rs.spare_job = std::move(*job);

  rs.spare_system = std::make_unique<nvmecr_rt::NvmecrSystem>(
      cluster_, rs.spare_job, config_);
  auto client = co_await rs.spare_system->connect(0);
  if (!client.ok()) co_return client.status();
  rs.spare_client = std::move(*client);
  rs.spare_allocated = true;
  co_return OkStatus();
}

sim::Task<Status> ResilientSystem::heal_file(uint32_t rank, std::string path) {
  RankState& rs = rank_state(rank);
  auto it = rs.degraded.find(path);
  if (it == rs.degraded.end()) co_return OkStatus();
  baselines::StorageClient* inner_ptr =
      rs.client != nullptr ? rs.client->inner_.get() : rs.retained_inner.get();
  if (inner_ptr == nullptr) {
    co_return UnavailableError("rank has no live session to heal with");
  }
  // Rewrite through the rank's inner chain: the redundancy engine
  // re-replicates behind these writes, restoring full redundancy on the
  // recovered primary. (A fresh connect would reformat the partition, so
  // healing reuses the live — or retained — session.)
  baselines::StorageClient& inner = *inner_ptr;
  sim::TraceSpan span(obs_.trace, "resilience", "heal:" + path,
                      cluster_.engine());
  auto fd = co_await inner.create(path);
  if (!fd.ok()) co_return fd.status();
  for (uint64_t len : it->second.writes) {
    Status s = co_await inner.write(*fd, len);
    if (!s.ok()) co_return s;
  }
  NVMECR_CO_RETURN_IF_ERROR(co_await inner.fsync(*fd));
  NVMECR_CO_RETURN_IF_ERROR(co_await inner.close(*fd));
  co_return OkStatus();
}

sim::Task<void> ResilientSystem::heal_node(fabric::NodeId node) {
  // Heal every complete degraded file whose primary target is `node`.
  // Snapshot paths first: fd-table / manifest mutation can happen while
  // we are suspended inside heal_file.
  for (auto& [rank, rs] : ranks_) {
    if (primary_node_of(rank) != node) continue;
    std::vector<std::string> paths;
    for (const auto& [path, e] : rs->degraded) {
      if (e.state == DegradedState::kDegraded && e.complete) {
        paths.push_back(path);
      }
    }
    for (const std::string& path : paths) {
      co_await rs->io_mutex.lock();
      auto it = rs->degraded.find(path);
      if (it != rs->degraded.end() &&
          it->second.state == DegradedState::kDegraded &&
          it->second.complete) {
        Status s = co_await heal_file(rank, path);
        if (s.ok()) {
          it->second.state = DegradedState::kHealed;
          healed_bytes_ += it->second.bytes;
          if (m_heal_bytes_ != nullptr) m_heal_bytes_->add(it->second.bytes);
        }
      }
      rs->io_mutex.unlock();
    }
  }
}

sim::Task<void> ResilientSystem::healer(SimTime until) {
  std::vector<fabric::NodeId> nodes;  // refilled by every scan below
  while (cluster_.engine().now() + kHealPeriod <= until) {
    co_await cluster_.engine().delay(kHealPeriod);
    // Heal files whose primary answers again (kHealing), and also any
    // stragglers that closed degraded after their node already recovered.
    monitor_.nodes_in_state(TargetState::kHealing, nodes);
    for (fabric::NodeId node : nodes) co_await heal_node(node);
    monitor_.nodes_in_state(TargetState::kHealthy, nodes);
    for (fabric::NodeId node : nodes) co_await heal_node(node);
    // A healing node with no complete degraded files left is done.
    monitor_.nodes_in_state(TargetState::kHealing, nodes);
    for (fabric::NodeId node : nodes) {
      bool remaining = false;
      for (const auto& [rank, rs] : ranks_) {
        if (primary_node_of(rank) != node) continue;
        for (const auto& [path, e] : rs->degraded) {
          (void)path;
          if (e.state == DegradedState::kDegraded && e.complete) {
            remaining = true;
            break;
          }
        }
        if (remaining) break;
      }
      if (!remaining) monitor_.note_healed(node);
    }
  }
}

sim::Task<StatusOr<std::vector<std::string>>> ResilientSystem::fsck_all() {
  auto primary = co_await primary_.fsck_all();
  if (!primary.ok()) {
    co_return StatusOr<std::vector<std::string>>(primary.status());
  }
  std::vector<std::string> issues;
  for (const std::string& issue : *primary) {
    issues.push_back("primary " + issue);
  }
  for (auto& [rank, rs] : ranks_) {
    if (rs->spare_system == nullptr) continue;
    auto spare = co_await rs->spare_system->fsck_all();
    if (!spare.ok()) {
      co_return StatusOr<std::vector<std::string>>(spare.status());
    }
    for (const std::string& issue : *spare) {
      issues.push_back("spare of rank " + std::to_string(rank) + ": " + issue);
    }
  }
  co_return issues;
}

// ---------------------------------------------------------------------
// ResilientClient
// ---------------------------------------------------------------------

ResilientClient::ResilientClient(
    ResilientSystem& sys, uint32_t rank,
    std::unique_ptr<baselines::StorageClient> inner)
    : sys_(sys),
      rank_(rank),
      primary_node_(sys.primary_node_of(rank)),
      inner_(std::move(inner)) {
  ResilientSystem::RankState& rs = sys_.rank_state(rank_);
  rs.client = this;
  rs.retained_inner.reset();  // a reconnect supersedes the old session
}

ResilientClient::~ResilientClient() {
  ResilientSystem::RankState& rs = sys_.rank_state(rank_);
  rs.client = nullptr;
  // Keep the inner session alive for the healer: its mounted fs (and the
  // redundancy engine's replica streams behind it) are the only way to
  // rewrite degraded files without reformatting the partition.
  rs.retained_inner = std::move(inner_);
}

bool ResilientClient::should_failover(const Status& s) const {
  return !s.ok() && is_retryable(s.code());
}

sim::Task<Status> ResilientClient::failover_file(OpenFile& f) {
  // A surfaced retryable error means the retry budget is spent; make
  // sure the monitor agrees before asking the balancer for dead domains.
  sys_.monitor_.note_exhausted(primary_node_);
  if (sys_.obs_.trace != nullptr) {
    // Pivot marker: lines the failover up against health instants and
    // device spans in the exported trace.
    sys_.obs_.trace->add_instant("resilience",
                                 "failover_start:rank" + std::to_string(rank_),
                                 sys_.cluster_.engine().now());
    if (sys_.obs_.trace->is_ring()) {
      // Flight-recorder mode: the events leading up to the pivot are
      // exactly what a postmortem needs — dump them while they are hot.
      std::fprintf(stderr,
                   "resilience: rank %u failing over %s; "
                   "flight recorder tail:\n",
                   rank_, f.path.c_str());
      sys_.obs_.trace->dump_tail(stderr, 16);
    }
  }
  sim::TraceSpan span(sys_.obs_.trace, "resilience", "failover:" + f.path,
                      sys_.cluster_.engine());
  NVMECR_CO_RETURN_IF_ERROR(co_await sys_.ensure_spare(rank_));
  ResilientSystem::RankState& rs = sys_.rank_state(rank_);
  auto fd = co_await rs.spare_client->create(f.path);
  if (!fd.ok()) co_return fd.status();
  f.spare_fd = *fd;
  f.on_spare = true;
  // Replay the journaled appends: content is deterministic in
  // (rank, path), so this regenerates the byte-identical stream.
  for (uint64_t len : f.journal) {
    Status s = co_await rs.spare_client->write(f.spare_fd, len);
    if (!s.ok()) co_return s;
  }
  DegradedEntry& e = rs.degraded[f.path];
  e.state = DegradedState::kDegraded;
  e.bytes = f.bytes;
  e.writes = f.journal;
  e.complete = false;
  ++sys_.failovers_;
  if (sys_.m_failovers_ != nullptr) sys_.m_failovers_->add();
  // The inner fd (if any) stays open on the dead target: closing it
  // would just burn another IO timeout. The leak is recorded nowhere the
  // driver can trip over, and healing rewrites the file from scratch.
  co_return OkStatus();
}

sim::Task<StatusOr<int>> ResilientClient::create(const std::string& path) {
  ResilientSystem::RankState& rs = sys_.rank_state(rank_);
  co_await rs.io_mutex.lock();
  OpenFile f;
  f.path = path;
  f.writing = true;
  if (inner_ != nullptr && !sys_.monitor_.dead(primary_node_)) {
    auto fd = co_await inner_->create(path);
    if (fd.ok()) {
      f.inner_fd = *fd;
    } else if (!should_failover(fd.status())) {
      rs.io_mutex.unlock();
      co_return fd;
    }
  }
  if (f.inner_fd < 0) {
    // Primary already known dead, or the create itself timed out: the
    // stream starts life on the spare (degraded from the first byte).
    Status s = co_await failover_file(f);
    if (!s.ok()) {
      rs.io_mutex.unlock();
      co_return StatusOr<int>(s);
    }
  }
  const int fd = next_fd_++;
  open_[fd] = std::move(f);
  rs.io_mutex.unlock();
  co_return fd;
}

sim::Task<StatusOr<int>> ResilientClient::open_read(const std::string& path) {
  ResilientSystem::RankState& rs = sys_.rank_state(rank_);
  co_await rs.io_mutex.lock();
  OpenFile f;
  f.path = path;
  auto it = rs.degraded.find(path);
  StatusOr<int> r = InvalidArgumentError("unopened");
  if (it != rs.degraded.end() &&
      it->second.state == DegradedState::kDegraded) {
    // Degraded checkpoints live on the spare only.
    r = co_await rs.spare_client->open_read(path);
    if (r.ok()) {
      f.spare_fd = *r;
      f.on_spare = true;
    }
  } else if (inner_ != nullptr) {
    r = co_await inner_->open_read(path);
    if (r.ok()) f.inner_fd = *r;
  } else {
    r = UnavailableError("no inner session (primary dead since connect)");
  }
  if (!r.ok()) {
    rs.io_mutex.unlock();
    co_return r;
  }
  const int fd = next_fd_++;
  open_[fd] = std::move(f);
  rs.io_mutex.unlock();
  co_return fd;
}

sim::Task<Status> ResilientClient::write(int fd, uint64_t len) {
  ResilientSystem::RankState& rs = sys_.rank_state(rank_);
  co_await rs.io_mutex.lock();
  auto it = open_.find(fd);
  if (it == open_.end()) {
    rs.io_mutex.unlock();
    co_return InvalidArgumentError("bad fd");
  }
  OpenFile& f = it->second;
  Status s;
  if (!f.on_spare) {
    s = co_await inner_->write(f.inner_fd, len);
    if (should_failover(s)) {
      s = co_await failover_file(f);
      if (s.ok()) s = co_await rs.spare_client->write(f.spare_fd, len);
    }
  } else {
    s = co_await rs.spare_client->write(f.spare_fd, len);
  }
  if (s.ok() && f.writing) {
    f.bytes += len;
    f.journal.push_back(len);
  }
  rs.io_mutex.unlock();
  co_return s;
}

sim::Task<Status> ResilientClient::read(int fd, uint64_t len) {
  ResilientSystem::RankState& rs = sys_.rank_state(rank_);
  co_await rs.io_mutex.lock();
  auto it = open_.find(fd);
  if (it == open_.end()) {
    rs.io_mutex.unlock();
    co_return InvalidArgumentError("bad fd");
  }
  OpenFile& f = it->second;
  Status s;
  if (f.on_spare) {
    s = co_await rs.spare_client->read(f.spare_fd, len);
  } else {
    s = co_await inner_->read(f.inner_fd, len);
  }
  rs.io_mutex.unlock();
  co_return s;
}

sim::Task<Status> ResilientClient::fsync(int fd) {
  ResilientSystem::RankState& rs = sys_.rank_state(rank_);
  co_await rs.io_mutex.lock();
  auto it = open_.find(fd);
  if (it == open_.end()) {
    rs.io_mutex.unlock();
    co_return InvalidArgumentError("bad fd");
  }
  OpenFile& f = it->second;
  Status s;
  if (!f.on_spare) {
    s = co_await inner_->fsync(f.inner_fd);
    if (should_failover(s)) {
      s = co_await failover_file(f);
      if (s.ok()) s = co_await rs.spare_client->fsync(f.spare_fd);
    }
  } else {
    s = co_await rs.spare_client->fsync(f.spare_fd);
  }
  rs.io_mutex.unlock();
  co_return s;
}

sim::Task<Status> ResilientClient::close(int fd) {
  ResilientSystem::RankState& rs = sys_.rank_state(rank_);
  co_await rs.io_mutex.lock();
  auto it = open_.find(fd);
  if (it == open_.end()) {
    rs.io_mutex.unlock();
    co_return InvalidArgumentError("bad fd");
  }
  OpenFile f = std::move(it->second);
  open_.erase(it);
  Status s;
  if (!f.on_spare) {
    s = co_await inner_->close(f.inner_fd);
    if (should_failover(s)) {
      s = co_await failover_file(f);
      if (s.ok()) s = co_await rs.spare_client->fsync(f.spare_fd);
      if (s.ok()) s = co_await rs.spare_client->close(f.spare_fd);
    }
  } else {
    s = co_await rs.spare_client->close(f.spare_fd);
  }
  if (s.ok() && f.writing && f.on_spare) {
    DegradedEntry& e = rs.degraded[f.path];
    e.state = DegradedState::kDegraded;
    e.bytes = f.bytes;
    e.writes = std::move(f.journal);
    e.complete = true;
    if (sys_.m_degraded_ckpts_ != nullptr) sys_.m_degraded_ckpts_->add();
  }
  rs.io_mutex.unlock();
  co_return s;
}

sim::Task<Status> ResilientClient::unlink(const std::string& path) {
  ResilientSystem::RankState& rs = sys_.rank_state(rank_);
  co_await rs.io_mutex.lock();
  Status result = OkStatus();
  auto it = rs.degraded.find(path);
  if (it != rs.degraded.end()) {
    if (rs.spare_client != nullptr) {
      Status s = co_await rs.spare_client->unlink(path);
      if (!s.ok() && s.code() != ErrorCode::kNotFound) result = s;
    }
    rs.degraded.erase(it);
  }
  // The inner copy: absent for files that went straight to the spare
  // (tolerate kNotFound), unreachable when the primary is dead (the
  // retention unlink must not stall the run — the namespace dies with
  // the job anyway, §I).
  if (inner_ != nullptr && !sys_.monitor_.dead(primary_node_)) {
    Status s = co_await inner_->unlink(path);
    if (!s.ok() && s.code() != ErrorCode::kNotFound &&
        !is_retryable(s.code()) && result.ok()) {
      result = s;
    }
  }
  rs.io_mutex.unlock();
  co_return result;
}

}  // namespace nvmecr::resilience
