#include "redundancy/engine.h"

#include <algorithm>

#include "common/crc.h"
#include "common/log.h"
#include "common/rng.h"
#include "obs/profile.h"
#include "simcore/profile.h"
#include "simcore/trace.h"

namespace nvmecr::redundancy {

uint64_t content_word(uint32_t rank, const std::string& path, uint64_t chunk) {
  return mix64(fnv1a(path.data(), path.size()) ^
               (static_cast<uint64_t>(rank) + 1) * 0x9E3779B97F4A7C15ull ^
               mix64(chunk + 0x517CC1B727220A95ull));
}

uint64_t stream_digest(uint64_t bytes, const std::vector<uint64_t>& words) {
  uint64_t d = crc64(&bytes, sizeof(bytes));
  if (!words.empty()) {
    d = crc64(words.data(), words.size() * sizeof(uint64_t), d);
  }
  return d;
}

namespace {
std::vector<uint64_t> words_for(uint32_t rank, const std::string& path,
                                uint64_t bytes, uint64_t chunk) {
  const uint64_t n = ceil_div(bytes, chunk);
  std::vector<uint64_t> words;
  words.reserve(n);
  for (uint64_t c = 0; c < n; ++c) words.push_back(content_word(rank, path, c));
  return words;
}
}  // namespace

// ---------------------------------------------------------------------------
// RedundantSystem

RedundantSystem::RedundantSystem(nvmecr_rt::Cluster& cluster,
                                 baselines::StorageSystem& primary,
                                 std::unique_ptr<nvmecr_rt::NvmecrSystem> store,
                                 RedundancyPlan plan, uint32_t nranks)
    : cluster_(cluster),
      primary_(primary),
      store_(std::move(store)),
      plan_(std::move(plan)),
      background_idle_(cluster.engine()) {
  NVMECR_CHECK(plan_.scheme == Scheme::kNone || store_ != nullptr);
  ranks_.reserve(nranks);
  for (uint32_t r = 0; r < nranks; ++r) {
    ranks_.push_back(std::make_unique<RankState>(cluster.engine()));
  }
  background_idle_.set();
  if (obs::MetricsRegistry* m = cluster_.observer().metrics) {
    replica_bytes_ctr_ = m->counter("redundancy.replica_bytes");
    parity_bytes_ctr_ = m->counter("redundancy.parity_bytes");
    degraded_ctr_ = m->counter("redundancy.degraded");
    encode_ns_ = m->histogram("redundancy.encode_ns");
  }
}

RedundantSystem::~RedundantSystem() = default;

sim::Task<StatusOr<std::unique_ptr<baselines::StorageClient>>>
RedundantSystem::connect(int rank) {
  NVMECR_CHECK(rank >= 0 && static_cast<size_t>(rank) < ranks_.size());
  auto pc = co_await primary_.connect(rank);
  if (!pc.ok()) co_return pc.status();
  RankState& st = rank_state(static_cast<uint32_t>(rank));
  if (store_ != nullptr) {
    // The store runtime formats the replica/parity partition on connect,
    // exactly like the primary. Reconnecting a rank therefore wipes its
    // redundant data — restart must reuse live sessions (Reconstructor
    // goes through the client registry, never through connect()).
    auto sc = co_await store_->connect(rank);
    if (!sc.ok()) co_return sc.status();
    st.store_client = std::move(*sc);
  }
  auto client = std::make_unique<RedundantClient>(
      *this, static_cast<uint32_t>(rank), std::move(*pc));
  st.client = client.get();
  co_return std::unique_ptr<baselines::StorageClient>(std::move(client));
}

sim::Task<void> RedundantSystem::quiesce() {
  for (auto& st : ranks_) {
    (void)co_await st->joiner.join();
  }
  while (background_outstanding_ > 0) {
    co_await background_idle_.wait();
  }
}

const FileManifest* RedundantSystem::manifest(uint32_t rank,
                                              const std::string& path) const {
  if (rank >= ranks_.size()) return nullptr;
  const auto& files = ranks_[rank]->files;
  auto it = files.find(path);
  return it == files.end() ? nullptr : &it->second;
}

RedundantSystem::SetProgress& RedundantSystem::set_progress(uint32_t set,
                                                            uint64_t seq) {
  const uint64_t key = (static_cast<uint64_t>(set) << 32) | (seq & 0xffffffff);
  auto& slot = set_progress_[key];
  if (slot == nullptr) slot = std::make_unique<SetProgress>(cluster_.engine());
  return *slot;
}

void RedundantSystem::note_degraded() {
  ++degraded_;
  if (degraded_ctr_ != nullptr) degraded_ctr_->add();
}

sim::Task<void> RedundantSystem::run_background(sim::Task<void> task) {
  co_await std::move(task);
  if (--background_outstanding_ == 0) background_idle_.set();
}

void RedundantSystem::spawn_background(sim::Task<void> task) {
  ++background_outstanding_;
  background_idle_.reset();
  cluster_.engine().spawn(run_background(std::move(task)));
}

sim::Task<void> RedundantSystem::encode_parity(uint32_t rank, std::string path,
                                               uint32_t set, uint64_t seq) {
  constexpr uint32_t k = kXorSetSize;
  SetProgress& sp = set_progress(set, seq);
  while (sp.member_paths.size() < k) {
    co_await sp.done.wait();
  }

  const std::vector<uint32_t>& members = plan_.set_members[set];
  std::vector<const FileManifest*> ms;
  uint64_t max_bytes = 0;
  for (uint32_t m : members) {
    auto pit = sp.member_paths.find(m);
    const FileManifest* f =
        pit == sp.member_paths.end() ? nullptr : manifest(m, pit->second);
    if (f == nullptr || !f->complete) {
      // A member's file vanished (unlink) or failed before parity could
      // cover the wave; the set's checkpoints stay unprotected.
      note_degraded();
      co_return;
    }
    ms.push_back(f);
    max_bytes = std::max(max_bytes, f->bytes);
  }

  const uint64_t q = kDigestChunk;
  const uint64_t c_max = ceil_div(max_bytes, q);
  const uint64_t t_words =
      std::max<uint64_t>(1, ceil_div(c_max, static_cast<uint64_t>(k - 1)));
  uint32_t my = 0;
  while (members[my] != rank) ++my;

  // P_my[t] = XOR over the other members i of word sigma(i, my) in row t
  // of their stream; sigma spreads each member's k-1 word groups over
  // the k-1 other members' segments so any single member's loss leaves
  // every parity input it needs on a survivor (DESIGN.md §10).
  ParitySegment seg;
  seg.words.assign(t_words, 0);
  for (uint32_t i = 0; i < members.size(); ++i) {
    if (i == my) continue;
    const uint32_t sigma = (my + k - i - 1) % k;  // in [0, k-2]
    const uint64_t ci = ceil_div(ms[i]->bytes, q);
    for (uint64_t t = 0; t < t_words; ++t) {
      const uint64_t c = t * (k - 1) + sigma;
      if (c >= ci) continue;  // shorter streams pad with zero words
      seg.words[t] ^=
          content_word(members[i], sp.member_paths[members[i]], c);
    }
  }
  seg.device_bytes = t_words * q;
  seg.member_paths = sp.member_paths;

  RankState& st = rank_state(rank);
  if (st.store_client == nullptr) {
    note_degraded();
    co_return;
  }
  sim::Engine& eng = cluster_.engine();
  const SimTime t0 = eng.now();
  sim::TraceSpan span(cluster_.observer().trace,
                      "redundancy/rank" + std::to_string(rank),
                      "parity_encode", eng);
  const auto work = static_cast<SimDuration>(
      kXorNsPerByte * static_cast<double>((k - 1) * seg.device_bytes));
  if (plan_.scheme == Scheme::kXorTarget) {
    // Target-side fold (DESIGN.md "Offload pipeline"): the NVMe-oF target
    // holding this member's parity segment XORs the survivors'
    // already-landed data itself. The host ships no parity bytes; the
    // only fabric traffic is an east-west digest-word exchange from the
    // other members' primary targets, and the fold's CPU lands on the
    // parity target's compute pool instead of the member's host core.
    const fabric::NodeId parity_node =
        plan_.assignment.ssd_nodes[plan_.assignment.ssd_of_rank[rank]];
    nvmf::NvmfTarget& pt =
        cluster_.target(cluster_.storage_ssd_index(parity_node));
    if (!pt.alive(eng.now())) {
      note_degraded();
      co_return;
    }
    for (uint32_t i = 0; i < members.size(); ++i) {
      if (i == my) continue;
      Status ts = co_await cluster_.network().transfer(
          plan_.primary_node_of_rank[members[i]], parity_node,
          t_words * sizeof(uint64_t));
      if (!ts.ok()) {
        note_degraded();
        co_return;
      }
    }
    sim::ProfileTagScope tag_scope(eng, pt.offload_tag());
    const SimTime fold_done = pt.reserve_compute(eng.now(), work);
    if (obs::EpochProfiler* ep = cluster_.observer().epoch) {
      ep->record(eng, obs::EpochProfiler::Phase::kTargetCompute,
                 fold_done - eng.now());
    }
    co_await eng.sleep_until(fold_done);
    if (!pt.alive(eng.now())) {
      note_degraded();
      co_return;
    }
  } else {
    // Single-core XOR over (k-1) input streams of one segment each, on
    // the member's host.
    co_await eng.delay(work);
    host_encode_ns_ += static_cast<uint64_t>(work);
  }

  co_await st.repl_mutex.lock();
  Status s = OkStatus();
  auto fd = co_await st.store_client->create(parity_path(path));
  if (!fd.ok()) {
    s = fd.status();
  } else {
    s = co_await st.store_client->write(*fd, seg.device_bytes);
    if (s.ok()) s = co_await st.store_client->fsync(*fd);
    Status cs = co_await st.store_client->close(*fd);
    if (s.ok()) s = cs;
  }
  st.repl_mutex.unlock();

  if (!s.ok()) {
    note_degraded();
    co_return;
  }
  // The file may have been unlinked while we encoded; drop the segment.
  auto fit = st.files.find(path);
  if (fit == st.files.end()) co_return;
  redundant_bytes_ += seg.device_bytes;
  if (parity_bytes_ctr_ != nullptr) parity_bytes_ctr_->add(seg.device_bytes);
  if (encode_ns_ != nullptr) {
    encode_ns_->add(static_cast<double>(cluster_.engine().now() - t0));
  }
  seg.ok = true;
  st.parity[path] = std::move(seg);
  fit->second.parity_ok = true;
}

// ---------------------------------------------------------------------------
// RedundantClient

RedundantClient::RedundantClient(
    RedundantSystem& sys, uint32_t rank,
    std::unique_ptr<baselines::StorageClient> primary)
    : sys_(sys), rank_(rank), primary_(std::move(primary)) {}

RedundantClient::~RedundantClient() {
  RedundantSystem::RankState& st = sys_.rank_state(rank_);
  if (st.client == this) st.client = nullptr;
}

sim::Task<StatusOr<int>> RedundantClient::create(const std::string& path) {
  auto fd = co_await primary_->create(path);
  if (!fd.ok()) co_return fd;
  open_[*fd] = OpenFile{path, /*writing=*/true};
  RedundantSystem::RankState& st = sys_.rank_state(rank_);
  st.files[path] = FileManifest{};
  if (sys_.plan_.scheme == Scheme::kPartner && st.store_client != nullptr) {
    st.joiner.spawn(replicate_create(sys_, rank_, path));
  }
  co_return fd;
}

sim::Task<StatusOr<int>> RedundantClient::open_read(const std::string& path) {
  auto fd = co_await primary_->open_read(path);
  if (fd.ok()) open_[*fd] = OpenFile{path, /*writing=*/false};
  co_return fd;
}

sim::Task<Status> RedundantClient::write(int fd, uint64_t len) {
  Status s = co_await primary_->write(fd, len);
  if (!s.ok()) co_return s;
  auto it = open_.find(fd);
  if (it != open_.end() && it->second.writing) {
    RedundantSystem::RankState& st = sys_.rank_state(rank_);
    auto fit = st.files.find(it->second.path);
    if (fit != st.files.end()) fit->second.bytes += len;
    if (sys_.plan_.scheme == Scheme::kPartner && st.store_client != nullptr) {
      st.joiner.spawn(replicate_write(sys_, rank_, it->second.path, len));
    }
  }
  co_return s;
}

sim::Task<Status> RedundantClient::read(int fd, uint64_t len) {
  return primary_->read(fd, len);
}

sim::Task<Status> RedundantClient::fsync(int fd) {
  Status s = co_await primary_->fsync(fd);
  auto it = open_.find(fd);
  if (it != open_.end() && it->second.writing &&
      sys_.plan_.scheme == Scheme::kPartner) {
    RedundantSystem::RankState& st = sys_.rank_state(rank_);
    if (st.store_client != nullptr) {
      st.joiner.spawn(replicate_fsync(sys_, rank_, it->second.path));
    }
    // Durability point: the checkpoint is not "synced" until the replica
    // stream caught up too (the streams overlap until here).
    (void)co_await st.joiner.join();
  }
  co_return s;
}

sim::Task<Status> RedundantClient::close(int fd) {
  auto it = open_.find(fd);
  const bool writing = it != open_.end() && it->second.writing;
  const std::string path = it != open_.end() ? it->second.path : std::string();
  open_.erase(fd);
  Status s = co_await primary_->close(fd);
  if (!writing) co_return s;

  RedundantSystem::RankState& st = sys_.rank_state(rank_);
  auto fit = st.files.find(path);
  if (fit != st.files.end()) {
    FileManifest& f = fit->second;
    f.complete = s.ok();
    f.digest = stream_digest(
        f.bytes, words_for(rank_, path, f.bytes, kDigestChunk));
  }

  switch (sys_.plan_.scheme) {
    case Scheme::kNone:
      break;
    case Scheme::kPartner:
      if (st.store_client != nullptr) {
        st.joiner.spawn(replicate_close(sys_, rank_, path));
        (void)co_await st.joiner.join();
      }
      break;
    case Scheme::kXor:
    case Scheme::kXorTarget: {
      const uint32_t set = sys_.plan_.set_of_rank[rank_];
      const uint64_t seq = st.xor_seq++;
      RedundantSystem::SetProgress& sp = sys_.set_progress(set, seq);
      sp.member_paths[rank_] = path;
      if (sp.member_paths.size() == kXorSetSize) sp.done.set();
      // Encode runs in the background once the whole set has closed this
      // wave — it overlaps the application's next phase rather than
      // extending the checkpoint (quiesce() waits for stragglers).
      sys_.spawn_background(sys_.encode_parity(rank_, path, set, seq));
      break;
    }
  }
  co_return s;
}

sim::Task<Status> RedundantClient::unlink(const std::string& path) {
  Status s = co_await primary_->unlink(path);
  RedundantSystem::RankState& st = sys_.rank_state(rank_);
  if (st.store_client != nullptr) {
    if (sys_.plan_.scheme == Scheme::kPartner) {
      co_await st.repl_mutex.lock();
      auto rit = st.replica_fds.find(path);
      if (rit != st.replica_fds.end()) {
        (void)co_await st.store_client->close(rit->second);
        st.replica_fds.erase(path);
      }
      (void)co_await st.store_client->unlink(path);
      st.repl_mutex.unlock();
    } else if (is_xor(sys_.plan_.scheme) && st.parity.count(path) != 0) {
      co_await st.repl_mutex.lock();
      (void)co_await st.store_client->unlink(sys_.parity_path(path));
      st.repl_mutex.unlock();
      st.parity.erase(path);
    }
  }
  st.files.erase(path);
  co_return s;
}

// ---------------------------------------------------------------------------
// Background replication (kPartner)

sim::Task<Status> RedundantClient::replicate_create(RedundantSystem& sys,
                                                    uint32_t rank,
                                                    std::string path) {
  RedundantSystem::RankState& st = sys.rank_state(rank);
  co_await st.repl_mutex.lock();
  auto fd = co_await st.store_client->create(path);
  st.repl_mutex.unlock();
  if (!fd.ok()) {
    auto fit = st.files.find(path);
    if (fit != st.files.end() && !fit->second.replica_failed) {
      fit->second.replica_failed = true;
      sys.note_degraded();
    }
    co_return fd.status();
  }
  st.replica_fds[path] = *fd;
  co_return OkStatus();
}

sim::Task<Status> RedundantClient::replicate_write(RedundantSystem& sys,
                                                   uint32_t rank,
                                                   std::string path,
                                                   uint64_t len) {
  RedundantSystem::RankState& st = sys.rank_state(rank);
  co_await st.repl_mutex.lock();
  Status s;
  auto rit = st.replica_fds.find(path);
  if (rit == st.replica_fds.end()) {
    s = IoError("replica stream unavailable");
  } else {
    s = co_await st.store_client->write(rit->second, len);
  }
  st.repl_mutex.unlock();
  auto fit = st.files.find(path);
  if (fit != st.files.end()) {
    if (s.ok()) {
      fit->second.replica_bytes += len;
      sys.redundant_bytes_ += len;
      if (sys.replica_bytes_ctr_ != nullptr) sys.replica_bytes_ctr_->add(len);
    } else if (!fit->second.replica_failed) {
      fit->second.replica_failed = true;
      sys.note_degraded();
    }
  }
  co_return s;
}

sim::Task<Status> RedundantClient::replicate_fsync(RedundantSystem& sys,
                                                   uint32_t rank,
                                                   std::string path) {
  RedundantSystem::RankState& st = sys.rank_state(rank);
  co_await st.repl_mutex.lock();
  Status s;
  auto rit = st.replica_fds.find(path);
  if (rit == st.replica_fds.end()) {
    s = IoError("replica stream unavailable");
  } else {
    s = co_await st.store_client->fsync(rit->second);
  }
  st.repl_mutex.unlock();
  co_return s;
}

sim::Task<Status> RedundantClient::replicate_close(RedundantSystem& sys,
                                                   uint32_t rank,
                                                   std::string path) {
  RedundantSystem::RankState& st = sys.rank_state(rank);
  co_await st.repl_mutex.lock();
  Status s;
  auto rit = st.replica_fds.find(path);
  if (rit == st.replica_fds.end()) {
    s = IoError("replica stream unavailable");
  } else {
    s = co_await st.store_client->close(rit->second);
    st.replica_fds.erase(path);
  }
  st.repl_mutex.unlock();
  auto fit = st.files.find(path);
  if (fit != st.files.end()) {
    FileManifest& f = fit->second;
    f.replica_digest = stream_digest(
        f.replica_bytes,
        words_for(rank, path, f.replica_bytes, kDigestChunk));
    // "Byte-identical" in the sim's content model: same length, same
    // word stream, clean close on both sides.
    f.replica_ok = s.ok() && !f.replica_failed && f.complete &&
                   f.replica_digest == f.digest;
    if (!f.replica_ok && !f.replica_failed) {
      f.replica_failed = true;
      sys.note_degraded();
    }
  }
  co_return s;
}

// ---------------------------------------------------------------------------
// Deployment

StatusOr<RedundantDeployment> deploy_redundancy(
    nvmecr_rt::Cluster& cluster, nvmecr_rt::Scheduler& scheduler,
    baselines::StorageSystem& primary,
    const nvmecr_rt::JobAllocation& primary_job, Scheme scheme,
    nvmecr_rt::RuntimeConfig store_config) {
  RedundantDeployment dep;
  NVMECR_ASSIGN_OR_RETURN(
      dep.plan,
      plan_redundancy(cluster.topology(), primary_job.assignment,
                      primary_job.rank_nodes, cluster.storage_nodes(), scheme));
  const auto nranks = static_cast<uint32_t>(primary_job.rank_nodes.size());
  std::unique_ptr<nvmecr_rt::NvmecrSystem> store;
  if (scheme != Scheme::kNone) {
    // Partner replicas need full-size partitions; XOR parity segments
    // only ~1/(K-1), plus slack for padding and fs metadata.
    uint64_t part = primary_job.partition_bytes;
    if (is_xor(scheme)) {
      part = ceil_div(part, kXorSetSize - 1) + 2 * kDigestChunk + 64_MiB;
      // Partition slots stack back to back inside the namespace, so an
      // unaligned size would misalign every slot but the first.
      part = ceil_div(part, 1_MiB) * 1_MiB;
    }
    // kXorTarget writes parity through target-local sessions: each rank's
    // store session "runs" on the storage node that holds its parity
    // segment, so segment writes ride the network's loopback path and
    // never cross the fabric (the whole point of offloading the fold).
    std::vector<fabric::NodeId> store_rank_nodes = primary_job.rank_nodes;
    if (scheme == Scheme::kXorTarget) {
      const auto& a = dep.plan.assignment;
      for (uint32_t r = 0; r < store_rank_nodes.size(); ++r) {
        store_rank_nodes[r] = a.ssd_nodes[a.ssd_of_rank[r]];
      }
    }
    NVMECR_ASSIGN_OR_RETURN(
        dep.store_job,
        scheduler.allocate_with_assignment(dep.plan.assignment,
                                           store_rank_nodes,
                                           primary_job.procs_per_node, part));
    store = std::make_unique<nvmecr_rt::NvmecrSystem>(cluster, dep.store_job,
                                                      store_config);
  }
  dep.system = std::make_unique<RedundantSystem>(
      cluster, primary, std::move(store), dep.plan, nranks);
  return dep;
}

}  // namespace nvmecr::redundancy
