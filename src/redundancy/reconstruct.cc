#include "redundancy/reconstruct.h"

#include <algorithm>

#include "simcore/profile.h"
#include "simcore/trace.h"

namespace nvmecr::redundancy {

namespace {
/// Bandwidth for serving a reconstructed (DRAM-buffered) checkpoint back
/// to the restarting application.
constexpr uint64_t kImageDramBw = 8_GBps;
}  // namespace

Reconstructor::Reconstructor(RedundantSystem& system) : sys_(system) {
  if (obs::MetricsRegistry* m = sys_.cluster().observer().metrics) {
    reconstructions_ = m->counter("redundancy.reconstructions");
    read_bytes_ctr_ = m->counter("redundancy.reconstruct_read_bytes");
    reconstruct_ns_ = m->histogram("redundancy.reconstruct_ns");
  }
}

std::unique_ptr<baselines::StorageClient> Reconstructor::client(
    uint32_t rank) {
  return std::make_unique<RecoveryClient>(*this, rank);
}

const RecoveryReport* Reconstructor::find_report(
    uint32_t rank, const std::string& path) const {
  for (auto it = reports_.rbegin(); it != reports_.rend(); ++it) {
    if (it->rank == rank && it->path == path) return &*it;
  }
  return nullptr;
}

sim::Task<Status> RecoveryClient::read_all(baselines::StorageClient& c,
                                           const std::string& path,
                                           uint64_t bytes, uint64_t chunk) {
  auto fd = co_await c.open_read(path);
  if (!fd.ok()) co_return fd.status();
  Status s = OkStatus();
  uint64_t off = 0;
  while (off < bytes && s.ok()) {
    const uint64_t n = std::min(chunk, bytes - off);
    s = co_await c.read(*fd, n);
    off += n;
  }
  Status cs = co_await c.close(*fd);
  if (s.ok()) s = cs;
  co_return s;
}

sim::Task<Status> RecoveryClient::materialize_partner(const FileManifest& m,
                                                      const std::string& path,
                                                      RecoveryReport& r) {
  RedundantSystem& sys = owner_.sys_;
  if (!m.replica_ok || m.replica_digest != m.digest) {
    co_return UnavailableError("no trusted partner replica");
  }
  RedundantSystem::RankState& st = sys.rank_state(rank_);
  if (st.store_client == nullptr) {
    co_return UnavailableError("replica session gone");
  }
  co_await st.repl_mutex.lock();
  Status s = co_await read_all(*st.store_client, path, m.replica_bytes,
                               kDigestChunk);
  st.repl_mutex.unlock();
  NVMECR_CO_RETURN_IF_ERROR(s);
  r.source = RecoverySource::kPartner;
  r.bytes_read = m.replica_bytes;
  r.digest_ok = true;  // replica_ok == digest matched at close
  co_return OkStatus();
}

sim::Task<Status> RecoveryClient::decode_xor(const FileManifest& m,
                                             const std::string& path,
                                             RecoveryReport& r) {
  RedundantSystem& sys = owner_.sys_;
  const RedundancyPlan& plan = sys.plan();
  if (!is_xor(plan.scheme)) {
    co_return UnavailableError("no xor erasure sets provisioned");
  }
  const uint32_t set = plan.set_of_rank[rank_];
  const std::vector<uint32_t>& members = plan.set_members[set];
  constexpr uint32_t k = kXorSetSize;
  const uint64_t q = kDigestChunk;

  // Locate, on every survivor, the parity segment covering this wave
  // (identified by it recording `path` as the lost member's file).
  std::map<uint32_t, const ParitySegment*> segs;     // member -> segment
  std::map<uint32_t, std::string> seg_paths;         // member -> its file
  for (uint32_t mm : members) {
    if (mm == rank_) continue;
    RedundantSystem::RankState& pst = sys.rank_state(mm);
    for (const auto& [p, seg] : pst.parity) {
      auto it = seg.member_paths.find(rank_);
      if (seg.ok && it != seg.member_paths.end() && it->second == path) {
        segs[mm] = &seg;
        seg_paths[mm] = p;
        break;
      }
    }
    if (segs.count(mm) == 0) {
      co_return UnavailableError("xor parity segment missing on survivor");
    }
  }
  const std::map<uint32_t, std::string>& paths =
      segs.begin()->second->member_paths;

  // Read the K-1 survivors' files (verification read through their live
  // primary sessions) and their parity segments off the store SSDs.
  uint64_t read_bytes = 0;
  for (uint32_t mm : members) {
    if (mm == rank_) continue;
    RedundantSystem::RankState& pst = sys.rank_state(mm);
    const FileManifest* mf = sys.manifest(mm, paths.at(mm));
    if (mf == nullptr || !mf->complete) {
      co_return UnavailableError("survivor manifest incomplete");
    }
    if (pst.client == nullptr || pst.store_client == nullptr) {
      co_return UnavailableError("survivor session gone");
    }
    NVMECR_CO_RETURN_IF_ERROR(
        co_await read_all(pst.client->primary(), paths.at(mm), mf->bytes, q));
    read_bytes += mf->bytes;

    const ParitySegment& seg = *segs.at(mm);
    co_await pst.repl_mutex.lock();
    Status ps = co_await read_all(*pst.store_client,
                                  sys.parity_path(seg_paths.at(mm)),
                                  seg.device_bytes, q);
    pst.repl_mutex.unlock();
    NVMECR_CO_RETURN_IF_ERROR(ps);
    read_bytes += seg.device_bytes;
  }

  // The XOR algebra: for each of the lost member's word groups j, the
  // covering parity word lives on member (lost+1+j) mod K; XOR out the
  // other survivors' contributions to get the lost word back.
  uint32_t lost_i = 0;
  while (members[lost_i] != rank_) ++lost_i;
  uint64_t max_bytes = m.bytes;
  for (uint32_t mm : members) {
    if (mm == rank_) continue;
    max_bytes = std::max(max_bytes, sys.manifest(mm, paths.at(mm))->bytes);
  }
  const uint64_t c_max = ceil_div(max_bytes, q);
  const uint64_t t_words =
      std::max<uint64_t>(1, ceil_div(c_max, static_cast<uint64_t>(k - 1)));
  std::vector<uint64_t> words(ceil_div(m.bytes, q), 0);
  for (uint32_t j = 0; j + 1 < k; ++j) {
    const uint32_t h = (lost_i + 1 + j) % k;  // holder of group j's parity
    const ParitySegment& hseg = *segs.at(members[h]);
    for (uint64_t t = 0; t < t_words; ++t) {
      const uint64_t c = t * (k - 1) + j;
      if (c >= words.size()) continue;
      uint64_t w = t < hseg.words.size() ? hseg.words[t] : 0;
      for (uint32_t i2 = 0; i2 < members.size(); ++i2) {
        if (i2 == h || i2 == lost_i) continue;
        const uint32_t sigma2 = (h + k - i2 - 1) % k;
        const uint64_t c2 = t * (k - 1) + sigma2;
        const uint64_t ci2 =
            ceil_div(sys.manifest(members[i2], paths.at(members[i2]))->bytes,
                     q);
        if (c2 < ci2) {
          w ^= content_word(members[i2], paths.at(members[i2]), c2);
        }
      }
      words[c] = w;
    }
  }
  // Decode CPU: XOR of k-1 input streams of one segment each. With
  // target-side offload the decode runs on the lost member's store-node
  // target (the one holding its parity segment) when that target is
  // still alive; otherwise fall back to the restarting host's core.
  sim::Engine& eng = sys.cluster().engine();
  const auto decode_work = static_cast<SimDuration>(
      kXorNsPerByte *
      static_cast<double>((k - 1) * t_words * q));
  bool decoded_on_target = false;
  if (plan.scheme == Scheme::kXorTarget) {
    const fabric::NodeId store_node =
        plan.assignment.ssd_nodes[plan.assignment.ssd_of_rank[rank_]];
    nvmf::NvmfTarget& dt =
        sys.cluster().target(sys.cluster().storage_ssd_index(store_node));
    if (dt.alive(eng.now())) {
      sim::ProfileTagScope tag_scope(eng, dt.offload_tag());
      co_await eng.sleep_until(dt.reserve_compute(eng.now(), decode_work));
      decoded_on_target = true;
    }
  }
  if (!decoded_on_target) {
    co_await eng.delay(decode_work);
  }

  // Byte-identity proof: the rebuilt word stream must reproduce the
  // digest recorded when the lost file was closed.
  if (stream_digest(m.bytes, words) != m.digest) {
    co_return CorruptionError("xor decode digest mismatch");
  }
  r.source = RecoverySource::kXor;
  r.bytes_read = read_bytes;
  r.digest_ok = true;
  co_return OkStatus();
}

sim::Task<StatusOr<int>> RecoveryClient::open_read(const std::string& path) {
  RedundantSystem& sys = owner_.sys_;
  const FileManifest* m = sys.manifest(rank_, path);
  if (m == nullptr || !m->complete) {
    co_return NotFoundError("no manifest for " + path);
  }
  const SimTime t0 = sys.cluster().engine().now();
  sim::TraceSpan span(sys.cluster().observer().trace,
                      "redundancy/rank" + std::to_string(rank_), "reconstruct",
                      sys.cluster().engine());
  RecoveryReport r;
  r.rank = rank_;
  r.path = path;
  r.bytes = m->bytes;

  // 1. Fast tier: a full verification read through the live primary
  // session (device-side tagged-content checks catch corruption).
  Status s = UnavailableError("no live primary session");
  RedundantSystem::RankState& st = sys.rank_state(rank_);
  if (st.client != nullptr) {
    s = co_await read_all(st.client->primary(), path, m->bytes,
                          kDigestChunk);
    if (s.ok()) {
      r.source = RecoverySource::kFastTier;
      r.bytes_read = m->bytes;
      r.digest_ok = true;
    }
  }
  // 2. Partner replica.
  if (!s.ok() && sys.plan().scheme == Scheme::kPartner) {
    s = co_await materialize_partner(*m, path, r);
  }
  // 3. XOR decode from the K-1 survivors.
  if (!s.ok() && is_xor(sys.plan().scheme)) {
    s = co_await decode_xor(*m, path, r);
  }
  if (!s.ok()) {
    co_return IoError("fast tier lost and no redundancy source for " + path +
                      " (" + s.to_string() + ")");
  }

  r.took = sys.cluster().engine().now() - t0;
  if (r.source != RecoverySource::kFastTier) {
    if (owner_.reconstructions_ != nullptr) owner_.reconstructions_->add();
    if (owner_.read_bytes_ctr_ != nullptr) {
      owner_.read_bytes_ctr_->add(r.bytes_read);
    }
    if (owner_.reconstruct_ns_ != nullptr) {
      owner_.reconstruct_ns_->add(static_cast<double>(r.took));
    }
  }
  owner_.reports_.push_back(r);
  const int fd = next_fd_++;
  open_[fd] = OpenImage{m->bytes, 0};
  co_return fd;
}

sim::Task<Status> RecoveryClient::read(int fd, uint64_t len) {
  auto it = open_.find(fd);
  if (it == open_.end()) co_return BadFdError("recovery fd");
  // The image is DRAM-resident after materialization.
  co_await owner_.sys_.cluster().engine().delay(
      transfer_time(len, kImageDramBw));
  it->second.cursor = std::min(it->second.cursor + len, it->second.bytes);
  co_return OkStatus();
}

sim::Task<Status> RecoveryClient::close(int fd) {
  open_.erase(fd);
  co_return OkStatus();
}

sim::Task<StatusOr<int>> RecoveryClient::create(const std::string&) {
  co_return PermissionError("recovery client is read-only");
}
sim::Task<Status> RecoveryClient::write(int, uint64_t) {
  co_return PermissionError("recovery client is read-only");
}
sim::Task<Status> RecoveryClient::fsync(int) {
  co_return PermissionError("recovery client is read-only");
}
sim::Task<Status> RecoveryClient::unlink(const std::string&) {
  co_return PermissionError("recovery client is read-only");
}

}  // namespace nvmecr::redundancy
