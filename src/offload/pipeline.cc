#include "offload/pipeline.h"

#include <algorithm>

#include "common/log.h"
#include "obs/profile.h"
#include "simcore/profile.h"

namespace nvmecr::offload {

using Phase = obs::EpochProfiler::Phase;

namespace {
/// Single-core CRC64 cost per byte, on host and target cores alike
/// (matches the slice-by-8 software CRC the runtime models elsewhere,
/// ~20 GB/s).
constexpr double kCrcNsPerByte = 0.05;
/// Delta-fold cost per byte touched (delta bytes + current image).
constexpr double kCompactNsPerByte = 0.05;
/// Bandwidth the target serves a materialized image at (DRAM-staged).
constexpr uint64_t kImageDramBw = 8_GBps;
}  // namespace

// ---------------------------------------------------------------------------
// OffloadSystem

OffloadSystem::OffloadSystem(nvmecr_rt::Cluster& cluster,
                             baselines::StorageSystem& inner,
                             const nvmecr_rt::JobAllocation& job,
                             OffloadOptions opts)
    : cluster_(cluster), inner_(inner), job_(job), opts_(opts) {
  NVMECR_CHECK(job_.assignment.ssd_of_rank.size() == job_.rank_nodes.size());
  ranks_.resize(job_.rank_nodes.size());
}

nvmf::NvmfTarget& OffloadSystem::target_of(uint32_t rank) {
  const fabric::NodeId node =
      job_.assignment.ssd_nodes[job_.assignment.ssd_of_rank[rank]];
  return cluster_.target(cluster_.storage_ssd_index(node));
}

uint32_t OffloadSystem::granted(uint32_t rank) const {
  return rank < ranks_.size() ? ranks_[rank].st.granted : 0;
}

uint32_t OffloadSystem::active_grant(uint32_t rank) {
  RankSlot& slot = ranks_[rank];
  if (slot.st.granted != 0 &&
      !target_of(rank).alive(cluster_.engine().now())) {
    // The target daemon is gone: revoke every stage for this session and
    // record it — the degraded manifest operators (and the resilience
    // tests) read. Data-path IO keeps going through the inner system's
    // own failover; compute just moves back to the host.
    slot.st.granted = 0;
    slot.st.image_path.clear();
    slot.st.image_bytes = 0;
    ++fallbacks_;
    fallback_log_.push_back(
        "rank " + std::to_string(rank) +
        ": target dead, offload stages fell back to host compute");
  }
  return slot.st.granted;
}

sim::Task<StatusOr<std::unique_ptr<baselines::StorageClient>>>
OffloadSystem::connect(int rank) {
  NVMECR_CHECK(rank >= 0 && static_cast<size_t>(rank) < ranks_.size());
  auto inner = co_await inner_.connect(rank);
  if (!inner.ok()) co_return inner.status();
  const auto r = static_cast<uint32_t>(rank);
  RankSlot& slot = ranks_[r];
  slot.st = RankOffloadState{};
  slot.files.clear();
  if (opts_.stages != 0) {
    auto g = co_await target_of(r).negotiate_offload(client_node(r),
                                                     opts_.stages);
    if (g.ok()) {
      slot.st.granted = *g;
    } else {
      ++fallbacks_;
      fallback_log_.push_back("rank " + std::to_string(r) +
                              ": offload negotiation failed (" +
                              g.status().to_string() +
                              "); stages run host-side");
    }
  }
  co_return std::unique_ptr<baselines::StorageClient>(
      std::make_unique<OffloadClient>(*this, r, std::move(*inner)));
}

uint64_t OffloadSystem::restart_image_bytes(int rank,
                                            const std::string& path) {
  if (rank < 0 || static_cast<size_t>(rank) >= ranks_.size()) return 0;
  const auto r = static_cast<uint32_t>(rank);
  if ((active_grant(r) & nvmf::kOffloadCompact) == 0) return 0;
  const RankSlot& slot = ranks_[r];
  if (slot.st.image_path != path || slot.st.image_bytes == 0) return 0;
  // Only worth serving when the file alone is not the full state.
  const auto it = slot.files.find(path);
  const uint64_t raw = it == slot.files.end() ? 0 : it->second.raw_bytes;
  return slot.st.image_bytes > raw ? slot.st.image_bytes : 0;
}

// ---------------------------------------------------------------------------
// OffloadClient

OffloadClient::OffloadClient(OffloadSystem& sys, uint32_t rank,
                             std::unique_ptr<baselines::StorageClient> inner)
    : sys_(sys), rank_(rank), inner_(std::move(inner)) {}

sim::Task<Status> OffloadClient::target_round_trip(uint64_t payload) {
  sim::Engine& eng = sys_.cluster_.engine();
  nvmf::NvmfTarget& tgt = sys_.target_of(rank_);
  const nvmf::NvmfParams& p = tgt.params();
  co_await eng.delay(p.initiator_per_cmd);
  if (!tgt.alive(eng.now())) {
    co_return UnreachableError("offload target dead");
  }
  const fabric::NodeId me = sys_.client_node(rank_);
  NVMECR_CO_RETURN_IF_ERROR(co_await sys_.cluster_.network().transfer(
      me, tgt.node(), p.command_bytes));
  sim::ProfileTagScope tag(eng, tgt.offload_tag());
  co_await eng.sleep_until(tgt.reserve_poll_group(eng.now()));
  if (payload > 0) {
    // DRAM-staged image streamout on the target before the data ships.
    co_await eng.delay(transfer_time(payload, kImageDramBw));
  }
  if (!tgt.alive(eng.now())) {
    co_return UnreachableError("offload target dead");
  }
  co_return co_await sys_.cluster_.network().transfer(
      tgt.node(), me, p.completion_bytes + payload);
}

sim::Task<StatusOr<int>> OffloadClient::create(const std::string& path) {
  auto fd = co_await inner_->create(path);
  if (!fd.ok()) co_return fd;
  OpenFile of;
  of.path = path;
  of.writing = true;
  open_[*fd] = of;
  // Rewriting a path obsoletes any stored record of it.
  sys_.ranks_[rank_].files.erase(path);
  co_return fd;
}

sim::Task<StatusOr<int>> OffloadClient::open_read(const std::string& path) {
  OffloadSystem::RankSlot& slot = sys_.ranks_[rank_];
  const uint32_t grant = sys_.active_grant(rank_);
  const auto fit = slot.files.find(path);
  const uint64_t file_raw =
      fit == slot.files.end() ? 0 : fit->second.raw_bytes;
  if ((grant & nvmf::kOffloadCompact) != 0 && slot.st.image_path == path &&
      slot.st.image_bytes > file_raw) {
    // Serve the materialized image straight off the target: one open
    // round trip, then wait out any still-running fold.
    sim::Engine& eng = sys_.cluster_.engine();
    NVMECR_CO_RETURN_IF_ERROR(co_await target_round_trip(0));
    if (slot.st.image_ready > eng.now()) {
      obs::EpochProfiler* const ep = sys_.cluster_.observer().epoch;
      if (ep != nullptr) {
        ep->record(eng, Phase::kTargetCompute, slot.st.image_ready - eng.now());
      }
      co_await eng.sleep_until(slot.st.image_ready);
    }
    const int fd = next_image_fd_++;
    OpenFile of;
    of.path = path;
    of.image = true;
    of.image_bytes = slot.st.image_bytes;
    open_[fd] = of;
    co_return fd;
  }
  auto fd = co_await inner_->open_read(path);
  if (!fd.ok()) co_return fd;
  OpenFile of;
  of.path = path;
  if (fit != slot.files.end() && fit->second.compressed) {
    of.raw_left = fit->second.raw_bytes;
    of.wire_left = fit->second.wire_bytes;
  }
  open_[*fd] = of;
  co_return fd;
}

sim::Task<Status> OffloadClient::write(int fd, uint64_t len) {
  auto it = open_.find(fd);
  if (it == open_.end() || !it->second.writing) {
    co_return co_await inner_->write(fd, len);
  }
  sim::Engine& eng = sys_.cluster_.engine();
  obs::EpochProfiler* const ep = sys_.cluster_.observer().epoch;
  const OffloadOptions& o = sys_.opts_;
  const uint32_t grant = sys_.active_grant(rank_);

  uint64_t wire = len;
  if (o.codec.enabled()) {
    // The host always compresses outbound (shipping fewer bytes is the
    // point); the grant only decides who decompresses on restart.
    const SimDuration c = o.codec.compress_cost(len);
    if (c > 0) {
      co_await eng.delay(c);
      sys_.charge_host(c);
      if (ep != nullptr) ep->record(eng, Phase::kSerialize, c);
    }
    wire = std::max<uint64_t>(o.codec.wire_bytes(len), 1);
  }
  if (o.digest_checks && (grant & nvmf::kOffloadDigest) == 0) {
    // Host-side CRC over the raw stream before it ships.
    const auto c =
        static_cast<SimDuration>(kCrcNsPerByte * static_cast<double>(len));
    if (c > 0) {
      co_await eng.delay(c);
      sys_.charge_host(c);
      if (ep != nullptr) ep->record(eng, Phase::kSerialize, c);
    }
  }
  Status s = co_await inner_->write(fd, wire);
  if (!s.ok()) co_return s;
  OpenFile& of = open_[fd];
  of.raw_bytes += len;
  of.wire_bytes += wire;
  if (o.digest_checks && (grant & nvmf::kOffloadDigest) != 0) {
    // The target CRCs the landed (compressed) extent on its offload
    // cores, off the host's critical path; fsync awaits the verify.
    nvmf::NvmfTarget& tgt = sys_.target_of(rank_);
    const auto work =
        static_cast<SimDuration>(kCrcNsPerByte * static_cast<double>(wire));
    of.digest_done =
        std::max(of.digest_done, tgt.reserve_compute(eng.now(), work));
  }
  co_return s;
}

sim::Task<Status> OffloadClient::read(int fd, uint64_t len) {
  auto it = open_.find(fd);
  if (it == open_.end()) co_return co_await inner_->read(fd, len);
  OpenFile& of = it->second;
  if (of.image) {
    // Target serves the DRAM-staged image: command out, poll group,
    // image stream + payload back with the completion.
    co_return co_await target_round_trip(len);
  }
  const OffloadOptions& o = sys_.opts_;
  if (of.wire_left == 0) co_return co_await inner_->read(fd, len);
  // Compressed stream: fetch the extent's wire bytes, then inflate.
  sim::Engine& eng = sys_.cluster_.engine();
  uint64_t wire = o.codec.wire_bytes(len);
  if (len >= of.raw_left) wire = of.wire_left;  // final extent: drain
  wire = std::min(std::max<uint64_t>(wire, 1), of.wire_left);
  Status s = co_await inner_->read(fd, wire);
  if (!s.ok()) co_return s;
  of.raw_left -= std::min(of.raw_left, len);
  of.wire_left -= wire;
  const SimDuration work = o.codec.decompress_cost(len);
  if ((sys_.active_grant(rank_) & nvmf::kOffloadCompress) != 0) {
    // Target-side inflate: the raw surplus crosses the fabric too
    // (len - wire extra bytes target -> host), but the host burns no
    // CPU and the target pays the decode on its offload cores.
    nvmf::NvmfTarget& tgt = sys_.target_of(rank_);
    if (len > wire) {
      NVMECR_CO_RETURN_IF_ERROR(co_await sys_.cluster_.network().transfer(
          tgt.node(), sys_.client_node(rank_), len - wire));
    }
    sim::ProfileTagScope tag(eng, tgt.offload_tag());
    const SimTime done = tgt.reserve_compute(eng.now(), work);
    obs::EpochProfiler* const ep = sys_.cluster_.observer().epoch;
    if (ep != nullptr) {
      ep->record(eng, Phase::kTargetCompute, done - eng.now());
    }
    co_await eng.sleep_until(done);
  } else if (work > 0) {
    co_await eng.delay(work);
    sys_.charge_host(work);
  }
  co_return OkStatus();
}

sim::Task<Status> OffloadClient::fsync(int fd) {
  Status s = co_await inner_->fsync(fd);
  auto it = open_.find(fd);
  if (s.ok() && it != open_.end() && it->second.writing) {
    sim::Engine& eng = sys_.cluster_.engine();
    if (it->second.digest_done > eng.now()) {
      // Durability includes integrity: wait out the target's verify.
      obs::EpochProfiler* const ep = sys_.cluster_.observer().epoch;
      if (ep != nullptr) {
        ep->record(eng, Phase::kTargetCompute,
                   it->second.digest_done - eng.now());
      }
      co_await eng.sleep_until(it->second.digest_done);
    }
  }
  co_return s;
}

sim::Task<Status> OffloadClient::close(int fd) {
  auto it = open_.find(fd);
  if (it == open_.end()) co_return co_await inner_->close(fd);
  const OpenFile of = it->second;
  open_.erase(it);
  if (of.image) co_return OkStatus();  // fabricated fd, nothing inner
  Status s = co_await inner_->close(fd);
  if (!of.writing || !s.ok()) co_return s;

  sim::Engine& eng = sys_.cluster_.engine();
  OffloadSystem::RankSlot& slot = sys_.ranks_[rank_];
  OffloadSystem::StoredFile rec;
  rec.raw_bytes = of.raw_bytes;
  rec.wire_bytes = of.wire_bytes;
  rec.compressed = sys_.opts_.codec.enabled();
  slot.files[of.path] = rec;
  if (of.digest_done > eng.now()) {
    co_await eng.sleep_until(of.digest_done);
  }
  if ((sys_.active_grant(rank_) & nvmf::kOffloadCompact) != 0) {
    // Fold this delta into the materialized restart image in background
    // target time (the fold touches the delta plus the current image;
    // the first checkpoint pays the initial copy the same way).
    nvmf::NvmfTarget& tgt = sys_.target_of(rank_);
    RankOffloadState& st = slot.st;
    const uint64_t prev = st.image_bytes;
    const auto work = static_cast<SimDuration>(
        kCompactNsPerByte * static_cast<double>(of.raw_bytes + prev));
    st.image_ready =
        tgt.reserve_compute(std::max(eng.now(), st.image_ready), work);
    st.image_bytes = std::max(prev, of.raw_bytes);
    st.image_path = of.path;
  }
  co_return s;
}

sim::Task<Status> OffloadClient::unlink(const std::string& path) {
  Status s = co_await inner_->unlink(path);
  OffloadSystem::RankSlot& slot = sys_.ranks_[rank_];
  slot.files.erase(path);
  if (slot.st.image_path == path) {
    // The covered checkpoint is gone; the image dies with it.
    slot.st.image_path.clear();
    slot.st.image_bytes = 0;
  }
  co_return s;
}

}  // namespace nvmecr::offload
