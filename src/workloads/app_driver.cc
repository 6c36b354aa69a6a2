#include "workloads/app_driver.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdio>
#include <utility>

#include "common/crc.h"
#include "common/rng.h"

namespace nvmecr::workloads {

namespace {
/// Real solver state per rank, in doubles. Deliberately independent of
/// the simulated stream size (AppRunParams::stream_bytes).
constexpr uint32_t kStateElems = 192;
/// Application write/read granularity of the checkpoint stream, and the
/// header record written ahead of its body.
constexpr uint64_t kIoChunk = 1_MiB;
constexpr uint64_t kHeaderBytes = 256;
}  // namespace

const char* kill_point_name(KillPoint p) {
  switch (p) {
    case KillPoint::kNone:
      return "none";
    case KillPoint::kBeforeCheckpoint:
      return "before-checkpoint";
    case KillPoint::kMidCheckpoint:
      return "mid-checkpoint";
    case KillPoint::kAfterCheckpoint:
      return "after-checkpoint";
  }
  return "?";
}

std::string app_checkpoint_path(const AppSpec& spec, uint32_t epoch,
                                uint32_t rank) {
  std::string app;
  for (const char* c = spec.name; *c != '\0'; ++c) {
    const auto uc = static_cast<unsigned char>(*c);
    app += std::isalnum(uc) ? static_cast<char>(std::tolower(uc)) : '-';
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "/%s.e%04u.r%05u.ckpt", app.c_str(), epoch,
                rank);
  return buf;
}

std::vector<uint32_t> CheckpointLedger::committed_epochs(
    uint32_t nranks) const {
  std::map<uint32_t, uint32_t> count;
  for (const auto& entry : entries_) {
    ++count[static_cast<uint32_t>(entry.first & 0xFFFFFFFFu)];
  }
  std::vector<uint32_t> out;
  for (auto it = count.rbegin(); it != count.rend(); ++it) {
    if (it->second == nranks) out.push_back(it->first);
  }
  return out;
}

/// Shared state of one run/restart invocation: kill configuration,
/// residuals recorded by rank 0, error capture from any rank.
struct AppDriver::RunCtx {
  KillSpec kill;
  bool checkpoints = true;
  uint32_t first_epoch = 0;
  SimTime started = 0;
  Status first_error;
  std::vector<double> residuals;
  bool killed = false;

  void record_error(const Status& s) {
    if (first_error.ok() && !s.ok()) first_error = s;
  }
};

AppDriver::AppDriver(nvmecr_rt::Cluster& cluster,
                     baselines::StorageSystem& fast, const AppSpec& spec,
                     AppRunParams params, baselines::StorageSystem* pfs)
    : cluster_(cluster),
      fast_(fast),
      pfs_(pfs),
      spec_(spec),
      params_(std::move(params)) {
  NVMECR_CHECK(params_.ranks > 0);
  comm_ = minimpi::Comm::world(cluster_.engine(),
                               static_cast<int>(params_.ranks));
}

AppDriver::~AppDriver() = default;

baselines::StorageClient* AppDriver::session(uint32_t rank) {
  return rank < sessions_.size() ? sessions_[rank].get() : nullptr;
}

baselines::StorageClient* AppDriver::pfs_session(uint32_t rank) {
  return rank < pfs_sessions_.size() ? pfs_sessions_[rank].get() : nullptr;
}

Status AppDriver::ensure_connected() {
  if (connected_) return OkStatus();
  Status out = InternalError("connect task never ran");
  cluster_.engine().run_task(connect_task(out));
  if (out.ok()) connected_ = true;
  return out;
}

sim::Task<void> AppDriver::connect_task(Status& out) {
  const uint32_t nranks = params_.ranks;
  sessions_.resize(nranks);
  for (uint32_t r = 0; r < nranks; ++r) {
    auto c = co_await fast_.connect(static_cast<int>(r));
    if (!c.ok()) {
      out = c.status();
      co_return;
    }
    sessions_[r] = std::move(*c);
  }
  if (pfs_ != nullptr && params_.pfs_interval > 0) {
    pfs_sessions_.resize(nranks);
    for (uint32_t r = 0; r < nranks; ++r) {
      auto c = co_await pfs_->connect(static_cast<int>(r));
      if (!c.ok()) {
        out = c.status();
        co_return;
      }
      pfs_sessions_[r] = std::move(*c);
    }
  }
  out = OkStatus();
}

std::vector<nvmecr_rt::RestoreSource> AppDriver::default_chain(uint32_t rank) {
  std::vector<nvmecr_rt::RestoreSource> chain;
  chain.push_back({sessions_[rank].get(), false});
  if (rank < pfs_sessions_.size()) {
    chain.push_back({pfs_sessions_[rank].get(), true});
  }
  return chain;
}

sim::Task<Status> AppDriver::write_checkpoint(uint32_t rank, uint32_t epoch,
                                              double residual,
                                              bool mid_kill) {
  nvmecr_rt::MultiLevelPolicy policy(params_.pfs_interval);
  const bool on_pfs =
      !pfs_sessions_.empty() && policy.is_pfs_checkpoint(epoch);
  baselines::StorageClient& tier =
      on_pfs ? *pfs_sessions_[rank] : *sessions_[rank];
  const std::string path = app_checkpoint_path(spec_, epoch, rank);
  const uint64_t body = params_.stream_bytes;

  auto fd = co_await tier.create(path);
  NVMECR_CO_RETURN_IF_ERROR(fd.status());
  Status s = co_await tier.write(*fd, kHeaderBytes);
  uint64_t written = 0;
  while (s.ok() && written < body) {
    const uint64_t piece = std::min(kIoChunk, body - written);
    s = co_await tier.write(*fd, piece);
    written += piece;
    if (mid_kill && s.ok() && written * 2 >= body) {
      // Death mid-stream: the fd is abandoned un-fsynced, and the
      // ledger never commits this epoch — restart must not trust it.
      co_return OkStatus();
    }
  }
  if (s.ok()) s = co_await tier.fsync(*fd);
  if (s.ok()) s = co_await tier.close(*fd);
  NVMECR_CO_RETURN_IF_ERROR(s);

  // Commit point: the stream is durable, record the real application
  // state behind it.
  CheckpointRecord& rec = ledger_.entry(rank, epoch);
  rec.snapshot.clear();
  states_[rank]->serialize(rec.snapshot);
  rec.digest = crc64(rec.snapshot.data(), rec.snapshot.size(),
                     states_[rank]->digest_seed());
  rec.residual = residual;
  rec.on_pfs = on_pfs;
  co_return OkStatus();
}

sim::Task<void> AppDriver::epoch_loop(uint32_t rank, uint32_t start,
                                      RunCtx& ctx) {
  sim::Engine& eng = cluster_.engine();
  Rng rng(mix64(params_.seed ^ 0xA44DD81FEull) ^
          (static_cast<uint64_t>(rank) << 20));
  for (uint32_t epoch = start; epoch < params_.epochs; ++epoch) {
    // Compute phase (jitter models per-rank load imbalance; it moves
    // sim time only — the state advance below is time-independent, so
    // restarted runs recompute bit-identical residuals).
    const double jitter = rng.jitter(spec_.jitter);
    co_await eng.delay(static_cast<SimDuration>(
        static_cast<double>(params_.compute_per_period) * jitter));

    // Two-reduction epoch protocol (apps.h).
    const double l1 = states_[rank]->compute(epoch);
    const double g1 =
        co_await comm_->allreduce_sum(static_cast<int>(rank), l1);
    const double l2 = states_[rank]->fold(epoch, g1);
    const double g2 =
        co_await comm_->allreduce_sum(static_cast<int>(rank), l2);
    const double res = states_[rank]->finish(epoch, g2);
    if (rank == 0) ctx.residuals.push_back(res);

    const bool kill_here = ctx.kill.armed() && epoch == ctx.kill.epoch;
    if (kill_here && ctx.kill.point == KillPoint::kBeforeCheckpoint) {
      ctx.killed = true;
      co_return;
    }
    if (ctx.checkpoints) {
      const bool mid_kill =
          kill_here && ctx.kill.point == KillPoint::kMidCheckpoint;
      Status s = co_await write_checkpoint(rank, epoch, res, mid_kill);
      if (!s.ok()) {
        ctx.record_error(s);
        co_return;
      }
      if (mid_kill) {
        ctx.killed = true;
        co_return;
      }
    }
    if (kill_here) {  // kMidCheckpoint (checkpoints off) or kAfter
      ctx.killed = true;
      co_return;
    }
    co_await comm_->barrier(static_cast<int>(rank));
  }
}

sim::Task<void> AppDriver::probe_task(
    const RestorePlan& plan, std::vector<nvmecr_rt::RestoreSource>& chosen,
    uint32_t& epoch_out, bool& done) {
  const uint32_t nranks = params_.ranks;
  for (uint32_t e : ledger_.committed_epochs(nranks)) {
    bool all = true;
    for (uint32_t r = 0; r < nranks && all; ++r) {
      const CheckpointRecord* rec = ledger_.find(r, e);
      auto sources = plan.chain ? plan.chain(r) : default_chain(r);
      bool found = false;
      for (const auto& src : sources) {
        // Tier classes must match: the PFS model's open_read cannot
        // report ENOENT, so only ledger-confirmed placements are
        // probed against it (multilevel.h).
        if (src.client == nullptr || src.pfs_tier != rec->on_pfs) continue;
        auto fd =
            co_await src.client->open_read(app_checkpoint_path(spec_, e, r));
        if (!fd.ok()) continue;
        co_await src.client->close(*fd);
        chosen[r] = src;
        found = true;
        break;
      }
      all = found;
    }
    if (all) {
      epoch_out = e;
      done = true;
      co_return;
    }
  }
  epoch_out = kNoRestoreEpoch;
  done = true;
}

Status AppDriver::run_engine_phase(SimTime started, const Status& first_error,
                                   const char* phase) {
  sim::Engine& eng = cluster_.engine();
  if (params_.deadline <= 0) {
    eng.run();
    return OkStatus();
  }
  eng.run_until(started + params_.deadline);
  // Pending roots at the cutoff with no typed error are a hang — either
  // the deadline fired mid-flight or the queue drained with coroutines
  // parked on an event that never comes. A recorded typed error instead
  // means one rank failed and its peers are parked at a collective the
  // dead rank will never join: that is the typed-failure outcome, not a
  // hang, and finish_run reports it.
  if (eng.live_roots() > 0 && first_error.ok()) {
    return DeadlineExceededError(
        std::string(phase) + " exceeded deadline with " +
        std::to_string(eng.live_roots()) + " tasks pending");
  }
  return OkStatus();
}

sim::Task<void> AppDriver::restore_and_resume(uint32_t rank, uint32_t epoch,
                                              nvmecr_rt::RestoreSource source,
                                              RunCtx& ctx) {
  const CheckpointRecord* rec = ledger_.find(rank, epoch);
  NVMECR_CHECK(rec != nullptr && source.client != nullptr);
  const std::string path = app_checkpoint_path(spec_, epoch, rank);
  const uint64_t body = params_.stream_bytes;

  // Replay the checkpoint read through the chosen source (reconstruction
  // and failover sources charge their own materialization costs here).
  auto fd = co_await source.client->open_read(path);
  if (!fd.ok()) {
    ctx.record_error(fd.status());
    co_return;
  }
  Status s = co_await source.client->read(*fd, kHeaderBytes);
  uint64_t got = 0;
  while (s.ok() && got < body) {
    const uint64_t piece = std::min(kIoChunk, body - got);
    s = co_await source.client->read(*fd, piece);
    got += piece;
  }
  if (s.ok()) s = co_await source.client->close(*fd);
  if (!s.ok()) {
    ctx.record_error(s);
    co_return;
  }

  // Rebuild the solver state from the committed snapshot and prove it
  // is the state the digest was taken over.
  auto st = make_rank_state(spec_, rank, params_.ranks, params_.seed,
                            kStateElems);
  s = st->deserialize(
      std::span<const std::byte>(rec->snapshot.data(), rec->snapshot.size()));
  if (s.ok() && st->digest() != rec->digest) {
    s = CorruptionError("restored state digest mismatch for " + path);
  }
  if (!s.ok()) {
    ctx.record_error(s);
    co_return;
  }
  states_[rank] = std::move(st);
  co_await epoch_loop(rank, epoch + 1, ctx);
}

StatusOr<AppRunResult> AppDriver::finish_run(RunCtx& ctx) {
  if (!ctx.first_error.ok()) return ctx.first_error;
  AppRunResult res;
  res.first_epoch = ctx.first_epoch;
  res.residuals = std::move(ctx.residuals);
  res.killed = ctx.killed;
  res.total_time = cluster_.engine().now() - ctx.started;
  if (!res.killed) {
    for (const auto& st : states_) res.rank_digests.push_back(st->digest());
    res.job_digest =
        crc64(res.rank_digests.data(),
              res.rank_digests.size() * sizeof(uint64_t), 0x4A0BD16E57ull);
  }
  return res;
}

StatusOr<AppRunResult> AppDriver::run(const KillSpec& kill) {
  Status s = ensure_connected();
  if (!s.ok()) return s;
  sim::Engine& eng = cluster_.engine();
  const uint32_t nranks = params_.ranks;

  states_.clear();
  states_.resize(nranks);
  for (uint32_t r = 0; r < nranks; ++r) {
    states_[r] =
        make_rank_state(spec_, r, nranks, params_.seed, kStateElems);
  }
  RunCtx ctx;
  ctx.kill = kill;
  ctx.started = eng.now();
  for (uint32_t r = 0; r < nranks; ++r) eng.spawn(epoch_loop(r, 0, ctx));
  s = run_engine_phase(ctx.started, ctx.first_error, "run");
  if (!s.ok()) return s;
  return finish_run(ctx);
}

StatusOr<AppRunResult> AppDriver::restart(const RestorePlan& plan,
                                          const KillSpec& kill) {
  Status s = ensure_connected();
  if (!s.ok()) return s;
  sim::Engine& eng = cluster_.engine();
  const uint32_t nranks = params_.ranks;

  std::vector<nvmecr_rt::RestoreSource> chosen(nranks);
  uint32_t epoch = kNoRestoreEpoch;
  bool probed = false;
  if (params_.deadline > 0) {
    // A hung probe must surface as kDeadlineExceeded, not abort the
    // process the way run_task's deadlock check would.
    const SimTime probe_started = eng.now();
    eng.spawn(probe_task(plan, chosen, epoch, probed));
    eng.run_until(probe_started + params_.deadline);
    if (!probed) return DeadlineExceededError("restore probe exceeded deadline");
  } else {
    eng.run_task(probe_task(plan, chosen, epoch, probed));
  }

  RunCtx ctx;
  ctx.kill = kill;
  ctx.checkpoints = plan.resume_checkpoints;
  ctx.started = eng.now();
  states_.clear();
  states_.resize(nranks);
  if (epoch == kNoRestoreEpoch) {
    // Nothing was ever committed by every rank (e.g. killed before the
    // first checkpoint completed): restart from initial state.
    for (uint32_t r = 0; r < nranks; ++r) {
      states_[r] =
          make_rank_state(spec_, r, nranks, params_.seed, kStateElems);
      eng.spawn(epoch_loop(r, 0, ctx));
    }
  } else {
    ctx.first_epoch = epoch + 1;
    for (uint32_t r = 0; r < nranks; ++r) {
      eng.spawn(restore_and_resume(r, epoch, chosen[r], ctx));
    }
  }
  s = run_engine_phase(ctx.started, ctx.first_error, "restart");
  if (!s.ok()) return s;
  auto res = finish_run(ctx);
  if (!res.ok()) return res;
  res->from_initial = epoch == kNoRestoreEpoch;
  res->restored_epoch = epoch;
  return res;
}

Status verify_residuals(const AppRunResult& golden,
                        const AppRunResult& restored) {
  for (size_t i = 0; i < restored.residuals.size(); ++i) {
    const uint32_t epoch = restored.first_epoch + static_cast<uint32_t>(i);
    if (epoch < golden.first_epoch) continue;
    const size_t gi = epoch - golden.first_epoch;
    if (gi >= golden.residuals.size()) {
      return InvalidArgumentError("golden run has no residual for epoch " +
                                  std::to_string(epoch));
    }
    const double g = golden.residuals[gi];
    const double r = restored.residuals[i];
    if (std::bit_cast<uint64_t>(g) != std::bit_cast<uint64_t>(r)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "residual diverged at epoch %u: golden=%.17g "
                    "restored=%.17g",
                    epoch, g, r);
      return CorruptionError(buf);
    }
  }
  return OkStatus();
}

Status verify_restart(const AppRunResult& golden,
                      const AppRunResult& restored) {
  if (golden.killed) return InvalidArgumentError("golden run was killed");
  if (restored.killed) {
    return InvalidArgumentError("restored run did not run to completion");
  }
  Status s = verify_residuals(golden, restored);
  if (!s.ok()) return s;
  if (golden.rank_digests.size() != restored.rank_digests.size()) {
    return CorruptionError("rank digest count mismatch");
  }
  for (size_t r = 0; r < golden.rank_digests.size(); ++r) {
    if (golden.rank_digests[r] != restored.rank_digests[r]) {
      return CorruptionError("state digest mismatch on rank " +
                             std::to_string(r));
    }
  }
  if (golden.job_digest != restored.job_digest) {
    return CorruptionError("job digest mismatch");
  }
  return OkStatus();
}

}  // namespace nvmecr::workloads
