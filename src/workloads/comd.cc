#include "workloads/comd.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "obs/profile.h"
#include "simcore/event.h"
#include "simcore/profile.h"
#include "simcore/sync.h"

namespace nvmecr::workloads {

namespace {

/// Host CPU per replayed body byte when restart folds an incremental
/// delta chain into the restored state (ComdParams::replay_increments).
constexpr double kMergeNsPerByte = 0.05;

std::string checkpoint_path(uint32_t step, uint32_t rank) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/comd.step%04u.rank%05u.ckpt", step, rank);
  return buf;
}

/// Shared state of one job run: phase clocks recorded by rank 0 between
/// barriers, error capture from any rank.
struct RunState {
  explicit RunState(sim::Engine& engine, uint32_t nranks)
      : barrier(engine, static_cast<int>(nranks)),
        rank_ckpt_io(nranks, 0),
        rank_recovery_io(nranks, 0),
        rank_recovery_bytes(nranks, 0) {}
  sim::Barrier barrier;
  Status first_error;
  std::vector<SimTime> phase_marks;
  std::vector<SimDuration> rank_ckpt_io;      // fast-tier only
  std::vector<SimDuration> rank_recovery_io;
  std::vector<uint64_t> rank_recovery_bytes;  // actual restart reads
  Samples create_latency;  // ns, all ranks (single-threaded engine)
  Samples write_latency;

  void record_error(const Status& s) {
    if (first_error.ok() && !s.ok()) first_error = s;
  }
};

/// One rank's life: connect, then per period [compute, barrier,
/// checkpoint, barrier], then the restart phase.
sim::Task<void> rank_task(nvmecr_rt::Cluster& cluster,
                          baselines::StorageSystem& system,
                          baselines::StorageSystem* pfs,
                          uint32_t pfs_interval, ComdParams params,
                          uint32_t rank, RunState& state) {
  sim::Engine& eng = cluster.engine();
  Rng rng(0xC03D ^ (static_cast<uint64_t>(rank) << 20));

  // Dispatch/epoch attribution. The rank scope stamps this rank into the
  // engine's profile context once; every event this coroutine chain
  // schedules captures it, and each dispatch restores it, so deep layers
  // (microfs/nvmf/hw) can decode the rank from the context. Barrier
  // wakeups are the exception — they are scheduled by the last-arriving
  // rank — so barrier waits and compression CPU are recorded with the
  // explicit rank below, and the barrier tag scope's destructor (which
  // runs after the resume) restores this rank's context. All of this is
  // inert (tags 0, hooks off) when no profiler is installed.
  obs::EpochProfiler* const ep = cluster.observer().epoch;
  sim::ProfileRankScope rank_scope(eng, rank);
  const uint16_t tag_compute = eng.profile_tag("comd/compute");
  const uint16_t tag_barrier = eng.profile_tag("comd/barrier");

  auto client_or = co_await system.connect(static_cast<int>(rank));
  if (!client_or.ok()) {
    state.record_error(client_or.status());
    co_return;
  }
  auto client = std::move(client_or).value();
  std::unique_ptr<baselines::StorageClient> pfs_client;
  if (pfs != nullptr) {
    auto p = co_await pfs->connect(static_cast<int>(rank));
    if (!p.ok()) {
      state.record_error(p.status());
      co_return;
    }
    pfs_client = std::move(p).value();
  }
  nvmecr_rt::MultiLevelPolicy policy(pfs_interval);

  // Setup complete; everyone starts the timestep loop together. (Not
  // recorded as barrier time: it measures connect skew, not BSP waits.)
  {
    sim::ProfileTagScope barrier_scope(eng, tag_barrier);
    co_await state.barrier.arrive_and_wait();
  }
  if (rank == 0) state.phase_marks.push_back(eng.now());

  const uint64_t full_body = params.atoms_per_rank * params.bytes_per_atom;
  for (uint32_t step = 0; step < params.checkpoints; ++step) {
    if (ep != nullptr) ep->set_rank_epoch(rank, step);
    // Incremental checkpointing: later checkpoints dump only the dirty
    // fraction of the atom data.
    const uint64_t body =
        step == 0 ? full_body
                  : static_cast<uint64_t>(static_cast<double>(full_body) *
                                          params.incremental_fraction);
    // Compute phase (BSP: the barrier at the end models the halo
    // exchange synchronization).
    const double jitter = rng.jitter(params.compute_jitter);
    {
      sim::ProfileTagScope compute_scope(eng, tag_compute);
      co_await eng.delay(static_cast<SimDuration>(
          static_cast<double>(params.compute_per_period) * jitter));
    }
    {
      const SimTime b0 = eng.now();
      sim::ProfileTagScope barrier_scope(eng, tag_barrier);
      co_await state.barrier.arrive_and_wait();
      if (ep != nullptr) {
        ep->record_rank(rank, step, obs::EpochProfiler::Phase::kBarrier,
                        eng.now() - b0);
      }
    }
    if (rank == 0) state.phase_marks.push_back(eng.now());

    // Checkpoint phase (N-N: one private file per rank).
    const bool on_pfs =
        pfs_client != nullptr && policy.is_pfs_checkpoint(step);
    baselines::StorageClient& target = on_pfs ? *pfs_client : *client;
    const SimTime io_start = eng.now();
    const std::string path = checkpoint_path(step, rank);
    auto fd = co_await target.create(path);
    if (!fd.ok()) {
      state.record_error(fd.status());
      co_return;
    }
    state.create_latency.add(static_cast<double>(eng.now() - io_start));
    Status s = co_await target.write(*fd, params.header_bytes);
    uint64_t written = 0;
    while (s.ok() && written < body) {
      const uint64_t piece = std::min(params.io_chunk, body - written);
      if (params.compression_ratio > 1.0) {
        // Compress the chunk (CPU) before shipping the smaller payload.
        const SimDuration comp = static_cast<SimDuration>(
            params.compression_ns_per_byte * static_cast<double>(piece));
        co_await eng.delay(comp);
        if (ep != nullptr) {
          ep->record_rank(rank, step, obs::EpochProfiler::Phase::kSerialize,
                          comp);
        }
      }
      const uint64_t wire =
          params.compression_ratio > 1.0
              ? static_cast<uint64_t>(static_cast<double>(piece) /
                                      params.compression_ratio)
              : piece;
      const SimTime w0 = eng.now();
      s = co_await target.write(*fd, std::max<uint64_t>(wire, 1));
      state.write_latency.add(static_cast<double>(eng.now() - w0));
      written += piece;
    }
    if (s.ok()) s = co_await target.fsync(*fd);
    if (s.ok()) s = co_await target.close(*fd);
    if (!on_pfs) state.rank_ckpt_io[rank] += eng.now() - io_start;
    // Retire checkpoints beyond the retention window (same tier).
    if (s.ok() && step + 1 > params.keep_last) {
      const uint32_t old_step = step - params.keep_last;
      const bool old_on_pfs =
          pfs_client != nullptr && policy.is_pfs_checkpoint(old_step);
      baselines::StorageClient& old_tier =
          old_on_pfs ? *pfs_client : *client;
      s = co_await old_tier.unlink(checkpoint_path(old_step, rank));
    }
    if (!s.ok()) {
      state.record_error(s);
      co_return;
    }
    {
      const SimTime b0 = eng.now();
      sim::ProfileTagScope barrier_scope(eng, tag_barrier);
      co_await state.barrier.arrive_and_wait();
      if (ep != nullptr) {
        ep->record_rank(rank, step, obs::EpochProfiler::Phase::kBarrier,
                        eng.now() - b0);
      }
    }
    if (rank == 0) state.phase_marks.push_back(eng.now());
  }

  if (params.do_recovery && params.checkpoints > 0) {
    // The restart phase is its own drilldown epoch, one past the last
    // checkpoint step.
    if (ep != nullptr) ep->set_rank_epoch(rank, params.checkpoints);
    // Restart: read the newest checkpoint back (always on the tier that
    // holds it). With incremental checkpointing restart still needs the
    // full state; the legacy model charges a full restore against the
    // newest increment's size. `replay_increments` models it honestly:
    // replay the retained delta chain plus a host-side merge — unless
    // the system offers a target-side materialized image (the offload
    // pipeline's delta-compaction stage), read as one full stream.
    const uint32_t last = params.checkpoints - 1;
    const bool last_on_pfs =
        pfs_client != nullptr && policy.is_pfs_checkpoint(last);
    const uint64_t inc_body =
        params.checkpoints == 1
            ? full_body
            : static_cast<uint64_t>(static_cast<double>(full_body) *
                                    params.incremental_fraction);
    std::vector<std::pair<uint32_t, uint64_t>> plan{{last, inc_body}};
    bool merge = false;
    if (params.replay_increments && params.incremental_fraction < 1.0 &&
        params.checkpoints > 1 && !last_on_pfs) {
      const uint64_t image = system.restart_image_bytes(
          static_cast<int>(rank), checkpoint_path(last, rank));
      if (image > 0) {
        plan.back().second = image;  // one materialized full image
      } else {
        // Chain-replay the retained checkpoints oldest-to-newest.
        plan.clear();
        const uint32_t first =
            last + 1 > params.keep_last ? last + 1 - params.keep_last : 0;
        for (uint32_t old = first; old <= last; ++old) {
          plan.emplace_back(old, old == 0 ? full_body : inc_body);
        }
        merge = true;
      }
    }
    const SimTime io_start = eng.now();
    uint64_t replayed = 0;
    Status s = OkStatus();
    for (const auto& [step2, body] : plan) {
      baselines::StorageClient& tier =
          (pfs_client != nullptr && policy.is_pfs_checkpoint(step2))
              ? *pfs_client
              : *client;
      auto fd = co_await tier.open_read(checkpoint_path(step2, rank));
      if (!fd.ok()) {
        s = fd.status();
        break;
      }
      s = co_await tier.read(*fd, params.header_bytes);
      uint64_t got = 0;
      while (s.ok() && got < body) {
        const uint64_t piece = std::min(params.io_chunk, body - got);
        s = co_await tier.read(*fd, piece);
        got += piece;
      }
      if (s.ok()) s = co_await tier.close(*fd);
      if (!s.ok()) break;
      replayed += body;
      state.rank_recovery_bytes[rank] += params.header_bytes + body;
    }
    if (s.ok() && merge) {
      // Fold the replayed deltas into the restored state on the host.
      const auto mw = static_cast<SimDuration>(
          kMergeNsPerByte * static_cast<double>(replayed));
      co_await eng.delay(mw);
      if (ep != nullptr) {
        ep->record_rank(rank, params.checkpoints,
                        obs::EpochProfiler::Phase::kSerialize, mw);
      }
    }
    state.rank_recovery_io[rank] += eng.now() - io_start;
    if (!s.ok()) {
      state.record_error(s);
      co_return;
    }
    {
      const SimTime b0 = eng.now();
      sim::ProfileTagScope barrier_scope(eng, tag_barrier);
      co_await state.barrier.arrive_and_wait();
      if (ep != nullptr) {
        ep->record_rank(rank, params.checkpoints,
                        obs::EpochProfiler::Phase::kBarrier, eng.now() - b0);
      }
    }
    if (rank == 0) state.phase_marks.push_back(eng.now());
  }
}

namespace {
double mean_ns(const std::vector<SimDuration>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (SimDuration x : xs) sum += static_cast<double>(x);
  return sum / static_cast<double>(xs.size());
}
}  // namespace

}  // namespace

double JobMetrics::checkpoint_efficiency() const {
  const double mean_io = mean_ns(rank_ckpt_io_time);
  if (mean_io <= 0 || hw_peak_write == 0 || fast_checkpoints == 0) {
    return checkpoint_efficiency_makespan();
  }
  // Per-rank perceived bandwidth, aggregated over all ranks.
  const double rank_bytes =
      static_cast<double>(bytes_per_checkpoint) /
      static_cast<double>(rank_ckpt_io_time.size()) * fast_checkpoints;
  const double per_rank_bw = rank_bytes / (mean_io / 1e9);
  return per_rank_bw * static_cast<double>(rank_ckpt_io_time.size()) /
         static_cast<double>(hw_peak_write);
}

double JobMetrics::checkpoint_efficiency_makespan() const {
  SimDuration fast_time = 0;
  uint64_t fast_bytes = 0;
  for (size_t i = 0; i < checkpoint_times.size(); ++i) {
    if (i < checkpoint_on_pfs.size() && checkpoint_on_pfs[i]) continue;
    fast_time += checkpoint_times[i];
    fast_bytes += bytes_per_checkpoint;
  }
  if (fast_time <= 0 || hw_peak_write == 0) return 0.0;
  return bandwidth_bps(fast_bytes, fast_time) /
         static_cast<double>(hw_peak_write);
}

double JobMetrics::recovery_efficiency() const {
  const double mean_io = mean_ns(rank_recovery_io_time);
  if (mean_io > 0 && hw_peak_read > 0) {
    const double rank_bytes = static_cast<double>(recovery_bytes) /
                              static_cast<double>(rank_recovery_io_time.size());
    const double per_rank_bw = rank_bytes / (mean_io / 1e9);
    return per_rank_bw * static_cast<double>(rank_recovery_io_time.size()) /
           static_cast<double>(hw_peak_read);
  }
  if (recovery_time <= 0 || hw_peak_read == 0) return 0.0;
  return bandwidth_bps(recovery_bytes, recovery_time) /
         static_cast<double>(hw_peak_read);
}

double JobMetrics::load_cov() const {
  StreamingStats stats;
  for (uint64_t b : server_bytes) stats.add(static_cast<double>(b));
  return stats.cov();
}

StatusOr<JobMetrics> ComdDriver::run(nvmecr_rt::Cluster& cluster,
                                     baselines::StorageSystem& system,
                                     const ComdParams& params,
                                     baselines::StorageSystem* pfs,
                                     uint32_t pfs_interval) {
  sim::Engine& eng = cluster.engine();
  RunState state(eng, params.nranks);

  for (uint32_t r = 0; r < params.nranks; ++r) {
    eng.spawn(rank_task(cluster, system, pfs, pfs_interval, params, r,
                        state));
  }
  eng.run();
  cluster.export_run_metrics();
  if (!state.first_error.ok()) return state.first_error;
  NVMECR_CHECK(eng.live_roots() == 0);

  // Phase marks: start, then per checkpoint [compute_end, ckpt_end],
  // then recovery_end.
  JobMetrics m;
  const auto& marks = state.phase_marks;
  const size_t expected = 1 + 2 * params.checkpoints +
                          (params.do_recovery && params.checkpoints ? 1 : 0);
  NVMECR_CHECK(marks.size() == expected);
  nvmecr_rt::MultiLevelPolicy policy(pfs_interval);
  for (uint32_t step = 0; step < params.checkpoints; ++step) {
    const SimTime compute_end = marks[1 + 2 * step];
    const SimTime ckpt_end = marks[2 + 2 * step];
    const SimTime phase_start = marks[2 * step];
    m.compute_time += compute_end - phase_start;
    m.checkpoint_times.push_back(ckpt_end - compute_end);
    m.checkpoint_on_pfs.push_back(pfs != nullptr &&
                                  policy.is_pfs_checkpoint(step));
    m.checkpoint_time += ckpt_end - compute_end;
  }
  if (params.do_recovery && params.checkpoints > 0) {
    m.recovery_time = marks.back() - marks[marks.size() - 2];
    // Sum what the ranks actually read (replay chains and materialized
    // images make the per-rank amounts config- and runtime-dependent).
    for (uint64_t b : state.rank_recovery_bytes) m.recovery_bytes += b;
  }
  m.total_time = marks.back() - marks.front() - m.recovery_time;
  m.bytes_per_checkpoint = params.job_checkpoint_bytes();
  m.rank_ckpt_io_time = state.rank_ckpt_io;
  m.rank_recovery_io_time = state.rank_recovery_io;
  m.create_latency = std::move(state.create_latency);
  m.write_latency = std::move(state.write_latency);
  for (bool on_pfs : m.checkpoint_on_pfs) m.fast_checkpoints += !on_pfs;
  m.hw_peak_write = system.hardware_peak_write_bw();
  m.hw_peak_read = system.hardware_peak_read_bw();
  m.server_bytes = system.bytes_per_server();
  m.kernel_time = system.kernel_time();
  return m;
}

}  // namespace nvmecr::workloads
