#include "chaos/campaign.h"

#include <algorithm>
#include <utility>

#include "nvmecr/runtime.h"
#include "resilience/failover.h"
#include "workloads/apps.h"

namespace nvmecr::chaos {

using namespace nvmecr::literals;
using workloads::AppDriver;
using workloads::AppRunParams;
using workloads::AppRunResult;
using workloads::AppSpec;
using workloads::KillSpec;

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kCompleted: return "completed";
    case Verdict::kTypedFailure: return "typed-failure";
    case Verdict::kHang: return "hang";
    case Verdict::kCorruption: return "corruption";
    case Verdict::kDivergence: return "divergence";
    case Verdict::kInfra: return "infra";
  }
  return "?";
}

int verdict_exit_code(Verdict v) {
  switch (v) {
    case Verdict::kCompleted: return kExitOk;
    case Verdict::kTypedFailure: return kExitTypedFailure;
    case Verdict::kHang: return kExitHang;
    case Verdict::kCorruption: return kExitCorruption;
    case Verdict::kDivergence: return kExitDivergence;
    case Verdict::kInfra: return kExitInfra;
  }
  return kExitInfra;
}

CampaignConfig::CampaignConfig() {
  // Default chaos mix, tuned so a 100 ms horizon sees a couple of crash-
  // class events per schedule plus background noise (flaps, stragglers),
  // with occasional quiet schedules and occasional pile-ups.
  base.seed = 1;
  base.horizon = 100 * kMillisecond;
  base.storage_nodes = 8;
  base.racks = 4;
  base.epochs = epochs;
  base.target = {MtbfDist::kExponential, 400.0 * kMillisecond, 0.7, 0.85,
                 15.0 * kMillisecond};
  base.ssd = {MtbfDist::kWeibull, 900.0 * kMillisecond, 0.7, 0.9,
              12.0 * kMillisecond};
  base.link = {MtbfDist::kExponential, 700.0 * kMillisecond, 0.7, 1.0,
               2.0 * kMillisecond};
  base.straggler = {MtbfDist::kExponential, 400.0 * kMillisecond, 0.7, 1.0,
                    5.0 * kMillisecond};
  base.partition = {MtbfDist::kExponential, 2'000.0 * kMillisecond, 0.7, 1.0,
                    4.0 * kMillisecond};
  base.rack_burst_prob = 0.10;
  base.cascade_prob = 0.15;
  base.job_kill_prob = 0.6;
}

CampaignRunner::CampaignRunner(CampaignConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.base.epochs = cfg_.epochs;
}

ScheduleParams CampaignRunner::schedule_params(uint32_t index) const {
  ScheduleParams p = cfg_.base;
  p.seed = cfg_.base.seed + index;
  return p;
}

namespace {

/// Heartbeat/healer daemons run until schedule horizon + this margin.
constexpr SimDuration kHealMargin = 50 * kMillisecond;

AppRunParams campaign_params(const CampaignConfig& cfg) {
  AppRunParams p;
  p.ranks = cfg.ranks;
  p.epochs = cfg.epochs;
  // Shrunk streams: the verified solver state is independent of the
  // simulated stream bytes.
  p.stream_bytes = 1_MiB;
  p.deadline = kPhaseDeadline;
  return p;
}

nvmecr_rt::ClusterSpec cluster_spec(uint32_t ranks, const ScheduleParams& sp) {
  nvmecr_rt::ClusterSpec s;
  s.compute_nodes = ranks;
  s.storage_nodes = sp.storage_nodes;
  s.storage_racks = sp.racks;
  return s;
}

/// try_run_task has no Task<void> overload; give quiesce a result.
sim::Task<int> quiesce_wrap(resilience::ResilientSystem& s) {
  co_await s.quiesce();
  co_return 0;
}

}  // namespace

const AppRunResult& CampaignRunner::golden() {
  if (!golden_.has_value()) {
    const AppSpec* spec = workloads::find_app(cfg_.app.c_str());
    NVMECR_CHECK(spec != nullptr);
    // Clean minimal stack: the golden digests/residuals depend only on
    // (spec, seed, elems, epochs), not on the storage system under it.
    nvmecr_rt::Cluster cluster(cluster_spec(cfg_.ranks, cfg_.base));
    nvmecr_rt::Scheduler sched(cluster);
    auto job = sched.allocate(cfg_.ranks, 1, 64_MiB, cfg_.base.storage_nodes);
    NVMECR_CHECK(job.ok());
    nvmecr_rt::NvmecrSystem fast(cluster, *job, nvmecr_rt::RuntimeConfig{});
    AppDriver driver(cluster, fast, *spec, campaign_params(cfg_));
    auto r = driver.run();
    NVMECR_CHECK(r.ok());
    golden_ = std::move(*r);
  }
  return *golden_;
}

RunOutcome CampaignRunner::run_schedule(const FailureSchedule& sched,
                                        const std::vector<uint32_t>* subset) {
  RunOutcome out;
  out.schedule_seed = sched.params.seed;
  const AppSpec* spec = workloads::find_app(cfg_.app.c_str());
  if (spec == nullptr) {
    out.status = InvalidArgumentError("unknown app " + cfg_.app);
    return out;  // kInfra
  }
  const AppRunResult& gold = golden();

  // The full resilient stack, as examples/fault_storm builds it: retry
  // wrapper -> NVMe-CR runtime -> partner redundancy -> failover.
  nvmecr_rt::Cluster cluster(cluster_spec(cfg_.ranks, sched.params));
  nvmecr_rt::Scheduler scheduler(cluster);
  auto job = scheduler.allocate(cfg_.ranks, /*procs_per_node=*/1, 64_MiB,
                                sched.params.storage_nodes);
  if (!job.ok()) {
    out.status = job.status();
    return out;  // kInfra
  }
  auto deployed = resilience::deploy_resilient(
      cluster, scheduler, *job, {}, redundancy::Scheme::kPartner,
      /*retry_seed=*/sched.params.seed);
  if (!deployed.ok()) {
    out.status = deployed.status();
    return out;  // kInfra
  }
  resilience::ResilientSystem& sys = **deployed;
  out.faults = apply_schedule(cluster, sched, subset);
  // The daemons stop at horizon + kHealMargin, which must stay below the
  // run deadline (see AppRunParams::deadline).
  sys.spawn_daemons(sched.params.horizon + kHealMargin);

  AppDriver driver(cluster, sys, *spec, campaign_params(cfg_));
  const KillSpec kill = out.faults.kill.value_or(KillSpec{});
  sim::Engine& eng = cluster.engine();
  const SimTime t0 = eng.now();
  auto finish = [&](Verdict v, Status st) {
    out.verdict = v;
    out.status = std::move(st);
    out.run_time = eng.now() - t0;
    return out;
  };

  auto classify = [](const Status& s) {
    return s.code() == ErrorCode::kDeadlineExceeded ? Verdict::kHang
                                                    : Verdict::kTypedFailure;
  };

  // Corruption gate, shared by every non-hang path. A hang poisons the
  // engine (stuck coroutine frames), so only non-hang paths may run it.
  auto fsck_gate = [&]() -> std::optional<RunOutcome> {
    auto quiesced = eng.try_run_task(quiesce_wrap(sys));
    if (!quiesced.has_value()) {
      return finish(Verdict::kHang, DeadlineExceededError("quiesce hung"));
    }
    auto report = eng.try_run_task(sys.fsck_all());
    if (!report.has_value()) {
      return finish(Verdict::kHang, DeadlineExceededError("fsck hung"));
    }
    if (!report->ok()) {
      // Unreachable instances can't be scanned; their on-device content
      // is intact (crash windows don't mutate the payload store). Only
      // an fsck that RAN and found issues is corruption.
      if (is_retryable(report->status().code())) return std::nullopt;
      return finish(Verdict::kCorruption, report->status());
    }
    if (!(*report)->empty()) {
      std::string msg = "fsck issues:";
      for (const std::string& i : **report) msg += " [" + i + "]";
      return finish(Verdict::kCorruption, CorruptionError(msg));
    }
    return std::nullopt;
  };

  auto ran = driver.run(kill);
  if (!ran.ok()) {
    const Verdict v = classify(ran.status());
    if (v == Verdict::kHang) return finish(v, ran.status());
    if (auto bad = fsck_gate()) return *bad;
    return finish(v, ran.status());
  }

  // Restart through each rank's own session (its ResilientClient routes
  // degraded files to the spare) and verify against golden — run()
  // either completed or was killed by the schedule's job kill; both
  // must restart digest-identical.
  auto restored = driver.restart();
  if (!restored.ok()) {
    const Verdict v = classify(restored.status());
    if (v == Verdict::kHang) return finish(v, restored.status());
    if (auto bad = fsck_gate()) return *bad;
    return finish(v, restored.status());
  }
  out.restored_epoch = restored->restored_epoch;
  out.from_initial = restored->from_initial;

  if (auto bad = fsck_gate()) return *bad;

  Status verdict = workloads::verify_restart(gold, *restored);
  if (!verdict.ok()) return finish(Verdict::kDivergence, verdict);
  return finish(Verdict::kCompleted, OkStatus());
}

CampaignResult CampaignRunner::run_campaign(uint32_t schedules, bool shrink,
                                            std::FILE* csv, bool verbose) {
  CampaignResult res;
  if (csv != nullptr) {
    std::fprintf(csv,
                 "run,seed,verdict,events,applied,kills,restored_epoch,"
                 "from_initial,sim_ns,detail\n");
  }
  for (uint32_t i = 0; i < schedules; ++i) {
    FailureSchedule sched = generate_schedule(schedule_params(i));
    RunOutcome out = run_schedule(sched);
    ++res.runs;
    switch (out.verdict) {
      case Verdict::kCompleted: ++res.completed; break;
      case Verdict::kTypedFailure: ++res.typed_failures; break;
      case Verdict::kHang: ++res.hangs; break;
      case Verdict::kCorruption: ++res.corruptions; break;
      case Verdict::kDivergence: ++res.divergences; break;
      case Verdict::kInfra: ++res.infra; break;
    }
    if (csv != nullptr) {
      std::fprintf(csv, "%u,0x%llx,%s,%zu,%u,%u,%d,%d,%lld,\"%s\"\n", i,
                   static_cast<unsigned long long>(out.schedule_seed),
                   verdict_name(out.verdict), sched.events.size(),
                   out.faults.applied, out.faults.kill.has_value() ? 1 : 0,
                   static_cast<int>(out.restored_epoch),
                   out.from_initial ? 1 : 0,
                   static_cast<long long>(out.run_time),
                   out.status.ok() ? "" : out.status.to_string().c_str());
    }
    if (verbose) {
      std::printf("run %4u seed 0x%llx: %-13s (%u faults%s)%s%s\n", i,
                  static_cast<unsigned long long>(out.schedule_seed),
                  verdict_name(out.verdict), out.faults.applied,
                  out.faults.kill.has_value() ? " + job kill" : "",
                  out.status.ok() ? "" : " — ",
                  out.status.ok() ? "" : out.status.to_string().c_str());
    }
    if (out.violation()) {
      res.first_violation = out;
      res.violating_schedule = sched;
      if (shrink) {
        const Verdict target = out.verdict;
        std::vector<uint32_t> ids;
        for (const FailureEvent& e : sched.events) ids.push_back(e.id);
        res.minimal_subset = ddmin(ids, [&](const std::vector<uint32_t>& s) {
          return run_schedule(sched, &s).verdict == target;
        });
      }
      break;  // the campaign is a gate: stop at the first violation
    }
  }
  return res;
}

std::vector<uint32_t> ddmin(
    std::vector<uint32_t> ids,
    const std::function<bool(const std::vector<uint32_t>&)>& fails) {
  // Does the violation even need events? (An empty-subset failure means
  // the harness itself is broken — still the minimal answer.)
  if (fails({})) return {};
  size_t n = 2;
  while (ids.size() >= 2) {
    const size_t chunk = (ids.size() + n - 1) / n;
    bool reduced = false;
    // Try each chunk alone.
    for (size_t i = 0; i < n && !reduced; ++i) {
      const size_t lo = std::min(i * chunk, ids.size());
      const size_t hi = std::min(lo + chunk, ids.size());
      if (lo >= hi || hi - lo == ids.size()) continue;
      std::vector<uint32_t> sub(ids.begin() + static_cast<long>(lo),
                                ids.begin() + static_cast<long>(hi));
      if (fails(sub)) {
        ids = std::move(sub);
        n = 2;
        reduced = true;
      }
    }
    if (reduced) continue;
    // Try each complement.
    for (size_t i = 0; i < n && !reduced; ++i) {
      const size_t lo = std::min(i * chunk, ids.size());
      const size_t hi = std::min(lo + chunk, ids.size());
      if (lo >= hi || hi - lo == 0) continue;
      std::vector<uint32_t> rest;
      rest.insert(rest.end(), ids.begin(), ids.begin() + static_cast<long>(lo));
      rest.insert(rest.end(), ids.begin() + static_cast<long>(hi), ids.end());
      if (rest.size() < ids.size() && !rest.empty() && fails(rest)) {
        ids = std::move(rest);
        n = std::max<size_t>(n - 1, 2);
        reduced = true;
      }
    }
    if (reduced) continue;
    if (n >= ids.size()) break;
    n = std::min(ids.size(), n * 2);
  }
  return ids;
}

namespace {

/// " --app A --ranks N", each only when `cfg` differs from the default.
std::string workload_flags(const CampaignConfig& cfg) {
  const CampaignConfig def;
  std::string flags;
  if (cfg.app != def.app) flags += " --app " + cfg.app;
  if (cfg.ranks != def.ranks) flags += " --ranks " + std::to_string(cfg.ranks);
  return flags;
}

}  // namespace

std::string reproducer_line(const CampaignConfig& cfg,
                            const FailureSchedule& sched,
                            const std::vector<uint32_t>& subset) {
  char seed[32];
  std::snprintf(seed, sizeof(seed), "0x%llx",
                static_cast<unsigned long long>(sched.params.seed));
  std::string line =
      std::string("chaos_campaign --replay-seed ") + seed + workload_flags(cfg);
  if (cfg.epochs != CampaignConfig().epochs) {
    line += " --epochs " + std::to_string(cfg.epochs);
  }
  if (!subset.empty() && subset.size() < sched.events.size()) {
    line += " --events ";
    for (size_t i = 0; i < subset.size(); ++i) {
      if (i > 0) line += ",";
      line += std::to_string(subset[i]);
    }
  }
  return line;
}

CampaignConfig replay_config(CampaignConfig cfg,
                             const FailureSchedule& sched) {
  cfg.epochs = sched.params.epochs;
  return cfg;
}

std::string replay_file_line(const CampaignConfig& cfg,
                             const std::string& path) {
  return "chaos_campaign --replay " + path + workload_flags(cfg);
}

}  // namespace nvmecr::chaos
