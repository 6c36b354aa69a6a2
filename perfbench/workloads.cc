#include "workloads.h"

#include <chrono>
#include <memory>
#include <vector>

#include "baselines/models.h"
#include "bench_util.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "simcore/profile.h"
#include "traced_system.h"

namespace nvmecr::perfbench {

using nvmecr_rt::Cluster;

namespace {
double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

volatile uint64_t calibration_state = 1;
}  // namespace

double calibrate() {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(16384);  // 64 KiB: more than L1, less than L2
    uint64_t s = 9;
    for (uint32_t& v : t) {
      s = s * 6364136223846793005ull + 1;
      v = static_cast<uint32_t>(s >> 33);
    }
    return t;
  }();
  const size_t mask = table.size() - 1;
  uint64_t x = calibration_state;
  // Bring the table back into cache (the unit's own data evicts it), then
  // time a dependent walk that mixes loads and multiplies.
  for (size_t i = 0; i < table.size(); i += 16) x += table[i];
  const double t0 = now_s();
  for (int i = 0; i < 8000; ++i) {
    x = table[(x >> 7) & mask] + x * 6364136223846793005ull;
  }
  calibration_state = x;
  return now_s() - t0;
}

uint64_t fold(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

workloads::ComdParams comd_params(uint64_t seed, uint32_t nranks) {
  workloads::ComdParams p = bench::weak_scaling_params(nranks);
  if (seed != kDefaultSeed) {
    Rng rng(seed);
    p.atoms_per_rank -= rng.uniform(513);
  }
  return p;
}

namespace {

/// The observability stack of one traced job, shared by its arms.
struct Probe {
  sim::DispatchProfiler dispatch;
  obs::EpochProfiler epoch;
  obs::MetricsRegistry metrics;
  ClientStats client;
  uint64_t calendar_hits = 0;
  uint64_t frames = 0;
  uint64_t fabric_bytes = 0;
  uint64_t metadata_bytes = 0;
  SimDuration kernel_time = 0;
  microfs::MicroFsStats fs;  // NVMe-CR arms only

  obs::Observer observer() {
    obs::Observer o;
    o.metrics = &metrics;
    o.dispatch = &dispatch;
    o.epoch = &epoch;
    return o;
  }
};

/// Simulated outputs of one arm: total/recovery/per-checkpoint sim time,
/// fabric bytes and metadata bytes. Host time never enters it.
uint64_t arm_fingerprint(uint64_t h, const workloads::JobMetrics& m,
                         uint64_t fabric_bytes, uint64_t metadata_bytes) {
  h = fold(h, static_cast<uint64_t>(m.total_time));
  h = fold(h, static_cast<uint64_t>(m.recovery_time));
  for (SimDuration t : m.checkpoint_times) {
    h = fold(h, static_cast<uint64_t>(t));
  }
  h = fold(h, fabric_bytes);
  return fold(h, metadata_bytes);
}

enum class Arm { kNvmecr, kGluster, kOrange };

/// One system on a fresh cluster: build (timed as setup), run the CoMD
/// job, tear down (timed as wall). Comparator arms get the Lustre model
/// as second level, every 10th checkpoint.
void run_arm(Arm arm, const workloads::ComdParams& params, Probe* probe,
             bool setup_only, JobResult& r,
             std::vector<workloads::JobMetrics>& arms_out) {
  const double t0 = now_s();
  double t1 = 0;
  double mark = 0;  // start of the current piece
  {
    auto cluster = std::make_unique<Cluster>();
    if (probe != nullptr) cluster->install_observer(probe->observer());
    sim::Engine& eng = cluster->engine();
    nvmecr_rt::Scheduler sched(*cluster);
    std::unique_ptr<baselines::StorageSystem> pfs;
    std::unique_ptr<baselines::StorageSystem> system;
    nvmecr_rt::NvmecrSystem* nvmecr = nullptr;
    if (arm == Arm::kNvmecr) {
      auto job = sched.allocate(params.nranks, params.procs_per_node,
                                bench::partition_for(params), 8);
      if (!job.ok()) {
        r.ok = false;
        r.error = "allocate: " + job.status().to_string();
        return;
      }
      auto sys = std::make_unique<nvmecr_rt::NvmecrSystem>(
          *cluster, *job, bench::default_runtime_config());
      nvmecr = sys.get();
      system = std::move(sys);
    } else {
      pfs = std::make_unique<baselines::LustreModel>(*cluster);
      if (arm == Arm::kGluster) {
        system = std::make_unique<baselines::GlusterFsModel>(
            *cluster, params.nranks, params.procs_per_node);
      } else {
        system = std::make_unique<baselines::OrangeFsModel>(
            *cluster, params.nranks, params.procs_per_node);
      }
    }
    std::unique_ptr<TracedSystem> traced_system;
    std::unique_ptr<TracedSystem> traced_pfs;
    if (probe != nullptr) {
      traced_system =
          std::make_unique<TracedSystem>(eng, *system, probe->client);
      if (pfs) {
        traced_pfs = std::make_unique<TracedSystem>(eng, *pfs, probe->client);
      }
    }
    t1 = now_s();
    mark = t1;
    r.setup_s += t1 - t0;
    if (setup_only) return;  // teardown is not timed

    const uint64_t frames0 = sim::frame_allocations();
    baselines::StorageSystem& run_system =
        traced_system ? *traced_system : *system;
    baselines::StorageSystem* run_pfs =
        traced_pfs ? traced_pfs.get() : pfs.get();
    uint64_t seen = 0;
    eng.set_dispatch_probe([&](SimTime, uint64_t) {
      if (++seen % kWindowEvents == 0) {
        r.pieces_s.push_back(now_s() - mark);
        r.calib_s.push_back(calibrate());
        mark = now_s();
      }
    });
    auto m = workloads::ComdDriver::run(*cluster, run_system, params, run_pfs,
                                        pfs ? 10 : 0);
    eng.set_dispatch_probe(nullptr);
    if (probe != nullptr) probe->dispatch.finish();
    r.events += eng.events_dispatched();
    const uint64_t fabric = cluster->network().total_bytes_sent();
    const uint64_t metadata =
        system->metadata_bytes() + (pfs ? pfs->metadata_bytes() : 0);
    if (!m.ok()) {
      r.ok = false;
      if (r.error.empty()) {
        r.error = system->name() + ": " + m.status().to_string();
      }
    } else {
      // ComdDriver's restart reads are tag-verified by the systems that
      // can; also check that every rank read its whole newest checkpoint.
      const uint64_t want = static_cast<uint64_t>(params.nranks) *
                            params.rank_checkpoint_bytes();
      if (m->recovery_bytes != want ||
          m->checkpoint_times.size() != params.checkpoints) {
        r.ok = false;
        if (r.error.empty()) {
          r.error = system->name() + ": restart read " +
                    std::to_string(m->recovery_bytes) + " of " +
                    std::to_string(want) + " bytes";
        }
      }
      r.fingerprint = arm_fingerprint(r.fingerprint, *m, fabric, metadata);
      arms_out.push_back(std::move(*m));
    }
    if (probe != nullptr) {
      probe->calendar_hits += eng.calendar_hits();
      probe->frames += sim::frame_allocations() - frames0;
      probe->fabric_bytes += fabric;
      probe->metadata_bytes += metadata;
      probe->kernel_time +=
          system->kernel_time() + (pfs ? pfs->kernel_time() : 0);
      if (nvmecr != nullptr) {
        const microfs::MicroFsStats& s = nvmecr->aggregated_stats();
        probe->fs.data_bytes_written += s.data_bytes_written;
        probe->fs.payload_bytes_written += s.payload_bytes_written;
      }
    }
  }
  const double t2 = now_s();
  r.wall_s += t2 - t1;
  r.pieces_s.push_back(t2 - mark);
  r.calib_s.push_back(calibrate());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Fills r.layers from a traced job's probe and its arms' metrics.
void collect_layers(const Probe& p, const std::vector<workloads::JobMetrics>& arms,
                    JobResult& r) {
  auto& L = r.layers;
  std::map<std::string, const sim::DispatchProfiler::CostCenter*> centers;
  const auto ranked = p.dispatch.ranked();
  for (const auto& c : ranked) centers[c.name] = &c;
  const auto host_ms = [&](const std::string& name) {
    auto it = centers.find(name);
    return it == centers.end() ? 0.0 : it->second->wall_ns / 1e6;
  };
  const auto dispatches = [&](const std::string& name) {
    auto it = centers.find(name);
    return it == centers.end() ? 0.0
                               : static_cast<double>(it->second->dispatches);
  };
  const auto counter = [&](const char* name) {
    const obs::Counter* c = p.metrics.find_counter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value());
  };
  const double events = static_cast<double>(r.events);

  L["simcore.events"] = events;
  L["simcore.frames_per_event"] = ratio(static_cast<double>(p.frames), events);
  L["simcore.calendar_hit_frac"] =
      ratio(static_cast<double>(p.calendar_hits), events);

  L["nvmf.host_ms"] = host_ms("nvmf");
  L["nvmf.dispatches"] = dispatches("nvmf");

  L["microfs.host_ms"] = host_ms("microfs/data") + host_ms("microfs/oplog");
  L["microfs.oplog.appended"] = counter("microfs.oplog.appended");
  L["microfs.oplog.coalesced"] = counter("microfs.oplog.coalesced");
  L["microfs.oplog.bytes_written"] = counter("microfs.oplog.bytes_written");
  L["microfs.oplog.group_commits"] = counter("microfs.oplog.group_commits");
  L["microfs.pool.allocs"] = counter("microfs.pool.allocs");
  L["microfs.bptree.ops"] = counter("microfs.bptree.ops");
  const double payload = static_cast<double>(p.fs.payload_bytes_written);
  L["microfs.data_bytes_per_payload_byte"] =
      ratio(static_cast<double>(p.fs.data_bytes_written), payload);
  L["microfs.meta_bytes_per_payload_byte"] =
      payload > 0 ? ratio(static_cast<double>(p.metadata_bytes), payload) : 0;

  L["hw.ssd.host_ms"] = host_ms("hw/ssd");
  L["hw.ssd.dispatches"] = dispatches("hw/ssd");
  L["hw.payload.tag_reads"] = counter("payload.tag_reads");

  for (size_t i = 0; i < kNumReportedOps; ++i) {
    const auto op = static_cast<ClientOp>(i);
    const OpStats& s = p.client.ops[i];
    const std::string k = std::string("baselines.client.") + client_op_name(op);
    L[k + ".calls"] = static_cast<double>(s.calls);
    L[k + ".failed"] = static_cast<double>(s.failed);
    L[k + ".sim_p50_us"] = s.sim_ns.percentile(50) / 1e3;
    L[k + ".sim_p99_us"] = s.sim_ns.percentile(99) / 1e3;
    L[k + ".host_ms"] = host_ms(client_op_tag(op));
  }
  const double wbytes = static_cast<double>(p.client.write_bytes);
  const double rbytes = static_cast<double>(p.client.read_bytes);
  L["baselines.client.write.bytes"] = wbytes;
  L["baselines.client.read.bytes"] = rbytes;
  L["baselines.kernel_time_s"] = to_seconds(p.kernel_time);
  L["baselines.metadata_bytes_per_user_byte"] =
      ratio(static_cast<double>(p.metadata_bytes), wbytes);

  L["fabric.bytes_per_user_byte"] =
      ratio(static_cast<double>(p.fabric_bytes), wbytes + rbytes);

  // Model outputs: seconds summed over arms, ratios averaged.
  double total = 0, ckpt = 0, recovery = 0, ckpt_eff = 0, rec_eff = 0,
         progress = 0;
  for (const workloads::JobMetrics& m : arms) {
    total += to_seconds(m.total_time);
    ckpt += to_seconds(m.checkpoint_time);
    recovery += to_seconds(m.recovery_time);
    ckpt_eff += m.checkpoint_efficiency();
    rec_eff += m.recovery_efficiency();
    progress += m.progress_rate();
  }
  const double n = static_cast<double>(arms.size());
  L["workloads.sim_total_s"] = total;
  L["workloads.ckpt_s"] = ckpt;
  L["workloads.recovery_s"] = recovery;
  L["workloads.ckpt_eff"] = ratio(ckpt_eff, n);
  L["workloads.recovery_eff"] = ratio(rec_eff, n);
  L["workloads.progress_rate"] = ratio(progress, n);

  using Phase = obs::EpochProfiler::Phase;
  double phase_ns[obs::EpochProfiler::kNumPhases] = {};
  double all_ns = 0;
  for (size_t ph = 0; ph < obs::EpochProfiler::kNumPhases; ++ph) {
    for (uint32_t e = 0; e < p.epoch.epoch_count(); ++e) {
      phase_ns[ph] += static_cast<double>(
          p.epoch.phase_total_ns(e, static_cast<Phase>(ph)));
    }
    all_ns += phase_ns[ph];
  }
  for (Phase ph : {Phase::kSerialize, Phase::kOplog, Phase::kFabric,
                   Phase::kTargetQueue, Phase::kFlash, Phase::kBarrier}) {
    L[std::string("obs.epoch.") + obs::EpochProfiler::phase_name(ph) +
      ".share"] = ratio(phase_ns[static_cast<size_t>(ph)], all_ns);
  }
  L["obs.untagged_host_frac"] =
      ratio(host_ms("(untagged)"),
            static_cast<double>(p.dispatch.total_wall_ns()) / 1e6);
}

}  // namespace

JobResult run_comd_job(ComdWorkload workload,
                       const workloads::ComdParams& params, bool traced,
                       bool setup_only) {
  JobResult r;
  r.ok = true;
  r.fingerprint = kFoldBasis;
  std::unique_ptr<Probe> probe = traced ? std::make_unique<Probe>() : nullptr;
  std::vector<workloads::JobMetrics> arms;
  if (workload == ComdWorkload::kNvmecrWeak) {
    run_arm(Arm::kNvmecr, params, probe.get(), setup_only, r, arms);
  } else {
    run_arm(Arm::kGluster, params, probe.get(), setup_only, r, arms);
    if (r.ok) run_arm(Arm::kOrange, params, probe.get(), setup_only, r, arms);
  }
  if (probe && r.ok && !setup_only) collect_layers(*probe, arms, r);
  return r;
}

ChaosWorkload::ChaosWorkload(uint64_t base_seed)
    : runner_([&] {
        chaos::CampaignConfig cfg;
        cfg.base.seed = base_seed;
        return cfg;
      }()) {
  const double t0 = now_s();
  (void)runner_.golden();
  setup_s_ = now_s() - t0;
}

ChaosWorkload::Unit ChaosWorkload::run(uint32_t index) {
  Unit u;
  const double t0 = now_s();
  const chaos::FailureSchedule sched =
      chaos::generate_schedule(runner_.schedule_params(index));
  u.outcome = runner_.run_schedule(sched);
  u.wall_s = now_s() - t0;
  u.calib_s = calibrate();
  return u;
}

uint64_t outcome_fingerprint(const chaos::RunOutcome& o) {
  uint64_t h = fold(kFoldBasis, o.schedule_seed);
  h = fold(h, static_cast<uint64_t>(o.verdict));
  h = fold(h, static_cast<uint64_t>(o.run_time));
  h = fold(h, o.restored_epoch);
  h = fold(h, o.from_initial ? 1 : 0);
  return fold(h, o.faults.applied);
}

}  // namespace nvmecr::perfbench
