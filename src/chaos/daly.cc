#include "chaos/daly.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/rng.h"
#include "nvmecr/runtime.h"
#include "workloads/app_driver.h"
#include "workloads/apps.h"

namespace nvmecr::chaos {

using namespace nvmecr::literals;
using workloads::AppDriver;
using workloads::AppRunParams;
using workloads::AppSpec;
using workloads::KillPoint;
using workloads::KillSpec;

double young_interval(double mtbf, double ckpt_cost) {
  if (mtbf <= 0 || ckpt_cost <= 0) return mtbf;
  return std::sqrt(2.0 * ckpt_cost * mtbf);
}

double daly_interval(double mtbf, double ckpt_cost) {
  if (mtbf <= 0 || ckpt_cost <= 0) return mtbf;
  if (ckpt_cost >= 2.0 * mtbf) return mtbf;
  const double x = std::sqrt(ckpt_cost / (2.0 * mtbf));
  return std::sqrt(2.0 * ckpt_cost * mtbf) *
             (1.0 + x / 3.0 + x * x / 9.0) -
         ckpt_cost;
}

namespace {

constexpr const char* kApp = "CoMD";
constexpr uint32_t kRanks = 4;
constexpr uint64_t kSeed = 0x5EED;
/// Failure process MTBF (exponential interarrivals), ns.
constexpr double kMtbf = 25.0 * kMillisecond;
/// Total useful compute per experiment, ns (epochs = work / interval).
constexpr double kWork = 96.0 * kMillisecond;
/// Geometric grid: kGrid points, ratio kGridStep, centered on Daly.
constexpr uint32_t kGrid = 7;
constexpr double kGridStep = 1.4142135623730951;  // sqrt(2)
/// Independent failure streams averaged per grid point (common random
/// numbers: rep r uses the same stream at every interval).
constexpr uint32_t kReps = 4;
/// Kill/restart cycles bound per rep (runaway guard).
constexpr uint32_t kMaxCycles = 64;

/// Minimal clean stack for one experiment: failures in the Daly model
/// are process losses, so the storage side stays healthy and the "kill"
/// is the driver's own job-kill path.
struct SweepStack {
  nvmecr_rt::Cluster cluster;
  nvmecr_rt::Scheduler sched;
  std::optional<nvmecr_rt::JobAllocation> job;
  std::optional<nvmecr_rt::NvmecrSystem> fast;

  static nvmecr_rt::ClusterSpec make_spec() {
    nvmecr_rt::ClusterSpec s;
    s.compute_nodes = 4;
    s.storage_nodes = 4;
    s.storage_racks = 2;
    return s;
  }

  SweepStack() : cluster(make_spec()), sched(cluster) {
    auto j = sched.allocate(kRanks, /*procs_per_node=*/1, 256_MiB,
                            cluster.spec().storage_nodes);
    NVMECR_CHECK(j.ok());
    job = *j;
    fast.emplace(cluster, *job, nvmecr_rt::RuntimeConfig{});
  }
};

AppRunParams sweep_params(double interval, uint32_t epochs) {
  AppRunParams a;
  a.ranks = kRanks;
  a.epochs = epochs;
  a.compute_per_period = static_cast<SimDuration>(interval);
  a.seed = kSeed;
  return a;
}

/// One (interval, failure-stream) experiment: run with kills drawn from
/// the exponential stream, restart, repeat until all epochs complete.
/// Returns total sim time, or nullopt when the run misbehaved.
std::optional<double> run_experiment(const AppSpec& spec, double interval,
                                     uint32_t epochs, double delta,
                                     uint64_t stream_seed,
                                     uint32_t* failures) {
  SweepStack stack;
  AppDriver driver(stack.cluster, *stack.fast, spec,
                   sweep_params(interval, epochs));
  Rng rng(mix64(stream_seed ^ 0xFA17D0A1Full));
  auto draw = [&rng]() {
    return -kMtbf * std::log(std::max(rng.uniform01(), 1e-12));
  };
  const double epoch_wall = interval + delta;  // expected epoch time

  double total = 0;
  uint32_t start_epoch = 0;
  uint32_t cycles = 0;
  bool first = true;
  while (cycles <= kMaxCycles) {
    // Map the next failure time (ns into this phase) onto the epoch in
    // progress when it lands; the exponential process is memoryless, so
    // drawing afresh at each phase start is exact.
    const double next_fail = draw();
    const uint32_t kill_epoch =
        start_epoch + static_cast<uint32_t>(next_fail / epoch_wall);
    KillSpec kill;
    if (kill_epoch < epochs) {
      kill.epoch = kill_epoch;
      // Alternate rework extremes (lose a full interval vs. almost
      // none) so the average rework matches the model's I/2.
      kill.point = (cycles % 2 == 0) ? KillPoint::kBeforeCheckpoint
                                     : KillPoint::kAfterCheckpoint;
    }
    auto r = first ? driver.run(kill)
                   : driver.restart(workloads::RestorePlan{}, kill);
    first = false;
    if (!r.ok()) return std::nullopt;
    total += static_cast<double>(r->total_time);
    if (!r->killed) return total;
    ++cycles;
    if (failures != nullptr) ++*failures;
    // Newest committed epoch after a kill at e: e with kAfterCheckpoint
    // (resume at e+1), e-1 with kBeforeCheckpoint (resume at e).
    start_epoch =
        kill.point == KillPoint::kAfterCheckpoint ? kill.epoch + 1
        : kill.epoch > 0                          ? kill.epoch
                                                  : 0;
  }
  return std::nullopt;  // kMaxCycles exceeded: interval far too small
}

}  // namespace

SweepResult interval_sweep() {
  SweepResult out;
  out.mtbf = kMtbf;
  const AppSpec* found = workloads::find_app(kApp);
  NVMECR_CHECK(found != nullptr);
  AppSpec spec = *found;
  spec.jitter = 0;  // keep epoch wall time = I + delta exactly

  // Calibrate the per-epoch checkpoint overhead δ on the real stack: a
  // clean run's epoch wall time minus its compute interval (includes
  // the reductions and barrier — overhead the model charges to δ too).
  {
    const double cal_interval = 4.0 * kMillisecond;
    const uint32_t cal_epochs = 6;
    SweepStack stack;
    AppDriver driver(stack.cluster, *stack.fast, spec,
                     sweep_params(cal_interval, cal_epochs));
    auto r = driver.run();
    NVMECR_CHECK(r.ok());
    out.delta =
        static_cast<double>(r->total_time) / cal_epochs - cal_interval;
  }
  out.young = young_interval(kMtbf, out.delta);
  out.daly = daly_interval(kMtbf, out.delta);

  // Geometric grid centered on the Daly interval.
  const int center = static_cast<int>(kGrid) / 2;
  double best_eff = -1;
  for (uint32_t k = 0; k < kGrid; ++k) {
    const double interval =
        out.daly * std::pow(kGridStep, static_cast<int>(k) - center);
    const uint32_t epochs = std::max(
        2u, static_cast<uint32_t>(std::lround(kWork / interval)));
    SweepPoint pt;
    pt.interval = interval;
    pt.epochs = epochs;
    const double useful = static_cast<double>(epochs) * interval;
    double eff_sum = 0;
    uint32_t reps_ok = 0;
    for (uint32_t rep = 0; rep < kReps; ++rep) {
      auto total = run_experiment(spec, interval, epochs, out.delta,
                                  kSeed + rep, &pt.failures);
      if (!total.has_value() || *total <= 0) continue;
      eff_sum += useful / *total;
      ++reps_ok;
    }
    if (reps_ok > 0) pt.efficiency = eff_sum / reps_ok;
    if (pt.efficiency > best_eff) {
      best_eff = pt.efficiency;
      out.best_index = static_cast<int>(k);
    }
    out.points.push_back(pt);
  }
  // Grid point nearest the computed Daly interval (log distance).
  double best_dist = -1;
  for (uint32_t k = 0; k < kGrid; ++k) {
    const double d = std::fabs(std::log(out.points[k].interval / out.daly));
    if (best_dist < 0 || d < best_dist) {
      best_dist = d;
      out.computed_index = static_cast<int>(k);
    }
  }
  return out;
}

}  // namespace nvmecr::chaos
