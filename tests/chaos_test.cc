// Chaos subsystem tests (DESIGN.md §17): schedule generation is
// deterministic and bounded, the Weibull option actually clusters
// failures, serialization round-trips byte-identically, ddmin shrinks
// to a locally minimal subset against a synthetic oracle, the
// Young/Daly formulas match hand-computed values, the interval sweep's
// output is pinned, fsck_all is clean on a healthy run, and a small
// pinned-seed campaign upholds the survival trichotomy with
// deterministic outcomes across two sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "chaos/daly.h"
#include "chaos/inject.h"
#include "chaos/schedule.h"
#include "nvmecr/runtime.h"
#include "workloads/app_driver.h"
#include "workloads/apps.h"

namespace nvmecr {
namespace {

using namespace nvmecr::literals;
using chaos::CampaignConfig;
using chaos::CampaignResult;
using chaos::CampaignRunner;
using chaos::DomainModel;
using chaos::FailureEvent;
using chaos::FailureSchedule;
using chaos::FaultKind;
using chaos::MtbfDist;
using chaos::ScheduleParams;
using chaos::Verdict;

ScheduleParams busy_params(uint64_t seed) {
  ScheduleParams p;
  p.seed = seed;
  p.target.mtbf = 20.0 * kMillisecond;
  p.target.transient_prob = 0.8;
  p.ssd.mtbf = 30.0 * kMillisecond;
  p.ssd.dist = MtbfDist::kWeibull;
  p.link.mtbf = 25.0 * kMillisecond;
  p.straggler.mtbf = 40.0 * kMillisecond;
  p.partition.mtbf = 150.0 * kMillisecond;
  p.rack_burst_prob = 0.3;
  p.cascade_prob = 0.3;
  p.job_kill_prob = 1.0;
  return p;
}

// ---------------------------------------------------------------------------
// Schedule generation

TEST(ScheduleTest, SameSeedSameSchedule) {
  const FailureSchedule a = chaos::generate_schedule(busy_params(7));
  const FailureSchedule b = chaos::generate_schedule(busy_params(7));
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(chaos::serialize_schedule(a), chaos::serialize_schedule(b));
  // A different seed draws a different storm.
  const FailureSchedule c = chaos::generate_schedule(busy_params(8));
  EXPECT_NE(chaos::serialize_schedule(a), chaos::serialize_schedule(c));
}

TEST(ScheduleTest, EventsRespectBoundsAndOrdering) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const ScheduleParams p = busy_params(seed);
    const FailureSchedule s = chaos::generate_schedule(p);
    EXPECT_LE(s.events.size(), p.max_events);
    uint32_t kills = 0;
    for (size_t i = 0; i < s.events.size(); ++i) {
      const FailureEvent& e = s.events[i];
      EXPECT_EQ(e.id, static_cast<uint32_t>(i));  // stable shrinker keys
      if (e.kind == FaultKind::kJobKill) {
        ++kills;
        EXPECT_LT(e.victim, p.epochs);
      } else {
        EXPECT_GE(e.at, 0);
        EXPECT_LT(e.at, p.horizon);
        if (e.until != 0) {
          EXPECT_GT(e.until, e.at);  // 0 = permanent
        }
      }
      if (i > 0 && s.events[i - 1].kind != FaultKind::kJobKill &&
          e.kind != FaultKind::kJobKill) {
        EXPECT_LE(s.events[i - 1].at, e.at);
      }
      if (e.kind == FaultKind::kStraggler) {
        EXPECT_GE(e.factor, chaos::kStragglerFactorMin);
        EXPECT_LE(e.factor, chaos::kStragglerFactorMax);
      }
    }
    EXPECT_LE(kills, 1u);  // at most one process kill per schedule
  }
}

// Weibull shape < 1 clusters arrivals: the dispersion (variance/mean)
// of interarrival gaps must exceed the exponential's, aggregated over
// many seeds so the test is statistical but deterministic.
TEST(ScheduleTest, WeibullClustersFailures) {
  auto gap_dispersion = [](MtbfDist dist) {
    std::vector<double> gaps;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      ScheduleParams p;
      p.seed = seed;
      p.horizon = 400 * kMillisecond;
      p.storage_nodes = 1;  // one arrival process: gaps are meaningful
      p.racks = 1;
      p.target.mtbf = 20.0 * kMillisecond;
      p.target.dist = dist;
      p.target.weibull_shape = 0.5;
      p.max_events = 1000;
      const FailureSchedule s = chaos::generate_schedule(p);
      for (size_t i = 1; i < s.events.size(); ++i) {
        gaps.push_back(static_cast<double>(s.events[i].at - s.events[i - 1].at));
      }
    }
    double mean = 0;
    for (double g : gaps) mean += g;
    mean /= static_cast<double>(gaps.size());
    double var = 0;
    for (double g : gaps) var += (g - mean) * (g - mean);
    var /= static_cast<double>(gaps.size());
    return var / mean;
  };
  EXPECT_GT(gap_dispersion(MtbfDist::kWeibull),
            1.5 * gap_dispersion(MtbfDist::kExponential));
}

TEST(ScheduleTest, SerializeParseRoundTrip) {
  for (uint64_t seed : {1ull, 9ull, 0xDEADull}) {
    const FailureSchedule s = chaos::generate_schedule(busy_params(seed));
    const std::string text = chaos::serialize_schedule(s);
    auto parsed = chaos::parse_schedule(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    EXPECT_EQ(chaos::serialize_schedule(*parsed), text);
    EXPECT_EQ(parsed->params.seed, s.params.seed);
    EXPECT_EQ(parsed->params.horizon, s.params.horizon);
    ASSERT_EQ(parsed->events.size(), s.events.size());
    for (size_t i = 0; i < s.events.size(); ++i) {
      EXPECT_EQ(parsed->events[i].kind, s.events[i].kind);
      EXPECT_EQ(parsed->events[i].at, s.events[i].at);
      EXPECT_EQ(parsed->events[i].until, s.events[i].until);
      EXPECT_EQ(parsed->events[i].kill_point, s.events[i].kill_point);
    }
  }
  EXPECT_FALSE(chaos::parse_schedule("not a schedule\n").ok());
  EXPECT_FALSE(chaos::parse_schedule("# nvmecr chaos schedule v1\n"
                                     "event 0 bogus-kind 0 1 2 1.0 none\n")
                   .ok());
}

// A permanent event (until == 0 in the schedule file) stays armed for
// every fault kind: a replayed straggler keeps slowing its SSD just as a
// permanent link-down keeps the link down.
TEST(InjectTest, PermanentEventsStayArmed) {
  auto sched = chaos::parse_schedule(
      "# nvmecr chaos schedule v1\n"
      "event 0 straggler 0 1000 0 4.000000 none\n"
      "event 1 link-down 1 1000 0 1.000000 none\n");
  ASSERT_TRUE(sched.ok()) << sched.status().to_string();
  nvmecr_rt::ClusterSpec spec;
  spec.compute_nodes = 2;
  spec.storage_nodes = 2;
  nvmecr_rt::Cluster cluster(spec);
  const chaos::InjectionStats stats = chaos::apply_schedule(cluster, *sched);
  EXPECT_EQ(stats.stragglers, 1u);
  EXPECT_EQ(stats.link_downs, 1u);

  const SimTime t = 1'000'000'000'000;  // 10^12 ns
  EXPECT_EQ(cluster.storage_ssd(0).straggler_factor_at(t), 4.0);
  EXPECT_FALSE(cluster.network().link_up(cluster.storage_nodes()[1], t));
}

// A partition's victim r is the r-th storage rack, as the generator
// numbers them: victim 0 is the first storage rack (not the compute rack)
// and victim 3 the last of four.
TEST(InjectTest, PartitionVictimsNumberTheStorageRacks) {
  auto sched = chaos::parse_schedule(
      "# nvmecr chaos schedule v1\n"
      "event 0 partition 0 1000 5000 1.000000 none\n"
      "event 1 partition 3 1000 5000 1.000000 none\n");
  ASSERT_TRUE(sched.ok()) << sched.status().to_string();
  nvmecr_rt::ClusterSpec spec;
  spec.compute_nodes = 2;
  spec.storage_nodes = 8;
  spec.storage_racks = 4;
  nvmecr_rt::Cluster cluster(spec);
  EXPECT_EQ(chaos::apply_schedule(cluster, *sched).partitions, 2u);

  const std::vector<fabric::NodeId>& storage = cluster.storage_nodes();
  for (size_t i = 0; i < storage.size(); ++i) {
    SCOPED_TRACE(i);
    const bool partitioned = i < 2 || i >= 6;  // two nodes per rack
    EXPECT_EQ(cluster.network().link_up(storage[i], 2000), !partitioned);
    EXPECT_TRUE(cluster.network().link_up(storage[i], 5000));
  }
}

TEST(ScheduleTest, MtbfAggregatesCrashFamilies) {
  ScheduleParams p;
  p.storage_nodes = 8;
  p.racks = 4;
  p.target.mtbf = 400.0 * kMillisecond;
  p.ssd.mtbf = 800.0 * kMillisecond;
  // Rates add: 8/400 + 8/800 = 0.03 failures/ms across the fleet.
  EXPECT_NEAR(chaos::schedule_mtbf(p), kMillisecond / 0.03, 1.0);
  ScheduleParams off;
  off.target.mtbf = 0;
  off.ssd.mtbf = 0;
  off.partition.mtbf = 0;
  EXPECT_EQ(chaos::schedule_mtbf(off), static_cast<double>(off.horizon));
}

// ---------------------------------------------------------------------------
// ddmin shrinking

TEST(DdminTest, FindsMinimalSubsetAgainstSyntheticOracle) {
  // Failure requires {3, 11} together; everything else is noise.
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < 16; ++i) ids.push_back(i);
  uint32_t probes = 0;
  auto fails = [&probes](const std::vector<uint32_t>& subset) {
    ++probes;
    bool has3 = false;
    bool has11 = false;
    for (uint32_t id : subset) {
      has3 = has3 || id == 3;
      has11 = has11 || id == 11;
    }
    return has3 && has11;
  };
  const std::vector<uint32_t> minimal = chaos::ddmin(ids, fails);
  EXPECT_EQ(minimal, (std::vector<uint32_t>{3, 11}));
  EXPECT_LT(probes, 200u);  // quadratic worst case, far less here

  // Single-event culprit shrinks to exactly that event.
  auto fails_single = [](const std::vector<uint32_t>& subset) {
    return std::find(subset.begin(), subset.end(), 7u) != subset.end();
  };
  EXPECT_EQ(chaos::ddmin(ids, fails_single), (std::vector<uint32_t>{7}));

  // An unconditional failure (empty subset still fails) shrinks to {}.
  auto fails_always = [](const std::vector<uint32_t>&) { return true; };
  EXPECT_TRUE(chaos::ddmin(ids, fails_always).empty());
}

// ---------------------------------------------------------------------------
// Young / Daly

TEST(DalyTest, FormulasMatchHandComputedValues) {
  // M = 50, δ = 1 (any consistent unit): Young = sqrt(2*1*50) = 10.
  EXPECT_NEAR(chaos::young_interval(50.0, 1.0), 10.0, 1e-12);
  // Daly: x = sqrt(1/100) = 0.1 -> 10*(1 + 0.1/3 + 0.01/9) - 1.
  const double daly = 10.0 * (1.0 + 0.1 / 3.0 + 0.01 / 9.0) - 1.0;
  EXPECT_NEAR(chaos::daly_interval(50.0, 1.0), daly, 1e-12);
  // δ >= 2M: checkpointing can't pay for itself; clamp to M.
  EXPECT_EQ(chaos::daly_interval(10.0, 20.0), 10.0);
  EXPECT_EQ(chaos::daly_interval(10.0, 25.0), 10.0);
  // Daly's correction raises the interval above Young's for the same
  // inputs (the -δ term is more than offset only at large δ/M).
  EXPECT_GT(chaos::daly_interval(50.0, 1.0), 0.9 * chaos::young_interval(50.0, 1.0));
}

// The interval sweep behind bench/ext_chaos, pinned point by point: a
// changed sweep constant (MTBF, work, grid, reps, seed) moves δ, the
// grid or some point's epochs, failures or efficiency.
TEST(DalyTest, IntervalSweepIsPinned) {
  const chaos::SweepResult s = chaos::interval_sweep();
  EXPECT_EQ(std::llround(s.delta), 1'852'080);  // δ = 1.852 ms
  EXPECT_EQ(s.mtbf, 25.0 * kMillisecond);
  EXPECT_DOUBLE_EQ(s.young, 9623097.2145146709);
  EXPECT_DOUBLE_EQ(s.daly, 8427983.3164903559);
  struct Point {
    uint32_t epochs;
    uint32_t failures;
    double efficiency;
  };
  const Point want[] = {
      {32, 16, 0.55118266363553803}, {23, 14, 0.61287169785582452},
      {16, 13, 0.65803654849069937}, {11, 10, 0.70221656391762377},
      {8, 11, 0.69515285049969378},  {6, 12, 0.6830543732652461},
      {4, 10, 0.66398438324801679},
  };
  ASSERT_EQ(s.points.size(), std::size(want));
  for (size_t k = 0; k < s.points.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(s.points[k].epochs, want[k].epochs);
    EXPECT_EQ(s.points[k].failures, want[k].failures);
    EXPECT_DOUBLE_EQ(s.points[k].efficiency, want[k].efficiency);
  }
  EXPECT_DOUBLE_EQ(s.points[3].interval, s.daly);  // the grid's center
  EXPECT_EQ(s.computed_index, 3);
  EXPECT_EQ(s.best_index, 3);
}

// ---------------------------------------------------------------------------
// fsck over live runtimes

TEST(FsckAllTest, HealthyRunIsClean) {
  nvmecr_rt::ClusterSpec spec;
  spec.compute_nodes = 4;
  spec.storage_nodes = 4;
  spec.storage_racks = 2;
  nvmecr_rt::Cluster cluster(spec);
  nvmecr_rt::Scheduler sched(cluster);
  auto job = sched.allocate(4, 4, 64_MiB, spec.storage_nodes);
  ASSERT_TRUE(job.ok());
  nvmecr_rt::NvmecrSystem sys(cluster, *job, nvmecr_rt::RuntimeConfig{});

  const workloads::AppSpec* app = workloads::find_app("CoMD");
  ASSERT_NE(app, nullptr);
  workloads::AppRunParams p;
  p.ranks = 4;
  p.epochs = 3;
  p.stream_bytes = 1_MiB;
  workloads::AppDriver driver(cluster, sys, *app, p);
  auto r = driver.run();
  ASSERT_TRUE(r.ok()) << r.status().to_string();

  EXPECT_EQ(sys.live_clients(), 4u);
  auto issues = cluster.engine().run_task(sys.fsck_all());
  ASSERT_TRUE(issues.ok()) << issues.status().to_string();
  EXPECT_TRUE(issues->empty());
}

// ---------------------------------------------------------------------------
// Campaign

CampaignConfig quick_config() {
  CampaignConfig cfg;
  cfg.ranks = 4;
  cfg.epochs = 4;
  return cfg;
}

TEST(CampaignTest, QuickCampaignUpholdsTrichotomy) {
  CampaignRunner runner(quick_config());
  const CampaignResult res = runner.run_campaign(/*schedules=*/12);
  EXPECT_TRUE(res.clean()) << chaos::verdict_name(res.first_violation->verdict)
                           << ": " << res.first_violation->status.to_string();
  EXPECT_EQ(res.runs, 12u);
  EXPECT_EQ(res.hangs, 0u);
  EXPECT_EQ(res.corruptions, 0u);
  EXPECT_EQ(res.divergences, 0u);
  EXPECT_EQ(res.completed + res.typed_failures, res.runs);
  EXPECT_EQ(res.exit_code(), chaos::kExitOk);
}

TEST(CampaignTest, DefaultCampaignCompletesFirstSixSchedules) {
  // The default 4-rank x 5-epoch stack absorbs each of the first six
  // pinned-seed schedules and finishes digest-identical. Simulated time
  // is deterministic, so each outcome is pinned exactly (the first rows
  // of `chaos_campaign --seed 1`); a model change re-pins them and says
  // why.
  struct Pinned {
    SimDuration run_time;
    uint32_t restored_epoch;
    uint32_t applied;
  };
  const Pinned pinned[] = {
      {173'398'931, workloads::kNoRestoreEpoch, 6},
      {175'042'304, 1, 7},
      {175'026'364, 2, 6},
      {171'083'180, 4, 14},
      {173'198'358, 1, 14},
      {173'209'826, 1, 9},
  };
  CampaignRunner runner{CampaignConfig{}};
  for (uint32_t i = 0; i < 6; ++i) {
    SCOPED_TRACE(i);
    const chaos::RunOutcome out = runner.run_schedule(
        chaos::generate_schedule(runner.schedule_params(i)));
    EXPECT_EQ(out.verdict, Verdict::kCompleted) << out.status.to_string();
    EXPECT_EQ(out.run_time, pinned[i].run_time);
    EXPECT_EQ(out.restored_epoch, pinned[i].restored_epoch);
    EXPECT_EQ(out.from_initial,
              pinned[i].restored_epoch == workloads::kNoRestoreEpoch);
    EXPECT_EQ(out.faults.applied, pinned[i].applied);
  }
}

TEST(CampaignTest, OutcomesAreDeterministicAcrossRunners) {
  auto sweep = []() {
    CampaignRunner runner(quick_config());
    std::vector<Verdict> verdicts;
    std::vector<SimDuration> times;
    for (uint32_t i = 0; i < 6; ++i) {
      const FailureSchedule sched =
          chaos::generate_schedule(runner.schedule_params(i));
      const chaos::RunOutcome out = runner.run_schedule(sched);
      verdicts.push_back(out.verdict);
      times.push_back(out.run_time);
    }
    return std::make_pair(verdicts, times);
  };
  const auto a = sweep();
  const auto b = sweep();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);  // bit-identical sim timelines
}

TEST(CampaignTest, OverwhelmingScheduleYieldsTypedFailureNotViolation) {
  // Permanently crash every target: both partner domains die, the run
  // must surface the typed exhaustion — and the fsck gate still passes.
  CampaignRunner runner(quick_config());
  FailureSchedule sched;
  sched.params = runner.schedule_params(0);
  for (uint32_t n = 0; n < sched.params.storage_nodes; ++n) {
    FailureEvent e;
    e.id = n;
    e.kind = FaultKind::kTargetCrash;
    e.victim = n;
    e.at = 1 * kMillisecond;
    e.until = 0;  // permanent
    sched.events.push_back(e);
  }
  const chaos::RunOutcome out = runner.run_schedule(sched);
  EXPECT_EQ(out.verdict, Verdict::kTypedFailure)
      << out.status.to_string();
  EXPECT_FALSE(out.violation());
  EXPECT_EQ(chaos::verdict_exit_code(out.verdict), chaos::kExitTypedFailure);
}

// Schedule 0x186 leaves rank 0's spare target dead at the fsck gate.
// fsck cannot scan it and says so with a retryable status; the gate
// must not read that as corruption, so the run's typed failure stands.
TEST(CampaignTest, UnreachableSpareIsTypedFailureNotCorruption) {
  CampaignRunner runner{CampaignConfig{}};
  ScheduleParams p = runner.schedule_params(0);
  p.seed = 0x186;
  const chaos::RunOutcome out =
      runner.run_schedule(chaos::generate_schedule(p));
  EXPECT_EQ(out.verdict, Verdict::kTypedFailure) << out.status.to_string();
  EXPECT_FALSE(out.violation());
}

TEST(CampaignTest, SubsetRestrictsInjection) {
  CampaignRunner runner(quick_config());
  const FailureSchedule sched =
      chaos::generate_schedule(runner.schedule_params(3));
  ASSERT_GE(sched.events.size(), 2u);
  const std::vector<uint32_t> subset = {sched.events[0].id};
  const chaos::RunOutcome out = runner.run_schedule(sched, &subset);
  EXPECT_LE(out.faults.applied, 1u);
  EXPECT_FALSE(out.violation());
}

// A dumped schedule replays under the epochs of the campaign that dumped
// it: `--epochs 8 --dump 3` then `--replay` ends where `--replay-seed 4
// --epochs 8` does, not at the 5-epoch 171,083,180 ns.
TEST(CampaignTest, ReplayedFileRunsTheDumpingCampaignsEpochs) {
  CampaignConfig eight;
  eight.epochs = 8;
  CampaignRunner runner(eight);
  const FailureSchedule dumped =
      chaos::generate_schedule(runner.schedule_params(3));
  auto parsed = chaos::parse_schedule(chaos::serialize_schedule(dumped));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const CampaignConfig cfg = chaos::replay_config(CampaignConfig{}, *parsed);
  EXPECT_EQ(cfg.epochs, 8u);
  CampaignRunner replayer(cfg);
  const chaos::RunOutcome out = replayer.run_schedule(*parsed);
  EXPECT_EQ(out.verdict, Verdict::kCompleted) << out.status.to_string();
  EXPECT_EQ(out.run_time, 182'734'110);
  EXPECT_EQ(out.run_time, runner.run_schedule(dumped).run_time);
}

TEST(CampaignTest, ReplayFileLineAddsNonDefaultAppAndRanks) {
  CampaignConfig cfg;
  EXPECT_EQ(chaos::replay_file_line(cfg, "v.schedule"),
            "chaos_campaign --replay v.schedule");
  // The file carries the epochs; the app and ranks come from the flags.
  cfg.epochs = 8;
  cfg.ranks = 8;
  cfg.app = "miniFE-CG";
  EXPECT_EQ(chaos::replay_file_line(cfg, "v.schedule"),
            "chaos_campaign --replay v.schedule --app miniFE-CG --ranks 8");
}

TEST(CampaignTest, ReproducerLineNamesSeedAndSubset) {
  FailureSchedule sched;
  sched.params.seed = 0x2A;
  sched.events.resize(10);
  const CampaignConfig def;
  // Whole-schedule reproducer of a default campaign: just the seed.
  const std::string all = chaos::reproducer_line(
      def, sched, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_EQ(all, "chaos_campaign --replay-seed 0x2a");
  const std::string some = chaos::reproducer_line(def, sched, {1, 4, 7});
  EXPECT_EQ(some, "chaos_campaign --replay-seed 0x2a --events 1,4,7");

  // Flags that shape the run are replayed when they differ from the
  // default, and only then.
  CampaignConfig cfg;
  cfg.ranks = 8;
  cfg.epochs = 6;
  EXPECT_EQ(chaos::reproducer_line(cfg, sched, {1, 4, 7}),
            "chaos_campaign --replay-seed 0x2a --ranks 8 --epochs 6 "
            "--events 1,4,7");
  cfg.app = "miniFE-CG";
  cfg.ranks = def.ranks;
  EXPECT_EQ(chaos::reproducer_line(cfg, sched, {}),
            "chaos_campaign --replay-seed 0x2a --app miniFE-CG --epochs 6");
}

}  // namespace
}  // namespace nvmecr
