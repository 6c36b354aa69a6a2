// Chaos campaign driver (DESIGN.md §17): generate N seeded failure
// schedules, run each against the app-workload kill-and-restart harness
// on the full resilient stack, and enforce the survival trichotomy —
// every run completes digest-identical after restart OR fails with a
// typed error; hangs, fsck corruption, and digest divergence are
// violations. On the first violation the campaign ddmin-shrinks the
// schedule and prints a minimal {seed, event-subset} reproducer
// (crash_explore parity), plus dumps the schedule for `--replay FILE`.
//
// Run:  ./build/examples/chaos_campaign --schedules 200
//       ./build/examples/chaos_campaign --quick           (50 schedules)
//       ./build/examples/chaos_campaign --replay-seed 17 --events 0,3,5
//       ./build/examples/chaos_campaign --replay storm.schedule  (its epochs)
//       ./build/examples/chaos_campaign --dump 3 --dump-to s.schedule
//
// Exit codes (shared with fault_storm / restart_verify, chaos/campaign.h):
//   0 ok, 1 infra, 2 usage, 3 typed failure (replay only), 4 hang,
//   5 divergence, 6 corruption.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/campaign.h"

using namespace nvmecr;
using namespace nvmecr::chaos;

namespace {

struct Cli {
  uint32_t schedules = 200;
  CampaignConfig cfg;  // --seed, --app, --ranks, --epochs
  bool quick = false;
  bool verbose = false;
  bool no_shrink = false;
  std::string csv = std::string(NVMECR_OUTPUT_DIR) + "/chaos_campaign.csv";
  std::string dump_to =
      std::string(NVMECR_OUTPUT_DIR) + "/chaos_violation.schedule";
  // Replay / dump modes.
  long long replay_seed = -1;
  std::string events;       // comma-separated event ids, with --replay-seed
  std::string replay_file;  // serialized schedule
  long long dump_index = -1;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--schedules N] [--seed S] [--quick] [--verbose]\n"
               "          [--app NAME] [--ranks N] [--epochs N] [--csv FILE]\n"
               "          [--no-shrink] [--dump-to FILE]\n"
               "          [--replay-seed S [--events i,j,...]]\n"
               "          [--replay FILE] [--dump INDEX]\n",
               argv0);
  return kExitUsage;
}

std::vector<uint32_t> parse_ids(const std::string& csv) {
  std::vector<uint32_t> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) {
      out.push_back(static_cast<uint32_t>(std::strtoul(tok.c_str(), nullptr, 0)));
    }
  }
  return out;
}

void print_schedule(const FailureSchedule& sched) {
  std::printf("schedule seed 0x%llx: %zu events over %lld ns\n",
              static_cast<unsigned long long>(sched.params.seed),
              sched.events.size(),
              static_cast<long long>(sched.params.horizon));
  for (const FailureEvent& e : sched.events) {
    std::printf("  [%2u] %-12s victim %2u at %9lld until %9lld%s%s\n", e.id,
                fault_kind_name(e.kind), e.victim,
                static_cast<long long>(e.at),
                static_cast<long long>(e.until),
                e.kind == FaultKind::kStraggler ? " slow" : "",
                e.kind == FaultKind::kJobKill
                    ? workloads::kill_point_name(e.kill_point)
                    : "");
  }
}

/// Replay one schedule (optionally an event subset) and report.
int replay(CampaignRunner& runner, const FailureSchedule& sched,
           const std::vector<uint32_t>* subset) {
  print_schedule(sched);
  RunOutcome out = runner.run_schedule(sched, subset);
  std::printf("verdict: %s%s%s (faults applied: %u, sim time %lld ns)\n",
              verdict_name(out.verdict), out.status.ok() ? "" : " — ",
              out.status.ok() ? "" : out.status.to_string().c_str(),
              out.faults.applied, static_cast<long long>(out.run_time));
  return verdict_exit_code(out.verdict);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--schedules") == 0 && (v = next())) {
      cli.schedules = static_cast<uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (std::strcmp(argv[i], "--seed") == 0 && (v = next())) {
      cli.cfg.base.seed = std::strtoull(v, nullptr, 0);
    } else if (std::strcmp(argv[i], "--app") == 0 && (v = next())) {
      cli.cfg.app = v;
    } else if (std::strcmp(argv[i], "--ranks") == 0 && (v = next())) {
      cli.cfg.ranks = static_cast<uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (std::strcmp(argv[i], "--epochs") == 0 && (v = next())) {
      cli.cfg.epochs = static_cast<uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (std::strcmp(argv[i], "--csv") == 0 && (v = next())) {
      cli.csv = v;
    } else if (std::strcmp(argv[i], "--dump-to") == 0 && (v = next())) {
      cli.dump_to = v;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      cli.quick = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      cli.verbose = true;
    } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
      cli.no_shrink = true;
    } else if (std::strcmp(argv[i], "--replay-seed") == 0 && (v = next())) {
      cli.replay_seed = std::strtoll(v, nullptr, 0);
    } else if (std::strcmp(argv[i], "--events") == 0 && (v = next())) {
      cli.events = v;
    } else if (std::strcmp(argv[i], "--replay") == 0 && (v = next())) {
      cli.replay_file = v;
    } else if (std::strcmp(argv[i], "--dump") == 0 && (v = next())) {
      cli.dump_index = std::strtoll(v, nullptr, 0);
    } else {
      return usage(argv[0]);
    }
  }
  const CampaignConfig& cfg = cli.cfg;
  if (cfg.ranks == 0 || cfg.epochs == 0 || cli.schedules == 0) {
    return usage(argv[0]);
  }
  if (cli.quick) cli.schedules = 50;

  CampaignRunner runner(cfg);

  // --dump INDEX: print + serialize schedule INDEX, no run.
  if (cli.dump_index >= 0) {
    FailureSchedule sched = generate_schedule(
        runner.schedule_params(static_cast<uint32_t>(cli.dump_index)));
    print_schedule(sched);
    std::ofstream out(cli.dump_to);
    out << serialize_schedule(sched);
    std::printf("schedule written to %s\n", cli.dump_to.c_str());
    return kExitOk;
  }

  // --replay FILE: parse a serialized schedule and run it once, with the
  // epochs of the campaign that dumped it.
  if (!cli.replay_file.empty()) {
    std::ifstream in(cli.replay_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", cli.replay_file.c_str());
      return kExitInfra;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    auto sched = parse_schedule(buf.str());
    if (!sched.ok()) {
      std::fprintf(stderr, "parse failed: %s\n",
                   sched.status().to_string().c_str());
      return kExitUsage;
    }
    CampaignRunner file_runner(replay_config(cfg, *sched));
    return replay(file_runner, *sched, nullptr);
  }

  // --replay-seed S [--events ...]: regenerate schedule with seed S.
  if (cli.replay_seed >= 0) {
    ScheduleParams sp = cfg.base;
    sp.seed = static_cast<uint64_t>(cli.replay_seed);
    sp.epochs = cfg.epochs;
    FailureSchedule sched = generate_schedule(sp);
    std::vector<uint32_t> subset = parse_ids(cli.events);
    return replay(runner, sched, cli.events.empty() ? nullptr : &subset);
  }

  // Campaign mode.
  std::FILE* csv = std::fopen(cli.csv.c_str(), "w");
  std::printf("chaos campaign: %u schedules, base seed 0x%llx, app %s, "
              "%u ranks x %u epochs\n",
              cli.schedules, static_cast<unsigned long long>(cfg.base.seed),
              cfg.app.c_str(), cfg.ranks, cfg.epochs);
  std::printf("schedule MTBF (crash classes): %.2f ms; survival deadline "
              "%lld ms/phase\n",
              schedule_mtbf(cfg.base) / kMillisecond,
              static_cast<long long>(kPhaseDeadline / kMillisecond));
  CampaignResult res =
      runner.run_campaign(cli.schedules, !cli.no_shrink, csv, cli.verbose);
  if (csv != nullptr) {
    std::fclose(csv);
    std::printf("per-run table: %s\n", cli.csv.c_str());
  }

  std::printf("\ncampaign: %u runs — %u completed digest-identical, "
              "%u typed failures, %u hangs, %u corruptions, "
              "%u divergences, %u infra\n",
              res.runs, res.completed, res.typed_failures, res.hangs,
              res.corruptions, res.divergences, res.infra);
  if (res.clean()) {
    std::printf("survival trichotomy: OK (no hangs, no corruption, "
                "no divergence in %u schedules)\n",
                res.runs);
    return kExitOk;
  }

  const RunOutcome& bad = *res.first_violation;
  std::fprintf(stderr, "VIOLATION: %s on schedule seed 0x%llx: %s\n",
               verdict_name(bad.verdict),
               static_cast<unsigned long long>(bad.schedule_seed),
               bad.status.to_string().c_str());
  std::vector<uint32_t> subset = res.minimal_subset;
  if (subset.empty() && !res.violating_schedule.events.empty()) {
    for (const FailureEvent& e : res.violating_schedule.events) {
      subset.push_back(e.id);
    }
  }
  std::fprintf(stderr, "minimal reproducer (%zu of %zu events):\n",
               subset.size(), res.violating_schedule.events.size());
  std::fprintf(stderr, "reproduce with: %s\n",
               reproducer_line(cfg, res.violating_schedule, subset).c_str());
  std::ofstream dump(cli.dump_to);
  dump << serialize_schedule(res.violating_schedule);
  std::fprintf(stderr, "schedule dumped to %s (replayable via %s)\n",
               cli.dump_to.c_str(),
               replay_file_line(cfg, cli.dump_to).c_str());
  return res.exit_code();
}
