// Restart verification harness (DESIGN.md §16): run an app-workload
// model to completion (golden), run it again with a kill at a chosen
// epoch — before, in the middle of, or after its checkpoint — restore
// from the requested recovery path, resume, and assert that every
// post-restore residual and every final rank digest is bit-identical
// to the golden run.
//
// Run:  ./build/examples/restart_verify
//       ./build/examples/restart_verify --app miniFE-CG --kill-point mid
//       ./build/examples/restart_verify --app all --kill-point all --path pfs
//
// --app all runs the three modeled shapes (CoMD, miniFE-CG, NPB-SP);
// --kill-point all runs the whole kill-point matrix. A golden-vs-
// restored residual table is written to --csv (CI uploads it as an
// artifact). Exits with the unified chaos codes (chaos/campaign.h):
// 0 all scenarios verified, 1 infra, 2 usage, 3 a run failed with a
// typed error, 5 restored digests/residuals diverged from golden; the
// matrix keeps going and reports the worst code seen.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "baselines/models.h"
#include "chaos/campaign.h"
#include "nvmecr/runtime.h"
#include "workloads/app_driver.h"
#include "workloads/apps.h"

using namespace nvmecr;
using namespace nvmecr::literals;
using workloads::AppDriver;
using workloads::AppRunParams;
using workloads::AppRunResult;
using workloads::AppSpec;
using workloads::KillPoint;
using workloads::KillSpec;
using workloads::RestorePlan;

namespace {

struct Cli {
  std::string app = "all";
  std::string kill_point = "mid";
  std::string path = "fast";  // fast | pfs
  uint32_t ranks = 8;
  uint32_t epochs = 6;
  uint32_t kill_epoch = 3;
  uint64_t seed = 0x5EED;
  std::string csv = std::string(NVMECR_OUTPUT_DIR) + "/restart_verify.csv";
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--app NAME|all] [--ranks N] [--epochs N]\n"
               "          [--kill-epoch K] [--kill-point before|mid|after|all]\n"
               "          [--path fast|pfs] [--seed N] [--csv FILE]\n",
               argv0);
  return chaos::kExitUsage;
}

/// One self-contained simulation stack. Golden and killed runs each get
/// their own: the model state evolution is sim-time-independent, so
/// results compare bit-for-bit across stacks, and separate stacks keep
/// the killed run's checkpoint files from colliding with the golden's.
struct Stack {
  nvmecr_rt::Cluster cluster;
  nvmecr_rt::Scheduler sched;
  std::optional<nvmecr_rt::JobAllocation> job;
  std::optional<nvmecr_rt::NvmecrSystem> fast;
  std::optional<baselines::LustreModel> pfs;

  static nvmecr_rt::ClusterSpec make_spec() {
    nvmecr_rt::ClusterSpec s;
    s.compute_nodes = 4;
    s.storage_nodes = 4;
    s.storage_racks = 2;
    return s;
  }

  Stack(uint32_t ranks, bool with_pfs)
      : cluster(make_spec()), sched(cluster) {
    auto j = sched.allocate(ranks, /*procs_per_node=*/ranks, 64_MiB,
                            cluster.spec().storage_nodes);
    if (!j.ok()) {
      std::fprintf(stderr, "allocate failed: %s\n",
                   j.status().to_string().c_str());
      std::exit(chaos::kExitInfra);
    }
    job = *j;
    fast.emplace(cluster, *job, nvmecr_rt::RuntimeConfig{});
    if (with_pfs) pfs.emplace(cluster, ranks);
  }
};

AppRunParams scenario_params(const Cli& cli, bool with_pfs) {
  AppRunParams p;
  p.ranks = cli.ranks;
  p.epochs = cli.epochs;
  p.seed = cli.seed;
  p.pfs_interval = with_pfs ? 2 : 0;
  return p;
}

/// Maps a failed run's Status to the unified exit-code class.
int failure_code(const Status& st) {
  return st.code() == ErrorCode::kDeadlineExceeded ? chaos::kExitHang
                                                   : chaos::kExitTypedFailure;
}

/// Golden run, killed run, restore through the chosen path, verify.
/// Returns kExitOk on bit-identical digests + residuals.
int run_scenario(const AppSpec& spec, KillPoint point, const Cli& cli,
                 std::FILE* csv) {
  const bool with_pfs = cli.path == "pfs";
  const uint32_t kill_epoch =
      cli.kill_epoch < cli.epochs ? cli.kill_epoch : cli.epochs - 1;
  std::printf("--- %s: kill %s at epoch %u, restore via %s ---\n", spec.name,
              workloads::kill_point_name(point), kill_epoch,
              cli.path.c_str());

  Stack golden_stack(cli.ranks, with_pfs);
  AppDriver golden_driver(golden_stack.cluster, *golden_stack.fast, spec,
                          scenario_params(cli, with_pfs),
                          with_pfs ? &*golden_stack.pfs : nullptr);
  auto golden = golden_driver.run();
  if (!golden.ok()) {
    std::fprintf(stderr, "FAIL: golden run: %s\n",
                 golden.status().to_string().c_str());
    return failure_code(golden.status());
  }

  Stack stack(cli.ranks, with_pfs);
  AppDriver driver(stack.cluster, *stack.fast, spec,
                   scenario_params(cli, with_pfs),
                   with_pfs ? &*stack.pfs : nullptr);
  KillSpec kill;
  kill.epoch = kill_epoch;
  kill.point = point;
  auto killed = driver.run(kill);
  if (!killed.ok()) {
    std::fprintf(stderr, "FAIL: killed run: %s\n",
                 killed.status().to_string().c_str());
    return failure_code(killed.status());
  }

  RestorePlan plan;
  if (with_pfs) {
    // PFS-only chain: tier tags confine the probe to PFS-routed epochs,
    // exactly what survives when the whole fast tier is gone.
    plan.chain = [&driver](uint32_t rank) {
      return std::vector<nvmecr_rt::RestoreSource>{
          {driver.pfs_session(rank), true}};
    };
    plan.resume_checkpoints = false;
  }
  auto restored = driver.restart(plan);
  if (!restored.ok()) {
    std::fprintf(stderr, "FAIL: restart: %s\n",
                 restored.status().to_string().c_str());
    return failure_code(restored.status());
  }
  if (restored->from_initial) {
    std::printf("no committed checkpoint: restarted from initial state\n");
  } else {
    std::printf("restored epoch %u from %s, resumed %zu epochs\n",
                restored->restored_epoch, cli.path.c_str(),
                restored->residuals.size());
  }

  std::printf("%-6s  %-24s  %-24s\n", "epoch", "golden residual",
              "restored residual");
  for (uint32_t e = 0; e < golden->residuals.size(); ++e) {
    const double g = golden->residuals[e];
    const bool have = e >= restored->first_epoch &&
                      e - restored->first_epoch < restored->residuals.size();
    const double r = have ? restored->residuals[e - restored->first_epoch] : 0;
    std::printf("%-6u  %-24.17g  ", e, g);
    if (have) {
      std::printf("%-24.17g%s\n", r, r == g ? "" : "  <-- DIVERGED");
    } else {
      std::printf("%-24s\n", "(before restore)");
    }
    if (csv != nullptr) {
      std::fprintf(csv, "%s,%s,%s,%u,%.17g,", spec.name,
                   workloads::kill_point_name(point), cli.path.c_str(), e, g);
      if (have) std::fprintf(csv, "%.17g", r);
      std::fprintf(csv, "\n");
    }
  }

  const Status st = workloads::verify_restart(*golden, *restored);
  if (!st.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", st.to_string().c_str());
    return chaos::kExitDivergence;
  }
  std::printf("OK: job digest %016llx matches golden (%u ranks)\n\n",
              static_cast<unsigned long long>(restored->job_digest),
              cli.ranks);
  return chaos::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--app") == 0 && (v = next())) {
      cli.app = v;
    } else if (std::strcmp(argv[i], "--kill-point") == 0 && (v = next())) {
      cli.kill_point = v;
    } else if (std::strcmp(argv[i], "--path") == 0 && (v = next())) {
      cli.path = v;
    } else if (std::strcmp(argv[i], "--ranks") == 0 && (v = next())) {
      cli.ranks = static_cast<uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (std::strcmp(argv[i], "--epochs") == 0 && (v = next())) {
      cli.epochs = static_cast<uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (std::strcmp(argv[i], "--kill-epoch") == 0 && (v = next())) {
      cli.kill_epoch = static_cast<uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (std::strcmp(argv[i], "--seed") == 0 && (v = next())) {
      cli.seed = std::strtoull(v, nullptr, 0);
    } else if (std::strcmp(argv[i], "--csv") == 0 && (v = next())) {
      cli.csv = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (cli.ranks == 0 || cli.epochs == 0 ||
      (cli.path != "fast" && cli.path != "pfs")) {
    return usage(argv[0]);
  }

  std::vector<const AppSpec*> apps;
  if (cli.app == "all") {
    for (const char* name : {"CoMD", "miniFE-CG", "NPB-SP"}) {
      apps.push_back(workloads::find_app(name));
    }
  } else {
    const AppSpec* spec = workloads::find_app(cli.app);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown app '%s'; registered:", cli.app.c_str());
      for (const auto& s : workloads::app_registry()) {
        std::fprintf(stderr, " %s", s.name);
      }
      std::fprintf(stderr, "\n");
      return chaos::kExitUsage;
    }
    apps.push_back(spec);
  }

  std::vector<KillPoint> points;
  if (cli.kill_point == "all") {
    points = {KillPoint::kBeforeCheckpoint, KillPoint::kMidCheckpoint,
              KillPoint::kAfterCheckpoint};
  } else if (cli.kill_point == "before") {
    points = {KillPoint::kBeforeCheckpoint};
  } else if (cli.kill_point == "mid") {
    points = {KillPoint::kMidCheckpoint};
  } else if (cli.kill_point == "after") {
    points = {KillPoint::kAfterCheckpoint};
  } else {
    return usage(argv[0]);
  }

  std::FILE* csv = std::fopen(cli.csv.c_str(), "w");
  if (csv != nullptr) {
    std::fprintf(csv,
                 "app,kill_point,path,epoch,golden_residual,"
                 "restored_residual\n");
  }

  int rc = chaos::kExitOk;
  int scenarios = 0;
  for (const AppSpec* spec : apps) {
    for (KillPoint point : points) {
      // Keep the worst outcome class: divergence dominates typed failure.
      rc = std::max(rc, run_scenario(*spec, point, cli, csv));
      ++scenarios;
    }
  }
  if (csv != nullptr) {
    std::fclose(csv);
    std::printf("residual table: %s\n", cli.csv.c_str());
  }
  std::printf(rc == chaos::kExitOk
                  ? "restart verification: %d/%d scenarios OK\n"
                      : "restart verification: FAILURES in %d scenarios\n",
              scenarios, scenarios);
  return rc;
}
