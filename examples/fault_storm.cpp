// Fault-storm demo: kill K of the job's primary NVMe-oF targets in the
// middle of a CoMD-style checkpoint run and watch the resilience layer
// (DESIGN.md §13) absorb it — detection, retry, mid-checkpoint failover
// to a partner-domain spare, degraded completion, background healing
// once the targets come back, restart from the fast tier with no PFS
// deployed at all.
//
// Run:  ./build/examples/fault_storm --kill 2 --at mid-checkpoint
//       ./build/examples/fault_storm --kill 1 --at 5000000 --recover-at 0
//       ./build/examples/fault_storm --kill 2 --offload
//
// --offload layers the target-side offload pipeline (digest stage) on
// top of the resilient system: the storm then also revokes the victims'
// offload grants, and the demo verifies the stages fell back to host
// compute while the checkpoint stream kept flowing.
//
// Exits with the unified chaos codes (chaos/campaign.h): 0 absorbed,
// 1 infra or an absorb invariant failed, 2 usage, 3 the run failed with
// a typed error — and on any failure prints a single reproducing
// command line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "nvmecr/runtime.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "offload/pipeline.h"
#include "resilience/failover.h"
#include "simcore/trace.h"
#include "workloads/comd.h"

using namespace nvmecr;
using namespace nvmecr::literals;

namespace {

struct Cli {
  uint32_t kill = 2;
  uint32_t ranks = 8;
  /// Kill time; 0 = "mid-checkpoint" (just after the first compute
  /// phase, while checkpoint IO is in flight).
  SimTime at = 0;
  /// Recovery time; 0 = kill + 57 ms. Pass a negative value to keep the
  /// targets dead forever (degraded completion only, no healing).
  SimTime recover_at = 0;
  uint64_t seed = 42;
  /// Wrap the resilient system in the offload pipeline (digest stage).
  bool offload = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--kill K] [--ranks N] [--at mid-checkpoint|NS]\n"
               "          [--recover-at NS|-1] [--seed N] [--offload]\n",
               argv0);
  return chaos::kExitUsage;
}

/// The one command line that reproduces this exact storm: every flag
/// that changes the run.
std::string reproducer(const Cli& cli) {
  std::string line = "fault_storm --kill " + std::to_string(cli.kill) +
                     " --at " + std::to_string(cli.at) + " --recover-at " +
                     std::to_string(cli.recover_at) + " --ranks " +
                     std::to_string(cli.ranks) + " --seed " +
                     std::to_string(cli.seed);
  if (cli.offload) line += " --offload";
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--kill") == 0 && (v = next())) {
      cli.kill = static_cast<uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (std::strcmp(argv[i], "--ranks") == 0 && (v = next())) {
      cli.ranks = static_cast<uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (std::strcmp(argv[i], "--at") == 0 && (v = next())) {
      cli.at = std::strcmp(v, "mid-checkpoint") == 0
                   ? 0
                   : static_cast<SimTime>(std::strtoll(v, nullptr, 0));
    } else if (std::strcmp(argv[i], "--recover-at") == 0 && (v = next())) {
      cli.recover_at = static_cast<SimTime>(std::strtoll(v, nullptr, 0));
    } else if (std::strcmp(argv[i], "--seed") == 0 && (v = next())) {
      cli.seed = std::strtoull(v, nullptr, 0);
    } else if (std::strcmp(argv[i], "--offload") == 0) {
      cli.offload = true;
    } else {
      return usage(argv[0]);
    }
  }

  nvmecr_rt::ClusterSpec spec;
  spec.compute_nodes = 8;
  spec.storage_nodes = 8;
  spec.storage_racks = 4;
  nvmecr_rt::Cluster cluster(spec);
  obs::MetricsRegistry metrics;
  // Flight recorder: keep only the most recent trace events. The
  // resilience layer dumps this tail to stderr at each failover pivot,
  // and the engine dumps it if the run ever deadlocks.
  sim::TraceCollector flight;
  flight.set_ring_capacity(256);
  obs::Observer o;
  o.trace = &flight;
  o.metrics = &metrics;
  cluster.install_observer(o);
  nvmecr_rt::Scheduler sched(cluster);

  workloads::ComdParams params;
  params.nranks = cli.ranks;
  params.procs_per_node = 1;
  params.atoms_per_rank = 8192;
  params.bytes_per_atom = 512;  // 4 MiB per rank per checkpoint
  params.io_chunk = 1_MiB;
  params.checkpoints = 3;
  params.compute_per_period = 2 * kMillisecond;
  params.keep_last = 3;

  auto job = sched.allocate(params.nranks, params.procs_per_node, 64_MiB,
                            spec.storage_nodes);
  if (!job.ok()) {
    std::fprintf(stderr, "allocate failed: %s\n",
                 job.status().to_string().c_str());
    return chaos::kExitInfra;
  }
  if (cli.kill > job->assignment.ssd_nodes.size()) {
    std::fprintf(stderr, "--kill %u > %zu allocated targets\n", cli.kill,
                 job->assignment.ssd_nodes.size());
    return chaos::kExitUsage;
  }

  auto deployed = resilience::deploy_resilient(
      cluster, sched, *job, {}, redundancy::Scheme::kPartner, cli.seed);
  if (!deployed.ok()) {
    std::fprintf(stderr, "deploy_resilient failed: %s\n",
                 deployed.status().to_string().c_str());
    return chaos::kExitInfra;
  }
  resilience::ResilientSystem& sys = **deployed;
  resilience::HealthMonitor& monitor = sys.monitor();

  // Optional offload pipeline on top: the targets digest each landed
  // extent until the storm kills them, then the stage falls back to
  // host-side CRC and the session is recorded in the degraded manifest.
  std::optional<offload::OffloadSystem> off;
  if (cli.offload) {
    offload::OffloadOptions oopts;
    oopts.stages = nvmf::kOffloadDigest;
    off.emplace(cluster, sys, *job, oopts);
  }
  baselines::StorageSystem& run_sys =
      off ? static_cast<baselines::StorageSystem&>(*off)
          : static_cast<baselines::StorageSystem&>(sys);

  const SimTime kill_at = cli.at > 0 ? cli.at : 3 * kMillisecond;
  // 0 = the victims never come back (the outage-window convention).
  const SimTime recover_at =
      cli.recover_at < 0
          ? 0
          : (cli.recover_at > 0 ? cli.recover_at : kill_at + 57 * kMillisecond);
  const bool recovers = recover_at != 0;

  std::vector<fabric::NodeId> victims;
  for (uint32_t i = 0; i < cli.kill; ++i) {
    const fabric::NodeId n = job->assignment.ssd_nodes[i];
    victims.push_back(n);
    cluster.storage_ssd(cluster.storage_ssd_index(n))
        .schedule_crash(kill_at, recover_at);
    cluster.target(cluster.storage_ssd_index(n))
        .schedule_crash(kill_at, recover_at);
    std::printf("storm: target node %u dies at %lld ns%s\n", n,
                static_cast<long long>(kill_at), recovers ? "" : " (forever)");
  }
  if (recovers) {
    std::printf("storm: victims recover at %lld ns\n",
                static_cast<long long>(recover_at));
  }

  const SimTime horizon =
      (recovers ? recover_at : kill_at) + 100 * kMillisecond;
  sys.spawn_daemons(horizon);

  auto r = workloads::ComdDriver::run(cluster, run_sys, params);
  if (!r.ok()) {
    std::fprintf(stderr, "FAIL: run did not survive the storm: %s\n",
                 r.status().to_string().c_str());
    std::fprintf(stderr, "reproduce with: %s\n", reproducer(cli).c_str());
    return chaos::kExitTypedFailure;
  }

  auto counter = [&metrics](const char* name) -> uint64_t {
    const obs::Counter* c = metrics.find_counter(name);
    return c != nullptr ? c->value() : 0;
  };
  std::printf("run completed: %u ranks, %u checkpoints + restart, "
              "%lld ns total (fast-tier restart, no PFS deployed)\n",
              params.nranks, params.checkpoints,
              static_cast<long long>(r->total_time));
  for (fabric::NodeId n : victims) {
    std::printf("victim node %u: declared dead at %lld ns, final state %s\n",
                n, static_cast<long long>(monitor.dead_since(n)),
                resilience::target_state_name(monitor.state(n)));
  }
  std::printf("resilience: failovers=%llu retries=%llu deaths=%llu "
              "degraded_ckpts=%llu heal_bytes=%llu transitions=%llu\n",
              static_cast<unsigned long long>(sys.failovers()),
              static_cast<unsigned long long>(counter("resilience.retries")),
              static_cast<unsigned long long>(counter("resilience.deaths")),
              static_cast<unsigned long long>(
                  counter("resilience.degraded_ckpts")),
              static_cast<unsigned long long>(sys.healed_bytes()),
              static_cast<unsigned long long>(monitor.transitions()));

  if (off) {
    std::printf("offload: host_compute=%llu ns, fallbacks=%llu\n",
                static_cast<unsigned long long>(off->host_compute_ns()),
                static_cast<unsigned long long>(off->fallbacks()));
    for (const std::string& line : off->fallback_log()) {
      std::printf("offload degraded manifest: %s\n", line.c_str());
    }
  }

  int rc = chaos::kExitOk;
  if (cli.kill > 0 && sys.failovers() == 0) {
    std::fprintf(stderr, "FAIL: storm killed %u targets but no failover "
                 "happened\n", cli.kill);
    rc = chaos::kExitInfra;
  }
  if (recovers) {
    if (!sys.degraded_ranks().empty()) {
      std::fprintf(stderr, "FAIL: degraded files remain after healing\n");
      rc = chaos::kExitInfra;
    }
    for (fabric::NodeId n : victims) {
      if (monitor.state(n) != resilience::TargetState::kHealthy) {
        std::fprintf(stderr, "FAIL: victim node %u not healed (state %s)\n",
                     n, resilience::target_state_name(monitor.state(n)));
        rc = chaos::kExitInfra;
      }
    }
    if (cli.kill > 0 && sys.healed_bytes() == 0) {
      std::fprintf(stderr, "FAIL: nothing was healed\n");
      rc = chaos::kExitInfra;
    }
  }
  std::printf("flight recorder: retained last %zu of %llu trace events\n",
              flight.size(),
              static_cast<unsigned long long>(flight.total_added()));
  if (off && cli.kill > 0 && off->fallbacks() == 0) {
    std::fprintf(stderr,
                 "FAIL: storm killed %u targets but no offload session "
                 "fell back to host compute\n",
                 cli.kill);
    rc = chaos::kExitInfra;
  }
  if (rc == 0) std::printf("storm absorbed: OK\n");
  return rc;
}
