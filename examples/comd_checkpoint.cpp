// CoMD checkpointing on a disaggregated cluster — the paper's headline
// scenario end-to-end: the scheduler hands the job NVMe namespaces on
// the storage rack, the balancer maps ranks to partner-domain SSDs, each
// rank's runtime instance mounts its private partition over NVMf, and
// the CoMD proxy runs its compute/checkpoint loop with a restart phase.
//
// Run:  ./build/examples/comd_checkpoint
//         [--redundancy none|partner|xor]  mirror the fast tier into a
//                                          second failure domain
//         [--trace out.trace.json]   Perfetto trace of the whole pipeline
//         [--metrics out.csv]        metrics registry snapshot (CSV/JSON)
//         [--profile report.txt]     dispatch cost centers + per-epoch
//                                    critical-path drilldown ("-" = stdout)
//         [--flight N]               flight-recorder mode: retain only the
//                                    last N trace events
#include <cstdio>
#include <cstring>
#include <string>

#include "baselines/models.h"
#include "nvmecr/runtime.h"
#include "obs/run_report.h"
#include "redundancy/engine.h"
#include "workloads/comd.h"

using namespace nvmecr;
using namespace nvmecr::literals;

namespace {

redundancy::Scheme parse_redundancy_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg.rfind("--redundancy=", 0) == 0) {
      value = arg.substr(std::strlen("--redundancy="));
    } else if (arg == "--redundancy" && i + 1 < argc) {
      value = argv[i + 1];
    } else {
      continue;
    }
    auto scheme = redundancy::parse_scheme(value);
    if (!scheme.has_value()) {
      std::fprintf(stderr,
                   "unknown --redundancy '%s' (want none|partner|xor)\n",
                   value.c_str());
      std::exit(2);
    }
    return *scheme;
  }
  return redundancy::Scheme::kNone;
}

}  // namespace

int main(int argc, char** argv) {
  obs::RunReport report = obs::RunReport::from_args(argc, argv);
  const redundancy::Scheme scheme = parse_redundancy_flag(argc, argv);

  // The paper's testbed: 16 compute nodes (28 cores), 8 storage nodes
  // with one P4800X-class SSD each, EDR InfiniBand (§IV-A). Redundancy
  // needs distinct storage failure domains to place the second copy in,
  // so with a scheme enabled the 8 storage nodes span 8 racks instead of
  // the paper's single storage rack.
  nvmecr_rt::ClusterSpec spec;
  if (scheme != redundancy::Scheme::kNone) spec.storage_racks = 8;
  nvmecr_rt::Cluster cluster(spec);
  cluster.install_observer(report.observer());
  nvmecr_rt::Scheduler scheduler(cluster);

  // A 112-rank job; the process:SSD guidance (56-112 per SSD, §III-F)
  // sizes the allocation at two SSDs. XOR erasure sets of K=4 need the
  // primaries themselves spread over 4 domains, so that mode widens the
  // allocation to 4 SSDs.
  workloads::ComdParams params;
  params.nranks = 112;
  params.procs_per_node = 28;
  params.atoms_per_rank = 32768;
  params.bytes_per_atom = 2048;  // 64 MiB checkpoint per rank
  params.checkpoints = 5;
  params.compute_per_period = 800 * kMillisecond;

  const uint32_t num_ssds =
      scheme == redundancy::Scheme::kXor ? redundancy::kXorSetSize : 0;

  auto job = scheduler.allocate(params.nranks, params.procs_per_node,
                                /*partition_bytes=*/512_MiB, num_ssds);
  NVMECR_CHECK(job.ok());
  std::printf("scheduler: %zu SSD(s) allocated, %u ranks per SSD, "
              "%llu MiB partition per rank\n",
              job->assignment.ssd_nodes.size(),
              job->assignment.ranks_per_ssd[0],
              static_cast<unsigned long long>(job->partition_bytes >> 20));

  nvmecr_rt::RuntimeConfig config;
  config.fs.io_batch_hugeblocks = 128;
  nvmecr_rt::NvmecrSystem system(cluster, *job, config);

  // With a redundancy scheme the job talks to the wrapping system:
  // foreground IO hits the primary runtime while replica/parity streams
  // ride behind it into partner-domain SSDs.
  std::unique_ptr<redundancy::RedundantDeployment> dep;
  baselines::StorageSystem* target = &system;
  if (scheme != redundancy::Scheme::kNone) {
    auto d = redundancy::deploy_redundancy(cluster, scheduler, system, *job,
                                           scheme);
    NVMECR_CHECK(d.ok());
    dep = std::make_unique<redundancy::RedundantDeployment>(std::move(*d));
    target = dep->system.get();
    std::printf("redundancy: scheme=%s, %zu store SSD(s) for "
                "replica/parity data\n",
                redundancy::scheme_name(scheme),
                dep->plan.assignment.ssd_nodes.size());
  }

  auto metrics = workloads::ComdDriver::run(cluster, *target, params);
  NVMECR_CHECK(metrics.ok());
  if (dep != nullptr) {
    // Drain background replication/parity work so the overhead numbers
    // below cover every checkpoint of the run.
    cluster.engine().run_task(dep->system->quiesce());
  }

  std::printf("\nCoMD run (%u ranks, %u checkpoints of %.1f GiB):\n",
              params.nranks, params.checkpoints,
              to_gib(params.job_checkpoint_bytes()));
  for (size_t i = 0; i < metrics->checkpoint_times.size(); ++i) {
    std::printf("  checkpoint %zu: %.3f s\n", i,
                to_seconds(metrics->checkpoint_times[i]));
  }
  std::printf("  checkpoint efficiency: %.3f (perceived BW / HW peak)\n",
              metrics->checkpoint_efficiency());
  std::printf("  checkpoint time:       %.3f s total (makespan efficiency "
              "%.3f)\n",
              to_seconds(metrics->checkpoint_time),
              metrics->checkpoint_efficiency_makespan());
  std::printf("  restart read:          %.3f s (efficiency %.3f)\n",
              to_seconds(metrics->recovery_time),
              metrics->recovery_efficiency());
  std::printf("  application progress rate: %.3f\n",
              metrics->progress_rate());
  std::printf("  per-SSD load CoV: %.4f (round-robin balancer)\n",
              metrics->load_cov());
  if (dep != nullptr) {
    const uint64_t payload =
        params.checkpoints * params.job_checkpoint_bytes();
    std::printf("  redundancy (%s): %.1f GiB redundant device bytes "
                "(%.1f%% write overhead), %llu degraded file(s)\n",
                redundancy::scheme_name(scheme),
                to_gib(dep->system->redundant_bytes()),
                100.0 * static_cast<double>(dep->system->redundant_bytes()) /
                    static_cast<double>(payload),
                static_cast<unsigned long long>(
                    dep->system->degraded_files()));
  }

  if (dep != nullptr) {
    nvmecr_rt::JobAllocation store_job = dep->store_job;
    dep.reset();  // store clients/runtime close before release
    scheduler.release(store_job);
  }
  scheduler.release(*job);
  std::printf("job released; namespaces returned to the scheduler\n");
  report.finish();
  return 0;
}
