// Extension — target-side computation offload (DESIGN.md "Offload
// pipeline"): where is each stage cheapest to run, the host or the
// NVMe-oF target?
//
// Sweeps the host-CPU / target-CPU / fabric-bytes tradeoff per stage:
//
//   digest       host CRC before shipping vs target CRC after landing
//   compression  who decompresses on restart (wire bytes vs host CPU)
//   compaction   replaying the incremental delta chain on restart vs
//                reading the target's materialized full image
//   parity       host-XOR (parity crosses the fabric) vs target-XOR
//                (folded from landed data; loopback writes) — headline
//
// Emits a machine-readable tradeoff CSV (--csv PATH) next to the tables
// so CI can archive the sweep. --quick shrinks scales for smoke runs.
#include <cstring>
#include <fstream>
#include <vector>

#include "bench_util.h"
#include "offload/pipeline.h"
#include "redundancy/engine.h"

namespace {

using namespace nvmecr;
using namespace nvmecr::bench;
using offload::OffloadOptions;
using offload::OffloadSystem;

struct RunResult {
  JobMetrics m;
  uint64_t fabric_bytes = 0;    // real fabric crossings during the run
  uint64_t host_ns = 0;         // offload stages that ran host-side
  uint64_t target_ns = 0;       // compute booked on target offload cores
  uint64_t host_encode_ns = 0;  // redundancy host parity encode
};

uint64_t total_target_busy(Cluster& cluster) {
  uint64_t busy = 0;
  for (uint32_t i = 0; i < cluster.storage_nodes().size(); ++i) {
    busy += cluster.target(i).compute_busy_ns();
  }
  return busy;
}

/// CoMD through NVMe-CR wrapped in the offload pipeline.
RunResult run_offload(const ComdParams& params, const OffloadOptions& opts) {
  Cluster cluster;
  Scheduler sched(cluster);
  auto job = sched.allocate(params.nranks, params.procs_per_node,
                            partition_for(params), /*num_ssds=*/8);
  NVMECR_CHECK(job.ok());
  nvmecr_rt::NvmecrSystem inner(cluster, *job, default_runtime_config());
  OffloadSystem system(cluster, inner, *job, opts);
  const uint64_t fabric0 = cluster.network().total_bytes_sent();
  auto m = ComdDriver::run(cluster, system, params);
  NVMECR_CHECK(m.ok());
  RunResult r;
  r.m = *m;
  r.fabric_bytes = cluster.network().total_bytes_sent() - fabric0;
  r.host_ns = system.host_compute_ns();
  r.target_ns = total_target_busy(cluster);
  return r;
}

/// CoMD through NVMe-CR + XOR redundancy (fig07-style placement: one
/// failure domain per storage node so the parity set spans domains).
RunResult run_xor(const ComdParams& params, redundancy::Scheme scheme) {
  ClusterSpec spec;
  spec.compute_nodes = 8;
  spec.storage_nodes = 8;
  spec.storage_racks = 8;
  Cluster cluster(spec);
  Scheduler sched(cluster);
  auto job = sched.allocate(params.nranks, params.procs_per_node,
                            partition_for(params) * 2, /*num_ssds=*/4);
  NVMECR_CHECK(job.ok());
  nvmecr_rt::NvmecrSystem primary(cluster, *job, default_runtime_config());
  auto dep = redundancy::deploy_redundancy(cluster, sched, primary, *job,
                                           scheme);
  NVMECR_CHECK(dep.ok());
  const uint64_t fabric0 = cluster.network().total_bytes_sent();
  auto m = ComdDriver::run(cluster, *dep->system, params);
  NVMECR_CHECK(m.ok());
  RunResult r;
  r.m = *m;
  r.fabric_bytes = cluster.network().total_bytes_sent() - fabric0;
  r.target_ns = total_target_busy(cluster);
  r.host_encode_ns = dep->system->host_encode_ns();
  return r;
}

std::string gib(uint64_t bytes) {
  return TablePrinter::num(static_cast<double>(bytes) / (1ull << 30), 2);
}
std::string cpu_ms(uint64_t ns) {
  return TablePrinter::num(static_cast<double>(ns) / 1e6, 1);
}

struct CsvWriter {
  explicit CsvWriter(const std::string& path) : out(path) {
    out << "section,variant,ckpt_s,restart_s,fabric_gib,host_cpu_ms,"
           "target_cpu_ms\n";
  }
  void row(const char* section, const std::string& variant,
           const RunResult& r) {
    out << section << ',' << variant << ','
        << to_seconds(r.m.checkpoint_time) << ','
        << to_seconds(r.m.recovery_time) << ','
        << static_cast<double>(r.fabric_bytes) / (1ull << 30) << ','
        << static_cast<double>(r.host_ns + r.host_encode_ns) / 1e6 << ','
        << static_cast<double>(r.target_ns) / 1e6 << '\n';
  }
  std::ofstream out;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string csv_path = "offload_tradeoff.csv";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: ext_offload [--quick] [--csv PATH]\n");
      return 1;
    }
  }
  CsvWriter csv(csv_path);

  print_banner("Extension: target-side offload",
               "host CPU vs target CPU vs fabric bytes, per stage");

  // --- digest -----------------------------------------------------------
  {
    ComdParams params = weak_scaling_params(quick ? 56 : 112);
    params.checkpoints = quick ? 2 : 3;
    params.do_recovery = false;
    TablePrinter t({"digest", "ckpt phase (s)", "fabric (GiB)",
                    "host CPU (ms)", "target CPU (ms)"});
    OffloadOptions host;
    host.stages = 0;  // CRC on the host before shipping
    const RunResult h = run_offload(params, host);
    OffloadOptions tgt;
    tgt.stages = nvmf::kOffloadDigest;  // CRC on the target's cores
    const RunResult g = run_offload(params, tgt);
    t.add_row({"host", TablePrinter::num(to_seconds(h.m.checkpoint_time), 2),
               gib(h.fabric_bytes), cpu_ms(h.host_ns), cpu_ms(h.target_ns)});
    t.add_row({"target", TablePrinter::num(to_seconds(g.m.checkpoint_time), 2),
               gib(g.fabric_bytes), cpu_ms(g.host_ns), cpu_ms(g.target_ns)});
    t.print();
    csv.row("digest", "host", h);
    csv.row("digest", "target", g);
  }

  // --- compression ------------------------------------------------------
  {
    ComdParams params = weak_scaling_params(quick ? 56 : 112);
    params.checkpoints = quick ? 2 : 3;
    params.do_recovery = true;
    TablePrinter t({"codec / decode side", "ckpt (s)", "restart (s)",
                    "fabric (GiB)", "host CPU (ms)", "target CPU (ms)"});
    for (const char* codec_name : {"lz4-class", "zstd-class"}) {
      for (const bool target_decode : {false, true}) {
        OffloadOptions opts;
        opts.digest_checks = false;
        opts.codec = *offload::find_codec(codec_name);
        opts.stages = target_decode ? nvmf::kOffloadCompress : 0u;
        const RunResult r = run_offload(params, opts);
        const std::string variant =
            std::string(codec_name) + (target_decode ? " / target" : " / host");
        t.add_row({variant,
                   TablePrinter::num(to_seconds(r.m.checkpoint_time), 2),
                   TablePrinter::num(to_seconds(r.m.recovery_time), 2),
                   gib(r.fabric_bytes), cpu_ms(r.host_ns),
                   cpu_ms(r.target_ns)});
        csv.row("compression", variant, r);
      }
    }
    t.print();
    std::printf(
        "Compressed bytes cross the fabric and land on flash either way; "
        "the grant moves the restart inflate (and its raw-byte surplus) "
        "to the target.\n\n");
  }

  // --- delta compaction -------------------------------------------------
  {
    // Half-dirty increments with a 4-deep retained chain: restart must
    // replay 4 x 0.5 = 2 full-state equivalents unless the target has
    // folded them into one image.
    ComdParams params = weak_scaling_params(quick ? 28 : 56);
    params.checkpoints = 6;
    params.keep_last = 4;
    params.incremental_fraction = 0.5;
    params.replay_increments = true;  // honest chain-replay restart
    params.do_recovery = true;
    TablePrinter t({"restart source", "restart (s)", "recovery (GiB)",
                    "host CPU (ms)", "target CPU (ms)"});
    OffloadOptions replay;
    replay.stages = 0;
    replay.digest_checks = false;
    const RunResult h = run_offload(params, replay);
    OffloadOptions compact;
    compact.stages = nvmf::kOffloadCompact;
    compact.digest_checks = false;
    const RunResult g = run_offload(params, compact);
    t.add_row({"replay delta chain",
               TablePrinter::num(to_seconds(h.m.recovery_time), 2),
               gib(h.m.recovery_bytes), cpu_ms(h.host_ns),
               cpu_ms(h.target_ns)});
    t.add_row({"materialized image",
               TablePrinter::num(to_seconds(g.m.recovery_time), 2),
               gib(g.m.recovery_bytes), cpu_ms(g.host_ns),
               cpu_ms(g.target_ns)});
    t.print();
    csv.row("compaction", "replay", h);
    csv.row("compaction", "image", g);
    std::printf(
        "The target folds each delta in background sim-time; restart "
        "reads one full image instead of %u retained increments.\n\n",
        params.keep_last);
  }

  // --- parity (headline) ------------------------------------------------
  {
    ComdParams params = weak_scaling_params(8);
    params.procs_per_node = 1;
    params.checkpoints = quick ? 2 : 3;
    params.keep_last = 2;
    params.do_recovery = false;
    TablePrinter t({"XOR parity", "ckpt phase (s)", "fabric (GiB)",
                    "host encode (ms)", "target CPU (ms)"});
    const RunResult h = run_xor(params, redundancy::Scheme::kXor);
    const RunResult g = run_xor(params, redundancy::Scheme::kXorTarget);
    t.add_row({"host (ships parity)",
               TablePrinter::num(to_seconds(h.m.checkpoint_time), 2),
               gib(h.fabric_bytes), cpu_ms(h.host_encode_ns),
               cpu_ms(h.target_ns)});
    t.add_row({"target (folds landed data)",
               TablePrinter::num(to_seconds(g.m.checkpoint_time), 2),
               gib(g.fabric_bytes), cpu_ms(g.host_encode_ns),
               cpu_ms(g.target_ns)});
    t.print();
    csv.row("parity", "host-xor", h);
    csv.row("parity", "target-xor", g);
    const double savings =
        1.0 - static_cast<double>(g.fabric_bytes) /
                  static_cast<double>(h.fabric_bytes);
    std::printf(
        "Target-side XOR ships no parity over the fabric: %s fewer "
        "checkpoint fabric bytes at K=4 (1/K of traffic plus loopback "
        "parity writes), for ~%s ms of target compute.\n",
        pct(savings).c_str(), cpu_ms(g.target_ns).c_str());
  }

  std::printf("\ntradeoff CSV: %s\n", csv_path.c_str());
  return 0;
}
