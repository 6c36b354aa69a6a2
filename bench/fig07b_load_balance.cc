// Figure 7(b) — Load imbalance (coefficient of variation of per-server
// stored bytes) for NVMe-CR, OrangeFS and GlusterFS running CoMD at
// different process counts (§IV-C).
//
// Paper shape: GlusterFS's consistent hashing has high CoV at low
// concurrency and improves with file count; OrangeFS's striping is much
// better at low concurrency with visible overhead at higher counts;
// NVMe-CR's round-robin balancer is ~0 everywhere.
#include "bench_util.h"

int main() {
  using namespace nvmecr;
  using namespace nvmecr::bench;

  print_banner("Figure 7(b)", "load CoV (stdev/mean of per-server bytes)");
  TablePrinter table({"procs", "NVMe-CR", "OrangeFS", "GlusterFS"});

  for (uint32_t nranks : {28u, 56u, 112u, 224u, 448u}) {
    ComdParams params = weak_scaling_params(nranks);
    params.checkpoints = 3;
    params.keep_last = 3;  // keep everything: CoV over stored data
    params.do_recovery = false;

    // SSD count per the paper's process:SSD guidance (one SSD per 56
    // processes) so partial round-robin rounds don't appear as imbalance.
    const JobMetrics nv =
        run_nvmecr(params, default_runtime_config(), /*num_ssds=*/0);
    const JobMetrics orange = run_dfs("OrangeFS", params);
    const JobMetrics gluster = run_dfs("GlusterFS", params);
    table.add_row({TablePrinter::num(nranks),
                   TablePrinter::num(nv.load_cov(), 4),
                   TablePrinter::num(orange.load_cov(), 4),
                   TablePrinter::num(gluster.load_cov(), 4)});
  }
  table.print();
  std::printf(
      "\nPaper reference: NVMe-CR ~0 at every scale; GlusterFS worst at "
      "low concurrency; OrangeFS in between.\n");
  return 0;
}
