// Figure 9 — Efficiency of storage systems during checkpoint and
// recovery of the CoMD application state (§IV-H).
//
// (a)/(b): strong scaling — 16,384K atoms fixed, 86 GB over 10
//          checkpoints, 56..448 processes.
// (c)/(d): weak scaling — 32K atoms/process, 700 GB total at 448
//          processes.
//
// Paper shape: NVMe-CR best everywhere; at 448 processes it reaches
// ~0.96 checkpoint / ~0.99 recovery efficiency (weak scaling);
// GlusterFS trails NVMe-CR by ~13% on checkpoints and dips on recovery
// at 448 (metadata-server read influx); OrangeFS collapses under the
// concurrent metadata burden.
#include "bench_util.h"
#include "obs/run_report.h"

namespace nvmecr::bench {
namespace {

void run_scaling(const char* title,
                 ComdParams (*make_params)(uint32_t nranks)) {
  print_banner(title, "checkpoint / recovery efficiency vs processes");
  TablePrinter table({"procs", "system", "ckpt eff", "ckpt eff (makespan)",
                      "recovery eff", "ckpt time (s)", "recovery time (s)"});
  for (uint32_t nranks : {56u, 112u, 224u, 448u}) {
    const ComdParams params = make_params(nranks);
    struct Row {
      std::string name;
      JobMetrics m;
    };
    std::vector<Row> rows;
    rows.push_back({"NVMe-CR", run_nvmecr(params)});
    rows.push_back({"GlusterFS", run_dfs("GlusterFS", params)});
    rows.push_back({"OrangeFS", run_dfs("OrangeFS", params)});
    for (const auto& row : rows) {
      table.add_row(
          {TablePrinter::num(nranks) + " " + row.name, row.name,
           TablePrinter::num(row.m.checkpoint_efficiency(), 3),
           TablePrinter::num(row.m.checkpoint_efficiency_makespan(), 3),
           TablePrinter::num(row.m.recovery_efficiency(), 3),
           TablePrinter::num(to_seconds(row.m.checkpoint_time), 2),
           TablePrinter::num(to_seconds(row.m.recovery_time), 2)});
    }
  }
  table.print();
}

}  // namespace
}  // namespace nvmecr::bench

int main(int argc, char** argv) {
  using namespace nvmecr::bench;
  run_scaling("Figure 9(a,b) [strong scaling]", strong_scaling_params);
  run_scaling("Figure 9(c,d) [weak scaling]", weak_scaling_params);
  std::printf(
      "\nPaper reference: NVMe-CR ~0.96 ckpt / ~0.99 recovery at 448 "
      "(weak); GlusterFS ~13%% lower ckpt; OrangeFS lowest.\n");

  // With --trace/--metrics, repeat one representative configuration
  // (weak scaling, 112 processes) fully instrumented and export the
  // observability artifacts for that run.
  nvmecr::obs::RunReport report =
      nvmecr::obs::RunReport::from_args(argc, argv);
  if (report.enabled()) {
    std::printf("\ninstrumented rerun: weak scaling, 112 processes\n");
    run_nvmecr(weak_scaling_params(112), default_runtime_config(),
               /*num_ssds=*/8, report.observer());
    report.finish();
  }
  return 0;
}
