// Extension — checkpoint-interval optimization under failure schedules
// (DESIGN.md §17): computes the Young/Daly optimal interval from the
// failure process MTBF and the *measured* per-epoch checkpoint overhead
// δ, then validates it empirically. For each interval on a geometric
// grid around the Daly point, kill-and-restart cycles are driven
// through AppDriver with failures drawn from a seeded exponential
// stream (common random numbers across intervals), and efficiency =
// useful-compute / total-sim-time is measured. The acceptance gate: the
// empirical efficiency argmax must land within one grid step of the
// computed optimum.
//
// A second section runs a quick chaos campaign and reports the verdict
// tally — the fraction of schedules fully absorbed by the resilience
// stack.
//
// Run:  ./build/bench/ext_chaos [--csv FILE] [--schedules N]
#include <cstdio>
#include <cstring>
#include <string>

#include "chaos/campaign.h"
#include "chaos/daly.h"
#include "common/table.h"

using namespace nvmecr;
using namespace nvmecr::chaos;

int main(int argc, char** argv) {
  std::string csv_path = "ext_chaos.csv";
  uint32_t schedules = 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--schedules") == 0 && i + 1 < argc) {
      schedules = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 0));
    } else {
      std::fprintf(stderr, "usage: %s [--csv FILE] [--schedules N]\n",
                   argv[0]);
      return kExitUsage;
    }
  }

  std::printf("=== checkpoint-interval sweep (Young/Daly validation) ===\n");
  const SweepResult sweep = interval_sweep();
  std::printf("MTBF M = %.2f ms, measured ckpt overhead δ = %.3f ms\n",
              sweep.mtbf / kMillisecond, sweep.delta / kMillisecond);
  std::printf("Young interval sqrt(2δM)   = %.3f ms\n",
              sweep.young / kMillisecond);
  std::printf("Daly interval (2nd order)  = %.3f ms\n\n",
              sweep.daly / kMillisecond);

  TablePrinter table({"interval_ms", "epochs", "efficiency", "failures",
                      "mark"});
  std::FILE* csv = std::fopen(csv_path.c_str(), "w");
  if (csv != nullptr) {
    std::fprintf(csv, "interval_ms,epochs,efficiency,failures,is_daly,"
                 "is_best\n");
  }
  for (size_t k = 0; k < sweep.points.size(); ++k) {
    const SweepPoint& pt = sweep.points[k];
    const bool is_daly = static_cast<int>(k) == sweep.computed_index;
    const bool is_best = static_cast<int>(k) == sweep.best_index;
    std::string mark;
    if (is_daly) mark += " <- Daly";
    if (is_best) mark += " <- best";
    table.add_row({TablePrinter::num(pt.interval / kMillisecond, 3),
                   TablePrinter::num(pt.epochs),
                   TablePrinter::num(pt.efficiency, 4),
                   TablePrinter::num(pt.failures), mark});
    if (csv != nullptr) {
      std::fprintf(csv, "%.6f,%u,%.6f,%u,%d,%d\n",
                   pt.interval / kMillisecond, pt.epochs, pt.efficiency,
                   pt.failures, is_daly ? 1 : 0, is_best ? 1 : 0);
    }
  }
  table.print();
  std::printf("\nempirical argmax at grid index %d, computed optimum at %d: "
              "%s\n",
              sweep.best_index, sweep.computed_index,
              sweep.within_one_step() ? "within one grid step — OK"
                                      : "MORE THAN ONE STEP APART");

  std::printf("\n=== quick chaos campaign (%u schedules) ===\n", schedules);
  CampaignConfig cfg;
  CampaignRunner runner(cfg);
  const CampaignResult res = runner.run_campaign(schedules);
  const double absorbed =
      res.runs > 0 ? static_cast<double>(res.completed) / res.runs : 0;
  std::printf("verdicts: %u completed, %u typed failures, %u hangs, "
              "%u corruptions, %u divergences\n",
              res.completed, res.typed_failures, res.hangs, res.corruptions,
              res.divergences);
  std::printf("campaign.efficiency (completed fraction): %.3f\n", absorbed);
  if (csv != nullptr) {
    std::fprintf(csv, "# campaign.efficiency,%.6f\n", absorbed);
    std::fclose(csv);
    std::printf("csv: %s\n", csv_path.c_str());
  }

  if (!res.clean()) {
    std::fprintf(stderr, "FAIL: campaign violation: %s\n",
                 verdict_name(res.first_violation->verdict));
    return res.exit_code();
  }
  if (!sweep.within_one_step()) {
    std::fprintf(stderr, "FAIL: empirical optimum more than one grid step "
                 "from the Daly interval\n");
    return kExitInfra;
  }
  std::printf("ext_chaos: OK\n");
  return kExitOk;
}
