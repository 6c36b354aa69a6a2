// Checkpoint-interval optimization under failure schedules (the
// ROADMAP's open sub-item; DESIGN.md §17).
//
// young_interval / daly_interval compute the analytic optimum from the
// failure process MTBF M and the per-epoch checkpoint overhead δ;
// interval_sweep validates them *empirically*: it calibrates δ from a
// clean run on the real storage stack, then for each interval on a
// geometric grid around the Daly point drives kill-and-restart cycles
// through AppDriver with failures drawn from a seeded exponential
// stream, measures efficiency = useful-compute / total-sim-time, and
// reports whether the empirical argmax lands within one grid step of
// the computed optimum — the acceptance gate of bench/ext_chaos.
#pragma once

#include <vector>

#include "common/units.h"

namespace nvmecr::chaos {

/// Young's first-order optimum: W = sqrt(2 δ M).
double young_interval(double mtbf, double ckpt_cost);

/// Daly's higher-order estimate: for δ < 2M,
///   W = sqrt(2 δ M) [1 + (1/3)√(δ/2M) + (1/9)(δ/2M)] − δ,
/// clamped to M when δ ≥ 2M (checkpointing costs more than it saves).
double daly_interval(double mtbf, double ckpt_cost);

struct SweepPoint {
  double interval = 0;    // compute per epoch, ns
  uint32_t epochs = 0;
  double efficiency = 0;  // useful work / total sim time, rep average
  uint32_t failures = 0;  // kill/restart cycles summed over reps
};

struct SweepResult {
  double delta = 0;  // calibrated per-epoch checkpoint overhead, ns
  double mtbf = 0;
  double young = 0;
  double daly = 0;
  int computed_index = -1;  // grid point nearest the Daly interval
  int best_index = -1;      // empirical efficiency argmax
  std::vector<SweepPoint> points;

  bool within_one_step() const {
    return best_index >= 0 && computed_index >= 0 &&
           (best_index > computed_index ? best_index - computed_index
                                        : computed_index - best_index) <= 1;
  }
};

/// Calibrates δ, then sweeps daly.cc's fixed grid: kGrid intervals at
/// ratio kGridStep around the Daly point, kReps failure streams each.
SweepResult interval_sweep();

}  // namespace nvmecr::chaos
