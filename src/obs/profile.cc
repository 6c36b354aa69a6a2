#include "obs/profile.h"

#include <algorithm>
#include <cstdio>

namespace nvmecr::obs {

const char* EpochProfiler::phase_name(Phase p) {
  switch (p) {
    case Phase::kSerialize:
      return "serialize";
    case Phase::kOplog:
      return "oplog";
    case Phase::kFabric:
      return "fabric";
    case Phase::kTargetQueue:
      return "target_queue";
    case Phase::kFlash:
      return "flash";
    case Phase::kBarrier:
      return "barrier";
    case Phase::kTargetCompute:
      return "target_compute";
    case Phase::kOther:
      return "other";
  }
  return "?";
}

void EpochProfiler::set_rank_epoch(uint32_t rank, uint32_t epoch) {
  if (rank >= rank_epoch_.size()) rank_epoch_.resize(rank + 1, 0);
  rank_epoch_[rank] = epoch;
  if (rank > max_rank_) max_rank_ = rank;
}

std::vector<uint64_t>& EpochProfiler::cell(uint32_t epoch, Phase p) {
  if (epoch >= epochs_.size()) epochs_.resize(epoch + 1);
  return epochs_[epoch].phases[static_cast<size_t>(p)];
}

void EpochProfiler::record(const sim::Engine& engine, Phase p,
                           SimDuration d) {
  if (d <= 0) return;
  const uint32_t ctx = engine.profile_ctx();
  const uint32_t rank_p1 = ctx >> sim::profile_ctx::kRankShift;
  if (rank_p1 == 0) return;  // no rank in flight: not a checkpoint op
  const uint32_t rank = rank_p1 - 1;
  // Metadata maintenance (oplog persistence) books all nested phases —
  // fabric, queueing, flash — under the oplog phase so the drilldown
  // stays an additive decomposition of each rank's blocking time.
  if ((ctx & sim::profile_ctx::kMetaBit) != 0) p = Phase::kOplog;
  const uint32_t epoch = rank < rank_epoch_.size() ? rank_epoch_[rank] : 0;
  record_rank(rank, epoch, p, d);
}

void EpochProfiler::record_rank(uint32_t rank, uint32_t epoch, Phase p,
                                SimDuration d) {
  if (d <= 0) return;
  if (rank > max_rank_) max_rank_ = rank;
  std::vector<uint64_t>& by_rank = cell(epoch, p);
  if (rank >= by_rank.size()) by_rank.resize(rank + 1, 0);
  by_rank[rank] += static_cast<uint64_t>(d);
}

uint64_t EpochProfiler::phase_total_ns(uint32_t epoch, Phase p) const {
  if (epoch >= epochs_.size()) return 0;
  uint64_t total = 0;
  for (uint64_t ns : epochs_[epoch].phases[static_cast<size_t>(p)]) {
    total += ns;
  }
  return total;
}

uint64_t EpochProfiler::rank_ns(uint32_t epoch, Phase p,
                                uint32_t rank) const {
  if (epoch >= epochs_.size()) return 0;
  const std::vector<uint64_t>& by_rank =
      epochs_[epoch].phases[static_cast<size_t>(p)];
  return rank < by_rank.size() ? by_rank[rank] : 0;
}

EpochProfiler::PhaseStats EpochProfiler::phase_stats(uint32_t epoch,
                                                     Phase p) const {
  PhaseStats s;
  if (epoch >= epochs_.size()) return s;
  const std::vector<uint64_t>& by_rank =
      epochs_[epoch].phases[static_cast<size_t>(p)];
  std::vector<uint64_t> active;
  for (uint32_t r = 0; r < by_rank.size(); ++r) {
    const uint64_t ns = by_rank[r];
    if (ns == 0) continue;
    active.push_back(ns);
    s.total_ns += ns;
    if (ns > s.max_ns) {
      s.max_ns = ns;
      s.max_rank = r;
    }
  }
  s.ranks = static_cast<uint32_t>(active.size());
  if (!active.empty()) {
    std::sort(active.begin(), active.end());
    s.median_ns = active[active.size() / 2];
  }
  return s;
}

std::string EpochProfiler::drilldown_table() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line), "%-6s %-13s %11s %10s %10s %9s %9s\n",
                "epoch", "phase", "total_ms", "median_ms", "max_ms",
                "max_rank", "straggler");
  out += line;
  for (uint32_t e = 0; e < epochs_.size(); ++e) {
    for (size_t pi = 0; pi < kNumPhases; ++pi) {
      const Phase p = static_cast<Phase>(pi);
      const PhaseStats s = phase_stats(e, p);
      if (s.total_ns == 0) continue;
      std::snprintf(line, sizeof(line),
                    "%-6u %-13s %11.3f %10.3f %10.3f %9u %8.2fx\n", e,
                    phase_name(p), s.total_ns / 1e6, s.median_ns / 1e6,
                    s.max_ns / 1e6, s.max_rank, s.straggler());
      out += line;
    }
  }
  return out;
}

}  // namespace nvmecr::obs
