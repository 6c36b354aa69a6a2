#include "chaos/schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/rng.h"

namespace nvmecr::chaos {

namespace {

// Substream tags: each fault family draws from its own seed-derived
// stream per domain, so adding events to one family never perturbs
// another family's arrivals (schedule stability under model tweaks).
constexpr uint64_t kTargetStream = 0x7A26E7C100AA01ull;
constexpr uint64_t kSsdStream = 0x55DC2A5900BB02ull;
constexpr uint64_t kLinkStream = 0x11AA0D0300CC03ull;
constexpr uint64_t kStragglerStream = 0x57A661E200DD04ull;
constexpr uint64_t kPartitionStream = 0x9A271710EE05ull;
constexpr uint64_t kAuxStream = 0xCA5CADE00FF06ull;

Rng domain_rng(uint64_t seed, uint64_t stream, uint32_t domain) {
  return Rng(mix64(seed ^ stream) ^ (static_cast<uint64_t>(domain) << 20));
}

/// Interarrival draw for one domain's failure process.
double draw_interval(Rng& rng, const DomainModel& m) {
  // Guard the log against u == 0.
  const double u = std::max(rng.uniform01(), 1e-12);
  if (m.dist == MtbfDist::kWeibull) {
    // Weibull with mean `mtbf`: scale = mtbf / Gamma(1 + 1/shape);
    // draw = scale * (-ln U)^(1/shape). Shape < 1 makes short gaps far
    // more likely than exponential — clustered (bursty) failures.
    const double scale = m.mtbf / std::tgamma(1.0 + 1.0 / m.weibull_shape);
    return scale * std::pow(-std::log(u), 1.0 / m.weibull_shape);
  }
  return -m.mtbf * std::log(u);
}

double draw_repair(Rng& rng, const DomainModel& m) {
  const double u = std::max(rng.uniform01(), 1e-12);
  return -m.repair_mean * std::log(u);
}

/// One domain's arrival process over [0, horizon): transient events get
/// a repair draw; a permanent event ends the process (the domain is
/// gone — nothing left to fail).
template <typename Emit>
void run_process(uint64_t seed, uint64_t stream, uint32_t domain,
                 const DomainModel& m, SimTime horizon, Emit&& emit) {
  if (m.mtbf <= 0) return;
  Rng rng = domain_rng(seed, stream, domain);
  double t = draw_interval(rng, m);
  while (t < static_cast<double>(horizon)) {
    const bool transient = rng.uniform01() < m.transient_prob;
    const SimTime at = static_cast<SimTime>(t);
    const SimTime until =
        transient ? at + std::max<SimTime>(
                             1, static_cast<SimTime>(draw_repair(rng, m)))
                  : 0;
    emit(at, until, rng);
    if (!transient) return;
    t += draw_interval(rng, m);
  }
}

workloads::KillPoint kill_point_from_index(uint64_t i) {
  switch (i % 3) {
    case 0: return workloads::KillPoint::kBeforeCheckpoint;
    case 1: return workloads::KillPoint::kMidCheckpoint;
    default: return workloads::KillPoint::kAfterCheckpoint;
  }
}

workloads::KillPoint parse_kill_point(const std::string& name) {
  using workloads::KillPoint;
  if (name == "before-checkpoint") return KillPoint::kBeforeCheckpoint;
  if (name == "mid-checkpoint") return KillPoint::kMidCheckpoint;
  if (name == "after-checkpoint") return KillPoint::kAfterCheckpoint;
  return KillPoint::kNone;
}

bool parse_fault_kind(const std::string& name, FaultKind& out) {
  for (FaultKind k :
       {FaultKind::kTargetCrash, FaultKind::kSsdCrash, FaultKind::kLinkDown,
        FaultKind::kStraggler, FaultKind::kPartition, FaultKind::kJobKill}) {
    if (name == fault_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kTargetCrash: return "target-crash";
    case FaultKind::kSsdCrash: return "ssd-crash";
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kStraggler: return "straggler";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kJobKill: return "job-kill";
  }
  return "?";
}

FailureSchedule generate_schedule(const ScheduleParams& p) {
  FailureSchedule out;
  out.params = p;
  std::vector<FailureEvent>& ev = out.events;
  const uint32_t nodes = std::max(1u, p.storage_nodes);
  const uint32_t racks = std::max(1u, p.racks);
  const uint32_t nodes_per_rack = (nodes + racks - 1) / racks;
  Rng aux = domain_rng(p.seed, kAuxStream, 0);

  auto add = [&ev](FaultKind kind, uint32_t victim, SimTime at,
                   SimTime until) -> FailureEvent& {
    FailureEvent e;
    e.kind = kind;
    e.victim = victim;
    e.at = at;
    e.until = until;
    ev.push_back(e);
    return ev.back();
  };

  // Correlated extras ride a dedicated aux stream keyed on the primary
  // event, so the per-domain processes above stay stable.
  auto correlate = [&](FaultKind kind, uint32_t victim, SimTime at,
                       SimTime until) {
    if (p.rack_burst_prob > 0 && aux.uniform01() < p.rack_burst_prob) {
      // Shared PDU / ToR loss: the victim's rack siblings crash within a
      // 100 us spread, recovering (if transient) when the primary does.
      const uint32_t rack = victim / nodes_per_rack;
      for (uint32_t n = rack * nodes_per_rack;
           n < std::min(nodes, (rack + 1) * nodes_per_rack); ++n) {
        if (n == victim) continue;
        add(kind, n, at + 1 + static_cast<SimTime>(aux.uniform(100'000)),
            until);
      }
    }
    if (p.cascade_prob > 0 && aux.uniform01() < p.cascade_prob) {
      // Load-shift cascade: the next domain over fails shortly after,
      // always transiently (a secondary wobble, not a second loss).
      const SimTime lag =
          500'000 + static_cast<SimTime>(aux.uniform(2'000'000));
      const SimTime c_at = at + lag;
      if (c_at < p.horizon) {
        add(kind, (victim + 1) % nodes, c_at,
            c_at + std::max<SimTime>(1, static_cast<SimTime>(
                                            draw_repair(aux, p.target))));
      }
    }
  };

  for (uint32_t n = 0; n < nodes; ++n) {
    run_process(p.seed, kTargetStream, n, p.target, p.horizon,
                [&](SimTime at, SimTime until, Rng&) {
                  add(FaultKind::kTargetCrash, n, at, until);
                  correlate(FaultKind::kTargetCrash, n, at, until);
                });
    run_process(p.seed, kSsdStream, n, p.ssd, p.horizon,
                [&](SimTime at, SimTime until, Rng&) {
                  add(FaultKind::kSsdCrash, n, at, until);
                  correlate(FaultKind::kSsdCrash, n, at, until);
                });
    run_process(p.seed, kLinkStream, n, p.link, p.horizon,
                [&](SimTime at, SimTime until, Rng& rng) {
                  // Links always come back (flap, not loss).
                  if (until == 0) {
                    until = at + std::max<SimTime>(
                                     1, static_cast<SimTime>(
                                            draw_repair(rng, p.link)));
                  }
                  add(FaultKind::kLinkDown, n, at, until);
                });
    run_process(p.seed, kStragglerStream, n, p.straggler, p.horizon,
                [&](SimTime at, SimTime until, Rng& rng) {
                  if (until == 0) {
                    until = at + std::max<SimTime>(
                                     1, static_cast<SimTime>(
                                            draw_repair(rng, p.straggler)));
                  }
                  FailureEvent& e = add(FaultKind::kStraggler, n, at, until);
                  e.factor = kStragglerFactorMin +
                             rng.uniform01() * (kStragglerFactorMax -
                                                kStragglerFactorMin);
                });
  }
  for (uint32_t r = 0; r < racks; ++r) {
    run_process(p.seed, kPartitionStream, r, p.partition, p.horizon,
                [&](SimTime at, SimTime until, Rng& rng) {
                  if (until == 0) {
                    until = at + std::max<SimTime>(
                                     1, static_cast<SimTime>(
                                            draw_repair(rng, p.partition)));
                  }
                  add(FaultKind::kPartition, r, at, until);
                });
  }
  if (p.job_kill_prob > 0 && aux.uniform01() < p.job_kill_prob &&
      p.epochs > 0) {
    const uint32_t epoch = static_cast<uint32_t>(aux.uniform(p.epochs));
    FailureEvent& e = add(FaultKind::kJobKill, epoch, 0, 0);
    e.kill_point = kill_point_from_index(aux.next());
  }

  std::stable_sort(ev.begin(), ev.end(),
                   [](const FailureEvent& a, const FailureEvent& b) {
                     if (a.at != b.at) return a.at < b.at;
                     if (a.kind != b.kind) return a.kind < b.kind;
                     return a.victim < b.victim;
                   });
  if (ev.size() > p.max_events) ev.resize(p.max_events);
  for (uint32_t i = 0; i < ev.size(); ++i) ev[i].id = i;
  return out;
}

double schedule_mtbf(const ScheduleParams& p) {
  // Crash-class failure rate across all domains: N_nodes/target_mtbf +
  // N_nodes/ssd_mtbf + N_racks/partition_mtbf. Stragglers and link
  // flaps don't lose work the way Young/Daly's model assumes.
  double rate = 0;
  const uint32_t nodes = std::max(1u, p.storage_nodes);
  if (p.target.mtbf > 0) rate += nodes / p.target.mtbf;
  if (p.ssd.mtbf > 0) rate += nodes / p.ssd.mtbf;
  if (p.partition.mtbf > 0) rate += std::max(1u, p.racks) / p.partition.mtbf;
  if (rate <= 0) return static_cast<double>(p.horizon);
  return 1.0 / rate;
}

std::string serialize_schedule(const FailureSchedule& s) {
  std::string out = "# nvmecr chaos schedule v1\n";
  char buf[256];
  const ScheduleParams& p = s.params;
  std::snprintf(buf, sizeof(buf),
                "seed 0x%llx\nhorizon %lld\nstorage_nodes %u\nracks %u\n"
                "epochs %u\n",
                static_cast<unsigned long long>(p.seed),
                static_cast<long long>(p.horizon), p.storage_nodes, p.racks,
                p.epochs);
  out += buf;
  for (const FailureEvent& e : s.events) {
    std::snprintf(buf, sizeof(buf), "event %u %s %u %lld %lld %.6f %s\n",
                  e.id, fault_kind_name(e.kind), e.victim,
                  static_cast<long long>(e.at),
                  static_cast<long long>(e.until), e.factor,
                  workloads::kill_point_name(e.kill_point));
    out += buf;
  }
  return out;
}

StatusOr<FailureSchedule> parse_schedule(const std::string& text) {
  FailureSchedule s;
  std::istringstream in(text);
  std::string line;
  bool versioned = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.find("chaos schedule v1") != std::string::npos)
        versioned = true;
      continue;
    }
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "seed") {
      std::string v;
      ls >> v;
      s.params.seed = std::strtoull(v.c_str(), nullptr, 0);
    } else if (key == "horizon") {
      ls >> s.params.horizon;
    } else if (key == "storage_nodes") {
      ls >> s.params.storage_nodes;
    } else if (key == "racks") {
      ls >> s.params.racks;
    } else if (key == "epochs") {
      ls >> s.params.epochs;
    } else if (key == "event") {
      FailureEvent e;
      std::string kind, kp;
      ls >> e.id >> kind >> e.victim >> e.at >> e.until >> e.factor >> kp;
      if (ls.fail() || !parse_fault_kind(kind, e.kind)) {
        return InvalidArgumentError("bad schedule event line: " + line);
      }
      e.kill_point = parse_kill_point(kp);
      s.events.push_back(e);
    } else {
      return InvalidArgumentError("unknown schedule key: " + key);
    }
  }
  if (!versioned) {
    return InvalidArgumentError("not a chaos schedule (missing v1 header)");
  }
  return s;
}

}  // namespace nvmecr::chaos
