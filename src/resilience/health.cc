#include "resilience/health.h"

#include <algorithm>
#include <string>

#include "simcore/trace.h"

namespace nvmecr::resilience {

const char* target_state_name(TargetState s) {
  switch (s) {
    case TargetState::kHealthy:
      return "healthy";
    case TargetState::kSuspect:
      return "suspect";
    case TargetState::kDead:
      return "dead";
    case TargetState::kHealing:
      return "healing";
  }
  return "?";
}

HealthMonitor::HealthMonitor(nvmecr_rt::Cluster& cluster)
    : cluster_(cluster), obs_(cluster.observer()) {
  if (obs_.metrics != nullptr) {
    m_deaths_ = obs_.metrics->counter("resilience.deaths");
    m_false_alarms_ = obs_.metrics->counter("resilience.false_alarms");
  }
}

void HealthMonitor::track(fabric::NodeId node) {
  targets_.emplace(node, Target{});
}

void HealthMonitor::transition(fabric::NodeId node, Target& t,
                               TargetState next) {
  if (t.state == next) return;
  if (next == TargetState::kDead) {
    t.dead_since = cluster_.engine().now();
    if (m_deaths_ != nullptr) m_deaths_->add();
  }
  if (t.state == TargetState::kSuspect && next == TargetState::kHealthy &&
      m_false_alarms_ != nullptr) {
    m_false_alarms_->add();
  }
  t.state = next;
  ++transitions_;
  if (obs_.trace != nullptr) {
    obs_.trace->add_instant(
        "resilience/health",
        "node" + std::to_string(node) + ":" + target_state_name(next),
        cluster_.engine().now());
  }
}

void HealthMonitor::note_ok(fabric::NodeId node) {
  auto it = targets_.find(node);
  if (it == targets_.end()) return;
  Target& t = it->second;
  t.misses = 0;
  switch (t.state) {
    case TargetState::kHealthy:
      break;
    case TargetState::kSuspect:
      transition(node, t, TargetState::kHealthy);
      break;
    case TargetState::kDead:
      // Back from the dead: route-able again only once healing finishes.
      transition(node, t, TargetState::kHealing);
      break;
    case TargetState::kHealing:
      break;
  }
}

void HealthMonitor::note_miss(fabric::NodeId node) {
  auto it = targets_.find(node);
  if (it == targets_.end()) return;
  Target& t = it->second;
  if (t.state == TargetState::kDead) return;
  if (t.state == TargetState::kHealing) {
    // Relapsed during healing: straight back to dead, no fresh hysteresis
    // — we already know this target is flaky.
    transition(node, t, TargetState::kDead);
    return;
  }
  ++t.misses;
  if (t.misses >= kDeadAfterMisses) {
    transition(node, t, TargetState::kDead);
  } else if (t.state == TargetState::kHealthy) {
    transition(node, t, TargetState::kSuspect);
  }
}

void HealthMonitor::note_exhausted(fabric::NodeId node) {
  auto it = targets_.find(node);
  if (it == targets_.end()) return;
  Target& t = it->second;
  if (t.state == TargetState::kDead) return;
  t.misses = kDeadAfterMisses;
  transition(node, t, TargetState::kDead);
}

void HealthMonitor::note_healed(fabric::NodeId node) {
  auto it = targets_.find(node);
  if (it == targets_.end()) return;
  Target& t = it->second;
  if (t.state != TargetState::kHealing) return;
  t.misses = 0;
  transition(node, t, TargetState::kHealthy);
}

TargetState HealthMonitor::state(fabric::NodeId node) const {
  auto it = targets_.find(node);
  return it == targets_.end() ? TargetState::kHealthy : it->second.state;
}

SimTime HealthMonitor::dead_since(fabric::NodeId node) const {
  auto it = targets_.find(node);
  return it == targets_.end() ? 0 : it->second.dead_since;
}

std::vector<fabric::RackId> HealthMonitor::dead_domains() const {
  std::vector<fabric::RackId> out;
  for (const auto& [node, t] : targets_) {
    if (t.state != TargetState::kDead) continue;
    const fabric::RackId d = cluster_.topology().failure_domain(node);
    if (std::find(out.begin(), out.end(), d) == out.end()) out.push_back(d);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void HealthMonitor::nodes_in_state(TargetState s,
                                   std::vector<fabric::NodeId>& out) const {
  out.clear();
  for (const auto& [node, t] : targets_) {
    if (t.state == s) out.push_back(node);
  }
}

sim::Task<void> HealthMonitor::heartbeat(SimTime until) {
  sim::Engine& engine = cluster_.engine();
  while (engine.now() + kHeartbeatPeriod <= until) {
    co_await engine.delay(kHeartbeatPeriod);
    // std::map iteration: probes fire in node order, deterministically.
    for (auto& [node, t] : targets_) {
      (void)t;
      if (cluster_.storage_node_up(node, engine.now())) {
        note_ok(node);
      } else {
        note_miss(node);
      }
    }
  }
}

}  // namespace nvmecr::resilience
