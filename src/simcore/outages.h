// Outage windows: the one rule for "is X down at time t".
//
// Links, SSDs and NVMf target daemons are all armed with half-open
// sim-time windows [from, until) in which they are out of service; a
// window with until == 0 never ends (the chaos schedule file's
// convention, FailureEvent::permanent()). Windows accumulate: a failure
// schedule can take the same component down several times.
#pragma once

#include <vector>

#include "common/units.h"

namespace nvmecr::sim {

/// One [from, until) window; until == 0 means it never ends.
struct Window {
  SimTime from = 0;
  SimTime until = 0;

  bool contains(SimTime t) const {
    return t >= from && (until == 0 || t < until);
  }
};

/// A component's outage windows. Empty on the fault-free fast path.
class Outages {
 public:
  void add(SimTime from, SimTime until = 0) { windows_.push_back({from, until}); }

  /// True when some window covers `t`.
  bool active(SimTime t) const {
    for (const Window& w : windows_) {
      if (w.contains(t)) return true;
    }
    return false;
  }

 private:
  std::vector<Window> windows_;
};

}  // namespace nvmecr::sim
