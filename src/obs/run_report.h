// RunReport: command-line glue tying a TraceCollector and MetricsRegistry
// to output files for examples and bench binaries.
//
//   int main(int argc, char** argv) {
//     obs::RunReport report = obs::RunReport::from_args(argc, argv);
//     Cluster cluster(...);
//     cluster.install_observer(report.observer());
//     ... run ...
//     report.finish();   // writes --trace / --metrics outputs
//   }
//
// Recognised flags (both "--flag PATH" and "--flag=PATH" forms):
//   --trace PATH     write a Perfetto-loadable trace JSON
//   --metrics PATH   write a metrics snapshot (CSV, or JSON when PATH
//                    ends in ".json")
//   --profile PATH   run the deep profilers (dispatch cost centers +
//                    checkpoint-epoch drilldown) and write their tables
//                    to PATH ("-" prints to stdout)
//   --flight N       keep only the last N trace events (flight-recorder
//                    ring). Arms tracing even without --trace so the
//                    deadlock/failover dumps have a tail to print; the
//                    ring is only written to a file when --trace is also
//                    given.
//
// When no flag is given, observer() is all-null and instrumentation
// throughout the stack stays disabled.
#pragma once

#include <string>

#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/profile.h"
#include "simcore/profile.h"
#include "simcore/trace.h"

namespace nvmecr::obs {

class RunReport {
 public:
  /// Scans argv for --trace / --metrics. Unrecognised arguments are left
  /// for the caller to interpret.
  static RunReport from_args(int argc, char** argv);

  bool trace_enabled() const { return !trace_path_.empty(); }
  bool metrics_enabled() const { return !metrics_path_.empty(); }
  bool profile_enabled() const { return !profile_path_.empty(); }
  bool flight_enabled() const { return flight_events_ > 0; }
  bool enabled() const {
    return trace_enabled() || metrics_enabled() || profile_enabled() ||
           flight_enabled();
  }

  /// Pointers into this report's collector/registry/profilers, or nulls
  /// for any output that was not requested.
  Observer observer() {
    Observer o;
    if (trace_enabled() || flight_enabled()) o.trace = &trace_;
    if (metrics_enabled() || trace_enabled()) o.metrics = &metrics_;
    if (profile_enabled()) {
      o.dispatch = &dispatch_;
      o.epoch = &epoch_;
    }
    return o;
  }

  sim::TraceCollector& trace() { return trace_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Exports gauge timelines into the trace as counter tracks, then
  /// writes any requested files. Prints one line per file written (or a
  /// warning on failure). Safe to call when nothing was requested.
  void finish();

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string profile_path_;
  uint64_t flight_events_ = 0;
  sim::TraceCollector trace_;
  MetricsRegistry metrics_;
  sim::DispatchProfiler dispatch_;
  EpochProfiler epoch_;
};

}  // namespace nvmecr::obs
