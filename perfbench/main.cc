// Runs one unit of a benchmark workload in this process and prints its
// result as one JSON line. run.py drives the closed loop, one process per
// unit, and aggregates the units into the benchmark's metrics.
//
//   perfbench_run --workload nvmecr_weak448|dfs_multilevel448|chaos_campaign
//                 [--seed N] [--trace 0|1]
//
// A unit is one CoMD job, or one pass over kChaosSchedules failure
// schedules. Each unit runs in a fresh process, which run.py starts with
// a fixed address-space layout: with ASLR on, processes differed by about
// 12% in speed (measured on a 4-vCPU VM) while units within one process
// agreed closely.
//
// Output keys: ok, messages (errors and violations), wall_s (host s of
// the job, or of the pass), pieces_s (wall_s split into pieces that are
// the same work in every unit: stretches of kWindowEvents engine events,
// or the pass's schedules), calib_s (calibrate() after each piece),
// setup_s (median of the set-ups repeated after the unit), setup_reps_s
// (those set-ups), setup_calib_s (calibrate() after each), peak_rss_mb, fingerprint (hex
// hash of the simulated outputs), attempted, failed, events and layers
// (per-layer values; CoMD only when traced). Exit code 0 means a result
// was printed: a unit that fails is reported, never aborts.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

using namespace nvmecr;
using namespace nvmecr::perfbench;

namespace {

/// Set-up repetitions after the unit (which warms the host up): set-up
/// takes microseconds (CoMD) to a millisecond (chaos), so its median
/// needs many samples.
constexpr int kComdSetupReps = 21;
constexpr int kChaosSetupReps = 21;
/// Distinct failure schedules per chaos unit (about 3.5 s of host time).
constexpr uint32_t kChaosSchedules = 1000;

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Prints `, "name": [x, ...]`.
void print_list(const char* name, const std::vector<double>& xs) {
  std::printf(", \"%s\": [", name);
  for (size_t i = 0; i < xs.size(); ++i) {
    std::printf("%s%.9g", i ? ", " : "", xs[i]);
  }
  std::printf("]");
}

struct UnitResult {
  bool ok = true;
  std::vector<std::string> messages;
  double wall_s = 0;
  std::vector<double> pieces_s;
  std::vector<double> calib_s;
  std::vector<double> setup_reps_s;
  std::vector<double> setup_calib_s;
  double setup_s = 0;
  uint64_t fingerprint = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t events = 0;
  std::map<std::string, double> layers;

  void print() const {
    std::printf("{\"ok\": %s, \"messages\": [", ok ? "true" : "false");
    for (size_t i = 0; i < messages.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", json_string(messages[i]).c_str());
    }
    std::printf("], \"wall_s\": %.17g", wall_s);
    print_list("pieces_s", pieces_s);
    print_list("calib_s", calib_s);
    print_list("setup_reps_s", setup_reps_s);
    print_list("setup_calib_s", setup_calib_s);
    std::printf(", \"setup_s\": %.17g, "
                "\"peak_rss_mb\": %.17g, \"fingerprint\": \"%016" PRIx64
                "\", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"events\": %" PRIu64 ", \"layers\": {",
                setup_s, peak_rss_mb(), fingerprint, attempted, failed,
                events);
    const char* sep = "";
    for (const auto& [name, v] : layers) {
      std::printf("%s%s: %.17g", sep, json_string(name).c_str(), v);
      sep = ", ";
    }
    std::printf("}}\n");
  }
};

UnitResult run_comd(ComdWorkload w, uint64_t seed, bool traced) {
  const workloads::ComdParams params = comd_params(seed);
  const JobResult job = run_comd_job(w, params, traced);
  UnitResult u;
  u.ok = job.ok;
  if (!job.ok) u.messages.push_back(job.error);
  u.wall_s = job.wall_s;
  u.pieces_s = job.pieces_s;
  u.calib_s = job.calib_s;
  u.fingerprint = job.fingerprint;
  u.attempted = 1;
  u.failed = job.ok ? 0 : 1;
  u.events = job.events;
  u.layers = job.layers;
  for (int i = 0; i < kComdSetupReps; ++i) {
    u.setup_reps_s.push_back(run_comd_job(w, params, false, true).setup_s);
    u.setup_calib_s.push_back(calibrate());
  }
  u.setup_s = median(u.setup_reps_s);
  return u;
}

/// One pass over schedules seed .. seed + kChaosSchedules - 1. Every
/// pass of a run covers the same schedules, so a run's attempted/failed
/// depend on the seed only. The campaign runner builds its stack
/// privately, so nothing can be traced inside it.
UnitResult run_chaos(uint64_t seed) {
  ChaosWorkload w(seed);
  const workloads::AppRunResult& gold = w.golden();
  UnitResult u;
  u.fingerprint = fold(fold(kFoldBasis, gold.job_digest),
                       static_cast<uint64_t>(gold.total_time));
  std::vector<double> walls_ms, sim_ms;
  uint64_t completed = 0, typed = 0, faults = 0, from_initial = 0;
  for (uint32_t i = 0; i < kChaosSchedules; ++i) {
    const ChaosWorkload::Unit s = w.run(i);
    const chaos::RunOutcome& o = s.outcome;
    u.fingerprint = fold(u.fingerprint, outcome_fingerprint(o));
    walls_ms.push_back(s.wall_s * 1e3);
    u.pieces_s.push_back(s.wall_s);
    u.calib_s.push_back(s.calib_s);
    sim_ms.push_back(to_seconds(o.run_time) * 1e3);
    faults += o.faults.applied;
    from_initial += o.from_initial ? 1 : 0;
    if (o.verdict == chaos::Verdict::kCompleted) {
      ++completed;
    } else if (o.verdict == chaos::Verdict::kTypedFailure) {
      ++typed;
    } else {
      ++u.failed;
      char seed_hex[32];
      std::snprintf(seed_hex, sizeof(seed_hex), "0x%" PRIx64, o.schedule_seed);
      u.messages.push_back(std::string("violation: schedule seed ") +
                           seed_hex + " " + chaos::verdict_name(o.verdict) +
                           ": " + o.status.to_string());
    }
  }
  u.attempted = kChaosSchedules;
  for (const double w : u.pieces_s) u.wall_s += w;
  for (int i = 0; i < kChaosSetupReps; ++i) {
    u.setup_reps_s.push_back(ChaosWorkload(seed).setup_s());
    u.setup_calib_s.push_back(calibrate());
  }
  u.setup_s = median(u.setup_reps_s);
  auto& L = u.layers;
  L["chaos.schedules"] = static_cast<double>(kChaosSchedules);
  L["chaos.completed"] = static_cast<double>(completed);
  L["chaos.typed_failures"] = static_cast<double>(typed);
  L["chaos.violations"] = static_cast<double>(u.failed);
  L["chaos.faults_applied"] = static_cast<double>(faults);
  L["chaos.restored_from_initial"] = static_cast<double>(from_initial);
  L["chaos.sim_run_ms_p50"] = percentile(sim_ms, 50);
  L["chaos.schedule_p50_ms"] = percentile(walls_ms, 50);
  L["chaos.schedule_p90_ms"] = percentile(walls_ms, 90);
  L["workloads.sim_total_s"] = to_seconds(gold.total_time);
  return u;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload "
               "nvmecr_weak448|dfs_multilevel448|chaos_campaign\n"
               "                     [--seed N] [--trace 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  int trace = 0;
  if (argc % 2 != 1) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload = argv[i + 1];
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 0);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = std::atoi(argv[i + 1]);
    } else {
      return usage();
    }
  }
  if (trace != 0 && trace != 1) return usage();

  UnitResult u;
  if (workload == "nvmecr_weak448") {
    u = run_comd(ComdWorkload::kNvmecrWeak, seed, trace);
  } else if (workload == "dfs_multilevel448") {
    u = run_comd(ComdWorkload::kDfsMultilevel, seed, trace);
  } else if (workload == "chaos_campaign") {
    u = run_chaos(seed);
  } else {
    return usage();
  }
  u.print();
  return 0;
}
