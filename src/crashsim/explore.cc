#include "crashsim/explore.h"

#include <algorithm>
#include <set>

namespace nvmecr::crashsim {

namespace {

using microfs::FileStat;
using microfs::MicroFs;

/// What happened to one crash state. Exactly one of the flags is set on
/// success paths; `detail` is non-empty iff the state violated the
/// recovery contract.
struct StateOutcome {
  bool recovered = false;
  bool typed_error = false;
  std::string detail;
};

bool typed_recovery_error(ErrorCode code) {
  return code == ErrorCode::kCorruption || code == ErrorCode::kIoError ||
         code == ErrorCode::kNoSpace;
}

/// Recursively verifies every tagged file reachable from `dir`.
sim::Task<Status> verify_tree(MicroFs& fs, std::string dir) {
  auto names = fs.readdir(dir);
  NVMECR_CO_RETURN_IF_ERROR(names.status());
  for (const std::string& name : *names) {
    const std::string path = dir == "/" ? "/" + name : dir + "/" + name;
    auto st = fs.stat(path);
    NVMECR_CO_RETURN_IF_ERROR(st.status());
    if (st->type == microfs::InodeType::kDirectory) {
      NVMECR_CO_RETURN_IF_ERROR(co_await verify_tree(fs, path));
    } else if (st->content == microfs::ContentKind::kTagged) {
      NVMECR_CO_RETURN_IF_ERROR(co_await fs.verify_tagged(path));
    }
  }
  co_return OkStatus();
}

sim::Task<StateOutcome> check_state(sim::Engine& engine, hw::BlockDevice& dev,
                                    const ExploreOptions& opts,
                                    bool recovery_required) {
  StateOutcome out;
  auto fs = co_await MicroFs::recover(engine, dev, opts.fs);
  if (!fs.ok()) {
    const Status& s = fs.status();
    if (!typed_recovery_error(s.code())) {
      out.detail = "recover() returned an untyped error: " + s.to_string();
    } else if (recovery_required) {
      out.detail = "recovery required but failed: " + s.to_string();
    } else {
      out.typed_error = true;
    }
    co_return out;
  }
  auto report = co_await (*fs)->fsck();
  if (!report.ok()) {
    out.detail = "fsck() errored: " + report.status().to_string();
    co_return out;
  }
  if (!report->clean()) {
    out.detail = report->to_string();
    co_return out;
  }
  if (Status s = co_await verify_tree(**fs, "/"); !s.ok()) {
    out.detail = "content verification failed: " + s.to_string();
    co_return out;
  }
  out.recovered = true;
  co_return out;
}

}  // namespace

std::string ExploreResult::summary() const {
  std::string s = "crash-explore: " + std::to_string(boundaries) +
                  " boundaries, " + std::to_string(states) + " states (" +
                  std::to_string(recovered) + " recovered, " +
                  std::to_string(typed_errors) + " typed pre-format errors)";
  if (ok()) return s + ", all clean";
  s += ", " + std::to_string(failures.size()) + " FAILURE(S):";
  for (const CrashFailure& f : failures) {
    s += "\n  boundary " + std::to_string(f.boundary);
    if (f.torn_sectors > 0) {
      s += " torn@" + std::to_string(f.torn_sectors);
    }
    s += ": " + f.detail;
  }
  return s;
}

ExploreResult explore(const RecordingDevice& rec, const ExploreOptions& opts) {
  ExploreResult result;
  const auto& boundaries = rec.boundaries();
  result.boundaries = boundaries.size();

  auto run_state = [&](size_t idx, uint64_t torn, bool required) {
    auto img = rec.materialize(boundaries[idx], torn);
    sim::Engine engine;
    auto outcome =
        engine.try_run_task(check_state(engine, *img, opts, required));
    ++result.states;
    if (!outcome.has_value()) {
      result.failures.push_back(
          {idx, torn, "recovery deadlocked (engine ran dry mid-await)"});
      return;
    }
    if (!outcome->detail.empty()) {
      result.failures.push_back({idx, torn, std::move(outcome->detail)});
    } else if (outcome->recovered) {
      ++result.recovered;
    } else {
      ++result.typed_errors;
    }
  };

  for (size_t idx = 0; idx < boundaries.size(); ++idx) {
    if (opts.max_states > 0 && result.states >= opts.max_states) break;
    run_state(idx, 0, idx >= opts.require_recovery_from);

    if (opts.torn == ExploreOptions::Torn::kNone) continue;
    if (boundaries[idx].kind != BoundaryKind::kWrite) continue;
    const uint64_t n = rec.last_mutation_sectors(boundaries[idx]);
    if (n <= 1) continue;
    std::set<uint64_t> cuts;
    if (opts.torn == ExploreOptions::Torn::kExhaustive) {
      for (uint64_t t = 1; t < n; ++t) cuts.insert(t);
    } else {
      cuts.insert(1);
      cuts.insert(n / 2);
      cuts.insert(n - 1);
      cuts.erase(0);
      cuts.erase(n);
    }
    const bool torn_required = idx > opts.require_recovery_from;
    for (uint64_t t : cuts) {
      if (opts.max_states > 0 && result.states >= opts.max_states) break;
      run_state(idx, t, torn_required);
    }
  }
  return result;
}

}  // namespace nvmecr::crashsim
