// Exhaustive crash-point exploration over a seeded microfs workload —
// the CI entry point of the crashsim harness (DESIGN.md §12).
//
// Records every persistence boundary of a format + seeded workload run,
// then for each boundary (and torn-write variant) materializes the
// frozen device state, recovers it, and checks the full fsck invariant
// set plus end-to-end content verification. Any violation prints the
// reproducing (seed, boundary, torn) triple and exits nonzero.
//
// Run:  ./build/examples/crash_explore --seed 1 --ops 64
//         --torn sampled --min-boundaries 100
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "crashsim/explore.h"
#include "crashsim/recorder.h"
#include "crashsim/workload.h"
#include "hw/ram_device.h"
#include "microfs/microfs.h"
#include "simcore/engine.h"

using namespace nvmecr;
using namespace nvmecr::literals;

namespace {

struct Cli {
  uint64_t seed = 1;
  uint32_t ops = 64;
  crashsim::ExploreOptions::Torn torn =
      crashsim::ExploreOptions::Torn::kSampled;
  size_t min_boundaries = 100;
  size_t max_states = 0;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--ops N] "
               "[--torn none|sampled|exhaustive]\n"
               "          [--min-boundaries N] [--max-states N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--seed") == 0 && (v = next())) {
      cli.seed = std::strtoull(v, nullptr, 0);
    } else if (std::strcmp(argv[i], "--ops") == 0 && (v = next())) {
      cli.ops = static_cast<uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (std::strcmp(argv[i], "--min-boundaries") == 0 && (v = next())) {
      cli.min_boundaries = std::strtoull(v, nullptr, 0);
    } else if (std::strcmp(argv[i], "--max-states") == 0 && (v = next())) {
      cli.max_states = std::strtoull(v, nullptr, 0);
    } else if (std::strcmp(argv[i], "--torn") == 0 && (v = next())) {
      if (std::strcmp(v, "none") == 0) {
        cli.torn = crashsim::ExploreOptions::Torn::kNone;
      } else if (std::strcmp(v, "sampled") == 0) {
        cli.torn = crashsim::ExploreOptions::Torn::kSampled;
      } else if (std::strcmp(v, "exhaustive") == 0) {
        cli.torn = crashsim::ExploreOptions::Torn::kExhaustive;
      } else {
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }

  microfs::Options fsopts;
  fsopts.log_slots = 512;

  sim::Engine eng;
  hw::RamDevice ram(64_MiB, 4096);
  crashsim::RecordingDevice rec(ram);

  auto fs = eng.run_task(microfs::MicroFs::format(eng, rec, fsopts));
  if (!fs.ok()) {
    std::fprintf(stderr, "format failed: %s\n",
                 fs.status().to_string().c_str());
    return 1;
  }
  const size_t post_format = rec.boundaries().size();

  crashsim::WorkloadSpec spec;
  spec.seed = cli.seed;
  spec.ops = cli.ops;
  auto issued = eng.run_task(crashsim::run_workload(**fs, spec));
  if (!issued.ok()) {
    std::fprintf(stderr, "workload failed (seed %llu): %s\n",
                 static_cast<unsigned long long>(cli.seed),
                 issued.status().to_string().c_str());
    return 1;
  }
  fs->reset();
  rec.record_teardown();

  std::printf("seed %llu: %u ops -> %zu journal mutations, %zu boundaries "
              "(%zu during format)\n",
              static_cast<unsigned long long>(cli.seed), *issued,
              rec.journal_size(), rec.boundaries().size(), post_format);
  if (rec.boundaries().size() < cli.min_boundaries) {
    std::fprintf(stderr,
                 "FAIL: only %zu boundaries, expected >= %zu (workload too "
                 "small to be meaningful)\n",
                 rec.boundaries().size(), cli.min_boundaries);
    return 1;
  }

  crashsim::ExploreOptions opts;
  opts.torn = cli.torn;
  opts.fs = fsopts;
  opts.require_recovery_from = post_format;
  opts.max_states = cli.max_states;
  const crashsim::ExploreResult res = crashsim::explore(rec, opts);

  std::printf("%s\n", res.summary().c_str());
  if (!res.ok()) {
    std::fprintf(stderr,
                 "reproduce with: crash_explore --seed %llu --ops %u "
                 "(first failure: boundary %zu, torn %llu)\n",
                 static_cast<unsigned long long>(cli.seed), cli.ops,
                 res.failures.front().boundary,
                 static_cast<unsigned long long>(
                     res.failures.front().torn_sectors));
    return 1;
  }
  return 0;
}
