// Exhaustive crash-point exploration over a recorded run.
//
// Given a RecordingDevice that witnessed a workload (format + namespace
// + data ops), explore() enumerates every persistence boundary —
// optionally including torn variants of multi-sector writes — and for
// each one materializes the frozen device state, runs
// MicroFs::recover() against it under a fresh simulation engine, and
// asserts the recovery contract:
//
//   * recover() either succeeds or returns a *typed* error
//     (kCorruption / kIoError / kNoSpace) — a deadlocked recovery or an
//     untyped error code is a contract violation;
//   * typed errors are only acceptable for states frozen before
//     `require_recovery_from` (boundaries inside format(), before the
//     superblock commit makes the partition mountable);
//   * a successful recovery must pass MicroFs::fsck() with zero issues
//     and verify every tagged file's content end to end.
//
// Everything is deterministic: the workload is seeded, the simulation
// is a DES, and boundaries are indexed — a failure report (seed,
// boundary index, torn sectors) replays exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crashsim/recorder.h"
#include "microfs/microfs.h"

namespace nvmecr::crashsim {

struct ExploreOptions {
  enum class Torn : uint8_t {
    kNone = 0,       // only completed-command states
    kSampled = 1,    // torn at sector 1, n/2, n-1 per multi-sector write
    kExhaustive = 2  // torn at every sector split 1..n-1
  };
  Torn torn = Torn::kSampled;

  /// Options to recover() with — must match how the recorded instance
  /// was formatted.
  microfs::Options fs;

  /// Boundary index (into RecordingDevice::boundaries()) from which
  /// recovery is *required* to succeed. States frozen earlier (mid-
  /// format) may fail with a typed error instead. Torn variants of
  /// boundary i sit logically before it, so they are required to
  /// recover only when i > require_recovery_from.
  size_t require_recovery_from = 0;

  /// Safety valve for CI: stop after this many states (0 = unlimited).
  size_t max_states = 0;
};

struct CrashFailure {
  size_t boundary = 0;
  uint64_t torn_sectors = 0;  // 0 = the completed-command state
  std::string detail;
};

struct ExploreResult {
  size_t boundaries = 0;    // boundaries enumerated
  size_t states = 0;        // states checked (incl. torn variants)
  size_t recovered = 0;     // recover() ok + fsck clean (+ files verified)
  size_t typed_errors = 0;  // acceptable typed recovery errors
  std::vector<CrashFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string summary() const;
};

/// Walks every boundary (and torn variant per `opts.torn`) of the
/// recorded run. Purely CPU-bound: each state gets its own engine and
/// image, nothing touches the recorded device.
ExploreResult explore(const RecordingDevice& rec, const ExploreOptions& opts);

}  // namespace nvmecr::crashsim
