// Write-ahead operation log with log record coalescing (§III-E
// "Metadata Provenance" + Figure 5).
//
// Every metadata-mutating syscall (mkdir, creat, write, unlink) appends a
// compact fixed-size record to a ring of slots on the remote SSD; the
// record is durable before the next operation proceeds. Only the syscall
// type and parameters are logged — never inodes or physical state — so
// recovery replays the operations against the last internal state
// checkpoint.
//
// Coalescing: consecutive writes to the same file update the previous
// WRITE record in place (extending its length) instead of consuming a
// new slot, exploiting the sequential nature of checkpoint IO. This
// keeps the log fill rate low (fewer forced state checkpoints) and makes
// replay near-instant (§IV-I: recovery 3.6 s with coalescing vs 4 s
// without).
//
// Group commit (DESIGN.md §11): a coalesced extension only updates the
// DRAM copy and marks the slot dirty; the device rewrite is deferred to
// the next flush point — a new-slot append, fsync, close, or state
// checkpoint — where all dirty slots are written as contiguous ranges in
// single submissions. N same-file extensions therefore cost one device
// IO instead of N. The durability contract weakens only for coalesced
// *extensions* (jbd2-style: they become durable at the next sync point);
// every record that takes a new slot — all namespace ops and first
// writes — is still durable before append() returns.
//
// Epochs mark state-checkpoint boundaries: begin_epoch() is called when
// a snapshot is taken; records after the snapshot carry the new epoch;
// truncate_before(E) discards older records once the checkpoint of epoch
// E is durable. Recovery replays every record with epoch >= the loaded
// checkpoint's epoch, in LSN order.
#pragma once

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "hw/block_device.h"
#include "microfs/inode.h"
#include "obs/observer.h"
#include "simcore/task.h"

namespace nvmecr::sim {
class Engine;
}  // namespace nvmecr::sim

namespace nvmecr::microfs {

enum class OpType : uint8_t {
  kMkdir = 1,
  kCreate = 2,
  kWrite = 3,
  kUnlink = 4,
  kRename = 5,
};

struct LogRecord {
  uint64_t lsn = 0;
  uint32_t epoch = 0;
  OpType type = OpType::kWrite;
  Ino ino = kInvalidIno;
  Ino parent = kInvalidIno;
  /// Type-specific: kWrite -> (offset, length); kCreate/kMkdir ->
  /// (mode, content seed); kUnlink -> unused; kRename -> (old parent
  /// ino, unused) with `parent` the new parent and `name` the new
  /// basename.
  uint64_t a = 0;
  uint64_t b = 0;
  /// Parent dirfile size immediately after this op's dirent append became
  /// durable (0 for kWrite and truncation records). Replay uses it as an
  /// idempotence guard: a state checkpoint forced *inside* the op (log
  /// ring full) already contains the dirent bookkeeping, and the record
  /// must not apply it twice. For kRename, `b` carries the same quantity
  /// for the old parent.
  uint64_t psize = 0;
  /// Bit 0 on kWrite: the payload was tagged (pattern) content; recovery
  /// restores the file's content kind from it.
  uint8_t flags = 0;
  /// Path component for namespace ops (empty for kWrite).
  std::string name;
};

inline constexpr uint8_t kLogFlagTagged = 1;

class OpLog {
 public:
  /// On-device bytes per slot (compact — contrast with 4 KiB+ physical
  /// journal blocks in kernel filesystems).
  static constexpr uint32_t kRecordBytes = 192;
  static constexpr size_t kMaxName = 80;

  struct Counters {
    uint64_t appended = 0;        // records that took a new slot
    uint64_t coalesced = 0;       // in-place extensions of a prior record
    uint64_t bytes_written = 0;   // device bytes for log maintenance
    uint64_t forced_full = 0;     // appends rejected because the ring was full
    uint64_t group_commits = 0;   // drains that committed deferred updates
  };

  /// `region_base` is the byte offset of the slot ring within `dev`;
  /// `slots` its capacity. `coalesce_window` bounds the backward search
  /// for a coalescible record (0 disables coalescing — the ablation and
  /// drilldown baselines).
  OpLog(hw::BlockDevice& dev, uint64_t region_base, uint32_t slots,
        uint32_t coalesce_window);

  /// Appends (or coalesces) and waits until the record is durable on the
  /// device. `allow_coalesce` is the caller's determinism gate (see
  /// MicroFs::CoalesceCandidate); the window/contiguity/epoch conditions
  /// are checked here. Returns kUnavailable when the ring is full — the
  /// caller must checkpoint state and truncate first.
  sim::Task<Status> append(LogRecord rec, bool allow_coalesce = true,
                           bool* coalesced_out = nullptr);

  /// Writes every dirty (deferred-coalesced) slot to the device, batching
  /// contiguous slot ranges into single submissions. Called by MicroFs at
  /// sync points (fsync, close, state checkpoint); append() also drains
  /// the dirty set whenever it takes a new slot. No-op when nothing is
  /// dirty.
  sim::Task<Status> flush();

  /// Slots with a deferred device rewrite (test/observability hook).
  size_t dirty_slots() const { return dirty_.size(); }

  /// Copy of the live in-DRAM records, oldest first (fsck hook: the
  /// checker cross-validates LSN/epoch monotonicity against the
  /// filesystem state without reaching into the deque).
  std::vector<LogRecord> live_snapshot() const {
    std::vector<LogRecord> out;
    out.reserve(live_.size());
    for (const auto& lr : live_) out.push_back(lr.record);
    return out;
  }

  uint32_t capacity() const { return slots_; }
  uint32_t live_records() const { return static_cast<uint32_t>(live_.size()); }
  uint32_t free_slots() const { return slots_ - live_records(); }
  uint32_t epoch() const { return epoch_; }
  uint64_t next_lsn() const { return next_lsn_; }
  const Counters& counters() const { return counters_; }

  /// Starts a new epoch at a state-snapshot boundary; also closes the
  /// coalescing window so pre-snapshot records are never extended.
  uint32_t begin_epoch();

  /// Drops in-DRAM tracking of records older than `epoch` (their slots
  /// become reusable). Called after the checkpoint of `epoch` is durable.
  void truncate_before(uint32_t epoch);

  /// Restores in-DRAM tracking from recovered records (post-replay), so
  /// a recovered filesystem can continue appending. `records` must be
  /// LSN-sorted; their slots are re-derived from the scan.
  void restore(const std::vector<std::pair<uint32_t, LogRecord>>& slot_records,
               uint32_t epoch, uint64_t next_lsn);

  /// Recovery scan: decodes every valid slot with epoch >= min_epoch,
  /// returned as (slot index, record) sorted by LSN.
  static sim::Task<StatusOr<std::vector<std::pair<uint32_t, LogRecord>>>> scan(
      hw::BlockDevice& dev, uint64_t region_base, uint32_t slots,
      uint32_t min_epoch);

  static void encode_record(const LogRecord& rec, std::vector<std::byte>& out);
  static StatusOr<LogRecord> decode_record(std::span<const std::byte> in);

  /// Installs trace/metrics sinks. Counter names are shared aggregates
  /// ("microfs.oplog.*") across all instances; the free-slot gauge and
  /// the trace track ("oplog/<label>") are per instance. The engine is
  /// passed explicitly because the log itself is clock-free. Pass
  /// ({}, "", nullptr) to detach.
  void set_observer(const obs::Observer& o, const std::string& label,
                    sim::Engine* engine);

 private:
  struct LiveRecord {
    uint32_t slot;
    LogRecord record;
  };

  /// Device IO behind flush()/append(), without the trace span.
  sim::Task<Status> flush_dirty();

  hw::BlockDevice& dev_;
  uint64_t region_base_;
  uint32_t slots_;
  uint32_t coalesce_window_;

  std::deque<LiveRecord> live_;  // oldest first; back = newest
  /// Slot -> latest record content awaiting its deferred device write.
  /// Ordered so flush() can batch contiguous slot ranges.
  std::map<uint32_t, LogRecord> dirty_;
  /// Coalesced extensions deferred since the last drain (feeds the
  /// group_commits counter).
  uint32_t deferred_pending_ = 0;
  uint32_t next_slot_ = 0;
  uint64_t next_lsn_ = 1;
  uint32_t epoch_ = 1;
  Counters counters_;

  // Observability (null when detached).
  obs::Observer obs_;
  sim::Engine* obs_engine_ = nullptr;
  std::string trace_track_;
  obs::Counter* m_appended_ = nullptr;
  obs::Counter* m_coalesced_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_forced_full_ = nullptr;
  obs::Counter* m_group_commits_ = nullptr;
  obs::Gauge* m_free_slots_ = nullptr;
  uint16_t profile_tag_ = 0;  // "microfs/oplog" cost center
};

}  // namespace nvmecr::microfs
