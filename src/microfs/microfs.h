// MicroFs — a private-namespace micro filesystem instance (§III-A).
//
// One MicroFs instance is the storage runtime of exactly one application
// process, mounted on that process's private partition of a (possibly
// remote) NVMe namespace. It embodies the four microfs principles:
//
//  1. Direct userspace device access: all IO goes through the supplied
//     BlockDevice (an SPDK-like local queue or an NVMf remote device) —
//     no kernel path, no VFS.
//  2. Device integrity by partitioning: the instance only sees its
//     PartitionView; no coordination with other instances is ever
//     needed after setup.
//  3. Synchronization-free control and data planes: metadata lives in
//     this instance's DRAM (inode table, block pool, path B+Tree); the
//     device view wraps a dedicated hardware queue.
//  4. Durability without buffering: data writes go straight to the
//     device (capacitor-backed RAM); metadata mutations append compact
//     records to the write-ahead operation log before the next
//     operation proceeds; DRAM state is periodically checkpointed to a
//     reserved device region so the log stays bounded.
//
// The public API mirrors the POSIX calls NVMe-CR intercepts (§III-C):
// mkdir/creat/open/read/write/fsync/close/unlink/stat/readdir, plus the
// tagged-payload variants used for bulk checkpoint data (content
// identified by a per-file pattern seed; see hw::PayloadStore).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/block_device.h"
#include "microfs/block_pool.h"
#include "microfs/bptree.h"
#include "microfs/dirfile.h"
#include "microfs/fsck.h"
#include "microfs/inode.h"
#include "microfs/oplog.h"
#include "obs/observer.h"
#include "simcore/engine.h"

namespace nvmecr::microfs {

using namespace nvmecr::literals;

struct Options {
  /// Hugeblock size (§III-E; Figure 7(a) sweeps this; 32 KiB optimal).
  uint64_t hugeblock_size = 32_KiB;

  /// Operation-log ring capacity.
  uint32_t log_slots = 4096;

  /// Sliding window for log record coalescing; 0 disables (ablation /
  /// drilldown baseline).
  uint32_t coalesce_window = 64;

  /// Metadata provenance (§III-E): true logs compact operation records;
  /// false writes full inode images through the device on every
  /// metadata-mutating op (the "+userspace & private namespace" drilldown
  /// configuration without provenance). Recovery requires provenance.
  bool metadata_provenance = true;

  /// Data-plane submission batching: device commands are still accounted
  /// per hugeblock, but up to this many contiguous hugeblocks are
  /// simulated as one event. 1 = fully faithful arbitration.
  uint32_t io_batch_hugeblocks = 1;

  /// Auto state-checkpoint trigger: when no files are open and free log
  /// slots drop below this fraction of capacity, a background checkpoint
  /// starts (§III-E "Metadata Provenance", background thread). 0 never
  /// triggers.
  double checkpoint_free_threshold = 0.25;

  /// Bytes reserved for EACH of the two internal-state checkpoint
  /// regions; 0 = sized automatically from the partition geometry.
  uint64_t ckpt_region_bytes = 0;

  /// Per-operation and per-hugeblock software costs (the userspace
  /// control-plane CPU; what hugeblocks amortize). The per-block cost
  /// covers allocation, tracking, request building, and DMA mapping per
  /// hugeblock-unit request (§IV-B: small blocks raise metadata overhead
  /// and IO request count).
  SimDuration cpu_per_op = 250;         // ns
  SimDuration cpu_per_block = 500;      // ns

  /// fsync semantics: when true (default) fsync completes once the
  /// device's write pipeline has settled (cheap — data is already in
  /// capacitor-backed RAM, but it bounds checkpoint-time measurements to
  /// physical bandwidth). When false fsync is a pure no-op, exposing the
  /// burst-absorption effect of the device RAM.
  bool fsync_settles_device = true;

  /// Identity for POSIX permission checks (§III-F security model).
  uint32_t uid = 0;
};

/// Open-flags subset the intercepted calls need.
struct OpenFlags {
  bool read = true;
  bool write = false;
  bool create = false;
  bool truncate = false;
  static OpenFlags ReadOnly() { return {true, false, false, false}; }
  static OpenFlags WriteCreate() { return {false, true, true, false}; }
  static OpenFlags ReadWrite() { return {true, true, false, false}; }
};

struct FileStat {
  Ino ino = kInvalidIno;
  InodeType type = InodeType::kFile;
  ContentKind content = ContentKind::kNone;
  uint64_t size = 0;
  uint32_t mode = 0;
  uint32_t uid = 0;
};

struct MicroFsStats {
  uint64_t creates = 0;
  uint64_t opens = 0;
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t unlinks = 0;
  uint64_t renames = 0;
  uint64_t data_bytes_written = 0;   // includes hugeblock padding
  uint64_t payload_bytes_written = 0;  // bytes the app asked to write
  uint64_t data_bytes_read = 0;
  uint64_t dirent_bytes_written = 0;
  uint64_t ckpt_bytes_written = 0;
  uint64_t inode_writeback_bytes = 0;  // provenance-off mode only
  uint64_t state_checkpoints = 0;
  uint64_t replayed_records = 0;  // set by recover()

  /// Device bytes attributable to metadata (Table I's per-runtime
  /// overhead = log + dirents + state checkpoints + inode writeback).
  uint64_t metadata_device_bytes(const OpLog::Counters& log) const {
    return log.bytes_written + dirent_bytes_written + ckpt_bytes_written +
           inode_writeback_bytes;
  }
};

class MicroFs {
 public:
  /// Formats the partition and mounts a fresh instance. The device must
  /// outlive the filesystem.
  static sim::Task<StatusOr<std::unique_ptr<MicroFs>>> format(
      sim::Engine& engine, hw::BlockDevice& dev, Options options = {});

  /// Mounts an existing partition by loading the newest valid internal
  /// state checkpoint and replaying the operation log (§III-E recovery).
  static sim::Task<StatusOr<std::unique_ptr<MicroFs>>> recover(
      sim::Engine& engine, hw::BlockDevice& dev, Options options = {});

  ~MicroFs() = default;
  MicroFs(const MicroFs&) = delete;
  MicroFs& operator=(const MicroFs&) = delete;

  // --- namespace operations (control plane) ----------------------------
  sim::Task<Status> mkdir(const std::string& path, uint32_t mode = 0755);
  sim::Task<StatusOr<int>> open(const std::string& path, OpenFlags flags,
                                uint32_t mode = 0644);
  /// creat(2): open(path, O_WRONLY|O_CREAT|O_TRUNC, mode).
  sim::Task<StatusOr<int>> creat(const std::string& path,
                                 uint32_t mode = 0644) {
    OpenFlags f;
    f.read = false;
    f.write = true;
    f.create = true;
    f.truncate = true;
    co_return co_await open(path, f, mode);
  }
  sim::Task<Status> unlink(const std::string& path);
  /// rename(2) for files (directory renames would re-key every
  /// descendant path and are rejected with kIsDirectory). `to` must not
  /// exist; open descriptors stay valid (they hold inode numbers).
  sim::Task<Status> rename(const std::string& from, const std::string& to);
  sim::Task<Status> close(int fd);
  StatusOr<FileStat> stat(const std::string& path) const;
  /// Names of the live entries directly under `path`.
  StatusOr<std::vector<std::string>> readdir(const std::string& path) const;

  // --- data plane -------------------------------------------------------
  /// Appends real bytes at the fd's cursor.
  sim::Task<StatusOr<uint64_t>> write(int fd, std::span<const std::byte> data);
  /// Appends `len` pattern bytes (bulk checkpoint payload); IO is issued
  /// in hugeblock units (§III-E).
  sim::Task<Status> write_tagged(int fd, uint64_t len);
  /// Reads real bytes at the fd's read cursor.
  sim::Task<StatusOr<uint64_t>> read(int fd, std::span<std::byte> out);
  /// Reads `len` tagged bytes at the read cursor, verifying the device
  /// content matches the file's pattern; kCorruption on mismatch.
  sim::Task<Status> read_tagged(int fd, uint64_t len);
  /// Repositions the fd's read cursor (lseek(2) for reads).
  Status seek(int fd, uint64_t pos);
  /// Verifies the entire file's tagged content against its seed.
  sim::Task<Status> verify_tagged(const std::string& path);
  /// Durability barrier. Data and log records are already durable when
  /// the calls return (stronger than POSIX, §III-E), so this only
  /// settles the device write pipeline.
  sim::Task<Status> fsync(int fd);

  // --- state checkpointing ---------------------------------------------
  /// Serializes DRAM state (inodes + block pool + B+Tree) to the
  /// reserved device region, then truncates the log (atomic: the log is
  /// only truncated after the checkpoint is durable).
  sim::Task<Status> checkpoint_state();
  int open_file_count() const { return static_cast<int>(open_files_.size()); }

  /// Crash-consistency invariant checker (see microfs/fsck.h for the
  /// invariant list). Read-only: issues device reads for the directory
  /// files but never mutates state. A clean report means the DRAM
  /// metadata, the device-resident directory streams, and the operation
  /// log agree; the crash-exploration harness runs it on every recovered
  /// state. A retryable device error (e.g. an unreachable target) fails
  /// the scan with that status instead of being reported as an issue.
  sim::Task<StatusOr<FsckReport>> fsck();

  // --- observability ----------------------------------------------------
  /// Installs trace/metrics sinks on this instance and its operation
  /// log. `label` distinguishes instances in gauge names and trace
  /// tracks (e.g. "rank3" -> "microfs.rank3.*", track "microfs/rank3").
  /// Pass ({}, "") to detach.
  void set_observer(const obs::Observer& o, const std::string& label);

  const MicroFsStats& stats() const { return stats_; }
  const OpLog::Counters& log_counters() const { return log_->counters(); }
  uint32_t log_free_slots() const { return log_->free_slots(); }
  uint32_t log_capacity() const { return log_->capacity(); }
  /// Log slots with a deferred (group-committed) rewrite still pending.
  size_t log_dirty_slots() const { return log_->dirty_slots(); }
  const Options& options() const { return options_; }
  uint64_t data_region_blocks() const { return pool_.total(); }
  uint64_t free_blocks() const { return pool_.free_count(); }

  /// DRAM footprint of the metadata structures (Table I).
  size_t dram_footprint() const {
    return inodes_.memory_footprint() + pool_.memory_footprint() +
           paths_.memory_footprint();
  }
  uint64_t metadata_device_bytes() const {
    return stats_.metadata_device_bytes(log_->counters());
  }

  /// Device-resident directory stream for `path` (decoded); lets tests
  /// and audits confirm the on-SSD directory file matches the namespace.
  sim::Task<StatusOr<std::vector<Dirent>>> read_dirfile(
      const std::string& path);

 private:
  struct Geometry {
    uint64_t log_base = 0;
    uint64_t log_bytes = 0;
    uint64_t ckpt_base_a = 0;
    uint64_t ckpt_base_b = 0;
    uint64_t ckpt_bytes = 0;
    uint64_t data_base = 0;
    uint64_t data_blocks = 0;
  };

  struct OpenFile {
    Ino ino = kInvalidIno;
    bool writable = false;
    uint64_t write_pos = 0;
    uint64_t read_pos = 0;
  };

  MicroFs(sim::Engine& engine, hw::BlockDevice& dev, Options options,
          Geometry geo);

  static StatusOr<Geometry> compute_geometry(const hw::BlockDevice& dev,
                                             const Options& options);
  sim::Task<Status> write_superblock();
  static sim::Task<StatusOr<std::pair<Options, Geometry>>> read_superblock(
      hw::BlockDevice& dev, const Options& requested);

  /// Path helpers (normalized absolute paths; components <= kMaxName).
  static Status validate_path(const std::string& path);
  static std::string parent_of(const std::string& path);
  static std::string basename_of(const std::string& path);

  /// Ensures hugeblocks cover file bytes [0, end); allocates the missing
  /// tail from the circular pool in ring order (replay-deterministic), in
  /// O(runs). All or nothing: on kNoSpace neither the pool nor the inode
  /// has changed.
  Status ensure_blocks(Inode& inode, uint64_t end);
  /// Frees every hugeblock of `inode` back to the pool in block-map order
  /// (replay-deterministic) and empties its block map; all or nothing.
  Status release_blocks(Inode& inode);
  uint64_t device_offset(const Inode& inode, uint64_t file_off) const;

  /// Issues tagged device IO in hugeblock units over the file range
  /// [off, off+len) (whole hugeblocks — the §III-E submission rule),
  /// batching contiguous device runs. `is_write` selects the direction;
  /// reads verify content.
  sim::Task<Status> hugeblock_io(Inode& inode, uint64_t off, uint64_t len,
                                 bool is_write);

  /// Appends a dirent to the parent directory's device-resident file.
  sim::Task<Status> append_dirent(Inode& dir, const Dirent& entry);

  /// Logs a metadata op (or writes back the full inode when provenance
  /// is off); retries once after a forced state checkpoint if the log is
  /// full.
  sim::Task<Status> log_op(LogRecord rec, const Inode& touched);

  /// Auto-checkpoint trigger (close-time, §III-E background thread).
  void maybe_spawn_checkpoint();

  /// Recovery replay of one scanned record.
  Status replay_record(const LogRecord& rec,
                       std::map<Ino, std::string>& ino_paths);
  /// Grows `parent_ino`'s dirfile bookkeeping to the record's post-op
  /// size (no-op when the loaded checkpoint already covers it).
  Status replay_dirent_growth(Ino parent_ino, uint64_t psize);

  sim::Engine& engine_;
  hw::BlockDevice& dev_;
  Options options_;
  Geometry geo_;

  InodeTable inodes_;
  BlockPool pool_;
  BpTree<std::string, Ino> paths_;
  std::unique_ptr<OpLog> log_;

  /// Coalescing-determinism guard: a WRITE record may only be extended
  /// if no *other* block-pool mutation happened since it was last
  /// touched — otherwise log replay would interleave allocations in a
  /// different order than the original execution did.
  struct CoalesceCandidate {
    uint64_t next_off = 0;
    uint64_t pool_version = 0;
  };
  std::map<Ino, CoalesceCandidate> coalesce_candidates_;
  uint64_t pool_version_ = 0;
  uint64_t pool_version_before_op_ = 0;

  std::map<int, OpenFile> open_files_;
  int next_fd_ = 3;
  bool checkpoint_in_flight_ = false;
  /// Expires with the instance. A spawned background state checkpoint
  /// holds a weak reference and does not start once it has expired: a
  /// crash (the instance destroyed without shutdown) kills the
  /// background thread along with the rest of DRAM.
  std::shared_ptr<bool> lifetime_ = std::make_shared<bool>(true);

  MicroFsStats stats_;

  // Observability (null/empty when detached).
  obs::Observer obs_;
  std::string trace_track_;
  obs::Counter* m_pool_allocs_ = nullptr;
  obs::Counter* m_pool_frees_ = nullptr;
  obs::Gauge* m_pool_occupancy_ = nullptr;
  obs::Counter* m_bptree_ops_ = nullptr;
  uint16_t profile_tag_data_ = 0;  // "microfs/data" cost center

  /// Books FS-side CPU into the epoch critical path (no-op unprofiled).
  void record_serialize(SimDuration d);
};

}  // namespace nvmecr::microfs
