// Kernel filesystem cost models (ext4-like and XFS-like).
//
// These are behavioural models, not reimplementations: they keep just
// enough state (open files, sizes, dirty bytes, a shared directory lock)
// to charge realistic costs for the operations checkpoint workloads
// issue — create/open, buffered write, fsync, read, unlink — through the
// kernel path: syscall trap, VFS, page-cache copy, block-allocation per
// fs block, a journaled writeback pipeline, the block layer, and
// interrupt-driven completion on a shared kernel hardware queue.
//
// The per-filesystem `writeback_bw` expresses the serialization real
// journaling filesystems exhibit under concurrent fsync storms (jbd2's
// single commit thread for ext4; XFS's delayed allocation doing much
// better) — calibrated so ext4/XFS land at the efficiencies the paper
// measures in Figure 7(c). All time spent inside these calls counts as
// kernel time (§IV-D's 76.5%/79% measurements).
//
// Names and descriptors follow POSIX: `open` binds the new fd to the
// file itself, not to its name, so IO on an fd costs O(1) and never
// looks the path up again. `unlink` removes only the name; a file that
// is still open lives on until its last fd is closed, and a later
// create of the same path makes a new, independent file.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/nvme_ssd.h"
#include "kernelfs/kernel_costs.h"
#include "simcore/sync.h"

namespace nvmecr::kernelfs {

struct LocalFsParams {
  enum class Kind { kExt4, kXfs };
  Kind kind = Kind::kExt4;

  /// Filesystem block size (kernel filesystems top out at 4 KiB —
  /// the contrast with NVMe-CR hugeblocks, §III-E).
  uint32_t fs_block = 4096;

  /// Block-allocation CPU per new block. ext4's bitmap allocator pays
  /// per block; XFS's extent trees amortize heavily.
  SimDuration alloc_per_block = 400;  // ns

  /// Journal commit on fsync: a small serialized write plus a bounded
  /// cache-flush latency (REQ_PREFLUSH against the device's volatile
  /// cache — not a full backlog drain).
  uint64_t journal_commit_bytes = 16_KiB;
  SimDuration journal_flush_latency = 800 * kMicrosecond;

  /// Effective writeback pipeline bandwidth (journal + allocator
  /// serialization ceiling), shared by all writers of this filesystem.
  uint64_t writeback_bw = 1250_MBps;

  /// Directory-operation service time under the shared VFS dentry lock.
  SimDuration dir_op_cost = 12_us;

  static LocalFsParams ext4() { return LocalFsParams{}; }
  static LocalFsParams xfs() {
    LocalFsParams p;
    p.kind = Kind::kXfs;
    p.alloc_per_block = 40;  // delayed extent allocation
    p.journal_commit_bytes = 8_KiB;
    p.journal_flush_latency = 400 * kMicrosecond;
    p.writeback_bw = 1900_MBps;
    p.dir_op_cost = 10_us;
    return p;
  }
};

class LocalFs {
 public:
  /// Creates the filesystem over namespace `nsid` of `ssd`, holding one
  /// kernel hardware queue (the in-kernel nvme driver's submission path).
  LocalFs(sim::Engine& engine, hw::NvmeSsd& ssd, uint32_t nsid,
          LocalFsParams params = {});
  ~LocalFs();

  LocalFs(const LocalFs&) = delete;
  LocalFs& operator=(const LocalFs&) = delete;

  // All operations model blocking POSIX syscalls and charge their whole
  // duration as kernel time.

  /// open(2) with O_CREAT when `create`; directory ops serialize on the
  /// shared dentry lock.
  sim::Task<StatusOr<int>> open(const std::string& path, bool create);

  /// write(2): page-cache copy + allocation for newly touched blocks.
  /// Appends at the current file offset (checkpoint streams are
  /// sequential).
  sim::Task<Status> write(int fd, uint64_t len);

  /// fsync(2): write back this file's dirty bytes through the journaled
  /// pipeline and the kernel block layer, then commit the journal.
  sim::Task<Status> fsync(int fd);

  /// read(2): cold read from the device + copy to user.
  sim::Task<Status> read(int fd, uint64_t len);

  sim::Task<Status> close(int fd);

  /// unlink(2): removes the name only; open fds keep the file.
  sim::Task<Status> unlink(const std::string& path);

  /// Cumulative simulated time spent inside these syscalls.
  SimDuration kernel_time() const { return kernel_time_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t create_count() const { return create_count_; }

 private:
  struct File {
    uint64_t size = 0;
    uint64_t dirty = 0;       // buffered, not yet written back
    uint64_t read_pos = 0;
    uint64_t seed = 0;        // content identity on the device
    uint64_t device_base = 0; // where this file's data lives
  };

  /// Flushes `bytes` of a file through writeback pipeline + block layer
  /// + device (chunked at the kernel max request size).
  sim::Task<Status> writeback(File& file, uint64_t bytes);

  /// The slot of open fd `fd`, or null for a bad fd.
  std::shared_ptr<File>* fd_slot(int fd);

  sim::Engine& engine_;
  hw::NvmeSsd& ssd_;
  uint32_t nsid_;
  uint32_t queue_id_;
  std::unique_ptr<hw::BlockDevice> dev_;
  LocalFsParams params_;

  sim::FifoMutex dir_lock_;
  sim::BandwidthResource writeback_pipe_;
  sim::FifoMutex journal_lock_;

  /// Name → file for open/unlink; fd → file for every other op. Slot
  /// fd - kFirstFd of `open_files_` holds fd's file (null once closed);
  /// open reuses closed fds first.
  static constexpr int kFirstFd = 3;
  std::map<std::string, std::shared_ptr<File>> files_;
  std::vector<std::shared_ptr<File>> open_files_;
  std::vector<int> free_fds_;
  uint64_t alloc_cursor_ = 0;  // simple bump space allocation

  SimDuration kernel_time_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t create_count_ = 0;
};

}  // namespace nvmecr::kernelfs
