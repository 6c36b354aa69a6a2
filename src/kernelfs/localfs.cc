#include "kernelfs/localfs.h"

#include <algorithm>

#include "common/rng.h"

namespace nvmecr::kernelfs {

namespace {

/// copy_from_user / copy_to_user bandwidth through the page cache.
constexpr uint64_t kPageCacheBw = 5_GBps;
/// The kernel splits large IO into requests of at most this size.
constexpr uint64_t kMaxRequestBytes = 512_KiB;

/// Maps a logical (file base + offset) position to an aligned device
/// offset that fits a request of `aligned_len` bytes. The cost model only
/// needs placement to be deterministic and in-range, not extent-exact.
uint64_t place(const hw::BlockDevice& dev, uint64_t logical,
               uint64_t aligned_len) {
  const uint64_t bs = dev.hw_block_size();
  const uint64_t cap_blocks = dev.capacity() / bs;
  const uint64_t need_blocks = aligned_len / bs;
  NVMECR_CHECK(cap_blocks > need_blocks);
  return ((logical / bs) % (cap_blocks - need_blocks)) * bs;
}

/// RAII-style kernel-time attribution for one syscall.
class SyscallScope {
 public:
  SyscallScope(sim::Engine& engine, SimDuration& accum)
      : engine_(engine), accum_(accum), start_(engine.now()) {}
  ~SyscallScope() { accum_ += engine_.now() - start_; }

 private:
  sim::Engine& engine_;
  SimDuration& accum_;
  SimTime start_;
};
}  // namespace

LocalFs::LocalFs(sim::Engine& engine, hw::NvmeSsd& ssd, uint32_t nsid,
                 LocalFsParams params)
    : engine_(engine),
      ssd_(ssd),
      nsid_(nsid),
      queue_id_(ssd.alloc_queue().value()),
      dev_(ssd.open_queue(nsid, queue_id_)),
      params_(params),
      dir_lock_(engine),
      writeback_pipe_(engine, params.writeback_bw),
      journal_lock_(engine) {}

LocalFs::~LocalFs() { ssd_.free_queue(queue_id_); }

sim::Task<StatusOr<int>> LocalFs::open(const std::string& path, bool create) {
  SyscallScope scope(engine_, kernel_time_);
  co_await engine_.delay(kSyscallTrap + kVfsPerOp);

  auto it = files_.find(path);
  if (it == files_.end()) {
    if (!create) co_return NotFoundError(path);
    // Creation serializes on the shared dentry lock and journals the
    // new inode + directory entry.
    co_await dir_lock_.lock();
    co_await engine_.delay(params_.dir_op_cost);
    auto f = std::make_shared<File>();
    f->seed = mix64(fnv1a(path.data(), path.size()));
    f->device_base = alloc_cursor_;
    // Reserve a generous window per file; a bump allocator mirrors how
    // little the cost model cares about exact extents.
    alloc_cursor_ += 1_GiB;
    it = files_.emplace(path, std::move(f)).first;
    ++create_count_;
    dir_lock_.unlock();
  } else {
    it->second->read_pos = 0;
  }

  int fd;
  if (free_fds_.empty()) {
    fd = kFirstFd + static_cast<int>(open_files_.size());
    open_files_.push_back(it->second);
  } else {
    fd = free_fds_.back();
    free_fds_.pop_back();
    open_files_[static_cast<size_t>(fd - kFirstFd)] = it->second;
  }
  co_return fd;
}

std::shared_ptr<LocalFs::File>* LocalFs::fd_slot(int fd) {
  if (fd < kFirstFd) return nullptr;
  const auto i = static_cast<size_t>(fd - kFirstFd);
  if (i >= open_files_.size() || open_files_[i] == nullptr) return nullptr;
  return &open_files_[i];
}

sim::Task<Status> LocalFs::write(int fd, uint64_t len) {
  SyscallScope scope(engine_, kernel_time_);
  const std::shared_ptr<File>* slot = fd_slot(fd);
  if (slot == nullptr) co_return BadFdError();
  // The syscall holds its own reference, as the kernel does, so a
  // concurrent close cannot free the file under it.
  const std::shared_ptr<File> file = *slot;

  co_await engine_.delay(kSyscallTrap + kVfsPerOp);
  // copy_from_user into the page cache.
  co_await engine_.delay(transfer_time(len, kPageCacheBw));
  // Allocation for the newly touched fs blocks.
  const uint64_t new_blocks = ceil_div(len, params_.fs_block);
  co_await engine_.delay(
      static_cast<SimDuration>(new_blocks) * params_.alloc_per_block);

  file->size += len;
  file->dirty += len;
  bytes_written_ += len;
  co_return OkStatus();
}

sim::Task<Status> LocalFs::writeback(File& file, uint64_t bytes) {
  uint64_t remaining = bytes;
  uint64_t offset = file.size - file.dirty;
  while (remaining > 0) {
    const uint64_t req = std::min(remaining, kMaxRequestBytes);
    // Journal/allocator pipeline ceiling, shared across all writers.
    co_await engine_.sleep_until(writeback_pipe_.reserve(req));
    // Block layer + device + interrupt completion.
    co_await engine_.delay(kBlockLayerPerReq);
    const uint64_t aligned = round_up(req, dev_->hw_block_size());
    Status s = co_await dev_->write_tagged(
        place(*dev_, file.device_base + offset, aligned), aligned, file.seed);
    if (!s.ok()) co_return s;
    co_await engine_.delay(kInterruptPerReq);
    offset += req;
    remaining -= req;
  }
  co_return OkStatus();
}

sim::Task<Status> LocalFs::fsync(int fd) {
  SyscallScope scope(engine_, kernel_time_);
  const std::shared_ptr<File>* slot = fd_slot(fd);
  if (slot == nullptr) co_return BadFdError();
  const std::shared_ptr<File> file = *slot;

  co_await engine_.delay(kSyscallTrap);
  if (file->dirty > 0) {
    Status s = co_await writeback(*file, file->dirty);
    if (!s.ok()) co_return s;
    file->dirty = 0;
  }
  // Journal commit: serialized (single commit thread), small write +
  // device flush.
  co_await journal_lock_.lock();
  co_await engine_.delay(kBlockLayerPerReq);
  const uint64_t commit_len =
      round_up(params_.journal_commit_bytes, dev_->hw_block_size());
  Status s = co_await dev_->write_tagged(
      dev_->capacity() / dev_->hw_block_size() * dev_->hw_block_size() -
          commit_len,
      commit_len, /*seed=*/1);
  // REQ_PREFLUSH: the device's volatile cache settles within a bounded
  // latency; it does not wait for the entire flash backlog.
  co_await engine_.delay(params_.journal_flush_latency);
  co_await engine_.delay(kInterruptPerReq);
  journal_lock_.unlock();
  co_return s;
}

sim::Task<Status> LocalFs::read(int fd, uint64_t len) {
  SyscallScope scope(engine_, kernel_time_);
  const std::shared_ptr<File>* slot = fd_slot(fd);
  if (slot == nullptr) co_return BadFdError();
  const std::shared_ptr<File> file = *slot;

  co_await engine_.delay(kSyscallTrap + kVfsPerOp);
  uint64_t remaining =
      std::min(len, file->size - std::min(file->size, file->read_pos));
  while (remaining > 0) {
    const uint64_t req = std::min(remaining, kMaxRequestBytes);
    co_await engine_.delay(kBlockLayerPerReq);
    const uint64_t aligned = round_up(req, dev_->hw_block_size());
    auto tag = co_await dev_->read_tagged(
        place(*dev_, file->device_base + file->read_pos, aligned), aligned);
    if (!tag.ok()) co_return tag.status();
    co_await engine_.delay(kInterruptPerReq);
    // copy_to_user.
    co_await engine_.delay(transfer_time(req, kPageCacheBw));
    file->read_pos += req;
    remaining -= req;
  }
  co_return OkStatus();
}

sim::Task<Status> LocalFs::close(int fd) {
  SyscallScope scope(engine_, kernel_time_);
  co_await engine_.delay(kSyscallTrap);
  std::shared_ptr<File>* slot = fd_slot(fd);
  if (slot == nullptr) co_return BadFdError();
  slot->reset();
  free_fds_.push_back(fd);
  co_return OkStatus();
}

sim::Task<Status> LocalFs::unlink(const std::string& path) {
  SyscallScope scope(engine_, kernel_time_);
  co_await engine_.delay(kSyscallTrap + kVfsPerOp);
  co_await dir_lock_.lock();
  co_await engine_.delay(params_.dir_op_cost);
  const bool existed = files_.erase(path) > 0;
  dir_lock_.unlock();
  co_return existed ? OkStatus() : NotFoundError(path);
}

}  // namespace nvmecr::kernelfs
