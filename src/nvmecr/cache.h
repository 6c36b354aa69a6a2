// DRAM cache layer over an NVMe-CR client — the paper's future work
// ("we plan to study the impact of a cache layer over NVMe-CR", §V).
//
// Write-through, whole-file granularity: writes go to the runtime (the
// durability story is unchanged — the cache is never the only copy) and
// populate the cache; reads of a fully cached file are served at DRAM
// speed, which is exactly the restart-after-checkpoint pattern (the
// newest checkpoint is still warm when the job restarts in place).
// Least-recently-used eviction by bytes.
#pragma once

#include <list>
#include <map>
#include <memory>
#include <string>

#include "baselines/storage_api.h"
#include "obs/observer.h"
#include "simcore/engine.h"

namespace nvmecr::nvmecr_rt {

using namespace nvmecr::literals;

struct CacheStats {
  uint64_t hit_bytes = 0;
  uint64_t miss_bytes = 0;
  uint64_t evictions = 0;
  uint64_t resident_bytes = 0;
  double hit_rate() const {
    const uint64_t total = hit_bytes + miss_bytes;
    return total ? static_cast<double>(hit_bytes) / total : 0.0;
  }
};

class CachedClient final : public baselines::StorageClient {
 public:
  CachedClient(sim::Engine& engine,
               std::unique_ptr<baselines::StorageClient> inner,
               uint64_t capacity_bytes)
      : engine_(engine), inner_(std::move(inner)), capacity_(capacity_bytes) {}

  sim::Task<StatusOr<int>> create(const std::string& path) override {
    invalidate(path);
    auto fd = co_await inner_->create(path);
    if (fd.ok()) {
      open_[*fd] = OpenFile{path, /*writing=*/true, 0};
    }
    co_return fd;
  }

  sim::Task<StatusOr<int>> open_read(const std::string& path) override {
    auto fd = co_await inner_->open_read(path);
    if (fd.ok()) {
      open_[*fd] = OpenFile{path, /*writing=*/false, 0};
    }
    co_return fd;
  }

  sim::Task<Status> write(int fd, uint64_t len) override {
    // Write-through: device first (durability), then populate.
    Status s = co_await inner_->write(fd, len);
    if (s.ok()) {
      auto it = open_.find(fd);
      if (it != open_.end()) {
        // The DRAM copy costs a memcpy.
        co_await engine_.delay(transfer_time(len, kDramBw));
        extend_resident(it->second.path, len);
        it->second.bytes += len;
      }
    }
    co_return s;
  }

  sim::Task<Status> read(int fd, uint64_t len) override {
    auto it = open_.find(fd);
    if (it == open_.end()) co_return co_await inner_->read(fd, len);
    auto entry = entries_.find(it->second.path);
    if (entry != entries_.end() && entry->second.complete) {
      // Cache hit: DRAM copy instead of device + fabric.
      touch(entry->first, entry->second);
      stats_.hit_bytes += len;
      if (hit_bytes_ctr_ != nullptr) hit_bytes_ctr_->add(len);
      co_await engine_.delay(transfer_time(len, kDramBw));
      co_return OkStatus();
    }
    stats_.miss_bytes += len;
    if (miss_bytes_ctr_ != nullptr) miss_bytes_ctr_->add(len);
    Status s = co_await inner_->read(fd, len);
    if (s.ok()) {
      co_await engine_.delay(transfer_time(len, kDramBw));
      extend_resident(it->second.path, len);
    }
    co_return s;
  }

  sim::Task<Status> fsync(int fd) override {
    co_return co_await inner_->fsync(fd);
  }

  sim::Task<Status> close(int fd) override {
    auto it = open_.find(fd);
    if (it != open_.end()) {
      auto entry = entries_.find(it->second.path);
      if (entry != entries_.end()) {
        if (it->second.writing) {
          // The writer knows the file's full size; the entry is a usable
          // whole-file copy only if every byte is resident and fits.
          entry->second.expected = it->second.bytes;
        }
        if (entry->second.expected > 0 &&
            entry->second.bytes == entry->second.expected &&
            entry->second.expected <= capacity_) {
          entry->second.complete = true;
        } else if (it->second.writing) {
          invalidate(it->second.path);
        }
      }
      open_.erase(it);
    }
    co_return co_await inner_->close(fd);
  }

  sim::Task<Status> unlink(const std::string& path) override {
    invalidate(path);
    co_return co_await inner_->unlink(path);
  }

  const CacheStats& stats() const { return stats_; }
  uint64_t capacity() const { return capacity_; }

  /// Publishes cache activity into the metrics registry (counters
  /// cache.hit_bytes / cache.miss_bytes / cache.evictions, gauge
  /// cache.resident_bytes). Instruments are cached here per the
  /// observer contract; pass {} to detach.
  void set_observer(const obs::Observer& o) {
    if (o.metrics != nullptr) {
      hit_bytes_ctr_ = o.metrics->counter("cache.hit_bytes");
      miss_bytes_ctr_ = o.metrics->counter("cache.miss_bytes");
      evictions_ctr_ = o.metrics->counter("cache.evictions");
      resident_gauge_ = o.metrics->gauge("cache.resident_bytes");
      resident_gauge_->set(engine_.now(),
                           static_cast<double>(stats_.resident_bytes));
    } else {
      hit_bytes_ctr_ = nullptr;
      miss_bytes_ctr_ = nullptr;
      evictions_ctr_ = nullptr;
      resident_gauge_ = nullptr;
    }
  }

 private:
  /// DRAM copy bandwidth (a memcpy into or out of the cache).
  static constexpr uint64_t kDramBw = 8_GBps;

  struct OpenFile {
    std::string path;
    bool writing = false;
    uint64_t bytes = 0;
  };
  struct Entry {
    uint64_t bytes = 0;
    uint64_t expected = 0;  // full file size (set by the writer's close)
    bool complete = false;
    std::list<std::string>::iterator lru_pos;
  };

  void touch(const std::string& path, Entry& entry) {
    lru_.erase(entry.lru_pos);
    lru_.push_front(path);
    entry.lru_pos = lru_.begin();
  }

  void extend_resident(const std::string& path, uint64_t len) {
    auto [it, inserted] = entries_.try_emplace(path);
    if (inserted) {
      lru_.push_front(path);
      it->second.lru_pos = lru_.begin();
    } else {
      lru_.erase(it->second.lru_pos);
      lru_.push_front(path);
      it->second.lru_pos = lru_.begin();
    }
    it->second.bytes += len;
    stats_.resident_bytes += len;
    // A file larger than the whole cache is uncacheable.
    if (it->second.bytes > capacity_) {
      invalidate(path);
      return;
    }
    // Evict LRU entries until within capacity (never the one just used).
    while (stats_.resident_bytes > capacity_ && lru_.size() > 1) {
      const std::string victim = lru_.back();
      lru_.pop_back();
      auto v = entries_.find(victim);
      NVMECR_CHECK(v != entries_.end());
      stats_.resident_bytes -= v->second.bytes;
      entries_.erase(v);
      ++stats_.evictions;
      if (evictions_ctr_ != nullptr) evictions_ctr_->add();
    }
    sync_resident_gauge();
  }

  void invalidate(const std::string& path) {
    auto it = entries_.find(path);
    if (it == entries_.end()) return;
    stats_.resident_bytes -= it->second.bytes;
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
    sync_resident_gauge();
  }

  void sync_resident_gauge() {
    if (resident_gauge_ != nullptr) {
      resident_gauge_->set(engine_.now(),
                           static_cast<double>(stats_.resident_bytes));
    }
  }

  sim::Engine& engine_;
  std::unique_ptr<baselines::StorageClient> inner_;
  uint64_t capacity_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recent
  std::map<int, OpenFile> open_;
  CacheStats stats_;

  // Cached metric instruments (null when observability is off).
  obs::Counter* hit_bytes_ctr_ = nullptr;
  obs::Counter* miss_bytes_ctr_ = nullptr;
  obs::Counter* evictions_ctr_ = nullptr;
  obs::Gauge* resident_gauge_ = nullptr;
};

}  // namespace nvmecr::nvmecr_rt
