// MicroFs::fsck() — cross-validates the DRAM metadata structures, the
// device-resident directory files, and the operation log. See
// microfs/fsck.h for the invariant list.
#include <map>
#include <vector>

#include "microfs/microfs.h"

namespace nvmecr::microfs {

sim::Task<StatusOr<FsckReport>> MicroFs::fsck() {
  using Result = StatusOr<FsckReport>;
  FsckReport report;
  auto flag = [&report](std::string msg) {
    report.issues.push_back(std::move(msg));
  };

  // --- B+Tree structure ------------------------------------------------
  if (Status s = paths_.validate(); !s.ok()) {
    flag(std::string(s.message()));
  }

  // --- namespace <-> inode table cross-references -----------------------
  const Ino* root = paths_.find("/");
  if (root == nullptr) {
    flag("namespace: no root path");
  } else if (*root != kRootIno) {
    flag("namespace: '/' is not the root inode");
  }
  std::map<Ino, std::string> ino_to_path;
  std::vector<std::pair<std::string, Ino>> all_paths;
  paths_.for_each([&](const std::string& path, const Ino& ino) {
    all_paths.emplace_back(path, ino);
    auto [it, inserted] = ino_to_path.emplace(ino, path);
    if (!inserted) {
      flag("namespace: inode " + std::to_string(ino) + " reachable as '" +
           it->second + "' and '" + path + "'");
    }
  });
  for (const auto& [path, ino] : all_paths) {
    const Inode* inode = inodes_.get(ino);
    if (inode == nullptr) {
      flag("namespace: '" + path + "' maps to missing inode " +
           std::to_string(ino));
      continue;
    }
    if (path == "/") continue;
    const std::string parent = parent_of(path);
    const Ino* parent_ino = paths_.find(parent);
    if (parent_ino == nullptr) {
      flag("namespace: '" + path + "' has no parent entry '" + parent + "'");
      continue;
    }
    const Inode* pnode = inodes_.get(*parent_ino);
    if (pnode == nullptr || pnode->type != InodeType::kDirectory) {
      flag("namespace: parent of '" + path + "' is not a directory");
    }
  }

  // --- extents vs the block pool ----------------------------------------
  const uint64_t B = options_.hugeblock_size;
  // One bit per pool block: set once a run has claimed the block.
  std::vector<uint64_t> referenced((pool_.total() + 63) / 64);
  inodes_.for_each([&](const Inode& inode) {
    if (inode.type == InodeType::kDirectory) {
      ++report.directories;
    } else {
      ++report.files;
    }
    if (ino_to_path.find(inode.ino) == ino_to_path.end()) {
      flag("inode " + std::to_string(inode.ino) + " has no path");
    }
    if (inode.blocks.size() != ceil_div(inode.size, B)) {
      flag("inode " + std::to_string(inode.ino) + ": " +
           std::to_string(inode.blocks.size()) + " blocks cover size " +
           std::to_string(inode.size));
    }
    for (const BlockRun& run : inode.blocks.runs()) {
      for (uint64_t i = 0; i < run.count; ++i) {
        const uint64_t b = run.start + i;
        if (b >= pool_.total()) {
          flag("inode " + std::to_string(inode.ino) + ": block " +
               std::to_string(b) + " out of range");
          continue;
        }
        if (!pool_.is_allocated(b)) {
          flag("inode " + std::to_string(inode.ino) + ": block " +
               std::to_string(b) + " referenced but free in the pool");
        }
        uint64_t& word = referenced[b / 64];
        const uint64_t bit = 1ull << (b % 64);
        if ((word & bit) != 0) {
          flag("block " + std::to_string(b) + " referenced by two extents");
        } else {
          word |= bit;
          ++report.blocks_referenced;
        }
      }
    }
  });
  if (pool_.allocated_count() != report.blocks_referenced) {
    flag("pool: " + std::to_string(pool_.allocated_count()) +
         " blocks allocated but " + std::to_string(report.blocks_referenced) +
         " referenced (leak or lost block)");
  }

  // --- directory files vs the namespace ---------------------------------
  for (const auto& [path, ino] : all_paths) {
    const Inode* inode = inodes_.get(ino);
    if (inode == nullptr || inode->type != InodeType::kDirectory) continue;
    auto stream = co_await read_dirfile(path);
    if (!stream.ok()) {
      // An unreachable device cannot be scanned; that is not corruption.
      if (is_retryable(stream.status().code())) {
        co_return Result(stream.status());
      }
      flag("dirfile '" + path + "': " + std::string(stream.status().message()));
      continue;
    }
    std::map<std::string, Ino> live;
    for (const Dirent& d : live_view(*stream)) live[d.name] = d.ino;
    auto children = readdir(path);
    if (!children.ok()) {
      flag("readdir '" + path + "' failed during fsck");
      continue;
    }
    if (children->size() != live.size()) {
      flag("dirfile '" + path + "': " + std::to_string(live.size()) +
           " live dirents vs " + std::to_string(children->size()) +
           " namespace children");
    }
    for (const std::string& name : *children) {
      auto it = live.find(name);
      const std::string child_path =
          path == "/" ? "/" + name : path + "/" + name;
      const Ino* child_ino = paths_.find(child_path);
      if (it == live.end()) {
        flag("dirfile '" + path + "': missing dirent for '" + name + "'");
      } else if (child_ino != nullptr && it->second != *child_ino) {
        flag("dirfile '" + path + "': dirent '" + name + "' points at ino " +
             std::to_string(it->second) + ", namespace says " +
             std::to_string(*child_ino));
      }
    }
  }

  // --- operation log monotonicity ----------------------------------------
  const std::vector<LogRecord> live_log = log_->live_snapshot();
  report.log_records = live_log.size();
  uint64_t prev_lsn = 0;
  uint32_t prev_epoch = 0;
  for (const LogRecord& rec : live_log) {
    if (prev_lsn != 0 && rec.lsn != prev_lsn + 1) {
      flag("oplog: live LSNs not consecutive at " + std::to_string(rec.lsn));
    }
    if (rec.epoch < prev_epoch) {
      flag("oplog: epoch regression at lsn " + std::to_string(rec.lsn));
    }
    if (rec.epoch > log_->epoch()) {
      flag("oplog: record epoch beyond current epoch at lsn " +
           std::to_string(rec.lsn));
    }
    if (rec.lsn >= log_->next_lsn()) {
      flag("oplog: live lsn " + std::to_string(rec.lsn) +
           " not below next_lsn " + std::to_string(log_->next_lsn()));
    }
    prev_lsn = rec.lsn;
    prev_epoch = rec.epoch;
  }

  // --- open descriptors ---------------------------------------------------
  for (const auto& [fd, of] : open_files_) {
    if (inodes_.get(of.ino) == nullptr) {
      flag("fd " + std::to_string(fd) + " references missing inode " +
           std::to_string(of.ino));
    }
  }

  co_return Result(std::move(report));
}

}  // namespace nvmecr::microfs
