#include "microfs/microfs.h"

#include <algorithm>

#include "common/crc.h"
#include "common/log.h"
#include "common/rng.h"
#include "hw/payload_store.h"
#include "microfs/codec.h"
#include "obs/profile.h"
#include "simcore/profile.h"
#include "simcore/trace.h"

namespace nvmecr::microfs {

namespace {

constexpr uint32_t kSuperblockMagic = 0x7546534d;  // "MSFu"
constexpr uint32_t kCkptMagic = 0x74704b43;        // "CKpt"
constexpr uint64_t kSuperblockBytes = 4096;
// State checkpoint header: magic, epoch, payload length, payload CRC64.
constexpr uint64_t kCkptHeaderBytes = 24;

}  // namespace

// ---------------------------------------------------------------------
// Construction / geometry
// ---------------------------------------------------------------------

MicroFs::MicroFs(sim::Engine& engine, hw::BlockDevice& dev, Options options,
                 Geometry geo)
    : engine_(engine), dev_(dev), options_(options), geo_(geo) {
  pool_.reset(geo.data_blocks);
  log_ = std::make_unique<OpLog>(dev, geo.log_base,
                                 options.log_slots, options.coalesce_window);
}

StatusOr<MicroFs::Geometry> MicroFs::compute_geometry(
    const hw::BlockDevice& dev, const Options& options) {
  if (options.hugeblock_size == 0 ||
      options.hugeblock_size % dev.hw_block_size() != 0) {
    return InvalidArgumentError(
        "hugeblock size must be a multiple of the hardware block");
  }
  Geometry geo;
  geo.log_base = kSuperblockBytes;
  geo.log_bytes = round_up(
      static_cast<uint64_t>(options.log_slots) * OpLog::kRecordBytes, 4096);

  uint64_t ckpt = options.ckpt_region_bytes;
  if (ckpt == 0) {
    // Sized for the serialized pool (~9.2 B/block) plus inode/B+Tree
    // headroom; the state checkpoint fails cleanly if it ever outgrows
    // this.
    const uint64_t upper_blocks = dev.capacity() / options.hugeblock_size;
    ckpt = std::max<uint64_t>(256_KiB, 64_KiB + 16 * upper_blocks);
  }
  geo.ckpt_bytes = round_up(ckpt, 4096);
  geo.ckpt_base_a = geo.log_base + geo.log_bytes;
  geo.ckpt_base_b = geo.ckpt_base_a + geo.ckpt_bytes;
  geo.data_base = round_up(geo.ckpt_base_b + geo.ckpt_bytes,
                           options.hugeblock_size);
  if (geo.data_base >= dev.capacity()) {
    return NoSpaceError("partition too small for metadata regions");
  }
  geo.data_blocks = (dev.capacity() - geo.data_base) / options.hugeblock_size;
  if (geo.data_blocks == 0) {
    return NoSpaceError("partition too small for any hugeblock");
  }
  return geo;
}

sim::Task<Status> MicroFs::write_superblock() {
  std::vector<std::byte> buf;
  Encoder enc(buf);
  enc.u32(kSuperblockMagic);
  enc.u32(1);  // version
  enc.u64(options_.hugeblock_size);
  enc.u32(options_.log_slots);
  enc.u64(geo_.ckpt_bytes);
  enc.u32(static_cast<uint32_t>(crc64(buf.data(), buf.size())));
  co_return co_await dev_.write(0, buf);
}

sim::Task<StatusOr<std::pair<Options, MicroFs::Geometry>>>
MicroFs::read_superblock(hw::BlockDevice& dev, const Options& requested) {
  using Result = StatusOr<std::pair<Options, Geometry>>;
  std::vector<std::byte> buf(32);
  Status s = co_await dev.read(0, buf);
  if (!s.ok()) co_return Result(s);
  Decoder dec(buf);
  uint32_t magic = 0, version = 0, log_slots = 0, stored_crc = 0;
  uint64_t hugeblock = 0, ckpt_bytes = 0;
  if (!dec.u32(magic).ok() || magic != kSuperblockMagic) {
    co_return Result(CorruptionError("bad superblock magic"));
  }
  (void)dec.u32(version);
  (void)dec.u64(hugeblock);
  (void)dec.u32(log_slots);
  (void)dec.u64(ckpt_bytes);
  const size_t body = dec.consumed();
  (void)dec.u32(stored_crc);
  if (stored_crc != static_cast<uint32_t>(crc64(buf.data(), body))) {
    co_return Result(CorruptionError("superblock crc mismatch"));
  }
  Options options = requested;  // runtime knobs from the caller...
  options.hugeblock_size = hugeblock;  // ...geometry from the device
  options.log_slots = log_slots;
  options.ckpt_region_bytes = ckpt_bytes;
  auto geo = compute_geometry(dev, options);
  if (!geo.ok()) co_return Result(geo.status());
  co_return Result(std::make_pair(options, *geo));
}

sim::Task<StatusOr<std::unique_ptr<MicroFs>>> MicroFs::format(
    sim::Engine& engine, hw::BlockDevice& dev, Options options) {
  using Result = StatusOr<std::unique_ptr<MicroFs>>;
  auto geo = compute_geometry(dev, options);
  if (!geo.ok()) co_return Result(geo.status());
  options.ckpt_region_bytes = geo->ckpt_bytes;

  std::unique_ptr<MicroFs> fs(new MicroFs(engine, dev, options, *geo));
  Status s = co_await fs->write_superblock();
  if (!s.ok()) co_return Result(s);

  // Root directory (a file on the partition, §III-E).
  Inode& root = fs->inodes_.alloc(InodeType::kDirectory);
  NVMECR_CHECK(root.ino == kRootIno);
  root.mode = 0755;
  root.uid = options.uid;
  fs->paths_.insert("/", root.ino);

  // Initial state checkpoint so a crash before the first user op
  // recovers an empty-but-valid filesystem.
  s = co_await fs->checkpoint_state();
  if (!s.ok()) co_return Result(s);
  co_return Result(std::move(fs));
}

// ---------------------------------------------------------------------
// Path helpers
// ---------------------------------------------------------------------

Status MicroFs::validate_path(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return InvalidArgumentError("path must be absolute: " + path);
  }
  if (path == "/") return OkStatus();
  if (path.back() == '/') {
    return InvalidArgumentError("trailing slash: " + path);
  }
  size_t start = 1;
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      const size_t len = i - start;
      if (len == 0) return InvalidArgumentError("empty component: " + path);
      if (len > OpLog::kMaxName) return NameTooLongError(path);
      start = i + 1;
    }
  }
  return OkStatus();
}

std::string MicroFs::parent_of(const std::string& path) {
  const size_t pos = path.find_last_of('/');
  return pos == 0 ? "/" : path.substr(0, pos);
}

std::string MicroFs::basename_of(const std::string& path) {
  return path.substr(path.find_last_of('/') + 1);
}

// ---------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------

void MicroFs::set_observer(const obs::Observer& o, const std::string& label) {
  obs_ = o;
  trace_track_ = "microfs/" + label;
  m_pool_allocs_ = nullptr;
  m_pool_frees_ = nullptr;
  m_pool_occupancy_ = nullptr;
  m_bptree_ops_ = nullptr;
  profile_tag_data_ = engine_.profile_tag("microfs/data");
  log_->set_observer(o, label, &engine_);
  if (obs_.metrics == nullptr) return;
  // Counters aggregate across instances; the occupancy gauge is per
  // instance so per-rank imbalance stays visible.
  m_pool_allocs_ = obs_.metrics->counter("microfs.pool.allocs");
  m_pool_frees_ = obs_.metrics->counter("microfs.pool.frees");
  m_bptree_ops_ = obs_.metrics->counter("microfs.bptree.ops");
  m_pool_occupancy_ =
      obs_.metrics->gauge("microfs." + label + ".pool_allocated_blocks");
}

void MicroFs::record_serialize(SimDuration d) {
  if (obs_.epoch != nullptr) {
    obs_.epoch->record(engine_, obs::EpochProfiler::Phase::kSerialize, d);
  }
}

// ---------------------------------------------------------------------
// Block mapping and data-plane IO
// ---------------------------------------------------------------------

Status MicroFs::ensure_blocks(Inode& inode, uint64_t end) {
  const uint64_t have = inode.blocks.size();
  const uint64_t needed = ceil_div(end, options_.hugeblock_size);
  if (needed <= have) return OkStatus();
  // All or nothing: the op that asked for these blocks is never logged if
  // it fails, so a partial grab would leave blocks that log replay hands
  // to a later file instead.
  const uint64_t new_blocks = needed - have;
  NVMECR_RETURN_IF_ERROR(inode.blocks.grow(pool_, new_blocks));
  pool_version_ += new_blocks;
  if (m_pool_allocs_ != nullptr) {
    m_pool_allocs_->add(new_blocks);
    m_pool_occupancy_->set(engine_.now(),
                           static_cast<double>(pool_.allocated_count()));
  }
  return OkStatus();
}

Status MicroFs::release_blocks(Inode& inode) {
  const uint64_t freed = inode.blocks.size();
  NVMECR_RETURN_IF_ERROR(inode.blocks.release(pool_));
  pool_version_ += freed;
  if (freed > 0 && m_pool_frees_ != nullptr) {
    m_pool_frees_->add(freed);
    m_pool_occupancy_->set(engine_.now(),
                           static_cast<double>(pool_.allocated_count()));
  }
  return OkStatus();
}

uint64_t MicroFs::device_offset(const Inode& inode, uint64_t file_off) const {
  const uint64_t B = options_.hugeblock_size;
  const uint64_t hb = file_off / B;
  NVMECR_CHECK(hb < inode.blocks.size());
  return geo_.data_base + inode.blocks.at(hb) * B + file_off % B;
}

sim::Task<Status> MicroFs::hugeblock_io(Inode& inode, uint64_t off,
                                        uint64_t len, bool is_write) {
  if (len == 0) co_return OkStatus();
  // Data-plane dispatches (device batches, their completions) bill to
  // the "microfs/data" cost center unless a deeper layer re-tags them.
  sim::ProfileTagScope profile_scope(engine_, profile_tag_data_);
  const SimTime io_t0 = engine_.now();
  const uint64_t B = options_.hugeblock_size;
  const uint64_t first_hb = off / B;
  const uint64_t last_hb = (off + len - 1) / B;
  NVMECR_CHECK(last_hb < inode.blocks.size());

  // Issue batched commands: one host command per hugeblock, up to
  // io_batch_hugeblocks per event, never across a run of the block map
  // (a maximal run ends exactly where device contiguity does).
  const uint64_t batch = std::max<uint64_t>(options_.io_batch_hugeblocks, 1);
  uint64_t hb = first_hb;
  while (hb <= last_hb) {
    const size_t r = inode.blocks.run_of(hb);
    const uint64_t n =
        std::min({batch, inode.blocks.run_end(r) - hb, last_hb + 1 - hb});
    const uint64_t block =
        inode.blocks.runs()[r].start + (hb - inode.blocks.run_begin(r));
    const uint64_t dev_off = geo_.data_base + block * B;
    const uint64_t bytes = n * B;
    const auto subcmds = static_cast<uint32_t>(n);
    if (is_write) {
      Status s =
          co_await dev_.write_tagged(dev_off, bytes, inode.seed, subcmds);
      if (!s.ok()) co_return s;
    } else {
      auto tag = co_await dev_.read_tagged(dev_off, bytes, subcmds);
      if (!tag.ok()) co_return tag.status();
      const uint64_t expect = hw::PayloadStore::expected_tag(
          inode.seed, dev_.tag_origin() + dev_off, bytes,
          dev_.hw_block_size());
      if (*tag != expect) {
        co_return CorruptionError("tagged content mismatch in " +
                                  std::to_string(inode.ino));
      }
    }
    hb += n;
  }
  if (obs_.trace != nullptr) {
    obs_.trace->add_span(trace_track_,
                         is_write ? "hugeblock_write" : "hugeblock_read",
                         io_t0, engine_.now(),
                         {{"bytes", static_cast<double>(len)}});
  }
  co_return OkStatus();
}

// ---------------------------------------------------------------------
// Directory files
// ---------------------------------------------------------------------

sim::Task<Status> MicroFs::append_dirent(Inode& dir, const Dirent& entry) {
  std::vector<std::byte> buf;
  encode_dirent(entry, buf);
  const uint64_t off = dir.size;
  NVMECR_CO_RETURN_IF_ERROR(ensure_blocks(dir, off + buf.size()));

  // The dirent may straddle a hugeblock boundary; write each piece at
  // its mapped device offset.
  uint64_t pos = 0;
  const uint64_t B = options_.hugeblock_size;
  while (pos < buf.size()) {
    const uint64_t file_off = off + pos;
    const uint64_t in_block = std::min<uint64_t>(buf.size() - pos,
                                                 B - file_off % B);
    Status s = co_await dev_.write(
        device_offset(dir, file_off),
        std::span<const std::byte>(buf.data() + pos, in_block));
    if (!s.ok()) co_return s;
    pos += in_block;
  }
  // The directory grows only once the bytes are durable: a state
  // checkpoint snapshotted during the writes above must not include a
  // window over content that a crash could lose.
  dir.size += buf.size();
  dir.content = ContentKind::kBytes;
  stats_.dirent_bytes_written += buf.size();
  co_return OkStatus();
}

sim::Task<StatusOr<std::vector<Dirent>>> MicroFs::read_dirfile(
    const std::string& path) {
  using Result = StatusOr<std::vector<Dirent>>;
  const Ino* ino = paths_.find(path);
  if (ino == nullptr) co_return Result(NotFoundError(path));
  Inode* dir = inodes_.get(*ino);
  NVMECR_CHECK(dir != nullptr);
  if (dir->type != InodeType::kDirectory) {
    co_return Result(NotDirectoryError(path));
  }
  std::vector<std::byte> buf(dir->size);
  uint64_t pos = 0;
  const uint64_t B = options_.hugeblock_size;
  while (pos < dir->size) {
    const uint64_t in_block = std::min<uint64_t>(dir->size - pos,
                                                 B - pos % B);
    Status s = co_await dev_.read(
        device_offset(*dir, pos),
        std::span<std::byte>(buf.data() + pos, in_block));
    if (!s.ok()) co_return Result(s);
    pos += in_block;
  }
  co_return decode_dirents(buf);
}

// ---------------------------------------------------------------------
// Logging (metadata provenance on/off)
// ---------------------------------------------------------------------

sim::Task<Status> MicroFs::log_op(LogRecord rec, const Inode& touched) {
  if (!options_.metadata_provenance) {
    // Drilldown baseline: write the full inode image (and pay a device
    // round trip) on every metadata-mutating op — what conventional
    // filesystems effectively do with physical journaling.
    std::vector<std::byte> buf;
    Encoder enc(buf);
    touched.serialize(enc);
    buf.resize(round_up(std::max<size_t>(buf.size(), 1), 4096));
    if (buf.size() > geo_.ckpt_bytes) buf.resize(geo_.ckpt_bytes);
    const uint64_t window = geo_.ckpt_bytes - buf.size() + 4096;
    const uint64_t slot_off =
        geo_.ckpt_base_a + (touched.ino * 4096) % window / 4096 * 4096;
    stats_.inode_writeback_bytes += buf.size();
    Status ws = co_await dev_.write(slot_off, buf);
    if (!ws.ok()) co_return ws;
    // Ordered-journaling semantics: the metadata image must be stable
    // before the operation retires (what jbd2-style journaling pays and
    // metadata provenance avoids, §III-E).
    co_return co_await dev_.flush();
  }

  // Decide whether this WRITE may coalesce with its predecessor: only if
  // no *other* pool mutation happened since that record was last
  // extended — the condition that keeps log replay's block allocation
  // byte-identical to the original execution.
  bool allow_coalesce = false;
  if (rec.type == OpType::kWrite) {
    auto it = coalesce_candidates_.find(rec.ino);
    allow_coalesce = it != coalesce_candidates_.end() &&
                     it->second.next_off == rec.a &&
                     it->second.pool_version == pool_version_before_op_;
  } else {
    coalesce_candidates_.clear();  // namespace ops end all runs
  }

  Status s = co_await log_->append(rec, allow_coalesce);
  if (!s.ok() && s.code() == ErrorCode::kUnavailable) {
    // Ring full: force a state checkpoint (frees every slot) and retry.
    Status cs = co_await checkpoint_state();
    if (!cs.ok()) co_return cs;
    s = co_await log_->append(rec, /*allow_coalesce=*/false);
  }
  if (s.ok() && rec.type == OpType::kWrite) {
    coalesce_candidates_[rec.ino] =
        CoalesceCandidate{rec.a + rec.b, pool_version_};
  }
  co_return s;
}

// ... (continued in this file below)

// ---------------------------------------------------------------------
// Namespace operations
// ---------------------------------------------------------------------

sim::Task<Status> MicroFs::mkdir(const std::string& path, uint32_t mode) {
  co_await engine_.delay(options_.cpu_per_op);
  NVMECR_CO_RETURN_IF_ERROR(validate_path(path));
  if (path == "/") co_return ExistsError(path);
  if (paths_.contains(path)) co_return ExistsError(path);
  const std::string parent = parent_of(path);
  const Ino* parent_ptr = paths_.find(parent);
  if (parent_ptr == nullptr) co_return NotFoundError(parent);
  // Copy before mutating the tree: inserts can split nodes and move
  // values.
  const Ino parent_ino = *parent_ptr;
  Inode* dir = inodes_.get(parent_ino);
  if (dir->type != InodeType::kDirectory) co_return NotDirectoryError(parent);

  pool_version_before_op_ = pool_version_;
  Inode& inode = inodes_.alloc(InodeType::kDirectory);
  inode.mode = mode;
  inode.uid = options_.uid;
  paths_.insert(path, inode.ino);
  if (m_bptree_ops_ != nullptr) m_bptree_ops_->add();

  LogRecord rec;
  rec.type = OpType::kMkdir;
  rec.ino = inode.ino;
  rec.parent = parent_ino;
  rec.a = mode | (static_cast<uint64_t>(options_.uid) << 32);
  rec.name = basename_of(path);
  // WAL discipline: the dirent bytes (data) reach the device before the
  // log record (commit). A crash in between leaves the bytes outside the
  // parent's recovered [0, size) window — invisible, not garbage.
  // Named (not temporary) dirent: GCC 12 miscompiles temporary aggregate
  // arguments to coroutine calls inside co_await expressions.
  const Dirent entry{true, rec.name, inode.ino};
  NVMECR_CO_RETURN_IF_ERROR(
      co_await append_dirent(*inodes_.get(parent_ino), entry));
  rec.psize = inodes_.get(parent_ino)->size;
  NVMECR_CO_RETURN_IF_ERROR(co_await log_op(rec, inode));
  co_return OkStatus();
}

sim::Task<StatusOr<int>> MicroFs::open(const std::string& path,
                                       OpenFlags flags, uint32_t mode) {
  using Result = StatusOr<int>;
  co_await engine_.delay(options_.cpu_per_op);
  NVMECR_CO_RETURN_IF_ERROR(validate_path(path));
  pool_version_before_op_ = pool_version_;

  Ino ino = kInvalidIno;
  const Ino* existing = paths_.find(path);
  if (m_bptree_ops_ != nullptr) m_bptree_ops_->add();
  if (existing == nullptr) {
    if (!flags.create) co_return Result(NotFoundError(path));
    const std::string parent = parent_of(path);
    const Ino* parent_ptr = paths_.find(parent);
    if (parent_ptr == nullptr) co_return Result(NotFoundError(parent));
    const Ino parent_ino = *parent_ptr;  // copy before the tree mutates
    if (inodes_.get(parent_ino)->type != InodeType::kDirectory) {
      co_return Result(NotDirectoryError(parent));
    }

    Inode& inode = inodes_.alloc(InodeType::kFile);
    inode.mode = mode;
    inode.uid = options_.uid;
    inode.seed = mix64(fnv1a(path.data(), path.size()) ^ inode.ino);
    paths_.insert(path, inode.ino);
    if (m_bptree_ops_ != nullptr) m_bptree_ops_->add();
    ino = inode.ino;
    ++stats_.creates;

    LogRecord rec;
    rec.type = OpType::kCreate;
    rec.ino = ino;
    rec.parent = parent_ino;
    rec.a = mode | (static_cast<uint64_t>(options_.uid) << 32);
    rec.b = inode.seed;
    rec.name = basename_of(path);
    // Dirent (data) before record (commit) — see mkdir.
    const Dirent entry{true, rec.name, ino};
    NVMECR_CO_RETURN_IF_ERROR(
        co_await append_dirent(*inodes_.get(parent_ino), entry));
    rec.psize = inodes_.get(parent_ino)->size;
    NVMECR_CO_RETURN_IF_ERROR(co_await log_op(rec, inode));
  } else {
    ino = *existing;
    Inode* inode = inodes_.get(ino);
    if (inode->type == InodeType::kDirectory && (flags.write || flags.truncate)) {
      co_return Result(IsDirectoryError(path));
    }
    // POSIX permission checks (§III-F: the control plane is the trusted
    // intermediary).
    if (inode->uid != options_.uid) {
      if (flags.write && !(inode->mode & 0022)) {
        co_return Result(PermissionError(path));
      }
      if (flags.read && !(inode->mode & 0044)) {
        co_return Result(PermissionError(path));
      }
    }
    if (flags.truncate && inode->size > 0) {
      // Truncation is logged as a CREATE of the same ino (replay resets
      // the file), and frees the data blocks in deterministic order.
      NVMECR_CO_RETURN_IF_ERROR(release_blocks(*inode));
      inode->size = 0;
      inode->content = ContentKind::kNone;
      coalesce_candidates_.erase(ino);
      LogRecord rec;
      rec.type = OpType::kCreate;
      rec.ino = ino;
      rec.parent = *paths_.find(parent_of(path));
      rec.a = inode->mode | (static_cast<uint64_t>(inode->uid) << 32);
      rec.b = inode->seed;
      rec.name = basename_of(path);
      NVMECR_CO_RETURN_IF_ERROR(co_await log_op(rec, *inode));
    }
  }

  const int fd = next_fd_++;
  OpenFile of;
  of.ino = ino;
  of.writable = flags.write;
  of.write_pos = inodes_.get(ino)->size;
  open_files_.emplace(fd, of);
  ++stats_.opens;
  co_return Result(fd);
}

sim::Task<Status> MicroFs::unlink(const std::string& path) {
  co_await engine_.delay(options_.cpu_per_op);
  NVMECR_CO_RETURN_IF_ERROR(validate_path(path));
  if (path == "/") co_return InvalidArgumentError("cannot unlink root");
  const Ino* ino_ptr = paths_.find(path);
  if (ino_ptr == nullptr) co_return NotFoundError(path);
  const Ino ino = *ino_ptr;
  for (const auto& [fd, of] : open_files_) {
    if (of.ino == ino) {
      co_return InvalidArgumentError("unlink of open file: " + path);
    }
  }
  Inode* inode = inodes_.get(ino);
  if (inode->type == InodeType::kDirectory) {
    auto children = readdir(path);
    if (!children.ok()) co_return children.status();
    if (!children->empty()) co_return NotEmptyError(path);
  }

  pool_version_before_op_ = pool_version_;
  const std::string parent = parent_of(path);
  const Ino parent_ino = *paths_.find(parent);

  LogRecord rec;
  rec.type = OpType::kUnlink;
  rec.ino = ino;
  rec.parent = parent_ino;
  rec.name = basename_of(path);
  // Tombstone dirent (data) before record (commit) — see mkdir. A crash
  // in between leaves the tombstone outside the parent's recovered
  // window, so the directory still lists the file — matching the tree,
  // which also still holds the path (the unlink never committed).
  const Dirent entry{false, rec.name, ino};
  NVMECR_CO_RETURN_IF_ERROR(
      co_await append_dirent(*inodes_.get(parent_ino), entry));
  rec.psize = inodes_.get(parent_ino)->size;
  NVMECR_CO_RETURN_IF_ERROR(co_await log_op(rec, *inode));

  NVMECR_CO_RETURN_IF_ERROR(release_blocks(*inode));
  coalesce_candidates_.erase(ino);
  paths_.erase(path);
  if (m_bptree_ops_ != nullptr) m_bptree_ops_->add();
  NVMECR_CO_RETURN_IF_ERROR(inodes_.free(ino));
  ++stats_.unlinks;
  co_return OkStatus();
}

sim::Task<Status> MicroFs::rename(const std::string& from,
                                  const std::string& to) {
  co_await engine_.delay(options_.cpu_per_op);
  NVMECR_CO_RETURN_IF_ERROR(validate_path(from));
  NVMECR_CO_RETURN_IF_ERROR(validate_path(to));
  if (from == "/" || to == "/") {
    co_return InvalidArgumentError("cannot rename root");
  }
  const Ino* ino_ptr = paths_.find(from);
  if (ino_ptr == nullptr) co_return NotFoundError(from);
  const Ino ino = *ino_ptr;
  Inode* inode = inodes_.get(ino);
  if (inode->type == InodeType::kDirectory) {
    // A directory rename would re-key every descendant path in the
    // B+Tree; the checkpoint workloads only ever move files.
    co_return IsDirectoryError(from);
  }
  if (paths_.contains(to)) co_return ExistsError(to);
  const std::string new_parent = parent_of(to);
  const Ino* new_parent_ptr = paths_.find(new_parent);
  if (new_parent_ptr == nullptr) co_return NotFoundError(new_parent);
  const Ino new_parent_ino = *new_parent_ptr;
  if (inodes_.get(new_parent_ino)->type != InodeType::kDirectory) {
    co_return NotDirectoryError(new_parent);
  }
  const Ino old_parent_ino = *paths_.find(parent_of(from));

  pool_version_before_op_ = pool_version_;
  LogRecord rec;
  rec.type = OpType::kRename;
  rec.ino = ino;
  rec.parent = new_parent_ino;
  rec.a = old_parent_ino;
  rec.name = basename_of(to);
  // Both dirent mutations (data) precede the record (commit) — see
  // mkdir. Old parent's tombstone first, then the new entry: replay
  // mirrors this order so pool allocations stay deterministic.
  const Dirent tomb{false, basename_of(from), ino};
  NVMECR_CO_RETURN_IF_ERROR(
      co_await append_dirent(*inodes_.get(old_parent_ino), tomb));
  const Dirent entry{true, rec.name, ino};
  NVMECR_CO_RETURN_IF_ERROR(
      co_await append_dirent(*inodes_.get(new_parent_ino), entry));
  rec.b = inodes_.get(old_parent_ino)->size;
  rec.psize = inodes_.get(new_parent_ino)->size;
  NVMECR_CO_RETURN_IF_ERROR(co_await log_op(rec, *inode));

  paths_.erase(from);
  paths_.insert(to, ino);
  if (m_bptree_ops_ != nullptr) m_bptree_ops_->add();
  ++stats_.renames;
  co_return OkStatus();
}

sim::Task<Status> MicroFs::close(int fd) {
  co_await engine_.delay(options_.cpu_per_op);
  if (open_files_.erase(fd) == 0) co_return BadFdError();
  // Sync point: deferred (group-committed) log rewrites become durable.
  NVMECR_CO_RETURN_IF_ERROR(co_await log_->flush());
  maybe_spawn_checkpoint();
  co_return OkStatus();
}

StatusOr<FileStat> MicroFs::stat(const std::string& path) const {
  NVMECR_RETURN_IF_ERROR(validate_path(path));
  const Ino* ino = paths_.find(path);
  if (ino == nullptr) return NotFoundError(path);
  const Inode* inode = inodes_.get(*ino);
  FileStat st;
  st.ino = inode->ino;
  st.type = inode->type;
  st.content = inode->content;
  st.size = inode->size;
  st.mode = inode->mode;
  st.uid = inode->uid;
  return st;
}

StatusOr<std::vector<std::string>> MicroFs::readdir(
    const std::string& path) const {
  NVMECR_RETURN_IF_ERROR(validate_path(path));
  const Ino* ino = paths_.find(path);
  if (ino == nullptr) return NotFoundError(path);
  if (inodes_.get(*ino)->type != InodeType::kDirectory) {
    return NotDirectoryError(path);
  }
  const std::string prefix = path == "/" ? "/" : path + "/";
  std::vector<std::string> names;
  paths_.scan_from(prefix, [&](const std::string& key, const Ino&) {
    if (key.compare(0, prefix.size(), prefix) != 0) {
      return false;  // sorted past the subtree
    }
    if (key.size() == prefix.size()) return true;  // the root itself ("/")
    const std::string rest = key.substr(prefix.size());
    if (rest.find('/') == std::string::npos) names.push_back(rest);
    return true;
  });
  return names;
}

// ---------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------

sim::Task<StatusOr<uint64_t>> MicroFs::write(int fd,
                                             std::span<const std::byte> data) {
  using Result = StatusOr<uint64_t>;
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) co_return Result(BadFdError());
  if (!it->second.writable) co_return Result(PermissionError("fd read-only"));
  Inode* inode = inodes_.get(it->second.ino);
  if (inode->content == ContentKind::kTagged) {
    co_return Result(InvalidArgumentError("byte write into tagged file"));
  }
  const uint64_t off = it->second.write_pos;
  const uint64_t len = data.size();
  if (len == 0) co_return Result(uint64_t{0});
  pool_version_before_op_ = pool_version_;

  NVMECR_CO_RETURN_IF_ERROR(ensure_blocks(*inode, off + len));
  const uint64_t blocks_touched =
      (off + len - 1) / options_.hugeblock_size - off / options_.hugeblock_size + 1;
  const SimDuration write_cpu =
      options_.cpu_per_op +
      options_.cpu_per_block * static_cast<SimDuration>(blocks_touched);
  {
    sim::ProfileTagScope serialize_scope(engine_, profile_tag_data_);
    co_await engine_.delay(write_cpu);
  }
  record_serialize(write_cpu);

  // Byte content: write each piece at its mapped device offset.
  uint64_t pos = 0;
  const uint64_t B = options_.hugeblock_size;
  while (pos < len) {
    const uint64_t file_off = off + pos;
    const uint64_t in_block = std::min<uint64_t>(len - pos, B - file_off % B);
    Status s = co_await dev_.write(
        device_offset(*inode, file_off),
        std::span<const std::byte>(data.data() + pos, in_block));
    if (!s.ok()) co_return Result(s);
    pos += in_block;
  }

  inode->content = ContentKind::kBytes;
  inode->size = std::max(inode->size, off + len);
  it->second.write_pos = off + len;
  stats_.data_bytes_written += len;
  stats_.payload_bytes_written += len;
  ++stats_.writes;

  LogRecord rec;
  rec.type = OpType::kWrite;
  rec.ino = inode->ino;
  rec.a = off;
  rec.b = len;
  NVMECR_CO_RETURN_IF_ERROR(co_await log_op(rec, *inode));
  co_return Result(len);
}

sim::Task<Status> MicroFs::write_tagged(int fd, uint64_t len) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) co_return BadFdError();
  if (!it->second.writable) co_return PermissionError("fd read-only");
  if (len == 0) co_return OkStatus();
  Inode* inode = inodes_.get(it->second.ino);
  if (inode->content == ContentKind::kBytes) {
    co_return InvalidArgumentError("tagged write into byte file");
  }
  const uint64_t off = it->second.write_pos;
  const uint64_t B = options_.hugeblock_size;
  pool_version_before_op_ = pool_version_;

  // IO in hugeblock units (§III-E): the device span covers every
  // hugeblock the byte range touches, so unaligned streams pay padding
  // amplification (the right side of Figure 7(a)'s U-shape).
  const uint64_t aligned_start = off / B * B;
  const uint64_t aligned_end = ceil_div(off + len, B) * B;
  NVMECR_CO_RETURN_IF_ERROR(ensure_blocks(*inode, aligned_end));
  const uint64_t blocks_touched = (aligned_end - aligned_start) / B;
  const SimDuration wt_cpu =
      options_.cpu_per_op +
      options_.cpu_per_block * static_cast<SimDuration>(blocks_touched);
  {
    sim::ProfileTagScope serialize_scope(engine_, profile_tag_data_);
    co_await engine_.delay(wt_cpu);
  }
  record_serialize(wt_cpu);

  inode->content = ContentKind::kTagged;
  NVMECR_CO_RETURN_IF_ERROR(co_await hugeblock_io(
      *inode, aligned_start, aligned_end - aligned_start, /*is_write=*/true));

  inode->size = std::max(inode->size, off + len);
  it->second.write_pos = off + len;
  stats_.data_bytes_written += aligned_end - aligned_start;
  stats_.payload_bytes_written += len;
  ++stats_.writes;

  LogRecord rec;
  rec.type = OpType::kWrite;
  rec.ino = inode->ino;
  rec.a = off;
  rec.b = len;
  rec.flags = kLogFlagTagged;
  co_return co_await log_op(rec, *inode);
}

sim::Task<StatusOr<uint64_t>> MicroFs::read(int fd,
                                            std::span<std::byte> out) {
  using Result = StatusOr<uint64_t>;
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) co_return Result(BadFdError());
  Inode* inode = inodes_.get(it->second.ino);
  if (inode->content == ContentKind::kTagged) {
    co_return Result(InvalidArgumentError("byte read of tagged file"));
  }
  const uint64_t off = it->second.read_pos;
  const uint64_t len =
      std::min<uint64_t>(out.size(), inode->size - std::min(inode->size, off));
  {
    sim::ProfileTagScope serialize_scope(engine_, profile_tag_data_);
    co_await engine_.delay(options_.cpu_per_op);
  }
  record_serialize(options_.cpu_per_op);

  uint64_t pos = 0;
  const uint64_t B = options_.hugeblock_size;
  while (pos < len) {
    const uint64_t file_off = off + pos;
    const uint64_t in_block = std::min<uint64_t>(len - pos, B - file_off % B);
    Status s = co_await dev_.read(
        device_offset(*inode, file_off),
        std::span<std::byte>(out.data() + pos, in_block));
    if (!s.ok()) co_return Result(s);
    pos += in_block;
  }
  it->second.read_pos = off + len;
  stats_.data_bytes_read += len;
  ++stats_.reads;
  co_return Result(len);
}

sim::Task<Status> MicroFs::read_tagged(int fd, uint64_t len) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) co_return BadFdError();
  Inode* inode = inodes_.get(it->second.ino);
  if (inode->content != ContentKind::kTagged) {
    co_return InvalidArgumentError("tagged read of non-tagged file");
  }
  const uint64_t off = it->second.read_pos;
  const uint64_t clamped =
      std::min<uint64_t>(len, inode->size - std::min(inode->size, off));
  if (clamped == 0) co_return OkStatus();
  const uint64_t B = options_.hugeblock_size;
  const uint64_t aligned_start = off / B * B;
  const uint64_t aligned_end = ceil_div(off + clamped, B) * B;
  const uint64_t blocks_touched = (aligned_end - aligned_start) / B;
  const SimDuration rt_cpu =
      options_.cpu_per_op +
      options_.cpu_per_block * static_cast<SimDuration>(blocks_touched);
  {
    sim::ProfileTagScope serialize_scope(engine_, profile_tag_data_);
    co_await engine_.delay(rt_cpu);
  }
  record_serialize(rt_cpu);
  NVMECR_CO_RETURN_IF_ERROR(co_await hugeblock_io(
      *inode, aligned_start, aligned_end - aligned_start, /*is_write=*/false));
  it->second.read_pos = off + clamped;
  stats_.data_bytes_read += aligned_end - aligned_start;
  ++stats_.reads;
  co_return OkStatus();
}

Status MicroFs::seek(int fd, uint64_t pos) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) return BadFdError();
  const Inode* inode = inodes_.get(it->second.ino);
  if (pos > inode->size) return InvalidArgumentError("seek beyond EOF");
  it->second.read_pos = pos;
  return OkStatus();
}

sim::Task<Status> MicroFs::verify_tagged(const std::string& path) {
  OpenFlags flags = OpenFlags::ReadOnly();
  auto fd = co_await open(path, flags);
  if (!fd.ok()) co_return fd.status();
  Inode* inode = inodes_.get(open_files_.at(*fd).ino);
  Status s = co_await read_tagged(*fd, inode->size);
  Status c = co_await close(*fd);
  co_return s.ok() ? c : s;
}

sim::Task<Status> MicroFs::fsync(int fd) {
  // Data and log records are durable at op completion (no buffering,
  // §III-D); fsync exists for POSIX compatibility and, by default,
  // settles the device write pipeline so measurements see sustained
  // bandwidth rather than the capacitor-RAM burst.
  if (open_files_.find(fd) == open_files_.end()) co_return BadFdError();
  {
    sim::ProfileTagScope serialize_scope(engine_, profile_tag_data_);
    co_await engine_.delay(options_.cpu_per_op);
  }
  record_serialize(options_.cpu_per_op);
  // Sync point: deferred (group-committed) log rewrites become durable.
  NVMECR_CO_RETURN_IF_ERROR(co_await log_->flush());
  if (options_.fsync_settles_device) {
    co_return co_await dev_.flush();
  }
  co_return OkStatus();
}

// ---------------------------------------------------------------------
// State checkpointing + recovery
// ---------------------------------------------------------------------

sim::Task<Status> MicroFs::checkpoint_state() {
  if (checkpoint_in_flight_) co_return OkStatus();
  checkpoint_in_flight_ = true;
  const SimTime ckpt_t0 = engine_.now();

  // Make deferred log rewrites durable before the snapshot boundary so a
  // crash mid-checkpoint recovers from a log consistent with the
  // about-to-be-serialized state.
  {
    Status fs_ = co_await log_->flush();
    if (!fs_.ok()) {
      checkpoint_in_flight_ = false;
      co_return fs_;
    }
  }

  // Snapshot boundary: records after this instant carry the new epoch
  // and survive the truncation below.
  const uint32_t epoch = log_->begin_epoch();
  coalesce_candidates_.clear();

  // Serialize synchronously (consistent snapshot under cooperative
  // scheduling), then write asynchronously overlapping the application.
  // One pass into `buf`: the header's length and CRC and the tables'
  // length are filled in once the bytes they cover exist.
  std::vector<std::byte> buf;
  {
    Encoder enc(buf);
    enc.u32(kCkptMagic);
    enc.u32(epoch);
    enc.u64(0);  // payload length
    enc.u64(0);  // payload CRC64
    enc.u32(epoch);
    enc.u64(log_->next_lsn());
    const size_t tables_at = enc.size();
    enc.u64(0);  // tables length
    inodes_.serialize(buf);
    pool_.serialize(buf);
    enc.patch_u64(tables_at, enc.size() - tables_at - 8);
    enc.u64(paths_.size());
    paths_.for_each([&](const std::string& path, const Ino& ino) {
      enc.str(path);
      enc.u64(ino);
    });
    const uint64_t payload = buf.size() - kCkptHeaderBytes;
    enc.patch_u64(8, payload);
    enc.patch_u64(16, crc64(buf.data() + kCkptHeaderBytes, payload));
  }

  if (buf.size() > geo_.ckpt_bytes) {
    checkpoint_in_flight_ = false;
    co_return NoSpaceError("state checkpoint exceeds reserved region");
  }
  const uint64_t base = (epoch % 2 == 0) ? geo_.ckpt_base_a : geo_.ckpt_base_b;
  Status s = co_await dev_.write(base, buf);
  if (s.ok()) {
    // Atomic cutover: only now may pre-snapshot records be discarded.
    log_->truncate_before(epoch);
    ++stats_.state_checkpoints;
    stats_.ckpt_bytes_written += buf.size();
  }
  if (obs_.trace != nullptr) {
    obs_.trace->add_span(trace_track_, "state_checkpoint", ckpt_t0,
                         engine_.now(),
                         {{"bytes", static_cast<double>(buf.size())},
                          {"epoch", static_cast<double>(epoch)}});
  }
  checkpoint_in_flight_ = false;
  co_return s;
}

void MicroFs::maybe_spawn_checkpoint() {
  if (!options_.metadata_provenance || checkpoint_in_flight_) return;
  if (!open_files_.empty()) return;
  const double free_frac = static_cast<double>(log_->free_slots()) /
                           static_cast<double>(log_->capacity());
  if (free_frac >= options_.checkpoint_free_threshold) return;
  // Background thread semantics (§III-E): overlapped with application
  // compute; the engine runs it concurrently with subsequent user ops.
  engine_.spawn([](MicroFs* fs,
                   std::weak_ptr<bool> lifetime) -> sim::Task<void> {
    if (lifetime.expired()) co_return;
    Status s = co_await fs->checkpoint_state();
    if (!s.ok()) {
      NVMECR_SLOG_WARN("microfs",
                       "background state checkpoint failed at %.3f ms: %s",
                       static_cast<double>(fs->engine_.now()) / 1e6,
                       s.to_string().c_str());
    }
  }(this, lifetime_));
}

Status MicroFs::replay_record(const LogRecord& rec,
                              std::map<Ino, std::string>& ino_paths) {
  switch (rec.type) {
    case OpType::kMkdir: {
      auto parent_it = ino_paths.find(rec.parent);
      if (parent_it == ino_paths.end()) {
        return CorruptionError("mkdir replay: unknown parent");
      }
      // An existing inode means the loaded checkpoint was forced *inside*
      // this mkdir (log ring full): its DRAM mutations are already in the
      // checkpoint and must not apply twice.
      if (inodes_.get(rec.ino) == nullptr) {
        auto inode = inodes_.insert_with_ino(rec.ino, InodeType::kDirectory);
        if (!inode.ok()) return inode.status();
        (*inode)->mode = static_cast<uint32_t>(rec.a & 0xffffffffu);
        (*inode)->uid = static_cast<uint32_t>(rec.a >> 32);
        const std::string path = parent_it->second == "/"
                                     ? "/" + rec.name
                                     : parent_it->second + "/" + rec.name;
        paths_.insert(path, rec.ino);
        ino_paths[rec.ino] = path;
      }
      return replay_dirent_growth(rec.parent, rec.psize);
    }
    case OpType::kCreate: {
      auto parent_it = ino_paths.find(rec.parent);
      if (parent_it == ino_paths.end()) {
        return CorruptionError("create replay: unknown parent");
      }
      Inode* existing = inodes_.get(rec.ino);
      if (existing != nullptr) {
        if (rec.psize == 0) {
          // Truncation record: reset the file, freeing blocks in order.
          NVMECR_RETURN_IF_ERROR(release_blocks(*existing));
          existing->size = 0;
          existing->content = ContentKind::kNone;
          existing->seed = rec.b;
          return OkStatus();
        }
        // Creation already captured by a mid-op forced checkpoint — only
        // the parent growth guard below may still apply.
        return replay_dirent_growth(rec.parent, rec.psize);
      }
      auto inode = inodes_.insert_with_ino(rec.ino, InodeType::kFile);
      if (!inode.ok()) return inode.status();
      (*inode)->mode = static_cast<uint32_t>(rec.a & 0xffffffffu);
      (*inode)->seed = rec.b;
      (*inode)->uid = static_cast<uint32_t>(rec.a >> 32);
      const std::string path = parent_it->second == "/"
                                   ? "/" + rec.name
                                   : parent_it->second + "/" + rec.name;
      paths_.insert(path, rec.ino);
      ino_paths[rec.ino] = path;
      return replay_dirent_growth(rec.parent, rec.psize);
    }
    case OpType::kWrite: {
      Inode* inode = inodes_.get(rec.ino);
      if (inode == nullptr) return CorruptionError("write replay: no inode");
      const uint64_t off = rec.a;
      const uint64_t len = rec.b;
      const uint64_t B = options_.hugeblock_size;
      // Tagged writes allocated whole hugeblocks; byte writes only the
      // touched span — both round to the same hugeblock count.
      NVMECR_RETURN_IF_ERROR(ensure_blocks(*inode, ceil_div(off + len, B) * B));
      if (inode->content == ContentKind::kNone) {
        inode->content = (rec.flags & kLogFlagTagged) ? ContentKind::kTagged
                                                      : ContentKind::kBytes;
      }
      inode->size = std::max(inode->size, off + len);
      return OkStatus();
    }
    case OpType::kUnlink: {
      Inode* inode = inodes_.get(rec.ino);
      if (inode == nullptr) return CorruptionError("unlink replay: no inode");
      // Mirror the live order: tombstone growth (possible parent block
      // allocation) happened before the file's blocks were freed.
      NVMECR_RETURN_IF_ERROR(replay_dirent_growth(rec.parent, rec.psize));
      NVMECR_RETURN_IF_ERROR(release_blocks(*inode));
      auto it = ino_paths.find(rec.ino);
      if (it != ino_paths.end()) {
        paths_.erase(it->second);
        ino_paths.erase(it);
      }
      return inodes_.free(rec.ino);
    }
    case OpType::kRename: {
      Inode* inode = inodes_.get(rec.ino);
      if (inode == nullptr) return CorruptionError("rename replay: no inode");
      auto it = ino_paths.find(rec.ino);
      if (it == ino_paths.end()) {
        return CorruptionError("rename replay: no path for inode");
      }
      auto parent_it = ino_paths.find(rec.parent);
      if (parent_it == ino_paths.end()) {
        return CorruptionError("rename replay: unknown new parent");
      }
      // Old parent's tombstone growth first, then the new entry — the
      // live allocation order.
      NVMECR_RETURN_IF_ERROR(replay_dirent_growth(rec.a, rec.b));
      NVMECR_RETURN_IF_ERROR(replay_dirent_growth(rec.parent, rec.psize));
      const std::string old_path = it->second;
      const std::string new_path = parent_it->second == "/"
                                       ? "/" + rec.name
                                       : parent_it->second + "/" + rec.name;
      if (old_path != new_path) {
        paths_.erase(old_path);
        paths_.insert(new_path, rec.ino);
        ino_paths[rec.ino] = new_path;
      }
      return OkStatus();
    }
  }
  return CorruptionError("unknown record type");
}

Status MicroFs::replay_dirent_growth(Ino parent_ino, uint64_t psize) {
  if (psize == 0) return OkStatus();
  Inode* parent = inodes_.get(parent_ino);
  if (parent == nullptr) {
    return CorruptionError("dirent replay: unknown parent inode");
  }
  // `psize` is the dirfile size right after the op's dirent append became
  // durable. If the loaded checkpoint already covers it (it was taken
  // mid-op or later), this is a no-op — the idempotence guard that makes
  // forced-checkpoint-inside-an-op recoverable.
  if (parent->size >= psize) return OkStatus();
  NVMECR_RETURN_IF_ERROR(ensure_blocks(*parent, psize));
  parent->size = psize;
  parent->content = ContentKind::kBytes;
  return OkStatus();
}

sim::Task<StatusOr<std::unique_ptr<MicroFs>>> MicroFs::recover(
    sim::Engine& engine, hw::BlockDevice& dev, Options options) {
  using Result = StatusOr<std::unique_ptr<MicroFs>>;
  auto sb = co_await read_superblock(dev, options);
  if (!sb.ok()) co_return Result(sb.status());
  auto [opts, geo] = *sb;

  std::unique_ptr<MicroFs> fs(new MicroFs(engine, dev, opts, geo));

  // Load the newest valid internal state checkpoint (A/B regions).
  uint32_t best_epoch = 0;
  std::vector<std::byte> best_payload;
  for (const uint64_t base : {geo.ckpt_base_a, geo.ckpt_base_b}) {
    std::vector<std::byte> header(kCkptHeaderBytes);
    if (!(co_await dev.read(base, header)).ok()) continue;
    Decoder dec(header);
    uint32_t magic = 0, epoch = 0;
    uint64_t length = 0, crc = 0;
    if (!dec.u32(magic).ok() || magic != kCkptMagic) continue;
    (void)dec.u32(epoch);
    (void)dec.u64(length);
    (void)dec.u64(crc);
    if (length == 0 || length > geo.ckpt_bytes - kCkptHeaderBytes) continue;
    std::vector<std::byte> payload(length);
    if (!(co_await dev.read(base + kCkptHeaderBytes, payload)).ok()) {
      continue;
    }
    if (crc64(payload.data(), payload.size()) != crc) continue;
    if (epoch > best_epoch) {
      best_epoch = epoch;
      best_payload = std::move(payload);
    }
  }
  if (best_epoch == 0) {
    co_return Result(CorruptionError("no valid state checkpoint found"));
  }

  // Deserialize DRAM state.
  uint64_t next_lsn_ckpt = 0;
  {
    Decoder dec(best_payload);
    uint32_t epoch = 0;
    NVMECR_CO_RETURN_IF_ERROR(dec.u32(epoch));
    NVMECR_CO_RETURN_IF_ERROR(dec.u64(next_lsn_ckpt));
    uint64_t tables_len = 0;
    NVMECR_CO_RETURN_IF_ERROR(dec.u64(tables_len));
    if (dec.remaining() < tables_len) {
      co_return Result(CorruptionError("checkpoint tables truncated"));
    }
    std::span<const std::byte> tables(
        best_payload.data() + dec.consumed(), tables_len);
    auto used = fs->inodes_.deserialize(tables);
    if (!used.ok()) co_return Result(used.status());
    auto used2 = fs->pool_.deserialize(tables.subspan(*used));
    if (!used2.ok()) co_return Result(used2.status());
    Decoder rest(std::span<const std::byte>(
        best_payload.data() + dec.consumed() + tables_len,
        best_payload.size() - dec.consumed() - tables_len));
    uint64_t path_count = 0;
    NVMECR_CO_RETURN_IF_ERROR(rest.u64(path_count));
    for (uint64_t i = 0; i < path_count; ++i) {
      std::string path;
      uint64_t ino = 0;
      NVMECR_CO_RETURN_IF_ERROR(rest.str(path));
      NVMECR_CO_RETURN_IF_ERROR(rest.u64(ino));
      fs->paths_.insert(path, ino);
    }
  }

  // Replay the operation log (LSN order, records since the checkpoint).
  auto scanned = co_await OpLog::scan(dev, geo.log_base, opts.log_slots,
                                      best_epoch);
  if (!scanned.ok()) co_return Result(scanned.status());
  std::map<Ino, std::string> ino_paths;
  fs->paths_.for_each([&](const std::string& path, const Ino& ino) {
    ino_paths[ino] = path;
  });
  // Replay in LSN order, stopping at the first hole: a missing LSN means
  // a corrupt/torn slot, and records beyond it have broken causality
  // (their effects may depend on the lost operation). Everything before
  // the hole is consistent — the §III-E guarantee.
  uint64_t max_lsn = next_lsn_ckpt > 0 ? next_lsn_ckpt - 1 : 0;
  uint32_t max_epoch = best_epoch;
  std::vector<std::pair<uint32_t, LogRecord>> applied;
  // Seed the hole check with the checkpoint's LSN horizon: every scanned
  // record was appended after the snapshot was serialized, so the first
  // one must be exactly next_lsn_ckpt. Starting from 0 would silently
  // accept a sequence whose *first* post-checkpoint record is missing
  // (torn slot) — replaying later records with broken causality.
  uint64_t prev_lsn = next_lsn_ckpt > 0 ? next_lsn_ckpt - 1 : 0;
  for (const auto& [slot, rec] : *scanned) {
    if (rec.lsn != prev_lsn + 1) {
      NVMECR_SLOG_WARN(
          "oplog",
          "operation log hole after lsn %llu at %.3f ms; discarding %zu "
          "later records",
          static_cast<unsigned long long>(prev_lsn),
          static_cast<double>(engine.now()) / 1e6,
          scanned->size() - applied.size());
      break;
    }
    Status s = fs->replay_record(rec, ino_paths);
    if (!s.ok()) co_return Result(s);
    applied.emplace_back(slot, rec);
    prev_lsn = rec.lsn;
    max_lsn = std::max(max_lsn, rec.lsn);
    max_epoch = std::max(max_epoch, rec.epoch);
  }
  fs->log_->restore(applied, max_epoch, max_lsn + 1);
  fs->stats_.replayed_records = applied.size();
  co_return Result(std::move(fs));
}

}  // namespace nvmecr::microfs
