#include "hw/nvme_ssd.h"

#include <algorithm>

#include "common/log.h"
#include "obs/profile.h"
#include "simcore/profile.h"
#include "simcore/trace.h"

namespace nvmecr::hw {

namespace {
// The controller is modeled as a BandwidthResource at 1 byte/ns so that
// reserve(n) books exactly n nanoseconds of serial controller time.
constexpr uint64_t kOneBytePerNs = 1000ull * 1000ull * 1000ull;
}  // namespace

NvmeSsd::NvmeSsd(sim::Engine& engine, SsdSpec spec, std::string name)
    : engine_(engine),
      spec_(spec),
      name_(std::move(name)),
      controller_(engine, kOneBytePerNs),
      queues_(spec.max_queues),
      store_(spec.hw_block_size) {
  NVMECR_CHECK(spec_.channels > 0);
  write_channels_.reserve(spec_.channels);
  read_channels_.reserve(spec_.channels);
  for (uint32_t c = 0; c < spec_.channels; ++c) {
    write_channels_.emplace_back(engine, spec_.channel_write_bw());
    read_channels_.emplace_back(engine, spec_.channel_read_bw());
  }
}

StatusOr<uint32_t> NvmeSsd::create_namespace(uint64_t bytes) {
  const uint64_t size = round_up(bytes, spec_.hw_block_size);
  if (namespaces_.size() >= spec_.max_namespaces) {
    return UnavailableError("namespace budget exhausted on " + name_);
  }
  if (size > free_capacity()) {
    return NoSpaceError("not enough free capacity on " + name_);
  }
  Namespace ns;
  ns.base = allocated_;  // simple bump allocation; deletes leave holes
  ns.size = size;
  allocated_ += size;
  const uint32_t nsid = next_nsid_++;
  namespaces_.emplace(nsid, ns);
  return nsid;
}

Status NvmeSsd::delete_namespace(uint32_t nsid) {
  auto it = namespaces_.find(nsid);
  if (it == namespaces_.end()) return NotFoundError("no namespace");
  // Capacity from deleted namespaces is only reclaimed when it is the
  // most recently allocated region (bump allocator); real controllers
  // have the same external behavior via granular reclamation.
  if (it->second.base + it->second.size == allocated_) {
    allocated_ -= it->second.size;
  }
  namespaces_.erase(it);
  return OkStatus();
}

StatusOr<uint64_t> NvmeSsd::namespace_size(uint32_t nsid) const {
  auto it = namespaces_.find(nsid);
  if (it == namespaces_.end()) return NotFoundError("no namespace");
  return it->second.size;
}

StatusOr<uint64_t> NvmeSsd::namespace_base(uint32_t nsid) const {
  auto it = namespaces_.find(nsid);
  if (it == namespaces_.end()) return NotFoundError("no namespace");
  return it->second.base;
}

StatusOr<uint32_t> NvmeSsd::alloc_queue() {
  for (uint32_t q = 0; q < queues_.size(); ++q) {
    if (!queues_[q].in_use) {
      queues_[q].in_use = true;
      queues_[q].last_completion = 0;
      ++queues_in_use_;
      return q;
    }
  }
  return UnavailableError("all hardware queues in use on " + name_);
}

void NvmeSsd::free_queue(uint32_t queue_id) {
  NVMECR_CHECK(queue_id < queues_.size() && queues_[queue_id].in_use);
  queues_[queue_id].in_use = false;
  --queues_in_use_;
}

SimTime NvmeSsd::reserve_channels(
    std::vector<sim::BandwidthResource>& channels, uint64_t abs_offset,
    uint64_t len, SimTime earliest) {
  if (len == 0) return earliest;
  const uint32_t bs = spec_.hw_block_size;
  const uint32_t nch = spec_.channels;
  // Distribute hw blocks round-robin starting at the LBA-implied channel:
  // every channel gets the whole rounds, the first nblocks % nch channels
  // from start_ch one block more, and the channel of the final block
  // transfers only that block's real bytes.
  const uint64_t nblocks = ceil_div(len, bs);
  const uint32_t start_ch = static_cast<uint32_t>((abs_offset / bs) % nch);
  const uint64_t whole_rounds = nblocks / nch;
  const uint64_t extra = nblocks % nch;
  const uint64_t last_pos = (nblocks - 1) % nch;  // final block's position
  const uint64_t slack = nblocks * bs - len;

  SimTime finish = earliest;
  for (uint32_t c = 0; c < nch; ++c) {
    // Round-robin position of channel c counted from start_ch.
    const uint64_t pos = c >= start_ch ? c - start_ch : c + nch - start_ch;
    uint64_t bytes = (whole_rounds + (pos < extra ? 1 : 0)) * bs;
    if (pos == last_pos) bytes -= slack;
    if (bytes == 0) continue;
    finish = std::max(finish, channels[c].reserve_after(earliest, bytes));
  }
  return finish;
}

void NvmeSsd::set_observer(const obs::Observer& o) {
  obs_ = o;
  trace_track_ = "ssd/" + name_;
  m_cmds_ = nullptr;
  m_bytes_written_ = nullptr;
  m_bytes_read_ = nullptr;
  m_ram_hits_ = nullptr;
  m_ram_misses_ = nullptr;
  m_chan_backlog_.clear();
  profile_tag_ = engine_.profile_tag("hw/ssd");
  if (obs_.metrics == nullptr) return;
  const std::string prefix = "ssd." + name_ + ".";
  m_cmds_ = obs_.metrics->counter(prefix + "commands");
  m_bytes_written_ = obs_.metrics->counter(prefix + "bytes_written");
  m_bytes_read_ = obs_.metrics->counter(prefix + "bytes_read");
  m_ram_hits_ = obs_.metrics->counter(prefix + "ram_hits");
  m_ram_misses_ = obs_.metrics->counter(prefix + "ram_misses");
  m_chan_backlog_.reserve(spec_.channels);
  for (uint32_t c = 0; c < spec_.channels; ++c) {
    m_chan_backlog_.push_back(obs_.metrics->gauge(
        prefix + "chan" + std::to_string(c) + ".write_backlog_ns"));
  }
}

Status NvmeSsd::corrupt_media(uint32_t nsid, uint64_t offset, uint64_t len) {
  auto it = namespaces_.find(nsid);
  if (it == namespaces_.end()) return NotFoundError("no namespace");
  if (offset + len > it->second.size) {
    return InvalidArgumentError("corruption beyond namespace");
  }
  // Overwrite with a junk pattern; byte readers see garbage, tagged
  // readers see a mismatching tag.
  std::vector<std::byte> junk(len, std::byte{0xde});
  store_.write_bytes(it->second.base + offset, junk);
  return OkStatus();
}

sim::Task<Status> NvmeSsd::submit(uint32_t nsid, uint32_t queue_id,
                                  IoCmd cmd, uint64_t* tag_out) {
  // Resumptions this command schedules (the completion wakeup, timeout
  // burns) dispatch under the device's cost center.
  sim::ProfileTagScope profile_scope(engine_, profile_tag_);
  if (device_failed_) {
    co_return IoError("device " + name_ + " failed");
  }
  if (crashed_at(engine_.now())) {
    // No completion will ever arrive; the host burns its IO timeout.
    co_await engine_.delay(io_timeout_);
    co_return TimedOutError("device " + name_ + " unresponsive");
  }
  // Validate addressing.
  auto ns_it = namespaces_.find(nsid);
  if (ns_it == namespaces_.end()) co_return NotFoundError("bad nsid");
  Namespace& ns = ns_it->second;
  if (cmd.op != IoCmd::Op::kFlush && cmd.offset + cmd.len > ns.size) {
    co_return InvalidArgumentError("IO beyond namespace end");
  }
  if (queue_id >= queues_.size() || !queues_[queue_id].in_use) {
    co_return BadFdError("invalid hardware queue");
  }
  Queue& queue = queues_[queue_id];
  const uint64_t abs_offset = ns.base + cmd.offset;

  // Controller processing (serial across all queues), once per host
  // command represented by this submission.
  const uint32_t ncmds = cmd.subcmds > 0 ? cmd.subcmds : 1;
  const SimTime ctrl_done = controller_.reserve(
      static_cast<uint64_t>(spec_.controller_per_cmd) * ncmds);

  SimTime completion = ctrl_done;
  switch (cmd.op) {
    case IoCmd::Op::kWrite: {
      const SimTime flash_finish =
          reserve_channels(write_channels_, abs_offset, cmd.len, ctrl_done);
      if (spec_.device_ram > 0) {
        // Complete when the data is in capacitor-backed RAM: either the
        // RAM-speed path, or — once the flash backlog exceeds one RAM's
        // worth — the flash drain time minus that headroom.
        const SimTime ram_path =
            ctrl_done + spec_.command_latency +
            transfer_time(cmd.len, spec_.device_ram_bw);
        const SimDuration headroom =
            transfer_time(spec_.device_ram, spec_.write_bw);
        completion = std::max(
            ram_path, flash_finish + spec_.command_latency - headroom);
        // RAM "hit": the capacitor-backed buffer absorbed the write (the
        // RAM-speed path set the completion); "miss": flash drain
        // dominated because the backlog exceeded the RAM's headroom.
        if (completion == ram_path) {
          if (m_ram_hits_ != nullptr) m_ram_hits_->add(ncmds);
        } else {
          if (m_ram_misses_ != nullptr) m_ram_misses_->add(ncmds);
        }
      } else {
        completion = flash_finish + spec_.command_latency;
        if (m_ram_misses_ != nullptr) m_ram_misses_->add(ncmds);
      }
      if (!m_chan_backlog_.empty()) {
        const SimTime now = engine_.now();
        for (uint32_t c = 0; c < spec_.channels; ++c) {
          m_chan_backlog_[c]->set(
              now, static_cast<double>(write_channels_[c].backlog()));
        }
      }
      // Content + accounting take effect with the acknowledgement.
      if (cmd.tagged) {
        Status s = store_.write_pattern(abs_offset, cmd.len, cmd.seed);
        if (!s.ok()) co_return s;
      } else if (!cmd.write_data.empty()) {
        store_.write_bytes(abs_offset, cmd.write_data);
      }
      counters_.write_commands += ncmds;
      counters_.bytes_written += cmd.len;
      ns.bytes_written += cmd.len;
      break;
    }
    case IoCmd::Op::kRead: {
      const SimTime read_finish =
          reserve_channels(read_channels_, abs_offset, cmd.len, ctrl_done);
      completion = read_finish + spec_.command_latency;
      if (cmd.tagged) {
        auto tag = store_.read_combined_tag(abs_offset, cmd.len);
        if (!tag.ok()) co_return tag.status();
        if (tag_out != nullptr) *tag_out = *tag;
      } else if (!cmd.read_out.empty()) {
        Status s = store_.read_bytes(abs_offset, cmd.read_out);
        if (!s.ok()) co_return s;
      }
      counters_.read_commands += ncmds;
      counters_.bytes_read += cmd.len;
      break;
    }
    case IoCmd::Op::kFlush: {
      // Durable once every booked flash write has drained.
      SimTime drain = ctrl_done;
      for (auto& ch : write_channels_) {
        drain = std::max(drain, ch.busy_until());
      }
      completion = drain + spec_.command_latency;
      ++counters_.flush_commands;
      break;
    }
  }

  // Straggler window: inflate the device service time (completion still
  // arrives — this must read as "slow", never "dead", to the detector).
  if (const double factor = straggler_factor_at(engine_.now());
      factor > 1.0) {
    const SimTime now = engine_.now();
    completion = now + static_cast<SimTime>(
                           static_cast<double>(completion - now) * factor);
  }

  // In-order completion within a hardware queue.
  completion = std::max(completion, queue.last_completion);
  queue.last_completion = completion;

  if (m_cmds_ != nullptr) m_cmds_->add(ncmds);
  if (m_bytes_written_ != nullptr && cmd.op == IoCmd::Op::kWrite) {
    m_bytes_written_->add(cmd.len);
  }
  if (m_bytes_read_ != nullptr && cmd.op == IoCmd::Op::kRead) {
    m_bytes_read_->add(cmd.len);
  }
  if (obs_.trace != nullptr) {
    // The completion time is already known, so the span can be recorded
    // up front instead of via an RAII guard across the suspension.
    obs_.trace->add_span(trace_track_, cmd.op_name(), engine_.now(), completion,
                         {{"bytes", static_cast<double>(cmd.len)},
                          {"cmds", static_cast<double>(ncmds)}});
  }
  if (obs_.epoch != nullptr) {
    // Critical-path decomposition of the device's share of the blocking
    // time: controller queueing/processing vs channel/flash service (the
    // straggler window and in-order clamp count as flash backlog).
    const SimTime submit_now = engine_.now();
    obs_.epoch->record(engine_, obs::EpochProfiler::Phase::kTargetQueue,
                       ctrl_done - submit_now);
    obs_.epoch->record(engine_, obs::EpochProfiler::Phase::kFlash,
                       completion - std::max(ctrl_done, submit_now));
  }

  // Skip the scheduler round-trip when the completion is already due
  // (zero-length flush on an idle device and similar degenerate cases).
  if (completion > engine_.now()) co_await engine_.sleep_until(completion);
  if (inject_after_ > 0) {
    --inject_after_;
  } else if (inject_errors_ > 0) {
    --inject_errors_;
    co_return IoError("injected media error on " + name_);
  }
  co_return OkStatus();
}

uint64_t NvmeSsd::namespace_bytes_written(uint32_t nsid) const {
  auto it = namespaces_.find(nsid);
  return it == namespaces_.end() ? 0 : it->second.bytes_written;
}

namespace {

/// BlockDevice view of one namespace through one hardware queue.
class SsdQueueDevice final : public BlockDevice {
 public:
  SsdQueueDevice(NvmeSsd& ssd, uint32_t nsid, uint32_t queue_id)
      : ssd_(ssd), nsid_(nsid), queue_id_(queue_id) {
    auto size = ssd.namespace_size(nsid);
    capacity_ = size.ok() ? *size : 0;
    auto base = ssd.namespace_base(nsid);
    origin_ = base.ok() ? *base : 0;
  }

  uint64_t capacity() const override { return capacity_; }
  uint32_t hw_block_size() const override { return ssd_.spec().hw_block_size; }
  uint64_t tag_origin() const override { return origin_; }

  // Forwards the submit() task directly instead of awaiting it from a
  // wrapper coroutine: one frame per IO instead of two (cmd is copied
  // into the submit frame at call time).
  sim::Task<Status> submit(IoCmd cmd, uint64_t* tag = nullptr) override {
    return ssd_.submit(nsid_, queue_id_, cmd, tag);
  }

 private:
  NvmeSsd& ssd_;
  uint32_t nsid_;
  uint32_t queue_id_;
  uint64_t capacity_;
  uint64_t origin_ = 0;
};

}  // namespace

std::unique_ptr<BlockDevice> NvmeSsd::open_queue(uint32_t nsid,
                                                 uint32_t queue_id) {
  return std::make_unique<SsdQueueDevice>(*this, nsid, queue_id);
}

}  // namespace nvmecr::hw
