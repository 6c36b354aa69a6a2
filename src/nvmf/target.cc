#include "nvmf/target.h"

#include "obs/profile.h"
#include "simcore/profile.h"

namespace nvmecr::nvmf {

namespace {

using obs::EpochProfiler;

/// Initiator-side view of a remote namespace through one qpair.
///
/// Fast path (DESIGN.md §11): submit() is ONE coroutine frame covering
/// the whole exchange — the request and response halves are inlined
/// rather than awaited as sub-tasks, because this is the hottest path in
/// the simulation (the nvmf cost center is ~88% of e2e wall time). The
/// frame pool (simcore/task.h) recycles that one frame per connection,
/// so no per-connection reusable task is needed.
class RemoteDevice final : public hw::BlockDevice {
 public:
  RemoteDevice(NvmfTarget& target, fabric::NodeId client,
               std::unique_ptr<hw::BlockDevice> ssd_view, uint32_t queue_id)
      : target_(target),
        client_(client),
        ssd_view_(std::move(ssd_view)),
        queue_id_(queue_id) {}

  ~RemoteDevice() override { target_.release_queue(queue_id_); }

  uint64_t capacity() const override { return ssd_view_->capacity(); }
  uint32_t hw_block_size() const override {
    return ssd_view_->hw_block_size();
  }
  uint64_t tag_origin() const override { return ssd_view_->tag_origin(); }

  /// The whole NVMf exchange in one coroutine frame. Error combination:
  ///   - a request failure wins outright (the command never reached the
  ///     device);
  ///   - otherwise the response leg always runs (it closes the inflight
  ///     window), and a device error beats a response error.
  ///
  /// Inflight (qpair depth) accounting opens at the top; on a request
  /// failure it closes there too (the command is dead), otherwise the
  /// response half closes it. A crashed target daemon or a down link
  /// surfaces as kUnreachable / kTimedOut after the transport timeout —
  /// never as a hang.
  sim::Task<Status> submit(hw::IoCmd cmd, uint64_t* tag = nullptr) override {
    sim::Engine& eng = target_.engine();
    const NvmfParams& p = target_.params();
    const obs::Observer& obs = target_.observer();
    const SimTime t0 = eng.now();
    const uint32_t count = cmd.subcmds;
    const bool is_read = cmd.op == hw::IoCmd::Op::kRead;
    // Payload rides the request capsule for writes, the completion for
    // reads; batches pay per-subcommand wire overhead.
    const uint64_t req_bytes =
        p.command_bytes * count + (is_read ? 0 : cmd.len);
    const uint64_t resp_bytes =
        p.completion_bytes * count + (is_read ? cmd.len : 0);

    // --- request half: initiator CPU, capsule (+ inline data) to the
    // target, poll group. Resumptions scheduled inside the block dispatch
    // under the "nvmf" cost center; phase time goes to the rank stamped
    // by the caller.
    {
      sim::ProfileTagScope tag_scope(eng, target_.profile_tag());
      target_.command_begin(count);
      const SimDuration cpu = p.initiator_per_cmd * count;
      if (cpu > 0) co_await eng.delay(cpu);
      if (obs.epoch != nullptr) {
        obs.epoch->record(eng, EpochProfiler::Phase::kSerialize, cpu);
      }
      if (!target_.alive(eng.now())) {
        co_await eng.delay(target_.network().params().transport_timeout);
        target_.command_end(count);
        co_return UnreachableError("nvmf target on node " +
                                   std::to_string(target_.node()) + " down");
      }
      const SimTime xfer0 = eng.now();
      Status rq = co_await target_.network().transfer(
          client_, target_.node(), req_bytes);
      if (obs.epoch != nullptr) {
        obs.epoch->record(eng, EpochProfiler::Phase::kFabric,
                          eng.now() - xfer0);
      }
      if (!rq.ok()) {
        target_.command_end(count);
        co_return rq;
      }
      const SimTime cpu_done = target_.reserve_poll_group(eng.now(), count);
      if (obs.epoch != nullptr) {
        obs.epoch->record(eng, EpochProfiler::Phase::kTargetQueue,
                          cpu_done - eng.now());
      }
      // Inline the arbitration wait when the poll group is already free
      // (no backlog and no per-command cost): no reason to bounce through
      // the scheduler for a zero-length sleep.
      if (cpu_done > eng.now()) co_await eng.sleep_until(cpu_done);
      if (!target_.alive(eng.now())) {
        // The daemon died while the command sat in the poll group.
        co_await eng.delay(target_.network().params().transport_timeout);
        target_.command_end(count);
        co_return UnreachableError("nvmf target on node " +
                                   std::to_string(target_.node()) +
                                   " died processing command");
      }
    }

    // --- device op, under the SSD's own cost center ---
    Status dev = co_await ssd_view_->submit(cmd, tag);

    // --- response half: completion (+ read data) back to the initiator.
    // Always closes the inflight window opened above.
    Status rs;
    {
      sim::ProfileTagScope tag_scope(eng, target_.profile_tag());
      if (!target_.alive(eng.now())) {
        co_await eng.delay(target_.network().params().transport_timeout);
        target_.command_end(count);
        rs = UnreachableError("nvmf target on node " +
                              std::to_string(target_.node()) +
                              " died before completing");
      } else {
        const SimTime xfer0 = eng.now();
        rs = co_await target_.network().transfer(target_.node(), client_,
                                                 resp_bytes);
        if (obs.epoch != nullptr) {
          obs.epoch->record(eng, EpochProfiler::Phase::kFabric,
                            eng.now() - xfer0);
        }
        target_.command_end(count);
      }
    }
    target_.record_op_span(cmd.op_name(), t0, cmd.len);
    if (!dev.ok()) co_return dev;
    co_return rs;
  }

 private:
  NvmfTarget& target_;
  fabric::NodeId client_;
  std::unique_ptr<hw::BlockDevice> ssd_view_;
  uint32_t queue_id_;
};

}  // namespace

NvmfTarget::NvmfTarget(sim::Engine& engine, fabric::Network& network,
                       fabric::NodeId node, hw::NvmeSsd& ssd,
                       NvmfParams params)
    : engine_(engine),
      network_(network),
      node_(node),
      ssd_(ssd),
      params_(params),
      poll_groups_(engine,
                   params.target_per_cmd > 0
                       ? params.target_cores * kSecond /
                             static_cast<uint64_t>(params.target_per_cmd)
                       : 0),
      compute_(engine, static_cast<uint64_t>(params.offload_cores) * kSecond) {}

SimTime NvmfTarget::reserve_compute(SimTime arrival, SimDuration work_ns) {
  if (work_ns <= 0) return arrival;
  compute_busy_ns_ += static_cast<uint64_t>(work_ns);
  const SimTime done =
      compute_.reserve_after(arrival, static_cast<uint64_t>(work_ns));
  if (m_offload_busy_ != nullptr) {
    m_offload_busy_->add(static_cast<uint64_t>(work_ns));
  }
  return done;
}

sim::Task<StatusOr<uint32_t>> NvmfTarget::negotiate_offload(
    fabric::NodeId client_node, uint32_t requested) {
  sim::ProfileTagScope tag_scope(engine_, profile_tag_);
  co_await engine_.delay(params_.initiator_per_cmd);
  if (!alive(engine_.now())) {
    co_await engine_.delay(network_.params().transport_timeout);
    co_return UnreachableError("nvmf target on node " + std::to_string(node_) +
                               " down (offload negotiation)");
  }
  Status s =
      co_await network_.transfer(client_node, node_, params_.command_bytes);
  if (!s.ok()) co_return s;
  co_await engine_.sleep_until(reserve_poll_group(engine_.now()));
  if (!alive(engine_.now())) {
    co_await engine_.delay(network_.params().transport_timeout);
    co_return UnreachableError("nvmf target on node " + std::to_string(node_) +
                               " died negotiating offload");
  }
  s = co_await network_.transfer(node_, client_node, params_.completion_bytes);
  if (!s.ok()) co_return s;
  co_return requested & params_.offload_caps;
}

SimTime NvmfTarget::reserve_poll_group(SimTime arrival, uint32_t count) {
  commands_processed_ += count;
  const SimTime done = poll_groups_.reserve_after(arrival, count);
  if (m_cmds_ != nullptr) m_cmds_->add(count);
  if (m_poll_backlog_ != nullptr) {
    m_poll_backlog_->set(engine_.now(),
                         static_cast<double>(poll_groups_.backlog()));
  }
  return done;
}

void NvmfTarget::set_observer(const obs::Observer& o) {
  obs_ = o;
  trace_track_ = "nvmf/node" + std::to_string(node_);
  m_cmds_ = nullptr;
  m_offload_busy_ = nullptr;
  m_inflight_ = nullptr;
  m_poll_backlog_ = nullptr;
  profile_tag_ = engine_.profile_tag("nvmf");
  offload_tag_ = engine_.profile_tag("nvmf/offload");
  if (obs_.metrics == nullptr) return;
  const std::string prefix = "nvmf.node" + std::to_string(node_) + ".";
  m_cmds_ = obs_.metrics->counter(prefix + "commands");
  m_offload_busy_ = obs_.metrics->counter(prefix + "offload_busy_ns");
  m_inflight_ = obs_.metrics->gauge(prefix + "qpair_depth");
  m_poll_backlog_ = obs_.metrics->gauge(prefix + "poll_backlog_ns");
}

void NvmfTarget::command_begin(uint32_t count) {
  inflight_ += count;
  if (m_inflight_ != nullptr) {
    m_inflight_->set(engine_.now(), static_cast<double>(inflight_));
  }
}

void NvmfTarget::command_end(uint32_t count) {
  inflight_ = inflight_ >= count ? inflight_ - count : 0;
  if (m_inflight_ != nullptr) {
    m_inflight_->set(engine_.now(), static_cast<double>(inflight_));
  }
}

void NvmfTarget::record_op_span(const char* name, SimTime start,
                                uint64_t bytes) {
  if (obs_.trace == nullptr) return;
  obs_.trace->add_span(trace_track_, name, start, engine_.now(),
                       {{"bytes", static_cast<double>(bytes)}});
}

StatusOr<uint32_t> NvmfTarget::acquire_queue() {
  auto queue = ssd_.alloc_queue();
  if (queue.ok()) {
    queue_refs_.emplace_back(*queue, 1);
    return *queue;
  }
  if (queue_refs_.empty()) return queue.status();
  // Budget exhausted: share an existing queue round-robin.
  auto& [qid, refs] = queue_refs_[next_shared_ % queue_refs_.size()];
  ++next_shared_;
  ++refs;
  return qid;
}

void NvmfTarget::release_queue(uint32_t queue_id) {
  for (auto it = queue_refs_.begin(); it != queue_refs_.end(); ++it) {
    if (it->first == queue_id) {
      if (--it->second == 0) {
        ssd_.free_queue(queue_id);
        queue_refs_.erase(it);
      }
      return;
    }
  }
}

StatusOr<std::unique_ptr<hw::BlockDevice>> NvmfTarget::connect(
    fabric::NodeId client_node, uint32_t nsid) {
  auto queue = acquire_queue();
  if (!queue.ok()) return queue.status();
  auto view = ssd_.open_queue(nsid, *queue);
  return std::unique_ptr<hw::BlockDevice>(
      new RemoteDevice(*this, client_node, std::move(view), *queue));
}

}  // namespace nvmecr::nvmf
