// NVMe-over-Fabrics target and initiator (SPDK-style, Figure 4).
//
// An NvmfTarget is the userspace server daemon on a storage node: it
// accepts qpair connections and forwards commands to its local SSD
// through a dedicated hardware queue per connection. Its poll groups are
// a shared CPU pool, so command processing scales with target cores but
// saturates under extreme metadata storms (it is multi-tenant, unlike
// the single-threaded metadata services of the comparator systems).
//
// connect() returns the initiator-side BlockDevice: every operation pays
//   initiator CPU -> command capsule over RDMA -> target poll group ->
//   local SSD command -> completion back over RDMA.
// For writes the data travels with the command (RDMA write); for reads
// it returns with the completion (RDMA read semantics are folded into
// the response transfer).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fabric/network.h"
#include "hw/block_device.h"
#include "hw/nvme_ssd.h"
#include "obs/observer.h"
#include "simcore/outages.h"
#include "simcore/resource.h"
#include "simcore/trace.h"

namespace nvmecr::nvmf {

using namespace nvmecr::literals;

/// Offload capability bits (DESIGN.md "Offload pipeline"): what compute
/// stages a target is willing to run storage-side. Advertised per target
/// in NvmfParams::offload_caps and granted per session by
/// negotiate_offload() — the storage-side analogue of an NVMe
/// Identify-Controller capability field.
enum OffloadCap : uint32_t {
  kOffloadDigest = 1u << 0,    // CRC64 over landed extents
  kOffloadCompress = 1u << 1,  // store compressed, decompress on read
  kOffloadCompact = 1u << 2,   // fold incremental delta chains
  kOffloadParity = 1u << 3,    // XOR parity from landed data
  kOffloadAll = kOffloadDigest | kOffloadCompress | kOffloadCompact |
                kOffloadParity,
};

struct NvmfParams {
  /// NVMe command capsule size on the wire.
  uint64_t command_bytes = 64;
  /// Completion queue entry size on the wire.
  uint64_t completion_bytes = 16;
  /// Initiator-side userspace CPU per command (SPDK submit + poll).
  SimDuration initiator_per_cmd = 500;  // ns
  /// Target-side poll-group CPU per command.
  SimDuration target_per_cmd = 2_us;
  /// Poll-group cores on the target (multi-tenant scaling).
  uint32_t target_cores = 4;
  /// Offload stages this target advertises (OffloadCap bits). All on by
  /// default — whether any stage actually runs is the session's choice
  /// (negotiate_offload), so advertising is free.
  uint32_t offload_caps = kOffloadAll;
  /// Cores dedicated to offloaded compute, separate from the poll-group
  /// pool so data-path command processing is never starved by a
  /// background compaction or parity fold.
  uint32_t offload_cores = 2;
};

class NvmfTarget {
 public:
  NvmfTarget(sim::Engine& engine, fabric::Network& network,
             fabric::NodeId node, hw::NvmeSsd& ssd, NvmfParams params = {});

  fabric::NodeId node() const { return node_; }
  hw::NvmeSsd& ssd() { return ssd_; }
  sim::Engine& engine() { return engine_; }
  fabric::Network& network() { return network_; }
  const NvmfParams& params() const { return params_; }

  /// Establishes a qpair from `client_node` to namespace `nsid`:
  /// allocates a dedicated hardware queue on the SSD (Principle 3) and
  /// returns the remote BlockDevice the client IOs through. Fails with
  /// kUnavailable when the SSD's queue budget is exhausted.
  StatusOr<std::unique_ptr<hw::BlockDevice>> connect(fabric::NodeId client_node,
                                                     uint32_t nsid);

  /// Books `count` commands on the poll-group CPU pool starting no
  /// earlier than `arrival`; returns when their processing would finish.
  SimTime reserve_poll_group(SimTime arrival, uint32_t count = 1);

  /// Books `work_ns` of single-core offload compute (digest, decompress,
  /// compaction fold, parity XOR) on the target's dedicated offload-core
  /// pool, starting no earlier than `arrival`; returns when the work
  /// would finish. Non-suspending (fluid FIFO model, like the poll
  /// groups): callers sleep_until the returned time when the result is
  /// on their critical path, or just record it for background stages.
  SimTime reserve_compute(SimTime arrival, SimDuration work_ns);

  /// Admin-command exchange negotiating the session's offload stages:
  /// the client requests a capability mask and the target grants
  /// `requested & offload_caps`. Pays one command round trip (initiator
  /// CPU, capsule, poll group, completion); a dead target daemon
  /// surfaces as kUnreachable after the transport timeout so callers
  /// can fall back to host-side compute.
  sim::Task<StatusOr<uint32_t>> negotiate_offload(fabric::NodeId client_node,
                                                  uint32_t requested);

  uint64_t commands_processed() const { return commands_processed_; }
  /// Total offloaded compute booked on this target (busy ns, all cores).
  uint64_t compute_busy_ns() const { return compute_busy_ns_; }

  /// Qpair-to-hardware-queue mapping: each connection gets a dedicated
  /// hardware queue while the controller has them (Principle 3); beyond
  /// the device's queue budget, connections share queues round-robin —
  /// what SPDK's target does when initiator qpairs outnumber HW queues.
  StatusOr<uint32_t> acquire_queue();
  void release_queue(uint32_t queue_id);

  /// Installs trace/metrics sinks: a command counter and inflight/
  /// poll-backlog gauges under "nvmf.node<N>.", plus per-operation spans
  /// on track "nvmf/node<N>". Pass {} to detach.
  void set_observer(const obs::Observer& o);

  /// Inflight (qpair depth) accounting, called by the initiator-side
  /// device around each command exchange.
  void command_begin(uint32_t count);
  void command_end(uint32_t count);

  /// Records one initiator-visible operation span (no-op untraced).
  void record_op_span(const char* name, SimTime start, uint64_t bytes);

  /// Observer handed out by set_observer (epoch phase recording by the
  /// initiator-side device).
  const obs::Observer& observer() const { return obs_; }
  /// Cost-center tag for this target's dispatches (0 when unprofiled).
  uint16_t profile_tag() const { return profile_tag_; }
  /// Cost-center tag for offloaded compute (0 when unprofiled).
  uint16_t offload_tag() const { return offload_tag_; }

  // --- fault injection (resilience tests) ------------------------------
  /// Declares the target daemon crashed from sim-time `at` (until
  /// `recover_at`; 0 = forever): commands in the window get no response
  /// and initiators see kUnreachable after the transport timeout. The
  /// SSD behind it is untouched — this models a userspace daemon / node
  /// OS loss, distinct from NvmeSsd::schedule_crash. Repeated calls
  /// accumulate independent crash windows (failure schedules arm many
  /// transient outages on one daemon).
  void schedule_crash(SimTime at, SimTime recover_at = 0) {
    crashes_.add(at, recover_at);
  }
  /// True when the target daemon is responsive at time `t` (the
  /// management-plane liveness check heartbeat probes use).
  bool alive(SimTime t) const { return !crashes_.active(t); }

 private:
  sim::Engine& engine_;
  fabric::Network& network_;
  fabric::NodeId node_;
  hw::NvmeSsd& ssd_;
  NvmfParams params_;
  /// Poll groups as an op-granular pool: one "byte" == one command, rate
  /// == cores / target_per_cmd commands per second.
  sim::BandwidthResource poll_groups_;
  /// Offload compute as a ns-granular pool: one "byte" == one ns of
  /// single-core work, rate == offload_cores ns of work per second.
  sim::BandwidthResource compute_;
  uint64_t commands_processed_ = 0;
  uint64_t compute_busy_ns_ = 0;
  /// (queue id, connections using it); shared once the budget runs out.
  std::vector<std::pair<uint32_t, uint32_t>> queue_refs_;
  uint32_t next_shared_ = 0;
  sim::Outages crashes_;

  // Observability (null/empty when detached).
  obs::Observer obs_;
  std::string trace_track_;
  obs::Counter* m_cmds_ = nullptr;
  obs::Counter* m_offload_busy_ = nullptr;
  obs::Gauge* m_inflight_ = nullptr;
  obs::Gauge* m_poll_backlog_ = nullptr;
  uint16_t profile_tag_ = 0;
  uint16_t offload_tag_ = 0;
  uint32_t inflight_ = 0;
};

}  // namespace nvmecr::nvmf
