// Simulated NVMe SSD.
//
// Geometry/timing model:
//  * A serial controller charges `controller_per_cmd` per command
//    (bounds IOPS; the small-block regime of Figure 7(a)).
//  * Commands split into hw_block-sized pieces striped over `channels`
//    starting at the channel implied by the LBA; each channel is a FIFO
//    BandwidthResource at write_bw/channels. A command ≥ channels ×
//    hw_block uses the full device bandwidth — the hugeblock effect the
//    paper exploits (§III-E).
//  * Writes complete to the host when absorbed by the capacitor-backed
//    device RAM: completion = max(RAM-speed path, flash drain minus the
//    RAM's worth of headroom). Flush waits for full drain.
//  * Each hardware queue completes commands in submission order
//    (Principle 3: per-instance queues make ordering free).
//
// Namespaces carve the LBA space; the job scheduler hands them to jobs
// (§III-F "Security Model"). open_queue() returns a BlockDevice view of
// one namespace through one queue, which is what a microfs instance (or
// the NVMf target on behalf of a remote initiator) holds.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/block_device.h"
#include "hw/payload_store.h"
#include "hw/ssd_spec.h"
#include "obs/observer.h"
#include "simcore/engine.h"
#include "simcore/outages.h"
#include "simcore/resource.h"

namespace nvmecr::hw {

class NvmeSsd {
 public:
  NvmeSsd(sim::Engine& engine, SsdSpec spec, std::string name = "nvme0");

  const SsdSpec& spec() const { return spec_; }
  const std::string& name() const { return name_; }
  sim::Engine& engine() { return engine_; }

  // --- Namespace management -------------------------------------------
  /// Creates a namespace of `bytes` (rounded up to hw blocks). Returns
  /// its id (>= 1, NVMe convention).
  StatusOr<uint32_t> create_namespace(uint64_t bytes);
  Status delete_namespace(uint32_t nsid);
  StatusOr<uint64_t> namespace_size(uint32_t nsid) const;
  StatusOr<uint64_t> namespace_base(uint32_t nsid) const;
  uint32_t namespace_count() const { return static_cast<uint32_t>(namespaces_.size()); }
  /// Unallocated capacity (new namespaces are carved from it).
  uint64_t free_capacity() const { return spec_.capacity - allocated_; }

  // --- Queue management -----------------------------------------------
  /// Allocates a dedicated hardware queue; kUnavailable when the
  /// controller's queue budget (spec.max_queues) is exhausted.
  StatusOr<uint32_t> alloc_queue();
  void free_queue(uint32_t queue_id);
  uint32_t queues_in_use() const { return queues_in_use_; }

  /// Opens a BlockDevice view of namespace `nsid` through `queue_id`.
  /// The view's offset 0 is the namespace start.
  std::unique_ptr<BlockDevice> open_queue(uint32_t nsid, uint32_t queue_id);

  // --- Raw command path (used by queue views) ------------------------
  /// Submits one command on namespace `nsid` (cmd.offset is namespace-
  /// relative) through hardware queue `queue_id`, and completes when the
  /// device acknowledges it. Tagged reads return the combined tag through
  /// `tag_out`. Per-command controller cost and command counters are
  /// charged cmd.subcmds times.
  sim::Task<Status> submit(uint32_t nsid, uint32_t queue_id, IoCmd cmd,
                           uint64_t* tag_out = nullptr);

  // --- fault injection (tests + failure-handling benches) -------------
  /// Fails `count` commands with kIoError after letting the next `after`
  /// commands through clean (both after charging normal latency — a
  /// realistic media error). `after` lets tests aim a burst at a precise
  /// point deep inside a multi-IO operation, e.g. mid-recover().
  void inject_io_errors(uint32_t count, uint32_t after = 0) {
    inject_errors_ = count;
    inject_after_ = after;
  }
  /// Marks the whole device failed: every subsequent command errors
  /// immediately (models an SSD/node loss for fault-tolerance tests).
  void fail_device() { device_failed_ = true; }
  /// Schedules a hard crash at sim-time `at`: commands submitted while
  /// crashed get no completion — the initiator burns the IO timeout and
  /// sees kTimedOut (distinct from fail_device()'s immediate kIoError,
  /// which models a device that still answers with an error status).
  /// recover_at == 0 means the device never comes back; a nonzero value
  /// revives it (power-cycled node) so healing can re-replicate onto it.
  /// Stored content survives the crash (capacitor-backed RAM + flash).
  /// Repeated calls accumulate independent crash windows (failure
  /// schedules arm many transient outages on one device).
  void schedule_crash(SimTime at, SimTime recover_at = 0) {
    crashes_.add(at, recover_at);
  }
  /// True when the device is crashed (unresponsive) at time `t`. Health
  /// probes use this as the management-plane liveness check.
  bool crashed_at(SimTime t) const { return crashes_.active(t); }
  /// Inflates device service time by `factor` for commands submitted in
  /// [from, until) (until == 0: never ends): a straggler (GC pause,
  /// thermal throttle), NOT a failure — completions still arrive and
  /// must not trip the detector. Windows accumulate; overlapping windows
  /// take the largest factor.
  void set_straggler(double factor, SimTime from, SimTime until) {
    stragglers_.push_back({factor, {from, until}});
  }
  /// Service-time inflation in effect at time `t` (1.0 = none).
  double straggler_factor_at(SimTime t) const {
    double f = 1.0;
    for (const Straggler& w : stragglers_) {
      if (w.factor > f && w.window.contains(t)) f = w.factor;
    }
    return f;
  }
  /// Corrupts `len` stored bytes at `nsid`-relative `offset` (silent
  /// media corruption; CRC-guarded structures must detect it on read).
  Status corrupt_media(uint32_t nsid, uint64_t offset, uint64_t len);

  /// Installs trace/metrics sinks. Registers this device's counters and
  /// per-channel backlog gauges under "ssd.<name>." and emits command
  /// spans on track "ssd/<name>". Pass {} to detach.
  void set_observer(const obs::Observer& o);

  const SsdCounters& counters() const { return counters_; }
  /// Bytes ever written into a namespace (load accounting, Fig. 7(b)).
  uint64_t namespace_bytes_written(uint32_t nsid) const;
  const PayloadStore& payload() const { return store_; }

 private:
  struct Namespace {
    uint64_t base = 0;
    uint64_t size = 0;
    uint64_t bytes_written = 0;
  };

  struct Queue {
    bool in_use = false;
    SimTime last_completion = 0;  // in-order completion chaining
  };

  /// Books the striped transfer on the channel FIFOs; returns the finish
  /// time of the slowest involved channel.
  SimTime reserve_channels(std::vector<sim::BandwidthResource>& channels,
                           uint64_t abs_offset, uint64_t len,
                           SimTime earliest);

  sim::Engine& engine_;
  SsdSpec spec_;
  std::string name_;

  sim::BandwidthResource controller_;
  std::vector<sim::BandwidthResource> write_channels_;
  std::vector<sim::BandwidthResource> read_channels_;
  std::vector<Queue> queues_;
  uint32_t queues_in_use_ = 0;

  std::map<uint32_t, Namespace> namespaces_;
  uint32_t next_nsid_ = 1;
  uint64_t allocated_ = 0;

  PayloadStore store_;
  SsdCounters counters_;
  uint32_t inject_errors_ = 0;
  uint32_t inject_after_ = 0;
  bool device_failed_ = false;
  sim::Outages crashes_;
  struct Straggler {
    double factor = 1.0;
    sim::Window window;
  };
  std::vector<Straggler> stragglers_;
  /// Time a crashed device makes the initiator wait before the timeout
  /// error is reported (models the host-side IO timeout).
  SimDuration io_timeout_ = 500'000;  // 500 us

  // Observability (all null/empty when detached; see obs/observer.h).
  obs::Observer obs_;
  std::string trace_track_;
  obs::Counter* m_cmds_ = nullptr;
  obs::Counter* m_bytes_written_ = nullptr;
  obs::Counter* m_bytes_read_ = nullptr;
  obs::Counter* m_ram_hits_ = nullptr;
  obs::Counter* m_ram_misses_ = nullptr;
  std::vector<obs::Gauge*> m_chan_backlog_;
  uint16_t profile_tag_ = 0;  // dispatch cost center (0 = unprofiled)
};

}  // namespace nvmecr::hw
