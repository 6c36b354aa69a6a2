// RDMA network model.
//
// Each node gets a full-duplex NIC (independent tx/rx FIFO bandwidth
// resources at the EDR rate). A transfer books the sender's tx pipe and
// the receiver's rx pipe, chunked so concurrent flows share fairly, and
// pays a propagation latency proportional to switch hops. The non-
// blocking switch fabric itself is not a bottleneck (EDR fat trees are
// provisioned that way), so only NICs limit bandwidth.
//
// A node's link can be declared down for outage windows; a transfer
// touching a downed link fails with a transport timeout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "fabric/topology.h"
#include "obs/observer.h"
#include "simcore/engine.h"
#include "simcore/outages.h"
#include "simcore/resource.h"

namespace nvmecr::fabric {

using namespace nvmecr::literals;

struct NetworkParams {
  /// Per-direction NIC bandwidth. 100 Gbps EDR ≈ 12.5 GB/s.
  uint64_t nic_bw = 12500_MBps;
  /// Base one-way latency (NIC + PCIe + first switch).
  SimDuration base_latency = 1_us;
  /// Added latency per switch hop.
  SimDuration per_hop_latency = 150;  // ns
  /// Chunk size for fair sharing of a NIC among concurrent flows.
  uint64_t fair_chunk = 256_KiB;
  /// Time an initiator waits on a dead link before reporting a transport
  /// timeout (models the RDMA QP retry/ack timeout, not a sim deadline).
  SimDuration transport_timeout = 500_us;
};

class Network {
 public:
  Network(sim::Engine& engine, const Topology& topology,
          NetworkParams params = {})
      : engine_(engine), topology_(topology), params_(params) {
    nics_.reserve(topology.node_count());
    for (uint32_t n = 0; n < topology.node_count(); ++n) {
      nics_.push_back(Nic{
          sim::BandwidthResource(engine, params_.nic_bw),
          sim::BandwidthResource(engine, params_.nic_bw),
      });
    }
  }

  const Topology& topology() const { return topology_; }
  const NetworkParams& params() const { return params_; }

  /// One-way latency between two nodes.
  SimDuration latency(NodeId src, NodeId dst) const {
    if (src == dst) return 0;  // loopback: no wire
    return params_.base_latency +
           static_cast<SimDuration>(topology_.hops(src, dst)) *
               params_.per_hop_latency;
  }

  /// Declares `node`'s link down for sim-time [from, until); until == 0
  /// (the default) means it never comes back. Windows are part of the
  /// deterministic fault schedule: arm them before (or during) the run
  /// and every transfer touching the node inside the window fails with
  /// a transport timeout.
  void add_link_down(NodeId node, SimTime from, SimTime until = 0) {
    nics_[node].down.add(from, until);
  }

  /// Partitions a set of nodes off the fabric for [from, until) (0 =
  /// forever). Convenience over per-node add_link_down.
  void partition(const std::vector<NodeId>& nodes, SimTime from,
                 SimTime until = 0) {
    for (NodeId n : nodes) add_link_down(n, from, until);
  }

  /// True when `node`'s link is up at time `t`.
  bool link_up(NodeId node, SimTime t) const {
    return !nics_[node].down.active(t);
  }

  /// Moves `bytes` from `src` to `dst`; completes when the last byte has
  /// arrived. Same-node transfers are free (shared memory, no wire, never
  /// fail). If either endpoint's link is down at submission, or goes down
  /// before the last byte lands (completion ack lost), the initiator burns
  /// the transport timeout and gets kTimedOut.
  sim::Task<Status> transfer(NodeId src, NodeId dst, uint64_t bytes) {
    if (src == dst) co_return OkStatus();
    if (!link_up(src, engine_.now()) || !link_up(dst, engine_.now())) {
      co_await engine_.delay(params_.transport_timeout);
      co_return TimedOutError("link down: node " + std::to_string(src) +
                              " -> node " + std::to_string(dst));
    }
    if (bytes > 0) {
      Nic& s = nics_[src];
      Nic& d = nics_[dst];
      total_bytes_sent_ += bytes;
      total_bytes_received_ += bytes;
      if (s.tx_bytes != nullptr) s.tx_bytes->add(bytes);
      if (d.rx_bytes != nullptr) d.rx_bytes->add(bytes);
      const uint64_t chunk = params_.fair_chunk;
      SimTime arrive = engine_.now();
      uint64_t left = bytes;
      while (left > 0) {
        const uint64_t piece = left < chunk ? left : chunk;
        const SimTime tx_done = s.tx.reserve(piece);
        arrive = d.rx.reserve_after(tx_done, piece);
        left -= piece;
        // Pace on the tx pipe (suspending per chunk lets concurrent flows
        // interleave their reservations — fair sharing, part of the
        // model); the rx side pipelines: chunk k is received while chunk
        // k+1 transmits.
        if (left > 0) co_await engine_.sleep_until(tx_done);
      }
      if (s.tx_backlog != nullptr) {
        s.tx_backlog->set(engine_.now(), static_cast<double>(s.tx.backlog()));
      }
      // Last-byte arrival and wire latency are one wakeup, not two.
      co_await engine_.sleep_until(arrive + latency(src, dst));
    } else {
      co_await engine_.delay(latency(src, dst));
    }
    if (!link_up(src, engine_.now()) || !link_up(dst, engine_.now())) {
      // The wire dropped mid-flight; the sender only learns via timeout.
      co_await engine_.delay(params_.transport_timeout);
      co_return TimedOutError("link flapped during transfer: node " +
                              std::to_string(src) + " -> node " +
                              std::to_string(dst));
    }
    co_return OkStatus();
  }

  /// Bytes a NIC has currently queued for transmit, as drain time.
  SimDuration tx_backlog(NodeId node) const {
    return nics_[node].tx.backlog();
  }

  /// Fabric-wide byte totals across all NICs, counted unconditionally
  /// (observer or not). Loopback moves are excluded — they never touch a
  /// wire — which is exactly what makes target-local offload traffic
  /// visible as fabric savings.
  uint64_t total_bytes_sent() const { return total_bytes_sent_; }
  uint64_t total_bytes_received() const { return total_bytes_received_; }

  /// Installs per-NIC byte counters ("fabric.node<i>.{tx,rx}_bytes") and
  /// transmit-backlog gauges. Pass {} to detach.
  void set_observer(const obs::Observer& o) {
    for (Nic& nic : nics_) {
      nic.tx_bytes = nullptr;
      nic.rx_bytes = nullptr;
      nic.tx_backlog = nullptr;
    }
    if (o.metrics == nullptr) return;
    for (size_t n = 0; n < nics_.size(); ++n) {
      const std::string prefix = "fabric.node" + std::to_string(n) + ".";
      nics_[n].tx_bytes = o.metrics->counter(prefix + "tx_bytes");
      nics_[n].rx_bytes = o.metrics->counter(prefix + "rx_bytes");
      nics_[n].tx_backlog = o.metrics->gauge(prefix + "tx_backlog_ns");
    }
  }

 private:
  struct Nic {
    sim::BandwidthResource tx;
    sim::BandwidthResource rx;
    // Cached metric slots (null when observability is off).
    obs::Counter* tx_bytes = nullptr;
    obs::Counter* rx_bytes = nullptr;
    obs::Gauge* tx_backlog = nullptr;
    // Scheduled link-down windows.
    sim::Outages down = {};
  };

  sim::Engine& engine_;
  const Topology& topology_;
  NetworkParams params_;
  std::vector<Nic> nics_;
  uint64_t total_bytes_sent_ = 0;
  uint64_t total_bytes_received_ = 0;
};

}  // namespace nvmecr::fabric
