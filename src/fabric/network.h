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

#include <algorithm>
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
  ///
  /// The body keeps its frame in the 192-byte frame-pool class (3.5M of
  /// them per 448-rank comparator run): booking, accounting and the error
  /// text live in plain helpers, and one sleep and one timeout site serve
  /// every path.
  sim::Task<Status> transfer(NodeId src, NodeId dst, uint64_t bytes) {
    if (src == dst) co_return OkStatus();
    const bool submitted = links_up(src, dst);
    if (submitted) {
      count_bytes(src, dst, bytes);
      // `bytes` counts down what is still to book.
      do {
        co_await engine_.sleep_until(book_chunk(src, dst, bytes));
      } while (bytes > 0);
    }
    if (!submitted || !links_up(src, dst)) {
      // The sender only learns of a dead link via the timeout.
      co_await engine_.delay(params_.transport_timeout);
      co_return link_timeout(src, dst, submitted);
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

  bool links_up(NodeId src, NodeId dst) const {
    return link_up(src, engine_.now()) && link_up(dst, engine_.now());
  }

  void count_bytes(NodeId src, NodeId dst, uint64_t bytes) {
    if (bytes == 0) return;
    total_bytes_sent_ += bytes;
    total_bytes_received_ += bytes;
    if (nics_[src].tx_bytes != nullptr) nics_[src].tx_bytes->add(bytes);
    if (nics_[dst].rx_bytes != nullptr) nics_[dst].rx_bytes->add(bytes);
  }

  /// Books the next fair_chunk of a transfer with `left` bytes still to
  /// book and returns when the sender wakes. While bytes remain that is
  /// the chunk's tx completion: pacing on the tx pipe lets concurrent
  /// flows interleave their reservations (fair sharing, part of the
  /// model), and the rx side pipelines, receiving chunk k while chunk k+1
  /// transmits. After the last chunk, or for a zero-byte move, it is the
  /// last byte's arrival plus the wire latency: one wakeup, not two.
  SimTime book_chunk(NodeId src, NodeId dst, uint64_t& left) {
    if (left == 0) return engine_.now() + latency(src, dst);
    Nic& s = nics_[src];
    const uint64_t piece = std::min(left, params_.fair_chunk);
    const SimTime tx_done = s.tx.reserve(piece);
    const SimTime arrive = nics_[dst].rx.reserve_after(tx_done, piece);
    left -= piece;
    if (left > 0) return tx_done;
    if (s.tx_backlog != nullptr) {
      s.tx_backlog->set(engine_.now(), static_cast<double>(s.tx.backlog()));
    }
    return arrive + latency(src, dst);
  }

  /// The kTimedOut a transfer reports: its link was down at submission,
  /// or dropped while the move was in flight.
  static Status link_timeout(NodeId src, NodeId dst, bool submitted) {
    const char* what =
        submitted ? "link flapped during transfer" : "link down";
    return TimedOutError(std::string(what) + ": node " + std::to_string(src) +
                         " -> node " + std::to_string(dst));
  }

  sim::Engine& engine_;
  const Topology& topology_;
  NetworkParams params_;
  std::vector<Nic> nics_;
  uint64_t total_bytes_sent_ = 0;
  uint64_t total_bytes_received_ = 0;
};

}  // namespace nvmecr::fabric
