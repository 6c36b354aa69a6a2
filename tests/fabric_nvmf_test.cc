// Tests for the cluster topology, the RDMA network model, the NVMf
// target/initiator pair, SpdkLocalDevice, the overhead wrapper, and the
// IoCmd forwarding contract of PartitionView and OverheadDevice.
#include <gtest/gtest.h>

#include <vector>

#include "fabric/network.h"
#include "fabric/topology.h"
#include "hw/nvme_ssd.h"
#include "hw/ram_device.h"
#include "nvmf/overhead_device.h"
#include "nvmf/spdk.h"
#include "nvmf/target.h"
#include "simcore/event.h"

namespace nvmecr {
namespace {

using namespace nvmecr::literals;
using fabric::Network;
using fabric::NodeRole;
using fabric::Topology;

// ---------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------

TEST(TopologyTest, PaperTestbedShape) {
  Topology t = Topology::paper_testbed();
  EXPECT_EQ(t.node_count(), 24u);
  EXPECT_EQ(t.rack_count(), 2u);
  EXPECT_EQ(t.nodes_with_role(NodeRole::kCompute).size(), 16u);
  EXPECT_EQ(t.nodes_with_role(NodeRole::kStorage).size(), 8u);
}

TEST(TopologyTest, HopCounts) {
  Topology t = Topology::paper_testbed();
  const auto compute = t.nodes_with_role(NodeRole::kCompute);
  const auto storage = t.nodes_with_role(NodeRole::kStorage);
  EXPECT_EQ(t.hops(compute[0], compute[0]), 0u);
  EXPECT_EQ(t.hops(compute[0], compute[1]), 2u);   // same rack
  EXPECT_EQ(t.hops(compute[0], storage[0]), 4u);   // cross rack
}

TEST(TopologyTest, FailureDomainsFollowRacks) {
  Topology t;
  const auto r0 = t.add_rack(4, NodeRole::kCompute);
  const auto r1 = t.add_rack(4, NodeRole::kStorage);
  for (auto n : t.nodes_in_rack(r0)) EXPECT_EQ(t.failure_domain(n), r0);
  for (auto n : t.nodes_in_rack(r1)) EXPECT_EQ(t.failure_domain(n), r1);
  EXPECT_EQ(t.rack_distance(r0, r0), 0u);
  EXPECT_EQ(t.rack_distance(r0, r1), 4u);
}

// ---------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------

struct NetFixture {
  sim::Engine eng;
  Topology topo = Topology::paper_testbed();
  Network net{eng, topo};
};

TEST(NetworkTest, LatencyScalesWithHops) {
  NetFixture f;
  const auto compute = f.topo.nodes_with_role(NodeRole::kCompute);
  const auto storage = f.topo.nodes_with_role(NodeRole::kStorage);
  EXPECT_EQ(f.net.latency(compute[0], compute[0]), 0);
  EXPECT_EQ(f.net.latency(compute[0], compute[1]), 1_us + 2 * 150);
  EXPECT_EQ(f.net.latency(compute[0], storage[0]), 1_us + 4 * 150);
}

TEST(NetworkTest, TransferTimeMatchesNicRate) {
  NetFixture f;
  f.eng.run_task([](NetFixture& fx) -> sim::Task<void> {
    // ~125 MiB at 12.5 GB/s.
    EXPECT_TRUE((co_await fx.net.transfer(0, 16, 125_MiB)).ok());
    const double expect = static_cast<double>(125_MiB) / 12.5e9;
    EXPECT_NEAR(to_seconds(fx.eng.now()), expect, expect * 0.02);
  }(f));
}

TEST(NetworkTest, SameNodeTransferIsFree) {
  NetFixture f;
  f.eng.run_task([](NetFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.net.transfer(3, 3, 1_GiB)).ok());
    EXPECT_EQ(fx.eng.now(), 0);
  }(f));
}

TEST(NetworkTest, ConcurrentFlowsShareReceiverNic) {
  // Two senders to one receiver: the receiver's rx pipe is the
  // bottleneck, so each flow sees about half the NIC rate.
  NetFixture f;
  std::vector<SimTime> done(2);
  sim::JoinCounter join(f.eng);
  for (int i = 0; i < 2; ++i) {
    join.spawn([](NetFixture& fx, std::vector<SimTime>& d, int id)
                   -> sim::Task<void> {
      EXPECT_TRUE((co_await fx.net.transfer(id, 16, 125_MiB)).ok());
      d[id] = fx.eng.now();
    }(f, done, i));
  }
  f.eng.run();
  const double expect = 2.0 * static_cast<double>(125_MiB) / 12.5e9;
  EXPECT_NEAR(to_seconds(done[0]), expect, expect * 0.05);
  EXPECT_NEAR(to_seconds(done[1]), expect, expect * 0.05);
}

TEST(NetworkTest, DisjointPairsDoNotInterfere) {
  NetFixture f;
  std::vector<SimTime> done(2);
  sim::JoinCounter join(f.eng);
  join.spawn([](NetFixture& fx, std::vector<SimTime>& d) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.net.transfer(0, 16, 125_MiB)).ok());
    d[0] = fx.eng.now();
  }(f, done));
  join.spawn([](NetFixture& fx, std::vector<SimTime>& d) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.net.transfer(1, 17, 125_MiB)).ok());
    d[1] = fx.eng.now();
  }(f, done));
  f.eng.run();
  const double expect = static_cast<double>(125_MiB) / 12.5e9;
  EXPECT_NEAR(to_seconds(done[0]), expect, expect * 0.05);
  EXPECT_NEAR(to_seconds(done[1]), expect, expect * 0.05);
}

// ---------------------------------------------------------------------
// NVMf target/initiator
// ---------------------------------------------------------------------

struct NvmfFixture {
  sim::Engine eng;
  Topology topo = Topology::paper_testbed();
  Network net{eng, topo};
  hw::NvmeSsd ssd{eng, hw::SsdSpec{.capacity = 4_GiB}};
  fabric::NodeId storage_node = topo.nodes_with_role(NodeRole::kStorage)[0];
  fabric::NodeId compute_node = topo.nodes_with_role(NodeRole::kCompute)[0];
  nvmf::NvmfTarget target{eng, net, storage_node, ssd};
};

TEST(NvmfTest, RemoteRoundtripPreservesData) {
  NvmfFixture f;
  const uint32_t nsid = *f.ssd.create_namespace(64_MiB);
  auto dev = f.target.connect(f.compute_node, nsid).value();
  f.eng.run_task([](hw::BlockDevice& d) -> sim::Task<void> {
    std::vector<std::byte> data(5000, std::byte{0x3c});
    EXPECT_TRUE((co_await d.write(8192, data)).ok());
    std::vector<std::byte> out(5000);
    EXPECT_TRUE((co_await d.read(8192, out)).ok());
    EXPECT_EQ(out, data);
  }(*dev));
}

TEST(NvmfTest, RemoteOverheadIsSmallForLargeIo) {
  // The headline NVMf result (Figure 8(a)): remote access over RDMA adds
  // < 3.5% for checkpoint-sized writes.
  auto measure = [](bool remote) {
    NvmfFixture f;
    const uint32_t nsid = *f.ssd.create_namespace(2_GiB);
    std::unique_ptr<hw::BlockDevice> dev;
    if (remote) {
      dev = f.target.connect(f.compute_node, nsid).value();
    } else {
      dev = nvmf::SpdkLocalDevice::open(f.ssd, nsid).value();
    }
    f.eng.run_task([](hw::BlockDevice& d) -> sim::Task<void> {
      for (uint64_t off = 0; off < 512_MiB; off += 1_MiB) {
        EXPECT_TRUE((co_await d.write_tagged(off, 1_MiB, 1)).ok());
      }
      co_await d.flush();
    }(*dev));
    return f.eng.now();
  };
  const SimTime local = measure(false);
  const SimTime remote = measure(true);
  EXPECT_GT(remote, local);
  EXPECT_LT(static_cast<double>(remote - local) / static_cast<double>(local),
            0.035);
}

TEST(NvmfTest, ConnectionsShareQueuesBeyondBudget) {
  // 56-112 processes share one SSD (§III-F) but the controller only has
  // 32 hardware queues: extra qpairs multiplex onto existing queues and
  // release correctly.
  NvmfFixture f;
  hw::SsdSpec spec;
  spec.capacity = 1_GiB;
  spec.max_queues = 2;
  hw::NvmeSsd tiny(f.eng, spec);
  nvmf::NvmfTarget target(f.eng, f.net, f.storage_node, tiny);
  const uint32_t nsid = *tiny.create_namespace(16_MiB);
  auto a = target.connect(f.compute_node, nsid);
  auto b = target.connect(f.compute_node, nsid);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(tiny.queues_in_use(), 2u);
  // Third and fourth connections share the existing hardware queues.
  auto c = target.connect(f.compute_node, nsid);
  auto d = target.connect(f.compute_node, nsid);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(tiny.queues_in_use(), 2u);
  // Queues free only when the last sharer disconnects: a and c share
  // queue 0, b and d share queue 1.
  a->reset();
  d->reset();
  EXPECT_EQ(tiny.queues_in_use(), 2u);
  b->reset();
  c->reset();
  EXPECT_EQ(tiny.queues_in_use(), 0u);
}

TEST(NvmfTest, TargetCountsCommands) {
  NvmfFixture f;
  const uint32_t nsid = *f.ssd.create_namespace(64_MiB);
  auto dev = f.target.connect(f.compute_node, nsid).value();
  f.eng.run_task([](hw::BlockDevice& d) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await d.write_tagged(static_cast<uint64_t>(i) * 32_KiB, 32_KiB, 1);
    }
    // A batch carries all of its commands to the target and the SSD.
    co_await d.write_tagged(1_MiB, 256_KiB, 1, /*subcmds=*/8);
  }(*dev));
  EXPECT_EQ(f.target.commands_processed(), 18u);
  EXPECT_EQ(f.ssd.counters().write_commands, 18u);
}

// ---------------------------------------------------------------------
// SPDK local driver + overhead wrapper
// ---------------------------------------------------------------------

TEST(SpdkTest, OwnsAndReleasesQueue) {
  sim::Engine eng;
  hw::NvmeSsd ssd(eng, hw::SsdSpec{.capacity = 1_GiB});
  const uint32_t nsid = *ssd.create_namespace(64_MiB);
  {
    auto dev = nvmf::SpdkLocalDevice::open(ssd, nsid).value();
    EXPECT_EQ(ssd.queues_in_use(), 1u);
  }
  EXPECT_EQ(ssd.queues_in_use(), 0u);
}

TEST(SpdkTest, BatchIsChargedAsOneCommand) {
  sim::Engine eng;
  hw::NvmeSsd ssd(eng, hw::SsdSpec{.capacity = 1_GiB});
  const uint32_t nsid = *ssd.create_namespace(64_MiB);
  auto dev = nvmf::SpdkLocalDevice::open(ssd, nsid).value();
  eng.run_task([](hw::BlockDevice& d) -> sim::Task<void> {
    EXPECT_TRUE((co_await d.write_tagged(0, 256_KiB, 1, /*subcmds=*/8)).ok());
  }(*dev));
  // Today's model (ROADMAP: "SpdkLocalDevice charges a batch as one
  // command"). Forwarding subcmds is a model change; it flips this to 8
  // on purpose.
  EXPECT_EQ(ssd.counters().write_commands, 1u);
}

TEST(OverheadDeviceTest, ChargesAndAttributesKernelTime) {
  sim::Engine eng;
  hw::RamDevice ram(1_MiB);
  SimDuration kernel_time = 0;
  nvmf::OverheadDevice dev(
      eng, ram, {.per_op_submit = 2_us, .per_op_complete = 3_us},
      &kernel_time);
  eng.run_task([](sim::Engine& e, hw::BlockDevice& d,
                  SimDuration& kt) -> sim::Task<void> {
    std::vector<std::byte> data(100, std::byte{1});
    co_await d.write(0, data);
    EXPECT_EQ(e.now(), 5_us);
    EXPECT_EQ(kt, 5_us);
    std::vector<std::byte> out(100);
    co_await d.read(0, out);
    EXPECT_EQ(kt, 10_us);
    EXPECT_EQ(out, data);
  }(eng, dev, kernel_time));
}

TEST(OverheadDeviceTest, NullAccumulatorIsFine) {
  sim::Engine eng;
  hw::RamDevice ram(1_MiB);
  nvmf::OverheadDevice dev(eng, ram, {.per_op_submit = 1_us});
  eng.run_task([](hw::BlockDevice& d) -> sim::Task<void> {
    EXPECT_TRUE((co_await d.flush()).ok());
  }(dev));
  EXPECT_EQ(eng.now(), 1_us);
}

// ---------------------------------------------------------------------
// IoCmd forwarding contract of the device decorators
// ---------------------------------------------------------------------

/// Terminal device that records every command it receives and answers
/// tagged reads with a fixed tag.
class ProbeDevice final : public hw::BlockDevice {
 public:
  static constexpr uint64_t kTag = 0x5eed;
  uint64_t capacity() const override { return 1_GiB; }
  uint32_t hw_block_size() const override { return 4096; }
  sim::Task<Status> submit(hw::IoCmd cmd, uint64_t* tag = nullptr) override {
    cmds.push_back(cmd);
    if (tag != nullptr) *tag = kTag;
    co_return OkStatus();
  }
  std::vector<hw::IoCmd> cmds;
};

/// One command of every shape through `d`: byte write and read, a tagged
/// write and read batch of 8 commands, and a flush. Returns the tag the
/// batch read produced.
sim::Task<uint64_t> submit_every_shape(hw::BlockDevice& d) {
  std::vector<std::byte> data(512, std::byte{7});
  std::vector<std::byte> out(512);
  EXPECT_TRUE((co_await d.write(4096, data)).ok());
  EXPECT_TRUE((co_await d.read(4096, out)).ok());
  EXPECT_TRUE((co_await d.write_tagged(8192, 64_KiB, /*seed=*/42, 8)).ok());
  auto tag = co_await d.read_tagged(8192, 64_KiB, 8);
  EXPECT_TRUE((co_await d.flush()).ok());
  co_return tag.ok() ? *tag : 0;
}

/// The probe saw exactly submit_every_shape()'s commands, shifted by
/// `shift` (a flush carries no address, so only its op is checked).
void expect_every_shape(const std::vector<hw::IoCmd>& got, uint64_t shift) {
  using Op = hw::IoCmd::Op;
  struct Want {
    Op op;
    uint64_t offset, len;
    bool tagged;
    uint64_t seed;
    uint32_t subcmds;
  };
  const Want want[] = {{Op::kWrite, 4096, 512, false, 0, 1},
                       {Op::kRead, 4096, 512, false, 0, 1},
                       {Op::kWrite, 8192, 64_KiB, true, 42, 8},
                       {Op::kRead, 8192, 64_KiB, true, 0, 8},
                       {Op::kFlush, 0, 0, false, 0, 1}};
  ASSERT_EQ(got.size(), std::size(want));
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].op, want[i].op);
    if (want[i].op == Op::kFlush) continue;
    EXPECT_EQ(got[i].offset, want[i].offset + shift);
    EXPECT_EQ(got[i].len, want[i].len);
    EXPECT_EQ(got[i].tagged, want[i].tagged);
    EXPECT_EQ(got[i].seed, want[i].seed);
    EXPECT_EQ(got[i].subcmds, want[i].subcmds);
  }
  EXPECT_EQ(got[0].write_data.size(), 512u);
  EXPECT_EQ(got[1].read_out.size(), 512u);
}

TEST(IoCmdForwardingTest, PartitionViewShiftsAndBoundsChecks) {
  sim::Engine eng;
  ProbeDevice probe;
  hw::PartitionView view(probe, 1_MiB, 16_MiB);
  EXPECT_EQ(eng.run_task(submit_every_shape(view)), ProbeDevice::kTag);
  expect_every_shape(probe.cmds, 1_MiB);

  // Out-of-range IO is rejected without reaching the parent.
  eng.run_task([](hw::BlockDevice& d) -> sim::Task<void> {
    Status w = co_await d.write_tagged(16_MiB - 4096, 8192, 1, 2);
    EXPECT_EQ(w.code(), ErrorCode::kInvalidArgument);
    auto r = co_await d.read_tagged(16_MiB, 4096);
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  }(view));
  EXPECT_EQ(probe.cmds.size(), 5u);
}

TEST(IoCmdForwardingTest, OverheadDeviceChargesPerSubcommand) {
  sim::Engine eng;
  ProbeDevice probe;
  SimDuration kernel_time = 0;
  nvmf::OverheadDevice dev(
      eng, probe, {.per_op_submit = 2_us, .per_op_complete = 3_us},
      &kernel_time);
  EXPECT_EQ(eng.run_task(submit_every_shape(dev)), ProbeDevice::kTag);
  expect_every_shape(probe.cmds, 0);
  // (submit + complete) x subcmds: three single commands, two batches of 8.
  EXPECT_EQ(eng.now(), 5_us * (3 + 2 * 8));
  EXPECT_EQ(kernel_time, eng.now());
}

}  // namespace
}  // namespace nvmecr
