#include "nvmecr/cluster.h"

#include "simcore/profile.h"
#include "simcore/trace.h"

namespace nvmecr::nvmecr_rt {

Cluster::Cluster(ClusterSpec spec)
    : spec_(spec),
      topo_([&] {
        fabric::Topology t;
        t.add_rack(spec.compute_nodes, fabric::NodeRole::kCompute, "compute");
        const uint32_t racks = std::max<uint32_t>(1, spec.storage_racks);
        for (uint32_t r = 0; r < racks; ++r) {
          // Spread storage nodes over the racks; remainder to the front.
          const uint32_t count =
              spec.storage_nodes / racks + (r < spec.storage_nodes % racks);
          if (count > 0) t.add_rack(count, fabric::NodeRole::kStorage, "storage");
        }
        return t;
      }()),
      net_(engine_, topo_, spec.network) {
  compute_nodes_ = topo_.nodes_with_role(fabric::NodeRole::kCompute);
  storage_nodes_ = topo_.nodes_with_role(fabric::NodeRole::kStorage);
  for (uint32_t i = 0; i < storage_nodes_.size(); ++i) {
    storage_ssds_.push_back(std::make_unique<hw::NvmeSsd>(
        engine_, spec.ssd, "storage-nvme" + std::to_string(i)));
    targets_.push_back(std::make_unique<nvmf::NvmfTarget>(
        engine_, net_, storage_nodes_[i], *storage_ssds_.back(), spec.nvmf));
  }
  if (spec.local_ssds) {
    for (uint32_t i = 0; i < compute_nodes_.size(); ++i) {
      local_ssds_.push_back(std::make_unique<hw::NvmeSsd>(
          engine_, spec.ssd, "local-nvme" + std::to_string(i)));
    }
  }
  // Frame-pool counters are process-wide and monotone; baseline them at
  // construction so the first export_run_metrics() push counts only
  // this cluster's frames, not prior runs in the same process.
  exported_frames_allocated_ = sim::frame_allocations();
  exported_frames_recycled_ = sim::frames_recycled();
}

void Cluster::install_observer(const obs::Observer& o) {
  observer_ = o;
  // Arm the engine-side profiling layer: the dispatch profiler buckets
  // host wall time per cost center, the trace collector doubles as the
  // deadlock flight recorder, and the context-stamping hooks are enabled
  // only when some profiler will consume the contexts.
  engine_.set_profiler(o.dispatch);
  engine_.set_flight_recorder(o.trace);
  engine_.set_profile_hooks(o.dispatch != nullptr || o.epoch != nullptr);
  net_.set_observer(o);
  for (auto& ssd : storage_ssds_) ssd->set_observer(o);
  for (auto& ssd : local_ssds_) ssd->set_observer(o);
  for (auto& target : targets_) target->set_observer(o);
}

void Cluster::export_run_metrics() {
  if (observer_.metrics == nullptr) return;
  const auto push = [this](const char* name, uint64_t now, uint64_t& last) {
    observer_.metrics->counter(name)->add(now - last);
    last = now;
  };
  push("engine.events_dispatched", engine_.events_dispatched(),
       exported_events_dispatched_);
  push("engine.now_ring_hits", engine_.now_ring_hits(),
       exported_now_ring_hits_);
  push("engine.calendar_hits", engine_.calendar_hits(),
       exported_calendar_hits_);
  // Frame-pool counters are process-wide (simcore/task.h), not per
  // engine; the delta push still scopes them to this run.
  push("engine.frames_allocated", sim::frame_allocations(),
       exported_frames_allocated_);
  push("engine.frames_recycled", sim::frames_recycled(),
       exported_frames_recycled_);
  uint64_t tag_reads = 0;
  for (const auto& ssd : storage_ssds_) tag_reads += ssd->payload().tag_reads();
  for (const auto& ssd : local_ssds_) tag_reads += ssd->payload().tag_reads();
  push("payload.tag_reads", tag_reads, exported_tag_reads_);
  push("fabric.bytes_sent", net_.total_bytes_sent(), exported_fabric_sent_);
  push("fabric.bytes_received", net_.total_bytes_received(),
       exported_fabric_received_);
  uint64_t compute_busy = 0;
  for (const auto& target : targets_) compute_busy += target->compute_busy_ns();
  push("target.compute_busy_ns", compute_busy, exported_compute_busy_ns_);
}

uint32_t Cluster::storage_ssd_index(fabric::NodeId node) const {
  for (uint32_t i = 0; i < storage_nodes_.size(); ++i) {
    if (storage_nodes_[i] == node) return i;
  }
  NVMECR_CHECK(false && "not a storage node");
  return 0;
}

hw::NvmeSsd& Cluster::local_ssd(fabric::NodeId node) {
  NVMECR_CHECK(spec_.local_ssds);
  for (uint32_t i = 0; i < compute_nodes_.size(); ++i) {
    if (compute_nodes_[i] == node) return *local_ssds_[i];
  }
  NVMECR_CHECK(false && "not a compute node");
  return *local_ssds_[0];
}

StatusOr<JobAllocation> Scheduler::allocate(uint32_t nranks,
                                            uint32_t procs_per_node,
                                            uint64_t partition_bytes,
                                            uint32_t num_ssds) {
  JobAllocation job;
  job.procs_per_node = procs_per_node;
  job.partition_bytes = partition_bytes;
  job.rank_nodes.reserve(nranks);
  for (uint32_t r = 0; r < nranks; ++r) {
    job.rank_nodes.push_back(cluster_.node_of_rank(r, procs_per_node));
  }

  BalancerRequest request;
  request.rank_nodes = job.rank_nodes;
  request.storage_nodes = cluster_.storage_nodes();
  request.num_ssds = num_ssds;
  NVMECR_ASSIGN_OR_RETURN(job.assignment,
                          StorageBalancer::assign(cluster_.topology(),
                                                  request));
  NVMECR_RETURN_IF_ERROR(create_namespaces(job));
  return job;
}

StatusOr<JobAllocation> Scheduler::allocate_with_assignment(
    BalancerAssignment assignment, std::vector<fabric::NodeId> rank_nodes,
    uint32_t procs_per_node, uint64_t partition_bytes) {
  JobAllocation job;
  job.assignment = std::move(assignment);
  job.rank_nodes = std::move(rank_nodes);
  job.procs_per_node = procs_per_node;
  job.partition_bytes = partition_bytes;
  NVMECR_RETURN_IF_ERROR(create_namespaces(job));
  return job;
}

Status Scheduler::create_namespaces(JobAllocation& job) {
  // One namespace per allocated SSD, sized for its share of ranks. If an
  // SSD lacks free namespaces or space the whole allocation is rolled
  // back (jobs are all-or-nothing).
  for (uint32_t s = 0; s < job.assignment.ssd_nodes.size(); ++s) {
    hw::NvmeSsd& ssd =
        cluster_.storage_ssd(cluster_.storage_ssd_index(
            job.assignment.ssd_nodes[s]));
    const uint64_t bytes =
        job.partition_bytes *
        std::max<uint32_t>(1, job.assignment.ranks_per_ssd[s]);
    auto nsid = ssd.create_namespace(bytes);
    if (!nsid.ok()) {
      release(job);
      return nsid.status();
    }
    job.nsid_per_ssd.push_back(*nsid);
  }
  return OkStatus();
}

void Scheduler::release(const JobAllocation& job) {
  for (uint32_t s = 0; s < job.nsid_per_ssd.size(); ++s) {
    hw::NvmeSsd& ssd =
        cluster_.storage_ssd(cluster_.storage_ssd_index(
            job.assignment.ssd_nodes[s]));
    (void)ssd.delete_namespace(job.nsid_per_ssd[s]);
  }
}

}  // namespace nvmecr::nvmecr_rt
