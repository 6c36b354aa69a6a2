// Extension — redundancy engine overhead vs recoverability (Table-II
// style, but for the fast tier's own redundancy schemes instead of the
// PFS second level).
//
// Scenario: 8 ranks checkpoint twice to the fast tier (the first round
// is also mirrored to the Lustre-like PFS, the usual 1-in-N multi-level
// policy), then one storage failure domain — the rack holding rank 0's
// primary SSD — dies before restart. Per scheme:
//
//   kNone     the newest checkpoint is gone; every rank restarts from
//             the older PFS copy (lost progress + slow PFS read).
//   kPartner  full replicas on partner-domain SSDs; lost ranks restore
//             byte-identical from their replica (2x write overhead).
//   kXor      RAID-5-style parity across K-rank erasure sets; lost
//             ranks rebuild from the K-1 survivors + parity
//             (~1/(K-1) write overhead, higher reconstruct cost).
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/models.h"
#include "bench_util.h"
#include "redundancy/engine.h"
#include "redundancy/reconstruct.h"

namespace nvmecr::bench {
namespace {

using redundancy::kXorSetSize;
using redundancy::RecoverySource;
using redundancy::Scheme;

constexpr uint32_t kRanks = 8;
constexpr uint64_t kCkptBytes = 64_MiB;  // per rank per checkpoint

struct SchemeResult {
  double ckpt_s = 0;            // both fast-tier rounds + quiesce
  uint64_t payload = 0;         // fast-tier checkpoint bytes
  uint64_t redundant = 0;       // replica/parity device bytes
  bool latest_recovered = false;
  std::string sources;          // where restart data came from
  double recovery_s = 0;
  uint64_t degraded = 0;
};

// No co_await inside ternaries here: gcc's coroutine frame handling
// miscompiles conditional-expression awaits (double-destroys the
// temporary Status), so keep each co_await a full statement.
sim::Task<Status> stream_file(baselines::StorageClient& c, std::string path,
                              uint64_t bytes, bool write) {
  StatusOr<int> fd = BadFdError("unopened");
  if (write) {
    fd = co_await c.create(path);
  } else {
    fd = co_await c.open_read(path);
  }
  NVMECR_CO_RETURN_IF_ERROR(fd.status());
  for (uint64_t off = 0; off < bytes; off += 4_MiB) {
    const uint64_t n = std::min<uint64_t>(4_MiB, bytes - off);
    Status s;
    if (write) {
      s = co_await c.write(*fd, n);
    } else {
      s = co_await c.read(*fd, n);
    }
    NVMECR_CO_RETURN_IF_ERROR(s);
  }
  if (write) NVMECR_CO_RETURN_IF_ERROR(co_await c.fsync(*fd));
  co_return co_await c.close(*fd);
}

SchemeResult run_scheme(Scheme scheme) {
  ClusterSpec spec;
  spec.compute_nodes = kRanks;
  spec.storage_nodes = 8;
  spec.storage_racks = 8;  // one failure domain per storage node
  Cluster cluster(spec);
  Scheduler sched(cluster);
  auto job = sched.allocate(kRanks, /*procs_per_node=*/1, 256_MiB,
                            /*num_ssds=*/kXorSetSize);
  NVMECR_CHECK(job.ok());
  nvmecr_rt::NvmecrSystem primary(cluster, *job, {});
  baselines::LustreModel pfs(cluster);

  auto dep = redundancy::deploy_redundancy(cluster, sched, primary, *job,
                                           scheme);
  NVMECR_CHECK(dep.ok());
  redundancy::RedundantSystem& sys = *dep->system;

  SchemeResult res;
  std::vector<std::unique_ptr<baselines::StorageClient>> fast(kRanks);
  std::vector<std::unique_ptr<baselines::StorageClient>> slow(kRanks);
  sim::Engine& eng = cluster.engine();

  // Checkpoint phase: round 0 (fast + PFS mirror), round 1 (fast only).
  eng.run_task([](sim::Engine& e, redundancy::RedundantSystem& s,
                  baselines::LustreModel& p,
                  std::vector<std::unique_ptr<baselines::StorageClient>>& fc,
                  std::vector<std::unique_ptr<baselines::StorageClient>>& sc,
                  SchemeResult& r) -> sim::Task<void> {
    for (uint32_t rank = 0; rank < kRanks; ++rank) {
      auto c = co_await s.connect(static_cast<int>(rank));
      auto pc = co_await p.connect(static_cast<int>(rank));
      NVMECR_CHECK(c.ok() && pc.ok());
      fc[rank] = std::move(*c);
      sc[rank] = std::move(*pc);
    }
    const SimTime t0 = e.now();
    sim::StatusJoiner joiner(e);
    for (uint32_t rank = 0; rank < kRanks; ++rank) {
      joiner.spawn(stream_file(*fc[rank], "/ckpt0", kCkptBytes, true));
      joiner.spawn(stream_file(*sc[rank], "/ckpt0", kCkptBytes, true));
    }
    NVMECR_CHECK((co_await joiner.join()).ok());
    for (uint32_t rank = 0; rank < kRanks; ++rank) {
      joiner.spawn(stream_file(*fc[rank], "/ckpt1", kCkptBytes, true));
    }
    NVMECR_CHECK((co_await joiner.join()).ok());
    co_await s.quiesce();
    r.ckpt_s = to_seconds(e.now() - t0);
  }(eng, sys, pfs, fast, slow, res));

  res.payload = 2ull * kRanks * kCkptBytes;
  res.redundant = sys.redundant_bytes();
  res.degraded = sys.degraded_files();

  // Fault: the failure domain holding rank 0's primary SSD dies.
  const fabric::RackId lost = cluster.topology().failure_domain(
      job->assignment.ssd_nodes[job->assignment.ssd_of_rank[0]]);
  for (fabric::NodeId n : cluster.storage_nodes()) {
    if (cluster.topology().failure_domain(n) == lost) {
      cluster.storage_ssd(cluster.storage_ssd_index(n)).fail_device();
    }
  }

  // Restart: every rank tries the newest checkpoint through the
  // reconstruction view; if any rank cannot get it, the job must roll
  // back to the older PFS checkpoint on every rank.
  redundancy::Reconstructor recon(sys);
  std::vector<std::unique_ptr<baselines::StorageClient>> rcs;
  for (uint32_t rank = 0; rank < kRanks; ++rank) {
    rcs.push_back(recon.client(rank));
  }
  eng.run_task(
      [](sim::Engine& e, redundancy::Reconstructor& rc,
         std::vector<std::unique_ptr<baselines::StorageClient>>& views,
         std::vector<std::unique_ptr<baselines::StorageClient>>& sc,
         SchemeResult& r) -> sim::Task<void> {
        const SimTime t0 = e.now();
        sim::StatusJoiner joiner(e);
        for (uint32_t rank = 0; rank < kRanks; ++rank) {
          joiner.spawn(stream_file(*views[rank], "/ckpt1", kCkptBytes, false));
        }
        r.latest_recovered = (co_await joiner.join()).ok();
        if (!r.latest_recovered) {
          // Roll back: all ranks re-read the older copy from the PFS.
          sim::StatusJoiner fallback(e);
          for (uint32_t rank = 0; rank < kRanks; ++rank) {
            fallback.spawn(
                stream_file(*sc[rank], "/ckpt0", kCkptBytes, false));
          }
          NVMECR_CHECK((co_await fallback.join()).ok());
          r.sources = "PFS (older ckpt0)";
        } else {
          uint32_t from_fast = 0, from_partner = 0, from_xor = 0;
          for (uint32_t rank = 0; rank < kRanks; ++rank) {
            const redundancy::RecoveryReport* rep =
                rc.find_report(rank, "/ckpt1");
            NVMECR_CHECK(rep != nullptr && rep->digest_ok);
            switch (rep->source) {
              case RecoverySource::kFastTier: ++from_fast; break;
              case RecoverySource::kPartner: ++from_partner; break;
              case RecoverySource::kXor: ++from_xor; break;
            }
          }
          r.sources = std::to_string(from_fast) + " fast";
          if (from_partner > 0) {
            r.sources += " + " + std::to_string(from_partner) + " partner";
          }
          if (from_xor > 0) {
            r.sources += " + " + std::to_string(from_xor) + " xor";
          }
        }
        r.recovery_s = to_seconds(e.now() - t0);
      }(eng, recon, rcs, slow, res));
  return res;
}

}  // namespace
}  // namespace nvmecr::bench

int main() {
  using namespace nvmecr;
  using namespace nvmecr::bench;

  print_banner("EXT redundancy",
               "Write overhead vs recoverability of the fast-tier "
               "redundancy schemes (8 ranks x 2 x 64 MiB checkpoints; one "
               "storage failure domain lost before restart)");

  TablePrinter table({"metric", "none", "partner", "xor(K=4)"});
  const SchemeResult none = run_scheme(Scheme::kNone);
  const SchemeResult partner = run_scheme(Scheme::kPartner);
  const SchemeResult xr = run_scheme(Scheme::kXor);

  auto row = [&](const char* name, auto get) {
    table.add_row({name, get(none), get(partner), get(xr)});
  };
  row("Checkpoint Time (s)", [](const SchemeResult& r) {
    return TablePrinter::num(r.ckpt_s, 2);
  });
  row("Redundant Bytes (MiB)", [](const SchemeResult& r) {
    return TablePrinter::num(static_cast<double>(r.redundant) / (1_MiB), 0);
  });
  row("Write Overhead", [](const SchemeResult& r) {
    return pct(static_cast<double>(r.redundant) /
               static_cast<double>(r.payload));
  });
  row("Newest Ckpt Recovered", [](const SchemeResult& r) {
    return std::string(r.latest_recovered ? "yes" : "no (rollback)");
  });
  row("Restart Served By", [](const SchemeResult& r) { return r.sources; });
  row("Recovery Time (s)", [](const SchemeResult& r) {
    return TablePrinter::num(r.recovery_s, 2);
  });
  table.print();

  std::printf(
      "\nkNone loses the newest checkpoint with the failure domain and "
      "rolls every rank back to the older PFS copy; kPartner pays ~100%% "
      "write overhead for replica-speed restart; kXor pays ~%.0f%% for "
      "parity-decode restart (K=%u).\n",
      100.0 / (kXorSetSize - 1), kXorSetSize);
  return 0;
}
