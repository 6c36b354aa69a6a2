// Restart verification for the app-workload family (DESIGN.md §16):
// the AppDriver kill-and-restart harness over the modeled applications
// (CoMD, miniFE-CG, NPB-SP shaped state evolution).
//
// Layers covered:
//  * registry/model unit tests — every registered preset round-trips
//    serialize -> deserialize to an equal digest; corrupt images are
//    rejected typed; digests are rank-seeded.
//  * the verification contract itself — golden runs are bit-identical
//    across independent simulation stacks, verify_restart actually
//    fails on divergent runs, and a golden run's sim time and kept
//    epochs are pinned.
//  * the recovery-path matrix — one killed run per app restored through
//    at least two distinct paths (live fast-tier session, PFS copy),
//    and for miniFE-CG through all four (fast, XOR reconstruction after
//    a failure-domain loss, failover spare after a mid-run target
//    death, PFS), every path finishing digest- and residual-identical
//    to the uninterrupted golden run.
//  * kill-point edge cases — death before the first checkpoint
//    (restart from initial state), death during the final checkpoint,
//    and three back-to-back kill/restore cycles.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "baselines/models.h"
#include "nvmecr/multilevel.h"
#include "nvmecr/runtime.h"
#include "redundancy/engine.h"
#include "redundancy/reconstruct.h"
#include "resilience/failover.h"
#include "workloads/app_driver.h"
#include "workloads/apps.h"

namespace nvmecr {
namespace {

using namespace nvmecr::literals;
using nvmecr_rt::Cluster;
using nvmecr_rt::ClusterSpec;
using nvmecr_rt::JobAllocation;
using nvmecr_rt::RestoreSource;
using nvmecr_rt::Scheduler;
using workloads::AppDriver;
using workloads::AppRankState;
using workloads::AppRunParams;
using workloads::AppRunResult;
using workloads::AppSpec;
using workloads::KillPoint;
using workloads::KillSpec;
using workloads::RestorePlan;

ClusterSpec make_spec(uint32_t storage_nodes, uint32_t storage_racks,
                      uint32_t compute_nodes = 4) {
  ClusterSpec spec;
  spec.compute_nodes = compute_nodes;
  spec.storage_nodes = storage_nodes;
  spec.storage_racks = storage_racks;
  return spec;
}

/// The default 2 MiB streams per rank let the whole matrix run in
/// seconds; the verified solver state (a fixed array of doubles per
/// rank) is independent of them.
AppRunParams test_params(uint32_t ranks, uint32_t epochs,
                         uint32_t pfs_interval = 0) {
  AppRunParams p;
  p.ranks = ranks;
  p.epochs = epochs;
  p.pfs_interval = pfs_interval;
  return p;
}

/// A self-contained plain stack (runtime only, no redundancy layers).
/// Golden runs always use a fresh one: the model state evolution is
/// sim-time- and routing-independent, so its results compare
/// bit-for-bit against any other stack running the same spec + seed.
struct Stack {
  Cluster cluster;
  Scheduler sched;
  std::optional<JobAllocation> job;
  std::optional<nvmecr_rt::NvmecrSystem> fast;
  std::optional<baselines::LustreModel> pfs;

  explicit Stack(uint32_t ranks, bool with_pfs = false)
      : cluster(make_spec(4, 2)), sched(cluster) {
    auto j = sched.allocate(ranks, /*procs_per_node=*/1, 256_MiB,
                            cluster.spec().storage_nodes);
    NVMECR_CHECK(j.ok());
    job = *j;
    fast.emplace(cluster, *job, nvmecr_rt::RuntimeConfig{});
    if (with_pfs) pfs.emplace(cluster, /*procs_per_node=*/1);
  }
};

AppRunResult golden_run(const AppSpec& spec, uint32_t ranks,
                        uint32_t epochs) {
  Stack stack(ranks);
  AppDriver driver(stack.cluster, *stack.fast, spec,
                   test_params(ranks, epochs));
  auto r = driver.run();
  NVMECR_CHECK(r.ok());
  return *r;
}

/// Advances one single-rank epoch (with nranks == 1 the global
/// reductions degenerate to the local contributions) and returns the
/// epoch residual.
double step_single_rank(AppRankState& state, uint32_t epoch) {
  const double l1 = state.compute(epoch);
  const double l2 = state.fold(epoch, l1);
  return state.finish(epoch, l2);
}

// ---------------------------------------------------------------------------
// Registry + model units

TEST(AppRegistryTest, RegistryNamesAreUniqueAndLookupWorks) {
  const auto& reg = workloads::app_registry();
  ASSERT_GE(reg.size(), 7u);
  std::set<std::string> names;
  for (const auto& spec : reg) names.insert(spec.name);
  EXPECT_EQ(names.size(), reg.size());
  for (const char* name : {"CoMD", "miniFE-CG", "NPB-SP", "AMG", "Ember",
                           "ExaMiniMD", "miniAMR"}) {
    const AppSpec* spec = workloads::find_app(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_STREQ(spec->name, name);
  }
  EXPECT_EQ(workloads::find_app("no-such-app"), nullptr);
}

// Satellite regression for the preset rework: every registered preset's
// model state round-trips serialize -> deserialize to an equal digest,
// and the restored copy continues producing bit-identical residuals.
TEST(AppRegistryTest, EveryPresetRoundTripsSerializeDeserialize) {
  for (const auto& spec : workloads::app_registry()) {
    auto state = workloads::make_rank_state(spec, /*rank=*/0, /*nranks=*/1,
                                            /*seed=*/0x5EED, /*elems=*/64);
    for (uint32_t e = 0; e < 3; ++e) step_single_rank(*state, e);

    std::vector<std::byte> image;
    state->serialize(image);
    auto copy = workloads::make_rank_state(spec, 0, 1, 0x5EED, 64);
    ASSERT_TRUE(copy->deserialize(image).ok()) << spec.name;
    EXPECT_EQ(copy->digest(), state->digest()) << spec.name;

    const double r1 = step_single_rank(*state, 3);
    const double r2 = step_single_rank(*copy, 3);
    EXPECT_EQ(std::bit_cast<uint64_t>(r1), std::bit_cast<uint64_t>(r2))
        << spec.name;
    EXPECT_EQ(copy->digest(), state->digest()) << spec.name;
  }
}

TEST(AppRegistryTest, DigestsAreRankSeeded) {
  const AppSpec& spec = *workloads::find_app("miniFE-CG");
  auto r0 = workloads::make_rank_state(spec, 0, 2, 0x5EED, 64);
  auto r0_again = workloads::make_rank_state(spec, 0, 2, 0x5EED, 64);
  auto r1 = workloads::make_rank_state(spec, 1, 2, 0x5EED, 64);
  EXPECT_EQ(r0->digest(), r0_again->digest());
  EXPECT_NE(r0->digest(), r1->digest());
  EXPECT_NE(r0->digest_seed(), r1->digest_seed());
}

TEST(AppRegistryTest, DeserializeRejectsCorruptImages) {
  const AppSpec& cg = *workloads::find_app("miniFE-CG");
  const AppSpec& sp = *workloads::find_app("NPB-SP");
  auto state = workloads::make_rank_state(cg, 0, 1, 0x5EED, 64);
  std::vector<std::byte> image;
  state->serialize(image);

  auto copy = workloads::make_rank_state(cg, 0, 1, 0x5EED, 64);
  std::vector<std::byte> truncated(image.begin(),
                                   image.begin() + image.size() / 2);
  EXPECT_FALSE(copy->deserialize(truncated).ok());

  std::vector<std::byte> flipped = image;
  flipped[0] ^= std::byte{0xFF};  // magic
  EXPECT_FALSE(copy->deserialize(flipped).ok());

  // Cross-app image: an SP state must refuse a CG snapshot.
  auto other = workloads::make_rank_state(sp, 0, 1, 0x5EED, 64);
  EXPECT_FALSE(other->deserialize(image).ok());
}

// ---------------------------------------------------------------------------
// Verification contract

TEST(AppDriverTest, GoldenRunsAreBitIdenticalAcrossStacks) {
  const AppSpec& spec = *workloads::find_app("miniFE-CG");
  const AppRunResult a = golden_run(spec, 4, 5);
  const AppRunResult b = golden_run(spec, 4, 5);
  ASSERT_EQ(a.residuals.size(), b.residuals.size());
  for (size_t i = 0; i < a.residuals.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a.residuals[i]),
              std::bit_cast<uint64_t>(b.residuals[i]));
  }
  EXPECT_EQ(a.rank_digests, b.rank_digests);
  EXPECT_EQ(a.job_digest, b.job_digest);
  EXPECT_TRUE(workloads::verify_restart(a, b).ok());
}

// Digests and residuals do not depend on the simulated stream size, so
// pin the golden run's sim time (golden_run(miniFE-CG, 4, 5)) and the
// epochs it keeps: every one.
TEST(AppDriverTest, GoldenRunSimTimeAndKeptEpochsArePinned) {
  const AppSpec& spec = *workloads::find_app("miniFE-CG");
  Stack stack(4);
  AppDriver driver(stack.cluster, *stack.fast, spec, test_params(4, 5));
  auto r = driver.run();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->total_time, 19635944);
  EXPECT_EQ(driver.ledger().committed_epochs(4),
            (std::vector<uint32_t>{4, 3, 2, 1, 0}));
}

TEST(AppDriverTest, VerifyRestartDetectsDivergence) {
  const AppSpec& spec = *workloads::find_app("NPB-SP");
  Stack stack(4);
  AppRunParams params = test_params(4, 5);
  params.seed = 0xD1FFE12E47;
  AppDriver driver(stack.cluster, *stack.fast, spec, params);
  auto other = driver.run();
  ASSERT_TRUE(other.ok());

  const AppRunResult golden = golden_run(spec, 4, 5);
  const Status st = workloads::verify_restart(golden, *other);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Recovery-path matrix: per app, one killed run restored through two
// distinct paths (fast-tier session, then the PFS copy), both verified
// digest- and residual-identical to the golden run.

class RestorePathMatrixTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RestorePathMatrixTest, KilledRunRestoresFromFastAndPfs) {
  const AppSpec& spec = *workloads::find_app(GetParam());
  const uint32_t ranks = 4, epochs = 6;
  const AppRunResult golden = golden_run(spec, ranks, epochs);

  // Multi-level routing: even epochs go to the PFS, odd to the fast
  // tier. The mid-checkpoint kill at epoch 3 leaves 0(pfs), 1(fast),
  // 2(pfs) committed and abandons epoch 3's stream half-written.
  Stack stack(ranks, /*with_pfs=*/true);
  AppDriver driver(stack.cluster, *stack.fast, spec,
                   test_params(ranks, epochs, /*pfs_interval=*/2),
                   &*stack.pfs);
  KillSpec kill{/*epoch=*/3, KillPoint::kMidCheckpoint};
  auto killed = driver.run(kill);
  ASSERT_TRUE(killed.ok()) << killed.status().to_string();
  EXPECT_TRUE(killed->killed);
  const workloads::CheckpointRecord* abandoned =
      driver.ledger().find(/*rank=*/0, /*epoch=*/3);
  EXPECT_EQ(abandoned, nullptr);

  // Path 1: the live fast-tier sessions. Tier tags confine the probe to
  // fast-routed epochs, so it restores epoch 1 and resumes 2..5.
  RestorePlan fast_plan;
  fast_plan.chain = [&driver](uint32_t rank) {
    return std::vector<RestoreSource>{{driver.session(rank), false}};
  };
  fast_plan.resume_checkpoints = false;
  auto via_fast = driver.restart(fast_plan);
  ASSERT_TRUE(via_fast.ok()) << via_fast.status().to_string();
  EXPECT_EQ(via_fast->restored_epoch, 1u);
  ASSERT_TRUE(workloads::verify_restart(golden, *via_fast).ok())
      << workloads::verify_restart(golden, *via_fast).to_string();

  // Path 2: the PFS copies of the *same* killed run (the ledger was not
  // touched by path 1) — restores epoch 2, resumes 3..5.
  RestorePlan pfs_plan;
  pfs_plan.chain = [&driver](uint32_t rank) {
    return std::vector<RestoreSource>{{driver.pfs_session(rank), true}};
  };
  pfs_plan.resume_checkpoints = false;
  auto via_pfs = driver.restart(pfs_plan);
  ASSERT_TRUE(via_pfs.ok()) << via_pfs.status().to_string();
  EXPECT_EQ(via_pfs->restored_epoch, 2u);
  ASSERT_TRUE(workloads::verify_restart(golden, *via_pfs).ok())
      << workloads::verify_restart(golden, *via_pfs).to_string();

  EXPECT_EQ(via_fast->job_digest, via_pfs->job_digest);
  EXPECT_EQ(via_fast->job_digest, golden.job_digest);
}

INSTANTIATE_TEST_SUITE_P(Apps, RestorePathMatrixTest,
                         ::testing::Values("CoMD", "miniFE-CG", "NPB-SP"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Four recovery paths for miniFE-CG. Fast, XOR reconstruction, and PFS
// restore the *same* killed run (in that order: the domain loss that
// makes reconstruction interesting happens between the fast and XOR
// restores). The failover spare lives in its own stack below — a spare
// only exists after a real mid-run target death — and its final digest
// must still equal the same golden's.

TEST(FourPathRestoreTest, FastThenXorThenPfsRestoreIdentically) {
  const AppSpec& spec = *workloads::find_app("miniFE-CG");
  const uint32_t ranks = 4, epochs = 6;
  const AppRunResult golden = golden_run(spec, ranks, epochs);

  // XOR(4) needs the four primaries in four distinct failure domains
  // plus a fifth for parity.
  Cluster cluster(make_spec(/*storage_nodes=*/5, /*storage_racks=*/5));
  Scheduler sched(cluster);
  auto job = sched.allocate(ranks, /*procs_per_node=*/1, 256_MiB, ranks);
  ASSERT_TRUE(job.ok());
  nvmecr_rt::NvmecrSystem primary(cluster, *job, {});
  auto dep = redundancy::deploy_redundancy(cluster, sched, primary, *job,
                                           redundancy::Scheme::kXor);
  ASSERT_TRUE(dep.ok()) << dep.status().to_string();
  redundancy::RedundantSystem& sys = *dep->system;
  baselines::LustreModel pfs(cluster, /*procs_per_node=*/1);

  AppDriver driver(cluster, sys, spec,
                   test_params(ranks, epochs, /*pfs_interval=*/2),
                   &pfs);
  KillSpec kill{/*epoch=*/3, KillPoint::kAfterCheckpoint};
  auto killed = driver.run(kill);
  ASSERT_TRUE(killed.ok()) << killed.status().to_string();
  cluster.engine().run_task(
      [](redundancy::RedundantSystem& s) -> sim::Task<void> {
        co_await s.quiesce();
      }(sys));

  // Path 1: live fast-tier sessions, newest fast epoch (3).
  RestorePlan fast_plan;
  fast_plan.chain = [&driver](uint32_t rank) {
    return std::vector<RestoreSource>{{driver.session(rank), false}};
  };
  fast_plan.resume_checkpoints = false;
  auto via_fast = driver.restart(fast_plan);
  ASSERT_TRUE(via_fast.ok()) << via_fast.status().to_string();
  EXPECT_EQ(via_fast->restored_epoch, 3u);
  ASSERT_TRUE(workloads::verify_restart(golden, *via_fast).ok());

  // *** rank 0's failure domain dies ***
  const fabric::RackId victim_domain = cluster.topology().failure_domain(
      job->assignment.ssd_nodes[job->assignment.ssd_of_rank[0]]);
  for (fabric::NodeId n : cluster.storage_nodes()) {
    if (cluster.topology().failure_domain(n) == victim_domain) {
      cluster.storage_ssd(cluster.storage_ssd_index(n)).fail_device();
    }
  }

  // Path 2: XOR reconstruction — rank 0's epoch-3 checkpoint is decoded
  // from the surviving set members + parity, the other ranks read their
  // fast tier straight through the same clients.
  redundancy::Reconstructor recon(sys);
  std::vector<std::unique_ptr<baselines::StorageClient>> recon_clients;
  for (uint32_t r = 0; r < ranks; ++r) {
    recon_clients.push_back(recon.client(r));
  }
  RestorePlan xor_plan;
  xor_plan.chain = [&recon_clients](uint32_t rank) {
    return std::vector<RestoreSource>{{recon_clients[rank].get(), false}};
  };
  xor_plan.resume_checkpoints = false;
  auto via_xor = driver.restart(xor_plan);
  ASSERT_TRUE(via_xor.ok()) << via_xor.status().to_string();
  EXPECT_EQ(via_xor->restored_epoch, 3u);
  ASSERT_TRUE(workloads::verify_restart(golden, *via_xor).ok());
  const redundancy::RecoveryReport* rep = recon.find_report(
      0, workloads::app_checkpoint_path(spec, /*epoch=*/3, /*rank=*/0));
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->source, redundancy::RecoverySource::kXor);
  EXPECT_TRUE(rep->digest_ok);

  // Path 3: the PFS copies (newest PFS epoch is 2).
  RestorePlan pfs_plan;
  pfs_plan.chain = [&driver](uint32_t rank) {
    return std::vector<RestoreSource>{{driver.pfs_session(rank), true}};
  };
  pfs_plan.resume_checkpoints = false;
  auto via_pfs = driver.restart(pfs_plan);
  ASSERT_TRUE(via_pfs.ok()) << via_pfs.status().to_string();
  EXPECT_EQ(via_pfs->restored_epoch, 2u);
  ASSERT_TRUE(workloads::verify_restart(golden, *via_pfs).ok());

  EXPECT_EQ(via_fast->job_digest, golden.job_digest);
  EXPECT_EQ(via_xor->job_digest, golden.job_digest);
  EXPECT_EQ(via_pfs->job_digest, golden.job_digest);
}

TEST(FourPathRestoreTest, FailoverSpareRestoresIdentically) {
  const AppSpec& spec = *workloads::find_app("miniFE-CG");
  const uint32_t ranks = 4, epochs = 6;
  const AppRunResult golden = golden_run(spec, ranks, epochs);

  Cluster cluster(make_spec(/*storage_nodes=*/4, /*storage_racks=*/4));
  Scheduler sched(cluster);
  auto job = sched.allocate(ranks, /*procs_per_node=*/1, 256_MiB, ranks);
  ASSERT_TRUE(job.ok());
  auto deployed = resilience::deploy_resilient(cluster, sched, *job);
  ASSERT_TRUE(deployed.ok()) << deployed.status().to_string();
  resilience::ResilientSystem& sys = **deployed;

  AppDriver driver(cluster, sys, spec, test_params(ranks, epochs));

  // Rank 0's primary target dies for good mid-run, during the first
  // checkpoint window: retries exhaust, the monitor declares it dead,
  // and every later rank-0 checkpoint completes degraded on a spare in
  // a partner domain.
  const fabric::NodeId node = sys.primary_node_of(0);
  cluster.storage_ssd(cluster.storage_ssd_index(node))
      .schedule_crash(/*at=*/2500 * kMicrosecond);

  KillSpec kill{/*epoch=*/4, KillPoint::kAfterCheckpoint};
  auto killed = driver.run(kill);
  ASSERT_TRUE(killed.ok()) << killed.status().to_string();
  EXPECT_GE(sys.failovers(), 1u);
  EXPECT_FALSE(sys.degraded_ranks().empty());

  // Restore through the default plan: each rank's own session serves
  // its degraded files (rank 0's post-crash checkpoints, living on the
  // spare) from the spare and everything else from the inner chain.
  const std::string degraded_path =
      workloads::app_checkpoint_path(spec, /*epoch=*/4, /*rank=*/0);
  ASSERT_NE(sys.degraded_entry(0, degraded_path), nullptr);
  RestorePlan plan;
  plan.resume_checkpoints = false;
  auto restored = driver.restart(plan);
  ASSERT_TRUE(restored.ok()) << restored.status().to_string();
  EXPECT_EQ(restored->restored_epoch, 4u);
  ASSERT_TRUE(workloads::verify_restart(golden, *restored).ok())
      << workloads::verify_restart(golden, *restored).to_string();
  EXPECT_EQ(restored->job_digest, golden.job_digest);
}

// ---------------------------------------------------------------------------
// Kill-point edge cases

TEST(KillEdgeCaseTest, KillBeforeFirstCheckpointRestartsFromInitialState) {
  const AppSpec& spec = *workloads::find_app("NPB-SP");
  const AppRunResult golden = golden_run(spec, 4, 5);

  Stack stack(4);
  AppDriver driver(stack.cluster, *stack.fast, spec, test_params(4, 5));
  KillSpec kill{/*epoch=*/0, KillPoint::kBeforeCheckpoint};
  auto killed = driver.run(kill);
  ASSERT_TRUE(killed.ok());
  EXPECT_TRUE(driver.ledger().committed_epochs(4).empty());

  auto restored = driver.restart();
  ASSERT_TRUE(restored.ok()) << restored.status().to_string();
  EXPECT_TRUE(restored->from_initial);
  EXPECT_EQ(restored->restored_epoch, workloads::kNoRestoreEpoch);
  EXPECT_EQ(restored->first_epoch, 0u);
  ASSERT_TRUE(workloads::verify_restart(golden, *restored).ok())
      << workloads::verify_restart(golden, *restored).to_string();
}

TEST(KillEdgeCaseTest, KillDuringFinalCheckpointRestoresPreviousEpoch) {
  const AppSpec& spec = *workloads::find_app("CoMD");
  const uint32_t epochs = 5;
  const AppRunResult golden = golden_run(spec, 4, epochs);

  Stack stack(4);
  AppDriver driver(stack.cluster, *stack.fast, spec,
                   test_params(4, epochs));
  KillSpec kill{/*epoch=*/epochs - 1, KillPoint::kMidCheckpoint};
  auto killed = driver.run(kill);
  ASSERT_TRUE(killed.ok());
  // The final checkpoint's stream was abandoned half-written: epoch 4
  // must not be a restart candidate.
  const workloads::CheckpointRecord* last = driver.ledger().find(0, 4);
  EXPECT_EQ(last, nullptr);

  auto restored = driver.restart();
  ASSERT_TRUE(restored.ok()) << restored.status().to_string();
  EXPECT_EQ(restored->restored_epoch, epochs - 2);
  EXPECT_EQ(restored->residuals.size(), 1u);
  ASSERT_TRUE(workloads::verify_restart(golden, *restored).ok())
      << workloads::verify_restart(golden, *restored).to_string();
}

TEST(KillEdgeCaseTest, ThreeBackToBackKillRestoreCycles) {
  const AppSpec& spec = *workloads::find_app("miniFE-CG");
  const uint32_t epochs = 8;
  const AppRunResult golden = golden_run(spec, 4, epochs);

  Stack stack(4);
  AppDriver driver(stack.cluster, *stack.fast, spec,
                   test_params(4, epochs));

  // Cycle 1: die mid-checkpoint at epoch 2 (committed: 0, 1).
  auto killed = driver.run(KillSpec{2, KillPoint::kMidCheckpoint});
  ASSERT_TRUE(killed.ok());
  ASSERT_TRUE(workloads::verify_residuals(golden, *killed).ok());

  // Cycle 2: restore epoch 1, resume writing checkpoints, die again
  // after epoch 4's checkpoint committed.
  auto second = driver.restart({}, KillSpec{4, KillPoint::kAfterCheckpoint});
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_EQ(second->restored_epoch, 1u);
  EXPECT_TRUE(second->killed);
  ASSERT_TRUE(workloads::verify_residuals(golden, *second).ok())
      << workloads::verify_residuals(golden, *second).to_string();

  // Cycle 3: restore epoch 4, die once more mid-checkpoint at epoch 6.
  auto third = driver.restart({}, KillSpec{6, KillPoint::kMidCheckpoint});
  ASSERT_TRUE(third.ok()) << third.status().to_string();
  EXPECT_EQ(third->restored_epoch, 4u);
  ASSERT_TRUE(workloads::verify_residuals(golden, *third).ok());

  // Final restore runs to completion: epoch 5 was cycle 3's newest
  // committed checkpoint, and the finished run must be bit-identical
  // to the golden.
  auto last = driver.restart();
  ASSERT_TRUE(last.ok()) << last.status().to_string();
  EXPECT_EQ(last->restored_epoch, 5u);
  EXPECT_FALSE(last->killed);
  ASSERT_TRUE(workloads::verify_restart(golden, *last).ok())
      << workloads::verify_restart(golden, *last).to_string();
}

}  // namespace
}  // namespace nvmecr
