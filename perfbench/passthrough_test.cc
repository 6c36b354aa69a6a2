// Pass-through proof at small scale: a traced job (observer armed,
// every storage system behind TracedSystem) must produce exactly the
// simulated outputs of the bare stack, while its probes see the work.
#include <gtest/gtest.h>

#include "workloads.h"

namespace nvmecr::perfbench {
namespace {

workloads::ComdParams small_params(uint64_t seed) {
  workloads::ComdParams p = comd_params(seed, /*nranks=*/56);
  p.checkpoints = 3;
  return p;
}

JobResult expect_pass_through(ComdWorkload w, uint64_t seed) {
  const workloads::ComdParams params = small_params(seed);
  const JobResult plain = run_comd_job(w, params, /*traced=*/false);
  const JobResult traced = run_comd_job(w, params, /*traced=*/true);
  EXPECT_TRUE(plain.ok) << plain.error;
  EXPECT_TRUE(traced.ok) << traced.error;
  EXPECT_EQ(plain.fingerprint, traced.fingerprint);
  EXPECT_EQ(plain.events, traced.events);
  EXPECT_TRUE(plain.layers.empty());
  // The decorator saw every rank's checkpoint writes and restart reads.
  const double body =
      static_cast<double>(params.nranks) * params.rank_checkpoint_bytes();
  EXPECT_GE(traced.layers.at("baselines.client.write.bytes"),
            body * params.checkpoints);
  EXPECT_GE(traced.layers.at("baselines.client.read.bytes"), body);
  EXPECT_EQ(traced.layers.at("baselines.client.write.failed"), 0);
  EXPECT_EQ(traced.layers.at("simcore.events"),
            static_cast<double>(plain.events));
  return traced;
}

TEST(PassThrough, NvmecrTracedMatchesUntraced) {
  expect_pass_through(ComdWorkload::kNvmecrWeak, kDefaultSeed);
  expect_pass_through(ComdWorkload::kNvmecrWeak, 7);
}

TEST(PassThrough, DfsTracedMatchesUntraced) {
  const JobResult traced =
      expect_pass_through(ComdWorkload::kDfsMultilevel, kDefaultSeed);
  // The comparator models carry no cost centers of their own: their host
  // time lands on the decorator's client-op tags.
  EXPECT_GT(traced.layers.at("baselines.client.write.host_ms"), 0);
  EXPECT_LT(traced.layers.at("obs.untagged_host_frac"), 0.1);
}

TEST(PassThrough, SeedMovesCheckpointSize) {
  EXPECT_EQ(comd_params(kDefaultSeed).atoms_per_rank, 32768u);
  const uint64_t a = comd_params(7).atoms_per_rank;
  EXPECT_GE(a, 32768u - 512);
  EXPECT_LE(a, 32768u);
  EXPECT_EQ(comd_params(7).atoms_per_rank, a);
}

TEST(PassThrough, ChaosScheduleOutcomesRepeat) {
  ChaosWorkload a(kDefaultSeed);
  ChaosWorkload b(kDefaultSeed);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(outcome_fingerprint(a.run(i).outcome),
              outcome_fingerprint(b.run(i).outcome));
  }
}

}  // namespace
}  // namespace nvmecr::perfbench
