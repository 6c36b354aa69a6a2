// Benchmark-owned StorageSystem/StorageClient decorator: the per-layer
// probe at the client boundary.
//
// Every client op runs under its own DispatchProfiler cost center
// ("bench/client.<op>"), so host time the layers below leave untagged
// (the comparator models, the Lustre PFS, microfs bookkeeping between
// IOs) is charged to the client op that caused it. Each op also records
// its call count, failures and simulated latency. The decorator only
// forwards: it schedules no events and adds no simulated time, which the
// pass-through test pins by comparing job fingerprints with and without
// it.
//
// Only the StorageClient surface is decorated. hw::BlockDevice is left
// alone on purpose: its op set is due to change, and a benchmark that
// implements it would have to change with it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/storage_api.h"
#include "common/stats.h"
#include "simcore/engine.h"

namespace nvmecr::perfbench {

enum class ClientOp : uint8_t {
  kCreate,
  kOpenRead,
  kWrite,
  kRead,
  kFsync,
  kClose,
  kUnlink,
  kConnect,
};
inline constexpr size_t kNumClientOps = 8;
/// Ops reported as per-layer metrics (connect is tagged, not reported).
inline constexpr size_t kNumReportedOps = 7;
const char* client_op_name(ClientOp op);
/// DispatchProfiler cost-center name of `op` ("bench/client.<op>").
std::string client_op_tag(ClientOp op);

struct OpStats {
  uint64_t calls = 0;
  uint64_t failed = 0;
  Samples sim_ns;  // simulated latency per call
};

/// Everything the decorators of one job record; shared by all systems
/// and clients the job decorates.
struct ClientStats {
  std::array<OpStats, kNumClientOps> ops;
  uint64_t write_bytes = 0;
  uint64_t read_bytes = 0;
};

class TracedSystem final : public baselines::StorageSystem {
 public:
  /// `inner` and `stats` must outlive this object and every client it
  /// hands out. Tags are interned on `engine`'s armed profiler; with none
  /// armed the scopes are inert and only the statistics are recorded.
  TracedSystem(sim::Engine& engine, baselines::StorageSystem& inner,
               ClientStats& stats);

  std::string name() const override { return inner_.name(); }
  sim::Task<StatusOr<std::unique_ptr<baselines::StorageClient>>> connect(
      int rank) override;
  uint64_t hardware_peak_write_bw() const override {
    return inner_.hardware_peak_write_bw();
  }
  uint64_t hardware_peak_read_bw() const override {
    return inner_.hardware_peak_read_bw();
  }
  std::vector<uint64_t> bytes_per_server() const override {
    return inner_.bytes_per_server();
  }
  uint64_t metadata_bytes() const override { return inner_.metadata_bytes(); }
  SimDuration kernel_time() const override { return inner_.kernel_time(); }
  uint64_t restart_image_bytes(int rank, const std::string& path) override {
    return inner_.restart_image_bytes(rank, path);
  }

 private:
  sim::Engine& engine_;
  baselines::StorageSystem& inner_;
  ClientStats& stats_;
  std::array<uint16_t, kNumClientOps> tags_{};
};

}  // namespace nvmecr::perfbench
