#include "traced_system.h"

#include <utility>

#include "simcore/profile.h"

namespace nvmecr::perfbench {

const char* client_op_name(ClientOp op) {
  switch (op) {
    case ClientOp::kCreate: return "create";
    case ClientOp::kOpenRead: return "open_read";
    case ClientOp::kWrite: return "write";
    case ClientOp::kRead: return "read";
    case ClientOp::kFsync: return "fsync";
    case ClientOp::kClose: return "close";
    case ClientOp::kUnlink: return "unlink";
    case ClientOp::kConnect: return "connect";
  }
  return "?";
}

std::string client_op_tag(ClientOp op) {
  return std::string("bench/client.") + client_op_name(op);
}

namespace {

void record(ClientStats& stats, ClientOp op, bool ok, SimDuration sim_ns) {
  OpStats& s = stats.ops[static_cast<size_t>(op)];
  ++s.calls;
  if (!ok) ++s.failed;
  s.sim_ns.add(static_cast<double>(sim_ns));
}

class TracedClient final : public baselines::StorageClient {
 public:
  TracedClient(sim::Engine& engine,
               std::unique_ptr<baselines::StorageClient> inner,
               ClientStats& stats,
               const std::array<uint16_t, kNumClientOps>& tags)
      : engine_(engine), inner_(std::move(inner)), stats_(stats), tags_(tags) {}

  sim::Task<StatusOr<int>> create(const std::string& path) override {
    return timed(ClientOp::kCreate, inner_->create(path));
  }
  sim::Task<StatusOr<int>> open_read(const std::string& path) override {
    return timed(ClientOp::kOpenRead, inner_->open_read(path));
  }
  sim::Task<Status> write(int fd, uint64_t len) override {
    return timed(ClientOp::kWrite, inner_->write(fd, len), len);
  }
  sim::Task<Status> read(int fd, uint64_t len) override {
    return timed(ClientOp::kRead, inner_->read(fd, len), len);
  }
  sim::Task<Status> fsync(int fd) override {
    return timed(ClientOp::kFsync, inner_->fsync(fd));
  }
  sim::Task<Status> close(int fd) override {
    return timed(ClientOp::kClose, inner_->close(fd));
  }
  sim::Task<Status> unlink(const std::string& path) override {
    return timed(ClientOp::kUnlink, inner_->unlink(path));
  }

 private:
  /// Runs `inner` under `op`'s cost center. The inner task is lazy, so
  /// none of it runs before the scope is in place.
  template <typename T>
  sim::Task<T> timed(ClientOp op, sim::Task<T> inner, uint64_t bytes = 0) {
    sim::ProfileTagScope scope(engine_, tags_[static_cast<size_t>(op)]);
    const SimTime t0 = engine_.now();
    T result = co_await std::move(inner);
    record(stats_, op, result.ok(), engine_.now() - t0);
    if (result.ok() && op == ClientOp::kWrite) stats_.write_bytes += bytes;
    if (result.ok() && op == ClientOp::kRead) stats_.read_bytes += bytes;
    co_return result;
  }

  sim::Engine& engine_;
  std::unique_ptr<baselines::StorageClient> inner_;
  ClientStats& stats_;
  const std::array<uint16_t, kNumClientOps>& tags_;
};

}  // namespace

TracedSystem::TracedSystem(sim::Engine& engine,
                           baselines::StorageSystem& inner, ClientStats& stats)
    : engine_(engine), inner_(inner), stats_(stats) {
  for (size_t i = 0; i < kNumClientOps; ++i) {
    tags_[i] =
        engine.profile_tag(client_op_tag(static_cast<ClientOp>(i)).c_str());
  }
}

sim::Task<StatusOr<std::unique_ptr<baselines::StorageClient>>>
TracedSystem::connect(int rank) {
  sim::ProfileTagScope scope(
      engine_, tags_[static_cast<size_t>(ClientOp::kConnect)]);
  const SimTime t0 = engine_.now();
  auto inner = co_await inner_.connect(rank);
  record(stats_, ClientOp::kConnect, inner.ok(), engine_.now() - t0);
  if (!inner.ok()) co_return inner.status();
  co_return std::unique_ptr<baselines::StorageClient>(
      std::make_unique<TracedClient>(engine_, std::move(inner).value(),
                                     stats_, tags_));
}

}  // namespace nvmecr::perfbench
