// Minimal MPI-like communicator for simulated processes.
//
// The paper uses MPI only for runtime initialization/finalization
// coordination and identification (§III-C): building MPI_COMM_CR per
// shared SSD (§III-F, Figure 6) and barriers around setup. This module
// provides exactly that surface: rank/size, barrier, allgather, bcast,
// and split — executed as rendezvous collectives among coroutines, with
// a log2(P) latency cost per collective round.
//
// Methods take the caller's rank explicitly (a simulated process *is* a
// coroutine, so identity is an argument rather than ambient state).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "simcore/engine.h"
#include "simcore/event.h"

namespace nvmecr::minimpi {

using namespace nvmecr::literals;

class Comm {
 public:
  /// Creates the world communicator for `size` ranks.
  static std::unique_ptr<Comm> world(sim::Engine& engine, int size) {
    return std::unique_ptr<Comm>(new Comm(engine, size));
  }

  int size() const { return size_; }

  /// Collective: all ranks must call; completes when the last arrives,
  /// plus a log2(P) message-round cost.
  sim::Task<void> barrier(int rank) {
    co_await allgather(rank, 0);
  }

  /// Collective: gathers one value per rank, returned to every rank in
  /// rank order.
  sim::Task<std::vector<uint64_t>> allgather(int rank, uint64_t value);

  /// Collective: every rank receives root's value.
  sim::Task<uint64_t> bcast(int rank, uint64_t value, int root) {
    auto all = co_await allgather(rank, value);
    co_return all[static_cast<size_t>(root)];
  }

  /// Collective: global sum of one double per rank (what the app
  /// workloads' residual reductions need). Contributions travel as bit
  /// patterns and are summed in rank order on every rank, so the result
  /// is bit-identical regardless of arrival order.
  sim::Task<double> allreduce_sum(int rank, double value) {
    auto all = co_await allgather(rank, std::bit_cast<uint64_t>(value));
    double sum = 0.0;
    for (uint64_t w : all) sum += std::bit_cast<double>(w);
    co_return sum;
  }

  /// Collective: partitions ranks by `color`; returns the caller's
  /// sub-communicator and its rank within it (ordered by parent rank,
  /// matching key == rank MPI usage). Sub-communicators live as long as
  /// the parent.
  struct SplitResult {
    Comm* comm = nullptr;
    int rank = -1;
  };
  sim::Task<SplitResult> split(int rank, int color);

 private:
  /// One message hop of a collective round.
  static constexpr SimDuration kHopLatency = 2_us;

  Comm(sim::Engine& engine, int size)
      : engine_(engine), size_(size), done_(engine) {
    NVMECR_CHECK(size > 0);
    contributions_.resize(static_cast<size_t>(size));
  }

  /// One collective round cost: a binomial-tree sweep up and down.
  SimDuration collective_cost() const {
    int rounds = 0;
    for (int p = 1; p < size_; p <<= 1) ++rounds;
    return 2 * rounds * kHopLatency;
  }

  sim::Engine& engine_;
  int size_;

  // Rendezvous state for the current collective generation.
  int arrived_ = 0;
  uint64_t generation_ = 0;
  std::vector<uint64_t> contributions_;
  std::vector<uint64_t> result_;
  sim::Event done_;

  // split() bookkeeping: children created by the releasing rank.
  std::vector<std::unique_ptr<Comm>> children_;
  std::vector<Comm*> split_comm_of_rank_;
  std::vector<int> split_rank_of_rank_;
  uint64_t split_generation_ = UINT64_MAX;
};

inline sim::Task<std::vector<uint64_t>> Comm::allgather(int rank,
                                                        uint64_t value) {
  NVMECR_CHECK(rank >= 0 && rank < size_);
  const uint64_t my_generation = generation_;
  contributions_[static_cast<size_t>(rank)] = value;
  if (++arrived_ == size_) {
    arrived_ = 0;
    ++generation_;
    result_ = contributions_;
    done_.set();
    done_.reset();
  } else {
    while (generation_ == my_generation) co_await done_.wait();
  }
  co_await engine_.delay(collective_cost());
  co_return result_;
}

inline sim::Task<Comm::SplitResult> Comm::split(int rank, int color) {
  auto colors = co_await allgather(rank, static_cast<uint64_t>(color));
  // The first rank to resume after the gather builds the children once
  // per generation; detect by checking whether our color already has a
  // communicator assigned for this split.
  if (split_comm_of_rank_.size() != static_cast<size_t>(size_) ||
      split_generation_ != generation_) {
    split_comm_of_rank_.assign(static_cast<size_t>(size_), nullptr);
    split_rank_of_rank_.assign(static_cast<size_t>(size_), -1);
    // Group ranks by color in rank order.
    std::vector<uint64_t> unique_colors = colors;
    std::sort(unique_colors.begin(), unique_colors.end());
    unique_colors.erase(
        std::unique(unique_colors.begin(), unique_colors.end()),
        unique_colors.end());
    for (uint64_t c : unique_colors) {
      int members = 0;
      for (int r = 0; r < size_; ++r) {
        if (colors[static_cast<size_t>(r)] == c) ++members;
      }
      children_.push_back(std::unique_ptr<Comm>(new Comm(engine_, members)));
      Comm* child = children_.back().get();
      int next = 0;
      for (int r = 0; r < size_; ++r) {
        if (colors[static_cast<size_t>(r)] == c) {
          split_comm_of_rank_[static_cast<size_t>(r)] = child;
          split_rank_of_rank_[static_cast<size_t>(r)] = next++;
        }
      }
    }
    split_generation_ = generation_;
  }
  co_return SplitResult{split_comm_of_rank_[static_cast<size_t>(rank)],
                        split_rank_of_rank_[static_cast<size_t>(rank)]};
}

}  // namespace nvmecr::minimpi
