#include "microfs/block_pool.h"

#include <algorithm>
#include <bit>

#include "common/units.h"
#include "microfs/codec.h"

namespace nvmecr::microfs {

namespace {

/// Calls fn(word, mask) for each bitmap word that `run` overlaps.
template <typename Fn>
void for_each_word(BlockRun run, Fn&& fn) {
  const uint64_t end = run.start + run.count;
  for (uint64_t b = run.start; b < end;) {
    const uint64_t bit = b % 64;
    const uint64_t n = std::min<uint64_t>(64 - bit, end - b);
    fn(b / 64, (n == 64 ? ~0ull : (1ull << n) - 1) << bit);
    b += n;
  }
}

/// Removes the first `n` entries of `queue`, calling fn on each removed
/// run (or piece of one) in order.
template <typename Fn>
void pop_entries(std::deque<BlockRun>& queue, uint64_t n, Fn&& fn) {
  while (n > 0) {
    BlockRun& front = queue.front();
    const BlockRun run{front.start, std::min(n, front.count)};
    fn(run);
    front.start += run.count;
    front.count -= run.count;
    if (front.count == 0) queue.pop_front();
    n -= run.count;
  }
}

}  // namespace

void BlockPool::reset(uint64_t block_count) {
  free_.clear();
  handed_out_.clear();
  append_run(free_, {0, block_count});
  head_ = 0;
  live_ = block_count;
  total_ = block_count;
  bitmap_.assign(ceil_div(block_count, 64), 0);
}

bool BlockPool::all_marked(BlockRun run, bool allocated) const {
  bool all = true;
  for_each_word(run, [&](uint64_t w, uint64_t mask) {
    all = all && (bitmap_[w] & mask) == (allocated ? mask : 0);
  });
  return all;
}

void BlockPool::mark(BlockRun run, bool allocated) {
  for_each_word(run, [&](uint64_t w, uint64_t mask) {
    bitmap_[w] = allocated ? bitmap_[w] | mask : bitmap_[w] & ~mask;
  });
}

Status BlockPool::alloc(uint64_t n, std::vector<BlockRun>& runs) {
  if (n > live_) return NoSpaceError("hugeblock pool exhausted");
  // head_ < total_ and n <= live_ <= total_, so one subtraction wraps.
  head_ += n;
  if (head_ >= total_) head_ -= total_;
  live_ -= n;
  pop_entries(free_, n, [&](BlockRun run) {
    NVMECR_CHECK(all_marked(run, false));
    mark(run, true);
    append_run(runs, run);
    append_run(handed_out_, run);
  });
  return OkStatus();
}

Status BlockPool::free(std::span<const BlockRun> runs) {
  for (const BlockRun& run : runs) {
    if (run.start >= total_ || run.count > total_ - run.start) {
      return InvalidArgumentError("block out of range");
    }
  }
  // Clear run by run, so a block listed twice is caught as well; undo
  // the runs already cleared when one holds a free block.
  for (size_t i = 0; i < runs.size(); ++i) {
    if (!all_marked(runs[i], true)) {
      while (i-- > 0) mark(runs[i], true);
      return InternalError("double free of hugeblock");
    }
    mark(runs[i], false);
  }
  uint64_t n = 0;
  for (const BlockRun& run : runs) {
    append_run(free_, run);
    n += run.count;
  }
  live_ += n;
  // Those ring positions leave the front of the allocated window.
  pop_entries(handed_out_, n, [](BlockRun) {});
  return OkStatus();
}

void BlockPool::serialize(std::vector<std::byte>& out) const {
  out.reserve(out.size() + (3 + total_ + bitmap_.size()) * 8);
  Encoder enc(out);
  enc.u64(total_);
  enc.u64(head_);
  enc.u64(live_);
  // Ring entries in position order. The queues hold the ring from
  // position head_, so position 0 is queue entry total_ - head_.
  auto expand = [&](uint64_t from, uint64_t to) {  // queue entries [from, to)
    uint64_t at = 0;  // queue index of the current run's first entry
    for (const auto* queue : {&free_, &handed_out_}) {
      for (const BlockRun& run : *queue) {
        const uint64_t lo = std::max(from, at);
        const uint64_t hi = std::min(to, at + run.count);
        if (lo < hi) enc.u64_run(run.start + (lo - at), hi - lo);
        at += run.count;
      }
    }
  };
  const uint64_t wrap = head_ == 0 ? 0 : total_ - head_;
  expand(wrap, total_);
  expand(0, wrap);
  // The bitmap is implied by the free window but serialized for cheap
  // validation on restore.
  enc.u64s(bitmap_);
}

StatusOr<size_t> BlockPool::deserialize(std::span<const std::byte> in) {
  Decoder dec(in);
  uint64_t total = 0, head = 0, live = 0;
  NVMECR_RETURN_IF_ERROR(dec.u64(total));
  NVMECR_RETURN_IF_ERROR(dec.u64(head));
  NVMECR_RETURN_IF_ERROR(dec.u64(live));
  if (live > total || (total > 0 && head >= total)) {
    return CorruptionError("block pool header inconsistent");
  }
  // The counts come from the device: bound them by the buffer before
  // allocating anything.
  if (total > dec.remaining() / 8 ||
      ceil_div(total, 64) > dec.remaining() / 8 - total) {
    return CorruptionError("block pool overruns buffer");
  }
  // Ring positions [0, head) and [head, total), merged into runs.
  std::vector<BlockRun> low, high;
  for (uint64_t p = 0; p < total; ++p) {
    uint64_t block = 0;
    NVMECR_RETURN_IF_ERROR(dec.u64(block));
    if (block >= total) return CorruptionError("ring entry out of range");
    append_run(p < head ? low : high, {block, 1});
  }
  std::vector<uint64_t> bitmap(ceil_div(total, 64));
  for (uint64_t& word : bitmap) NVMECR_RETURN_IF_ERROR(dec.u64(word));
  if (total % 64 != 0) bitmap.back() &= (1ull << (total % 64)) - 1;
  // Cross-check: allocated bitmap must agree with the free window.
  uint64_t allocated = 0;
  for (uint64_t word : bitmap) allocated += std::popcount(word);
  if (total - allocated != live) {
    return CorruptionError("pool bitmap disagrees");
  }

  // Queue order starts at position head: the free window, then the
  // allocated one.
  free_.clear();
  handed_out_.clear();
  uint64_t left = live;
  for (const auto* part : {&high, &low}) {
    for (const BlockRun& run : *part) {
      const uint64_t n = std::min(left, run.count);
      append_run(free_, {run.start, n});
      append_run(handed_out_, {run.start + n, run.count - n});
      left -= n;
    }
  }
  total_ = total;
  head_ = head;
  live_ = live;
  bitmap_ = std::move(bitmap);
  return dec.consumed();
}

}  // namespace nvmecr::microfs
