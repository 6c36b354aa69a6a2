#include "hw/payload_store.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/rng.h"
#include "common/units.h"

namespace nvmecr::hw {

namespace {

/// Ratio of every seed's block-tag sequence. r ≡ 5 (mod 8) has the
/// largest multiplicative order modulo 2^64 (2^62), so the tags of one
/// seed's blocks do not repeat within any device.
constexpr uint64_t kRatio = 0x9e3779b97f4a7c15ull;
static_assert(kRatio % 8 == 5);

/// r^(2^k) and 1 + r + ... + r^(2^k - 1), for binary doubling.
struct RatioPowers {
  uint64_t pow[64];
  uint64_t sum[64];
};

constexpr RatioPowers make_ratio_powers() {
  RatioPowers p{};
  uint64_t pow = kRatio;
  uint64_t sum = 1;
  for (int k = 0; k < 64; ++k) {
    p.pow[k] = pow;
    p.sum[k] = sum;
    sum *= 1 + pow;  // S(2m) = S(m)·(1 + r^m)
    pow *= pow;
  }
  return p;
}

constexpr RatioPowers kRatioPowers = make_ratio_powers();

/// r^first + r^(first+1) + ... + r^(first+count-1) mod 2^64, with one
/// multiplication per set bit of `first` and two per set bit of `count`.
uint64_t ratio_range_sum(uint64_t first, uint64_t count) {
  uint64_t scale = 1;  // r^first, then r^(first + blocks summed so far)
  for (uint64_t b = first; b != 0; b &= b - 1) {
    scale *= kRatioPowers.pow[std::countr_zero(b)];
  }
  uint64_t sum = 0;
  for (uint64_t b = count; b != 0; b &= b - 1) {
    const int k = std::countr_zero(b);
    sum += scale * kRatioPowers.sum[k];
    scale *= kRatioPowers.pow[k];
  }
  return sum;
}

/// Tag of `count` pattern blocks of `seed` starting at block `first`.
uint64_t pattern_tag(uint64_t seed, uint64_t first, uint64_t count) {
  return (mix64(seed) | 1) * ratio_range_sum(first, count);
}

/// Seed-table bounds: the table starts small so the many short-lived
/// stores of a campaign stay cheap, and holds at most 4096 slots (32 KiB),
/// enough that most of the ~450 concurrent streams one SSD serves at 448
/// ranks get a slot of their own.
constexpr size_t kMinSeedHints = 64;
constexpr size_t kMaxSeedHints = 4096;

}  // namespace

uint64_t PayloadStore::block_tag(uint64_t seed, uint64_t block_index) {
  return pattern_tag(seed, block_index, 1);
}

uint64_t PayloadStore::expected_tag(uint64_t seed, uint64_t offset,
                                    uint64_t len, uint32_t block_size) {
  return pattern_tag(seed, offset / block_size, len / block_size);
}

PayloadStore::Iter PayloadStore::upper(uint64_t offset) {
  if (extents_.empty()) return extents_.end();
  const auto& [last_start, last] = *extents_.rbegin();
  if (last_start + last.len <= offset) return extents_.end();
  return extents_.upper_bound(offset);
}

PayloadStore::ExtentMap::const_iterator PayloadStore::first_overlap(
    uint64_t offset) const {
  auto it = extents_.upper_bound(offset);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.len > offset) it = prev;
  }
  return it;
}

PayloadStore::Iter PayloadStore::erase(Iter it) {
  forget(it);
  return extents_.erase(it);
}

PayloadStore::Iter PayloadStore::trim_head(Iter it, uint64_t new_start) {
  const Iter next = std::next(it);
  forget(it);
  auto node = extents_.extract(it);
  Extent& e = node.mapped();
  const uint64_t cut = new_start - node.key();
  e.len -= cut;
  if (!e.is_pattern) {
    e.bytes.erase(e.bytes.begin(),
                  e.bytes.begin() + static_cast<ptrdiff_t>(cut));
  }
  node.key() = new_start;
  // The extent keeps its place in the order: it still ends before `next`.
  return extents_.insert(next, std::move(node));
}

PayloadStore::Iter PayloadStore::carve(Iter ub, uint64_t start,
                                       uint64_t len) {
  const uint64_t end = start + len;
  Iter it = ub;
  if (it != extents_.begin()) {
    const Iter prev = std::prev(it);
    const uint64_t prev_end = prev->first + prev->second.len;
    if (prev->first == start) {
      it = prev;  // starts inside the carve region: handled below
    } else if (prev_end > start) {
      // Split a predecessor that overlaps the carve region.
      Extent& pe = prev->second;
      // Tail beyond the carve region survives as a new extent.
      if (prev_end > end) {
        Extent tail;
        tail.len = prev_end - end;
        tail.is_pattern = pe.is_pattern;
        tail.seed = pe.seed;
        if (!pe.is_pattern) {
          const auto from = static_cast<ptrdiff_t>(end - prev->first);
          tail.bytes.assign(pe.bytes.begin() + from, pe.bytes.end());
        }
        it = extents_.emplace_hint(it, end, std::move(tail));
      }
      // Head before the carve region survives, trimmed.
      total_bytes_ -= std::min(prev_end, end) - start;
      pe.len = start - prev->first;
      if (!pe.is_pattern) pe.bytes.resize(pe.len);
    }
  }

  // Remove/trim extents starting inside the carve region.
  while (it != extents_.end() && it->first < end) {
    const uint64_t e_end = it->first + it->second.len;
    if (e_end > end) {
      // Keep the tail that sticks out.
      total_bytes_ -= end - it->first;
      it = trim_head(it, end);
      break;
    }
    total_bytes_ -= it->second.len;
    it = erase(it);
  }
  // `it` is the first extent at or past `end` — nothing remains in
  // [start, end), so it doubles as the hint for inserting at `start`.
  return it;
}

bool PayloadStore::mergeable(uint64_t a_start, const Extent& a,
                             uint64_t b_start, const Extent& b) {
  // Only pattern extents merge (byte extents would need a copy; metadata
  // writes are small and non-adjacent in practice).
  return a.is_pattern && b.is_pattern && a.seed == b.seed &&
         a_start + a.len == b_start;
}

PayloadStore::Iter PayloadStore::insert_extent(Iter hint, uint64_t start,
                                               Extent e) {
  const size_t before = extents_.size();
  total_bytes_ += e.len;
  auto it = extents_.emplace_hint(hint, start, std::move(e));
  NVMECR_CHECK(extents_.size() == before + 1);
  // Merge with successor.
  auto next = std::next(it);
  if (next != extents_.end() &&
      mergeable(it->first, it->second, next->first, next->second)) {
    it->second.len += next->second.len;
    erase(next);
  }
  // Merge with predecessor.
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (mergeable(prev->first, prev->second, it->first, it->second)) {
      prev->second.len += it->second.len;
      erase(it);
      it = prev;
    }
  }
  return it;
}

void PayloadStore::grow(Iter it, uint64_t end) {
  Extent& e = it->second;
  const uint64_t old_end = it->first + e.len;
  // A rewrite inside the extent leaves its content as it was.
  if (end <= old_end) return;
  Iter next = std::next(it);
  while (next != extents_.end() && next->first <= end) {
    const uint64_t next_end = next->first + next->second.len;
    const bool same = next->second.is_pattern && next->second.seed == e.seed;
    if (next_end <= end || same) {
      // Fully overwritten, or the same content continuing: absorb it.
      end = std::max(end, next_end);
      total_bytes_ -= next->second.len;
      next = erase(next);
      continue;
    }
    if (next->first < end) {
      total_bytes_ -= end - next->first;
      trim_head(next, end);
    }
    break;
  }
  total_bytes_ += end - old_end;
  e.len = end - it->first;
}

PayloadStore::Iter PayloadStore::hinted(uint64_t seed) {
  if (seed_hints_.empty()) return extents_.end();
  return seed_hints_[seed & (seed_hints_.size() - 1)];
}

void PayloadStore::remember(Iter it) {
  if (seed_hints_.size() < kMaxSeedHints &&
      extents_.size() * 4 > seed_hints_.size()) {
    // Resize to about four slots per extent; a live hint keeps its low
    // seed bits, so no two of them collide in the larger table.
    const size_t slots = std::clamp(std::bit_ceil(extents_.size() * 4),
                                    kMinSeedHints, kMaxSeedHints);
    std::vector<Iter> table(slots, extents_.end());
    for (Iter h : seed_hints_) {
      if (h != extents_.end()) table[h->second.seed & (slots - 1)] = h;
    }
    seed_hints_.swap(table);
  }
  seed_hints_[it->second.seed & (seed_hints_.size() - 1)] = it;
}

void PayloadStore::forget(Iter it) {
  if (seed_hints_.empty()) return;
  Iter& slot = seed_hints_[it->second.seed & (seed_hints_.size() - 1)];
  if (slot == it) slot = extents_.end();
}

void PayloadStore::write_bytes(uint64_t offset,
                               std::span<const std::byte> data) {
  if (data.empty()) return;
  Extent e;
  e.len = data.size();
  e.is_pattern = false;
  e.bytes.assign(data.begin(), data.end());
  insert_extent(carve(upper(offset), offset, data.size()), offset,
                std::move(e));
}

Status PayloadStore::read_bytes(uint64_t offset,
                                std::span<std::byte> out) const {
  if (out.empty()) return OkStatus();
  const uint64_t end = offset + out.size();
  std::memset(out.data(), 0, out.size());

  for (auto it = first_overlap(offset);
       it != extents_.end() && it->first < end; ++it) {
    const uint64_t e_start = it->first;
    const uint64_t e_end = e_start + it->second.len;
    const uint64_t copy_start = std::max(e_start, offset);
    const uint64_t copy_end = std::min(e_end, end);
    if (it->second.is_pattern) {
      return CorruptionError(
          "read_bytes over pattern extent (tagged payload read as bytes)");
    }
    std::memcpy(out.data() + (copy_start - offset),
                it->second.bytes.data() + (copy_start - e_start),
                copy_end - copy_start);
  }
  return OkStatus();
}

Status PayloadStore::write_pattern(uint64_t offset, uint64_t len,
                                   uint64_t seed) {
  if (len == 0) return OkStatus();
  if (offset % block_size_ != 0 || len % block_size_ != 0) {
    return InvalidArgumentError("pattern IO must be block-aligned");
  }
  // Growable: a same-seed extent that contains `offset` or ends at it.
  const auto growable = [&](Iter it) {
    return it != extents_.end() && it->second.is_pattern &&
           it->second.seed == seed && it->first <= offset &&
           offset <= it->first + it->second.len;
  };
  Iter it = hinted(seed);
  if (!growable(it)) {
    const Iter ub = upper(offset);
    it = ub == extents_.begin() ? extents_.end() : std::prev(ub);
    if (!growable(it)) {
      Extent e;
      e.len = len;
      e.is_pattern = true;
      e.seed = seed;
      remember(insert_extent(carve(ub, offset, len), offset, std::move(e)));
      return OkStatus();
    }
  }
  grow(it, offset + len);
  remember(it);
  return OkStatus();
}

uint64_t PayloadStore::tag_of_range(uint64_t e_start, const Extent& e,
                                    uint64_t ov_start, uint64_t ov_end) const {
  if (e.is_pattern) {
    // Pattern blocks fully covered by the overlap contribute their tag.
    const uint64_t first_block = ceil_div(ov_start, block_size_);
    const uint64_t last_block = ov_end / block_size_;  // exclusive
    if (first_block >= last_block) return 0;
    return pattern_tag(e.seed, first_block, last_block - first_block);
  }
  // Real-byte blocks contribute a content hash per fully covered block
  // (partial blocks hash the covered slice).
  uint64_t tag = 0;
  uint64_t pos = ov_start;
  while (pos < ov_end) {
    const uint64_t block_end =
        std::min<uint64_t>((pos / block_size_ + 1) * block_size_, ov_end);
    tag += fnv1a(e.bytes.data() + (pos - e_start), block_end - pos);
    pos = block_end;
  }
  return tag;
}

StatusOr<uint64_t> PayloadStore::read_combined_tag(uint64_t offset,
                                                   uint64_t len) const {
  if (offset % block_size_ != 0 || len % block_size_ != 0) {
    return InvalidArgumentError("tagged read must be block-aligned");
  }
  ++tag_reads_;
  uint64_t tag = 0;
  const uint64_t end = offset + len;
  for (auto it = first_overlap(offset);
       it != extents_.end() && it->first < end; ++it) {
    const uint64_t ov_start = std::max(it->first, offset);
    const uint64_t ov_end = std::min(it->first + it->second.len, end);
    tag += tag_of_range(it->first, it->second, ov_start, ov_end);
  }
  return tag;
}

}  // namespace nvmecr::hw
