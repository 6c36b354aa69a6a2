// Little-endian binary encoder/decoder for microfs on-device structures
// (operation log records, directory entries, internal state checkpoints).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace nvmecr::microfs {

class Encoder {
 public:
  explicit Encoder(std::vector<std::byte>& out) : out_(out) {}

  void u8(uint8_t v) { raw(&v, 1); }
  void u32(uint32_t v) { raw(&v, 4); }
  void u64(uint64_t v) { raw(&v, 8); }
  void str(std::string_view s) {
    u32(static_cast<uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void u64s(std::span<const uint64_t> v) { raw(v.data(), v.size() * 8); }
  /// Appends the `count` values start, start+1, ... (an expanded run of
  /// hugeblocks) in one bulk append.
  void u64_run(uint64_t start, uint64_t count) {
    const size_t at = out_.size();
    out_.resize(at + count * 8);
    std::byte* p = out_.data() + at;
    for (uint64_t i = 0; i < count; ++i, p += 8) {
      const uint64_t v = start + i;
      std::memcpy(p, &v, 8);
    }
  }
  /// Overwrites the u64 at byte `at`, a slot reserved by an earlier u64().
  void patch_u64(size_t at, uint64_t v) {
    std::memcpy(out_.data() + at, &v, 8);
  }
  size_t size() const { return out_.size(); }

 private:
  void raw(const void* p, size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  std::vector<std::byte>& out_;
};

class Decoder {
 public:
  explicit Decoder(std::span<const std::byte> in) : in_(in) {}

  Status u8(uint8_t& v) { return raw(&v, 1); }
  Status u32(uint32_t& v) { return raw(&v, 4); }
  Status u64(uint64_t& v) { return raw(&v, 8); }
  Status str(std::string& s) {
    uint32_t n = 0;
    NVMECR_RETURN_IF_ERROR(u32(n));
    if (pos_ + n > in_.size()) return CorruptionError("string overruns buffer");
    s.assign(reinterpret_cast<const char*>(in_.data() + pos_), n);
    pos_ += n;
    return OkStatus();
  }
  size_t consumed() const { return pos_; }
  size_t remaining() const { return in_.size() - pos_; }

 private:
  Status raw(void* p, size_t n) {
    if (pos_ + n > in_.size()) return CorruptionError("decode overruns buffer");
    std::memcpy(p, in_.data() + pos_, n);
    pos_ += n;
    return OkStatus();
  }
  std::span<const std::byte> in_;
  size_t pos_ = 0;
};

}  // namespace nvmecr::microfs
