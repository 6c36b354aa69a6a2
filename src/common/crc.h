// CRC64 (ECMA-182, reflected — the CRC-64/XZ parameterization) used by
// the payload store to summarize block contents so multi-hundred-GB
// simulated checkpoints fit in host memory while reads remain
// verifiable, and by the oplog/state-checkpoint codecs for corruption
// detection.
//
// Hot path: sliced table lookups — sixteen compile-time 256-entry
// tables let the loop consume 16 bytes per iteration ("slice-by-16",
// the same scheme xz/zlib-ng use) instead of one table lookup per byte
// (~5-10x on typical hosts; bench/micro_structures' BM_Crc64 measures
// it). The tables are constexpr so they live in .rodata and cost
// nothing at startup.
// Results are bit-identical to the byte-at-a-time reference, which is
// kept for tests and benchmarking.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace nvmecr {

namespace detail {

inline constexpr uint64_t kCrc64Poly = 0xC96C5795D7870F42ull;  // reflected

using Crc64Tables = std::array<std::array<uint64_t, 256>, 16>;

consteval Crc64Tables make_crc64_tables() {
  Crc64Tables t{};
  for (uint64_t i = 0; i < 256; ++i) {
    uint64_t crc = i;
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ ((crc & 1) ? kCrc64Poly : 0);
    }
    t[0][i] = crc;
  }
  // t[k][i]: CRC of byte i followed by k zero bytes — byte j of a
  // 16-byte group is looked up in t[15-j], so one lookup per input byte
  // covers the whole group.
  for (size_t k = 1; k < t.size(); ++k) {
    for (int i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

/// Endian-independent little-endian 8-byte load (a single MOV on LE
/// targets).
inline uint64_t load_le64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline constexpr Crc64Tables kCrc64Tables = make_crc64_tables();

/// Byte-at-a-time reference implementation. Kept as the ground truth for
/// common_test's equivalence check and as BM_Crc64's baseline arm; use
/// crc64() everywhere else.
inline uint64_t crc64_reference(const void* data, size_t len,
                                uint64_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& table = kCrc64Tables[0];
  uint64_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace detail

/// One-shot CRC64 of a buffer (slice-by-16).
inline uint64_t crc64(const void* data, size_t len, uint64_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = detail::kCrc64Tables;
  uint64_t crc = ~seed;
  while (len >= 16) {
    // The running CRC folds into the first word; the second word's
    // lookups are independent of it, which doubles the bytes retired per
    // step of the serial dependency chain.
    const uint64_t a = crc ^ detail::load_le64(p);
    const uint64_t b = detail::load_le64(p + 8);
    crc = t[15][a & 0xff] ^ t[14][(a >> 8) & 0xff] ^
          t[13][(a >> 16) & 0xff] ^ t[12][(a >> 24) & 0xff] ^
          t[11][(a >> 32) & 0xff] ^ t[10][(a >> 40) & 0xff] ^
          t[9][(a >> 48) & 0xff] ^ t[8][a >> 56] ^
          t[7][b & 0xff] ^ t[6][(b >> 8) & 0xff] ^
          t[5][(b >> 16) & 0xff] ^ t[4][(b >> 24) & 0xff] ^
          t[3][(b >> 32) & 0xff] ^ t[2][(b >> 40) & 0xff] ^
          t[1][(b >> 48) & 0xff] ^ t[0][b >> 56];
    p += 16;
    len -= 16;
  }
  if (len >= 8) {
    const uint64_t a = crc ^ detail::load_le64(p);
    crc = t[7][a & 0xff] ^ t[6][(a >> 8) & 0xff] ^
          t[5][(a >> 16) & 0xff] ^ t[4][(a >> 24) & 0xff] ^
          t[3][(a >> 32) & 0xff] ^ t[2][(a >> 40) & 0xff] ^
          t[1][(a >> 48) & 0xff] ^ t[0][a >> 56];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace nvmecr
