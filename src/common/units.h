// Size and time units used throughout the runtime and the simulation.
//
// Simulated time is kept in integer nanoseconds (SimTime). Bandwidths are
// bytes/second. Helper literals keep device specs readable:
//   32_KiB, 2_GiB, 10_us, 2500_MBps ...
#pragma once

#include <cstdint>

namespace nvmecr {

/// Simulated time in nanoseconds since engine start.
using SimTime = int64_t;
/// Simulated duration in nanoseconds.
using SimDuration = int64_t;

inline constexpr SimDuration kNanosecond = 1;
inline constexpr SimDuration kMicrosecond = 1000;
inline constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;

namespace literals {

constexpr uint64_t operator""_KiB(unsigned long long v) { return v << 10; }
constexpr uint64_t operator""_MiB(unsigned long long v) { return v << 20; }
constexpr uint64_t operator""_GiB(unsigned long long v) { return v << 30; }

constexpr SimDuration operator""_ns(unsigned long long v) { return static_cast<SimDuration>(v); }
constexpr SimDuration operator""_us(unsigned long long v) { return static_cast<SimDuration>(v) * kMicrosecond; }
constexpr SimDuration operator""_ms(unsigned long long v) { return static_cast<SimDuration>(v) * kMillisecond; }
constexpr SimDuration operator""_s(unsigned long long v) { return static_cast<SimDuration>(v) * kSecond; }

/// Bandwidth literals in bytes per second (decimal, as vendors quote).
constexpr uint64_t operator""_MBps(unsigned long long v) { return v * 1000ull * 1000ull; }
constexpr uint64_t operator""_GBps(unsigned long long v) { return v * 1000ull * 1000ull * 1000ull; }

}  // namespace literals

/// Duration of transferring `bytes` at `bytes_per_sec`, rounded up to 1 ns.
/// A zero rate is treated as infinitely fast (0 ns), used by instant
/// (non-simulated) devices.
constexpr SimDuration transfer_time(uint64_t bytes, uint64_t bytes_per_sec) {
  if (bytes_per_sec == 0 || bytes == 0) return 0;
  // ns = bytes * 1e9 / rate. The product fits 64 bits up to ~18.4 GB;
  // only larger (multi-TiB) transfers pay for the 128-bit divide.
  if (bytes <= UINT64_MAX / kSecond) {
    const uint64_t ns = bytes * kSecond / bytes_per_sec;
    return ns > 0 ? static_cast<SimDuration>(ns) : 1;
  }
  const auto ns = static_cast<__int128>(bytes) * kSecond / bytes_per_sec;
  return ns > 0 ? static_cast<SimDuration>(ns) : 1;
}

/// Seconds as double, for reporting.
constexpr double to_seconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

/// Bandwidth in bytes/sec given bytes moved over a simulated duration.
constexpr double bandwidth_bps(uint64_t bytes, SimDuration d) {
  if (d <= 0) return 0.0;
  return static_cast<double>(bytes) / to_seconds(d);
}

constexpr double to_gib(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0);
}
constexpr double to_mib(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Integer ceiling division.
constexpr uint64_t ceil_div(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// Round `v` up to a multiple of `align` (align must be nonzero).
constexpr uint64_t round_up(uint64_t v, uint64_t align) {
  return ceil_div(v, align) * align;
}

}  // namespace nvmecr
