// Redundancy schemes for fast-tier checkpoints (§III-F resilience,
// Table II trade space).
//
// The paper's balancer already places a rank's checkpoint data in a
// partner failure domain, so a single domain loss never takes out a
// process *and* its data. What it does not give is durability of the
// data itself: a fast-tier checkpoint written between PFS intervals
// simply vanishes with its domain. The redundancy engine adds the two
// classic intermediate levels between "none" and "full PFS copy"
// (SCR/JASS-style multi-level schemes):
//
//   kNone     baseline — fast-tier data has one copy; domain loss falls
//             back to the (older) PFS checkpoint.
//   kPartner  full replica of every fast-tier file on an SSD in a
//             partner failure domain (2x write volume, instant rebuild).
//   kXor      RAID-5-style parity across erasure sets of K ranks whose
//             primary SSDs span distinct failure domains; each member
//             stores a parity segment of ~1/(K-1) of its checkpoint on
//             a partner SSD. Any single member's loss is rebuilt from
//             the K-1 survivors plus the parity segments.
//   kXorTarget  same erasure geometry, but the parity fold is offloaded
//             to the NVMe-oF target holding the segment (DESIGN.md
//             "Offload pipeline"): hosts ship no parity bytes — the
//             target XORs already-landed data, paying target compute
//             plus a tiny east-west digest-word exchange, and writes
//             the segment through a target-local (loopback) session.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/units.h"

namespace nvmecr::redundancy {

using namespace nvmecr::literals;

enum class Scheme : uint8_t { kNone, kPartner, kXor, kXorTarget };

/// Both XOR variants share placement, parity algebra, and decode; they
/// differ in *where* the encode runs and what crosses the fabric.
inline bool is_xor(Scheme s) {
  return s == Scheme::kXor || s == Scheme::kXorTarget;
}

inline const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kNone:
      return "none";
    case Scheme::kPartner:
      return "partner";
    case Scheme::kXor:
      return "xor";
    case Scheme::kXorTarget:
      return "xor-target";
  }
  return "?";
}

/// Parses the --redundancy=none|partner|xor|xor-target knob.
inline std::optional<Scheme> parse_scheme(std::string_view name) {
  if (name == "none") return Scheme::kNone;
  if (name == "partner") return Scheme::kPartner;
  if (name == "xor") return Scheme::kXor;
  if (name == "xor-target") return Scheme::kXorTarget;
  return std::nullopt;
}

/// Erasure-set size K for the XOR schemes (K-1 data shares per parity
/// share, so the write overhead is ~1/(K-1)). Needs at least K distinct
/// storage failure domains.
inline constexpr uint32_t kXorSetSize = 4;

}  // namespace nvmecr::redundancy
