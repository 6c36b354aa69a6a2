// Cost constants for the kernel IO path (Figure 2's stack) that more
// than one model charges: LocalFs, the Lustre client and NVMe-CR's
// kernel-path configuration.
//
// Calibration sources: syscall entry/exit on Skylake-era CPUs is ~1.3 us
// with mitigations; the block layer + interrupt completion path costs a
// few microseconds per request. Only LocalFs charges the page-cache copy
// bandwidth and the request split size, so those live in localfs.cc. The
// *filesystem* writeback pipeline (journaling, allocation serialization)
// is what separates ext4 from XFS — see LocalFsParams.
#pragma once

#include "common/units.h"

namespace nvmecr::kernelfs {

using namespace nvmecr::literals;

/// User->kernel->user transition per syscall.
inline constexpr SimDuration kSyscallTrap = 1300;  // ns
/// VFS work per operation: fd lookup, dentry walk, permission checks.
inline constexpr SimDuration kVfsPerOp = 700;  // ns
/// Block-layer request setup (bio alloc, tagging, doorbell).
inline constexpr SimDuration kBlockLayerPerReq = 3_us;
/// Interrupt + softirq completion handling per request.
inline constexpr SimDuration kInterruptPerReq = 3_us;

}  // namespace nvmecr::kernelfs
