// Minimal leveled diagnostic logging. Off by default so bench output stays
// clean; enable with NVMECR_LOG=debug|info|warn in the environment.
//
// The tagged macros NVMECR_SLOG_* name the emitting subsystem, e.g.
//   [WARN] [oplog] operation log hole after lsn 41; ...
// Lines carry no clock prefix: a log site that needs the sim time
// formats its own engine's now() into the message.
#pragma once

#include <cstdarg>
#include <cstdio>

namespace nvmecr {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kOff = 3 };

/// Current threshold, parsed once from $NVMECR_LOG.
LogLevel log_threshold();

/// printf-style log statement; no-op below the threshold. `subsystem` is
/// an optional tag printed after the level (nullptr to omit).
void log_message_tagged(LogLevel level, const char* subsystem, const char* fmt,
                        ...) __attribute__((format(printf, 3, 4)));

#define NVMECR_LOG_DEBUG(...) \
  ::nvmecr::log_message_tagged(::nvmecr::LogLevel::kDebug, nullptr, __VA_ARGS__)
#define NVMECR_LOG_INFO(...) \
  ::nvmecr::log_message_tagged(::nvmecr::LogLevel::kInfo, nullptr, __VA_ARGS__)
#define NVMECR_LOG_WARN(...) \
  ::nvmecr::log_message_tagged(::nvmecr::LogLevel::kWarn, nullptr, __VA_ARGS__)

// Subsystem-tagged variants: NVMECR_SLOG_WARN("oplog", "ring full ...").
#define NVMECR_SLOG_DEBUG(subsystem, ...) \
  ::nvmecr::log_message_tagged(::nvmecr::LogLevel::kDebug, subsystem, __VA_ARGS__)
#define NVMECR_SLOG_INFO(subsystem, ...) \
  ::nvmecr::log_message_tagged(::nvmecr::LogLevel::kInfo, subsystem, __VA_ARGS__)
#define NVMECR_SLOG_WARN(subsystem, ...) \
  ::nvmecr::log_message_tagged(::nvmecr::LogLevel::kWarn, subsystem, __VA_ARGS__)

}  // namespace nvmecr
