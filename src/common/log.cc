#include "common/log.h"

#include <cstdlib>
#include <cstring>

namespace nvmecr {

LogLevel log_threshold() {
  static const LogLevel level = [] {
    const char* env = std::getenv("NVMECR_LOG");
    if (env == nullptr) return LogLevel::kOff;
    if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
    if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
    if (std::strcmp(env, "warn") == 0) return LogLevel::kWarn;
    return LogLevel::kOff;
  }();
  return level;
}

void log_message_tagged(LogLevel level, const char* subsystem, const char* fmt,
                        ...) {
  if (static_cast<int>(level) < static_cast<int>(log_threshold())) return;
  static const char* names[] = {"DEBUG", "INFO", "WARN"};
  std::fprintf(stderr, "[%s] ", names[static_cast<int>(level)]);
  if (subsystem != nullptr) std::fprintf(stderr, "[%s] ", subsystem);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace nvmecr
