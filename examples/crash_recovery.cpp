// Crash recovery walkthrough — what survives when an application dies
// mid-run and how the runtime reconstructs itself (§III-E "Metadata
// Provenance": state checkpoint + operation-log replay).
//
// The scenario: a rank writes three checkpoints; the background state
// checkpointer persists DRAM state once along the way; the process then
// "crashes" (no clean shutdown). A new runtime instance mounts the same
// partition, loads the newest internal state checkpoint, replays the
// log's tail, and the newest application checkpoint verifies intact.
//
// Run:  ./build/examples/crash_recovery
#include <cstdio>

#include "hw/ram_device.h"
#include "microfs/microfs.h"
#include "simcore/engine.h"

using namespace nvmecr;
using namespace nvmecr::literals;

namespace {

sim::Task<void> scenario(sim::Engine& eng, hw::RamDevice& dev) {
  microfs::Options options;
  options.log_slots = 64;  // small ring: forces a mid-run state checkpoint
  options.checkpoint_free_threshold = 0.5;
  options.coalesce_window = 0;  // every op takes a slot (visible mechanics)

  uint32_t live_records = 0;
  {
    auto fs = (co_await microfs::MicroFs::format(eng, dev, options)).value();
    for (int step = 0; step < 3; ++step) {
      char name[32];
      std::snprintf(name, sizeof(name), "/step%02d.ckpt", step);
      const int fd = (co_await fs->creat(name)).value();
      for (int i = 0; i < 12; ++i) {
        NVMECR_CHECK((co_await fs->write_tagged(fd, 1_MiB)).ok());
      }
      NVMECR_CHECK((co_await fs->close(fd)).ok());
      std::printf("step %d written: log %u/%u slots free, %llu state "
                  "checkpoint(s) so far\n",
                  step, fs->log_free_slots(), fs->log_capacity(),
                  static_cast<unsigned long long>(
                      fs->stats().state_checkpoints));
    }
    live_records = fs->log_capacity() - fs->log_free_slots();
    std::printf("\n*** simulated crash: instance destroyed without "
                "shutdown ***\n\n");
    // unique_ptr goes out of scope; nothing is flushed — by design
    // everything already on the device is durable (§III-D). The state
    // checkpoint the last close queued dies with it, unstarted.
  }

  auto fs = (co_await microfs::MicroFs::recover(eng, dev, options)).value();
  std::printf("recovery: loaded state checkpoint + replayed %llu log "
              "records\n",
              static_cast<unsigned long long>(fs->stats().replayed_records));
  NVMECR_CHECK(fs->stats().replayed_records == live_records);

  auto names = fs->readdir("/");
  std::printf("namespace after recovery:");
  for (const auto& n : *names) std::printf(" %s", n.c_str());
  std::printf("\n");

  for (const auto& n : *names) {
    Status s = co_await fs->verify_tagged("/" + n);
    std::printf("  /%s: %llu MiB, content %s\n", n.c_str(),
                static_cast<unsigned long long>(fs->stat("/" + n)->size >> 20),
                s.ok() ? "VERIFIED" : s.to_string().c_str());
    NVMECR_CHECK(s.ok());
  }

  // The device-resident directory file (§III-E: the root directory is a
  // file on the SSD partition) agrees with the recovered namespace.
  auto stream = co_await fs->read_dirfile("/");
  auto live = microfs::live_view(*stream);
  std::printf("device-resident root dirfile lists %zu live entries "
              "(matches namespace: %s)\n",
              live.size(), live.size() == names->size() ? "yes" : "NO");
  NVMECR_CHECK(live.size() == names->size());
}

}  // namespace

int main() {
  sim::Engine eng;
  hw::RamDevice dev(256_MiB, 4096);
  eng.run_task(scenario(eng, dev));
  std::printf("crash_recovery OK\n");
  return 0;
}
