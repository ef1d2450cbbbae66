#include "ring_count.h"

#include <atomic>

#include "shard/ring.h"

namespace {
std::atomic<std::uint64_t> g_ring_builds{0};
}  // namespace

// The linker (--wrap) sends every call of the complete-object constructor
// shard::Ring::Ring(const RingConfig&) made from another object file here,
// and resolves __real_ to the library's constructor. Weak, so the build
// still links if the constructor ever becomes inline (the count then
// reads 0 instead of failing the build).
extern "C" {
void __real__ZN5wimpy5shard4RingC1ERKNS0_10RingConfigE(
    wimpy::shard::Ring* self, const wimpy::shard::RingConfig& config)
    __attribute__((weak));

void __wrap__ZN5wimpy5shard4RingC1ERKNS0_10RingConfigE(
    wimpy::shard::Ring* self, const wimpy::shard::RingConfig& config) {
  g_ring_builds.fetch_add(1, std::memory_order_relaxed);
  __real__ZN5wimpy5shard4RingC1ERKNS0_10RingConfigE(self, config);
}
}

namespace perfbench {

std::uint64_t RingBuilds() {
  return g_ring_builds.load(std::memory_order_relaxed);
}

}  // namespace perfbench
