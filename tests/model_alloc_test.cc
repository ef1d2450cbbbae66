// Allocation-regression guard for the steady-state request path
// (docs/scale.md): after warmup, serving one more web request or KV query
// must cost zero heap blocks — coroutine frames come from the frame pool,
// connection/call state from pooled slots, and routing from id-indexed
// tables. A change that reintroduces per-request allocation (a string
// key, a per-transfer spawned process, an unpooled frame) shows up here
// as a nonzero per-request allocation rate.
//
// Method: the test binary replaces global operator new/delete with
// counting versions, then measures the SAME experiment twice with
// different window lengths. Testbed construction and per-window
// bookkeeping cancel in the difference, so
//   (allocs_long - allocs_short) / (requests_long - requests_short)
// is the marginal heap cost per request. Amortized container doubling
// and histogram growth contribute O(log requests), absorbed by the
// epsilon.
//
// The same file pins the pooled side: the in-flight state a saturated
// web run holds per call at its peak (frame-pool high-water bytes over
// peak calls in flight), and the one-pointer size of the spans every
// request-path frame carries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>

#include "hw/profiles.h"
#include "kv/experiment.h"
#include "obs/energy.h"
#include "obs/tracer.h"
#include "sim/frame_pool.h"
#include "web/service.h"
#include "web/workload.h"

// An off span or residency is one null pointer in its coroutine frame.
static_assert(sizeof(wimpy::obs::CausalSpan) == sizeof(void*));
static_assert(sizeof(wimpy::obs::ScopedResidency) == sizeof(void*));

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void CountAlloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

// Global replacements (C++ [replacement.functions]): every heap block the
// process allocates while g_counting is set is counted, including the
// fall-through path of the frame pool.
//
// The four base forms stay out of line, as the library's own are, and
// every other form forwards to one of them. Inlined into a
// new-expression, malloc on one side and free on the other would meet
// and GCC would flag the pair (-Wmismatched-new-delete), though both are
// these hooks.
[[gnu::noinline]] void* operator new(std::size_t size) {
  CountAlloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     std::align_val_t align) {
  CountAlloc();
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }

[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t align) noexcept {
  ::operator delete(p, align);
}
void operator delete(void* p, std::size_t, std::align_val_t align) noexcept {
  ::operator delete(p, align);
}
void operator delete[](void* p, std::size_t, std::align_val_t align) noexcept {
  ::operator delete(p, align);
}

#if defined(WIMPY_FRAME_POOL_DISABLED)

// Under ASan the frame pool is compiled out on purpose (every coroutine
// frame must go through the real allocator to be poisoned), so the
// zero-allocs-per-request contract does not hold by design.
TEST(ModelAllocTest, SkippedWhenFramePoolDisabled) {
  GTEST_SKIP() << "frame pool disabled (sanitizer build)";
}

#else

namespace wimpy {
namespace {

// Runs `body` with counting enabled and returns the number of heap
// blocks allocated during it.
template <typename Fn>
std::uint64_t CountedAllocs(Fn&& body) {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  body();
  g_counting.store(false, std::memory_order_relaxed);
  return g_alloc_count.load(std::memory_order_relaxed);
}

constexpr double kMaxAllocsPerRequest = 0.02;

TEST(ModelAllocTest, WebServePathAllocatesNothingPerRequest) {
  web::WebTestbedConfig cfg = web::EdisonWebTestbed(3, 2);
  cfg.seed = 4242;
  web::WebExperiment exp(std::move(cfg));
  const double concurrency = 64;
  const int calls = web::WebExperiment::TunedCallsPerConnection(concurrency);

  // Warmup replication: fills the frame pool and the connection/call
  // slot pools to their steady-state high-water marks.
  exp.MeasureClosedLoop(web::LightMix(), concurrency, calls, Seconds(1),
                        Seconds(4));

  double short_reqs = 0, long_reqs = 0;
  const std::uint64_t short_allocs = CountedAllocs([&] {
    const web::LevelReport r = exp.MeasureClosedLoop(
        web::LightMix(), concurrency, calls, Seconds(1), Seconds(4));
    short_reqs = r.achieved_rps * 4;
  });
  const std::uint64_t long_allocs = CountedAllocs([&] {
    const web::LevelReport r = exp.MeasureClosedLoop(
        web::LightMix(), concurrency, calls, Seconds(1), Seconds(12));
    long_reqs = r.achieved_rps * 12;
  });

  const double extra_reqs = long_reqs - short_reqs;
  ASSERT_GT(extra_reqs, 1000) << "windows too small to resolve the rate";
  const double per_request =
      (static_cast<double>(long_allocs) - static_cast<double>(short_allocs)) /
      extra_reqs;
  RecordProperty("short_allocs", static_cast<int>(short_allocs));
  RecordProperty("long_allocs", static_cast<int>(long_allocs));
  EXPECT_LT(per_request, kMaxAllocsPerRequest)
      << "web serve path allocates on the heap per request: short window "
      << short_allocs << " blocks / " << short_reqs << " reqs, long window "
      << long_allocs << " blocks / " << long_reqs << " reqs";
}

TEST(ModelAllocTest, KvGetPutPathAllocatesNothingPerQuery) {
  kv::KvExperimentConfig config;
  config.node_profile = hw::EdisonProfile();
  config.node_count = 8;
  config.seed = 4242;
  // Default mix is 90% GET / 10% PUT, covering both query paths.
  kv::KvExperiment exp(std::move(config));

  exp.Measure(500, Seconds(4));  // warmup: fill the pools

  double short_queries = 0, long_queries = 0;
  const std::uint64_t short_allocs = CountedAllocs([&] {
    const kv::KvReport r = exp.Measure(500, Seconds(4));
    short_queries = r.achieved_qps * 4;
  });
  const std::uint64_t long_allocs = CountedAllocs([&] {
    const kv::KvReport r = exp.Measure(500, Seconds(12));
    long_queries = r.achieved_qps * 12;
  });

  const double extra_queries = long_queries - short_queries;
  ASSERT_GT(extra_queries, 1000) << "windows too small to resolve the rate";
  const double per_query =
      (static_cast<double>(long_allocs) - static_cast<double>(short_allocs)) /
      extra_queries;
  RecordProperty("short_allocs", static_cast<int>(short_allocs));
  RecordProperty("long_allocs", static_cast<int>(long_allocs));
  EXPECT_LT(per_query, kMaxAllocsPerRequest)
      << "KV get/put path allocates on the heap per query: short window "
      << short_allocs << " blocks / " << short_queries << " queries, long "
      << long_allocs << " blocks / " << long_queries << " queries";
}

// In-flight-state sentinel. A closed-loop web run that saturates the
// 1 Gbps client-room uplink, as the 100k-connection macro cell does
// (here with 72 instead of 240 web servers and a 1 s window), queues
// thousands of reply flows there; each keeps its connection, ServeCall
// and Transfer frames pooled until its last byte lands. Frame-pool
// high-water bytes per peak call in flight measure that state: ~2 KB
// with a wrapper frame per transfer and by-value span state in every
// frame, ~1.1 KB without, and ~1 KB once the pool's size classes went
// from 64 to 16 bytes. The run gets a fresh thread so its pool starts
// empty and the high-water mark is this run's alone.
TEST(ModelAllocTest, InFlightStatePerCallStaysSmall) {
  std::int64_t high_water_bytes = 0;
  std::int64_t peak_calls = 0;
  double served_per_s = 0;
  std::thread run([&] {
    web::WebTestbedConfig cfg = web::EdisonWebTestbed(72, 33);
    cfg.client_machines = 24;
    cfg.seed = 4242;
    web::WebExperiment exp(std::move(cfg));
    const web::LevelReport r = exp.MeasureClosedLoop(
        web::HeavyMix(), /*concurrency=*/10000, 2, Seconds(1), Seconds(1));
    high_water_bytes = sim::PoolHighWaterBytes();
    peak_calls = r.peak_calls_in_flight;
    served_per_s = r.achieved_rps;
  });
  run.join();

  // Saturated: the uplink caps service near its ~18.6k calls/s, so calls
  // pile up in flight.
  ASSERT_GT(peak_calls, 2000) << "run not saturated; " << served_per_s
                              << " calls/s served";
  const double per_call = static_cast<double>(high_water_bytes) /
                          static_cast<double>(peak_calls);
  RecordProperty("pool_high_water_bytes", static_cast<int>(high_water_bytes));
  RecordProperty("peak_calls_in_flight", static_cast<int>(peak_calls));
  EXPECT_LE(per_call, 1200.0)
      << "in-flight state per call grew: " << high_water_bytes
      << " pooled bytes at a peak of " << peak_calls << " calls";
}

}  // namespace
}  // namespace wimpy

#endif  // WIMPY_FRAME_POOL_DISABLED
