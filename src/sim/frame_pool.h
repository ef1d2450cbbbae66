// Thread-local recycling pool for coroutine frames and other fixed-size
// steady-state allocations (docs/scale.md).
//
// Every co_await'd Task and every spawned Process allocates one coroutine
// frame; at 100k+ connections those frames are THE steady-state heap
// traffic of the model layer. Frame sizes are a small fixed set (one per
// coroutine function), so a size-bucketed freelist turns the serve path's
// allocate/free churn into pointer pushes after warm-up — zero heap
// blocks per request (tests/model_alloc_test.cc pins this).
//
// Design:
//  * Buckets of 16 bytes up to 4 KiB; larger requests fall through to
//    ::operator new (rare: no model-layer frame is that big). Every block
//    comes from ::operator new, so it keeps that 16-byte alignment, and
//    glibc's malloc rounds to 16 bytes anyway: finer classes would save
//    nothing. Coarser ones are dead padding in every in-flight frame;
//    64-byte classes held 1,088 B per in-flight web call where 16-byte
//    classes hold 976 B.
//  * Thread-local caches, no locks and no cross-thread coordination:
//    replications are single-threaded by contract (sim/replication.h),
//    so a frame is freed on the thread that allocated it and the pool
//    adds no synchronization the TSan build would have to reason about.
//    A block freed on a foreign thread (harmless: sweeps reuse worker
//    threads) simply migrates to that thread's cache.
//  * Memory is retained until thread exit — the high-water set of a
//    replication, reused by every subsequent replication on the worker.
//    PoolHighWaterBytes() reads that set's size: a diagnostic counter
//    (one add per alloc, one subtract per free), not a knob.
//
// Under ASan the pool is compiled out (plain new/delete) so recycling
// does not mask use-after-free of coroutine frames.
#ifndef WIMPY_SIM_FRAME_POOL_H_
#define WIMPY_SIM_FRAME_POOL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WIMPY_FRAME_POOL_DISABLED 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define WIMPY_FRAME_POOL_DISABLED 1
#endif

namespace wimpy::sim {

#if defined(WIMPY_FRAME_POOL_DISABLED)

inline void* PoolAlloc(std::size_t bytes) {
  return ::operator new(bytes == 0 ? 1 : bytes);
}
inline void PoolFree(void* p, std::size_t /*bytes*/) noexcept {
  ::operator delete(p);
}
inline std::int64_t PoolHighWaterBytes() { return 0; }

#else

namespace internal_pool {

inline constexpr std::size_t kGranularity = 16;
inline constexpr std::size_t kMaxPooled = 4096;
inline constexpr std::size_t kBuckets = kMaxPooled / kGranularity;

struct FreeNode {
  FreeNode* next;
};

struct ThreadCache {
  FreeNode* buckets[kBuckets] = {};
  // Bucket-rounded bytes handed out and not yet returned to this cache
  // (a block freed on a foreign thread counts there, so the figure is
  // signed), and its peak since the thread started.
  std::int64_t in_use_bytes = 0;
  std::int64_t high_water_bytes = 0;
  ~ThreadCache() {
    for (FreeNode* node : buckets) {
      while (node != nullptr) {
        FreeNode* next = node->next;
        ::operator delete(node);
        node = next;
      }
    }
  }
};

inline ThreadCache& Cache() {
  thread_local ThreadCache cache;
  return cache;
}

inline std::size_t BucketFor(std::size_t bytes) {
  return (bytes + kGranularity - 1) / kGranularity - 1;
}

}  // namespace internal_pool

inline void* PoolAlloc(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  if (bytes > internal_pool::kMaxPooled) return ::operator new(bytes);
  const std::size_t b = internal_pool::BucketFor(bytes);
  auto& cache = internal_pool::Cache();
  cache.in_use_bytes +=
      static_cast<std::int64_t>((b + 1) * internal_pool::kGranularity);
  cache.high_water_bytes =
      std::max(cache.high_water_bytes, cache.in_use_bytes);
  if (internal_pool::FreeNode* node = cache.buckets[b]) {
    cache.buckets[b] = node->next;
    return node;
  }
  return ::operator new((b + 1) * internal_pool::kGranularity);
}

inline void PoolFree(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes == 0) bytes = 1;
  if (bytes > internal_pool::kMaxPooled) {
    ::operator delete(p);
    return;
  }
  auto* node = static_cast<internal_pool::FreeNode*>(p);
  auto& cache = internal_pool::Cache();
  const std::size_t b = internal_pool::BucketFor(bytes);
  cache.in_use_bytes -=
      static_cast<std::int64_t>((b + 1) * internal_pool::kGranularity);
  node->next = cache.buckets[b];
  cache.buckets[b] = node;
}

// Peak pooled bytes this thread has had handed out at once: what the
// pool retains once that peak has passed (0 with the pool off).
inline std::int64_t PoolHighWaterBytes() {
  return internal_pool::Cache().high_water_bytes;
}

#endif  // WIMPY_FRAME_POOL_DISABLED

// Minimal allocator over the pool, for containers and control blocks
// that live on the steady-state path (e.g. the Process shared state via
// std::allocate_shared).
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(PoolAlloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    PoolFree(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace wimpy::sim

#endif  // WIMPY_SIM_FRAME_POOL_H_
