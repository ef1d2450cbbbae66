// Discrete-event simulation core.
//
// A `Scheduler` owns the virtual clock and a time-ordered event queue.
// Events scheduled for the same instant execute in scheduling order
// (FIFO by sequence number), which makes every simulation in this library
// fully deterministic for a given seed. Every ScheduleAt / ScheduleAfter /
// ResumeLater call consumes exactly one sequence number, so the global
// execution order is the strict (time, sequence) order of those calls.
//
// Internals are built for the hot path (see docs/engine.md):
//
//  * Callbacks are `EventFn` — small-buffer-optimised closures. Storage
//    is SoA: the hot per-event metadata (sequence number, chain link and
//    heap position, 24 bytes) lives in `meta_`, while the 48-byte closure
//    payload sits in a parallel chunked store and is only touched twice
//    per event (store on schedule, move-out on fire). Chunking means
//    growth never relocates live closures.
//  * The pending set is one 4-ary min-heap of *same-time chains*. A chain
//    is every pending event at one timestamp, linked in scheduling order;
//    the heap holds one entry per chain, ranked by (time, head sequence
//    number) as a single unsigned 128-bit value, and each chain head
//    records its heap position.
//  * A ScheduleAt at the same instant as the previous ScheduleAt appends
//    to that chain in O(1) (a one-entry "last tail"); anything else
//    starts a new chain. Several chains may share an instant: each is
//    sequence-sorted and the heap merges their heads by sequence, so the
//    order stays exact. Popping a chain head re-keys the root to the next
//    link.
//  * `Cancel` and `RescheduleAfter` of a chain's sole member erase or
//    re-key its heap entry in place. Inside a longer chain they stay lazy:
//    the closure is destroyed (or moved on) and the dead link is unhooked
//    when the chain reaches it. Accounting (`pending_events`) is exact
//    either way, and a stale cancel returns false.
//  * `ResumeLater` bypasses the heap entirely: raw coroutine handles go
//    through a FIFO ring (the fast lane) and are interleaved with timed
//    events by sequence number, preserving the deterministic order while
//    making the dominant wake-up path allocation-free and O(1).
//
// Clock semantics of `Run(until)`: the clock never advances beyond
// `until`, and when the run stops at the time limit — whether because the
// next event lies beyond `until` or because the queue drained before
// reaching it — the clock lands exactly on `until` (when finite).
// Draining an unbounded `Run()` leaves the clock at the last executed
// event.
//
// Higher layers rarely post raw callbacks; they write C++20 coroutine
// processes (see process.h) whose suspensions are implemented on top of
// this queue.
#ifndef WIMPY_SIM_SCHEDULER_H_
#define WIMPY_SIM_SCHEDULER_H_

#include <algorithm>
#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/units.h"
#include "sim/event_fn.h"

namespace wimpy::sim {

// Identifies a scheduled event for cancellation. Packed
// {sequence:40, slot:24}; 0 is never a valid id. Sequence numbers are
// globally unique, so an id goes stale the moment its event fires or is
// cancelled, and a stale Cancel is a cheap, exact no-op (returns false)
// instead of corrupting accounting.
using EventId = std::uint64_t;

class Scheduler {
 public:
  Scheduler() = default;
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Current simulated time in seconds.
  SimTime now() const { return now_; }

  // Schedules `fn` at absolute time `t` (clamped to now if in the past).
  EventId ScheduleAt(SimTime t, EventFn fn);

  // Schedules `fn` after `delay` seconds (negative treated as 0).
  EventId ScheduleAfter(Duration delay, EventFn fn);

  // Cancels a pending event: O(log d) for a chain's sole member, whose
  // heap entry goes at once, O(1) otherwise (d = pending chains). Returns
  // false if it already ran or was cancelled before.
  bool Cancel(EventId id);

  // Re-arms a pending event at `now + delay`, keeping its closure: the
  // semantic equivalent of Cancel(id) + ScheduleAfter(delay, same fn) —
  // the event consumes a fresh sequence number, so ordering against other
  // events is identical — without destroying and reconstructing the
  // closure. When the event is the tail of its timestamp chain (the
  // overwhelmingly common case for the arm/cancel/re-arm pattern of
  // FairShareServer::Reschedule), its slot is reused in place, saving the
  // slot free/acquire pair; a sole-member chain is re-keyed in the heap
  // without leaving anything behind. Returns the new EventId (the old one
  // goes stale), or 0 if `id` already ran or was cancelled — the caller
  // should then schedule afresh.
  EventId RescheduleAfter(EventId id, Duration delay);

  // Schedules a coroutine resumption at the current time via the fast
  // lane: the raw handle is pushed onto a FIFO ring (no allocation, no
  // heap operation) and drained in (time, sequence) order exactly as if
  // it had been scheduled with ScheduleAt(now(), ...).
  void ResumeLater(std::coroutine_handle<> handle);

  // Drains the queue until it is empty, `until` is passed, or `max_events`
  // have run. The clock never advances beyond `until`; if the run stops at
  // the time limit (next event beyond `until`, or queue drained with
  // `until` finite) the clock lands exactly on `until`. Returns the number
  // of events executed.
  std::size_t Run(SimTime until = std::numeric_limits<SimTime>::infinity(),
                  std::size_t max_events =
                      std::numeric_limits<std::size_t>::max());

  // Executes exactly one event if available. Returns false on empty queue.
  bool Step() {
    return Run(std::numeric_limits<SimTime>::infinity(), 1) == 1;
  }

  bool empty() const { return pending_events() == 0; }
  std::size_t pending_events() const {
    return live_scheduled_ + ring_count_;
  }
  std::size_t executed_events() const { return executed_events_; }

  // Opt-in per-event execution hook (obs::Tracer wires this up; see
  // docs/observability.md). Called after the clock lands on the event's
  // time and immediately before its closure or coroutine runs, with the
  // event's execution time and global sequence number. Null by default;
  // the disabled path costs one predictable branch per executed event
  // (pinned <= 2% by bench_engine_micro's BM_SchedulerEventThroughput
  // against BENCH_engine.json). Pass (nullptr, nullptr) to detach.
  using ExecuteHook = void (*)(void* ctx, SimTime time, std::uint64_t seq);
  void SetExecuteHook(ExecuteHook hook, void* ctx) {
    exec_hook_ = hook;
    exec_hook_ctx_ = ctx;
  }

  // Introspection counters for tests and benchmarks.
  // Closures whose captures exceeded EventFn::kInlineCapacity and spilled
  // to the heap. The library's own call sites keep this at zero.
  std::uint64_t fn_heap_allocations() const { return fn_heap_allocs_; }
  // Wake-ups that took the fast lane instead of the heap.
  std::uint64_t fast_lane_resumes() const { return fast_lane_resumes_; }

 private:
  // A heap entry: (time bits << 64) | key, where key packs {seq:40,
  // slot:24} of the chain's current head. Times are never negative and
  // non-negative doubles order like their bit patterns (-0.0 is
  // normalised on entry), so one unsigned compare orders by time and
  // breaks ties FIFO.
  using Rank = unsigned __int128;
  // Hot per-event metadata (SoA: the closure payload lives in the
  // parallel chunked store, see FnAt). `seq` is the event's unique
  // sequence number (0 = slot free); an empty FnAt(slot) on an occupied
  // slot marks a cancelled event awaiting removal when its chain reaches
  // it. `next_key` is the full key {seq:40, slot:24} of the next
  // same-time event, or kNullKey at the chain tail. `heap_pos` is the
  // index of the chain's heap entry while the slot heads a chain, else
  // kNotHead.
  struct SlotMeta {
    std::uint64_t seq = 0;
    std::uint64_t next_key = kNullKey;
    std::uint32_t heap_pos = kNotHead;
  };
  struct RingEntry {
    std::coroutine_handle<> handle;
    std::uint64_t seq;
  };

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kNullKey = 0;  // real keys are >= 1<<24
  static constexpr std::uint32_t kNotHead = 0xffffffffu;

  // Closure payloads live in fixed-size chunks (4096 x 48 B = 192 KiB)
  // indexed by slot. Unlike a flat vector, growing by a chunk never
  // move-relocates the EventFns already in flight — with 100k+ pending
  // events that relocation storm used to dominate the schedule path.
  // Chunks are raw storage: a slot's EventFn is placement-new'd the
  // first time the slot is acquired (slots below the high-water mark
  // stay constructed, empty, across freelist reuse; the destructor
  // destroys exactly [0, meta_.size())), so a fresh chunk costs one
  // allocation instead of a 4096-element value-initialisation sweep.
  static constexpr unsigned kFnChunkBits = 12;
  static constexpr std::size_t kFnChunkSize = 1u << kFnChunkBits;

  static Rank RankOf(SimTime t, std::uint64_t key) {
    const double normalised = t + 0.0;  // -0.0 -> +0.0
    return (static_cast<Rank>(std::bit_cast<std::uint64_t>(normalised))
            << 64) |
           key;
  }
  static SimTime TimeOf(Rank r) {
    return std::bit_cast<SimTime>(static_cast<std::uint64_t>(r >> 64));
  }
  static std::uint64_t KeyOf(Rank r) { return static_cast<std::uint64_t>(r); }
  static std::uint32_t SlotOf(std::uint64_t key) {
    return static_cast<std::uint32_t>(key & kSlotMask);
  }
  static std::uint64_t ChainKey(std::uint64_t seq, std::uint32_t slot) {
    return (seq << kSlotBits) | slot;
  }

  std::uint32_t AcquireSlot();
  // Links an occupied slot (seq already assigned) into the pending set at
  // time `t` — onto the last tail when it is at `t`, else as a new
  // chain — and returns its key.
  EventId LinkSlot(std::uint32_t slot, std::uint64_t seq, SimTime t);
  EventFn& FnAt(std::uint32_t slot) {
    return reinterpret_cast<EventFn*>(
        fn_chunks_[slot >> kFnChunkBits].get())[slot & (kFnChunkSize - 1)];
  }
  void FreeSlot(std::uint32_t slot) {
    FnAt(slot).Reset();
    meta_[slot].seq = 0;  // stale EventIds and tails fail validation
    free_slots_.push_back(slot);
  }

  // Indexed 4-ary heap. Every write of an entry goes through Place, which
  // records the position in the head slot's metadata.
  void Place(std::size_t pos, Rank r) {
    heap_[pos] = r;
    meta_[SlotOf(KeyOf(r))].heap_pos = static_cast<std::uint32_t>(pos);
  }
  void HeapPush(Rank r);
  void HeapErase(std::size_t pos);
  // Gives the entry at `pos` a new rank and restores the heap order.
  void HeapRekey(std::size_t pos, Rank r);
  void SiftUp(std::size_t pos, Rank r);
  // Two ways down. SiftDown stops as soon as `r` fits, for a rank that
  // usually stays put: the root chain's next link. SinkHole walks the
  // hole at `pos` to a leaf along the smaller children and sifts `r` up
  // from there, one compare fewer per level, for a rank that belongs
  // near the bottom: the heap's last entry, or a timer re-armed later.
  void SiftDown(std::size_t pos, Rank r);
  void SinkHole(std::size_t pos, Rank r);
  // The smallest of the (up to four) children of `pos`, which has one.
  std::size_t MinChild(std::size_t pos) const {
    const std::size_t first = (pos << 2) + 1;
    const std::size_t end = std::min(first + 4, heap_.size());
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c] < heap_[best]) best = c;
    }
    return best;
  }
  // The root chain's head is gone: re-keys the root to `next_key`, or
  // removes it when the chain ends there (null link, or a tail that was
  // re-armed elsewhere and so carries a newer sequence number).
  void AdvanceRoot(std::uint64_t next_key);
  // Drops cancelled heads off the root chain (freeing their slots) until
  // the heap is empty or its root names a live event.
  void ResolveTop();

  // True when the next event in (time, seq) order is the ring front.
  // Precondition: ResolveTop() ran.
  bool TakeRingNext() const;
  void RingPush(std::coroutine_handle<> handle, std::uint64_t seq);
  RingEntry RingPop();
  void RingGrow();

  // Executes the globally minimal pending event.
  // Precondition: ResolveTop() ran and pending_events() > 0.
  void ExecuteNext();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::size_t executed_events_ = 0;
  std::size_t live_scheduled_ = 0;

  std::vector<Rank> heap_;
  std::vector<SlotMeta> meta_;
  std::vector<std::unique_ptr<std::byte[]>> fn_chunks_;
  std::vector<std::uint32_t> free_slots_;

  // The chain the last LinkSlot touched: its time and its tail's key.
  // The tail is still usable iff its slot holds the same sequence number
  // and has no successor.
  SimTime last_time_ = 0.0;
  std::uint64_t last_tail_ = kNullKey;

  // Fast-lane FIFO ring (power-of-two capacity).
  std::vector<RingEntry> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;

  std::uint64_t fn_heap_allocs_ = 0;
  std::uint64_t fast_lane_resumes_ = 0;

  ExecuteHook exec_hook_ = nullptr;
  void* exec_hook_ctx_ = nullptr;
};

}  // namespace wimpy::sim

#endif  // WIMPY_SIM_SCHEDULER_H_
