#include "sim/scheduler.h"

#include <cassert>
#include <cmath>
#include <new>
#include <utility>

namespace wimpy::sim {

Scheduler::~Scheduler() {
  // Chunks are raw storage; exactly the slots ever acquired hold
  // constructed EventFns (freelist reuse keeps them constructed-but-empty).
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    FnAt(static_cast<std::uint32_t>(i)).~EventFn();
  }
}

EventId Scheduler::LinkSlot(std::uint32_t slot, std::uint64_t seq,
                            SimTime t) {
  const std::uint64_t key = ChainKey(seq, slot);
  // `seq` is the newest sequence number, so appending it to any pending
  // chain at `t` keeps that chain sorted; the heap merges same-time chains
  // by head sequence, so which one it joins does not matter.
  if (t == last_time_ && last_tail_ != kNullKey) {
    SlotMeta& tail = meta_[SlotOf(last_tail_)];
    if (tail.seq == last_tail_ >> kSlotBits && tail.next_key == kNullKey) {
      tail.next_key = key;
      last_tail_ = key;
      return key;
    }
  }
  HeapPush(RankOf(t, key));
  last_time_ = t;
  last_tail_ = key;
  return key;
}

EventId Scheduler::ScheduleAt(SimTime t, EventFn fn) {
  if (t < now_) t = now_;
  if (fn.heap_allocated()) ++fn_heap_allocs_;
  const std::uint32_t slot = AcquireSlot();
  FnAt(slot) = std::move(fn);
  const std::uint64_t seq = next_seq_++;
  meta_[slot] = SlotMeta{seq, kNullKey, kNotHead};
  ++live_scheduled_;
  return LinkSlot(slot, seq, t);
}

EventId Scheduler::ScheduleAfter(Duration delay, EventFn fn) {
  if (delay < 0) delay = 0;
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool Scheduler::Cancel(EventId id) {
  const std::uint32_t slot = SlotOf(id);
  const std::uint64_t seq = id >> kSlotBits;
  if (seq == 0 || slot >= meta_.size() || meta_[slot].seq != seq ||
      !FnAt(slot)) {
    return false;  // never issued, already ran, or already cancelled
  }
  --live_scheduled_;
  const SlotMeta& m = meta_[slot];
  if (m.heap_pos != kNotHead && m.next_key == kNullKey) {
    // Sole member of its chain: the heap entry goes now.
    HeapErase(m.heap_pos);
    FreeSlot(slot);
    return true;
  }
  // Inside a longer chain: destroy the closure; the dead link is unhooked
  // when the chain reaches it.
  FnAt(slot).Reset();
  return true;
}

EventId Scheduler::RescheduleAfter(EventId id, Duration delay) {
  const std::uint32_t slot = SlotOf(id);
  const std::uint64_t seq = id >> kSlotBits;
  if (seq == 0 || slot >= meta_.size() || meta_[slot].seq != seq ||
      !FnAt(slot)) {
    return 0;  // never issued, already ran, or already cancelled
  }
  if (delay < 0) delay = 0;
  const SimTime t = now_ + delay;
  SlotMeta& m = meta_[slot];
  if (m.next_key != kNullKey) {
    // Later links would be lost if this slot were relinked, so detach the
    // closure and re-enter through the normal path (the dead link is
    // unhooked lazily, exactly as a Cancel would leave it).
    EventFn fn = std::move(FnAt(slot));
    --live_scheduled_;
    return ScheduleAt(t, std::move(fn));
  }
  // Chain tail: reuse the slot in place under a fresh sequence number.
  const std::uint64_t fresh = next_seq_++;
  m.seq = fresh;
  if (m.heap_pos != kNotHead) {
    // Sole member: re-key its heap entry.
    const std::uint64_t key = ChainKey(fresh, slot);
    HeapRekey(m.heap_pos, RankOf(t, key));
    return key;
  }
  // Tail of a longer chain: the old chain now ends at its predecessor,
  // whose link {old seq, slot} fails its sequence check when reached.
  return LinkSlot(slot, fresh, t);
}

void Scheduler::ResumeLater(std::coroutine_handle<> handle) {
  RingPush(handle, next_seq_++);
  ++fast_lane_resumes_;
}

std::uint32_t Scheduler::AcquireSlot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(meta_.size());
  assert(slot < (1ull << kSlotBits) && "too many pending events");
  if ((slot >> kFnChunkBits) == fn_chunks_.size()) {
    fn_chunks_.emplace_back(new std::byte[kFnChunkSize * sizeof(EventFn)]);
  }
  meta_.emplace_back();
  ::new (static_cast<void*>(&FnAt(slot))) EventFn();
  return slot;
}

void Scheduler::HeapPush(Rank r) {
  // First growth jumps straight to a useful capacity so warmed-up runs
  // never reallocate on the schedule path (sim_scheduler_stress_test pins
  // this with an operator-new override).
  if (heap_.size() == heap_.capacity() && heap_.capacity() < 64) {
    heap_.reserve(64);
  }
  heap_.push_back(r);
  SiftUp(heap_.size() - 1, r);
}

void Scheduler::HeapErase(std::size_t pos) {
  const Rank last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) HeapRekey(pos, last);
}

void Scheduler::HeapRekey(std::size_t pos, Rank r) {
  if (r < heap_[pos]) {
    SiftUp(pos, r);
  } else {
    SinkHole(pos, r);
  }
}

void Scheduler::SiftUp(std::size_t pos, Rank r) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) >> 2;
    if (heap_[parent] < r) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, r);
}

void Scheduler::SiftDown(std::size_t pos, Rank r) {
  while ((pos << 2) + 1 < heap_.size()) {
    const std::size_t best = MinChild(pos);
    if (r < heap_[best]) break;
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, r);
}

void Scheduler::SinkHole(std::size_t pos, Rank r) {
  while ((pos << 2) + 1 < heap_.size()) {
    const std::size_t best = MinChild(pos);
    Place(pos, heap_[best]);
    pos = best;
  }
  SiftUp(pos, r);
}

void Scheduler::AdvanceRoot(std::uint64_t next_key) {
  if (next_key != kNullKey &&
      meta_[SlotOf(next_key)].seq == next_key >> kSlotBits) {
    // Same time, later sequence number: the root can only move down.
    SiftDown(0, (heap_[0] >> 64 << 64) | next_key);
  } else {
    HeapErase(0);
  }
}

void Scheduler::ResolveTop() {
  // Every heap entry names its chain's current head, so a live head means
  // the root is accurate and the loop is O(1) on the common path.
  // Cancelled heads of longer chains are unhooked here, amortised against
  // Cancel.
  while (!heap_.empty()) {
    const std::uint32_t head = SlotOf(KeyOf(heap_[0]));
    if (FnAt(head)) return;
    const std::uint64_t next_key = meta_[head].next_key;
    FreeSlot(head);
    AdvanceRoot(next_key);
  }
}

bool Scheduler::TakeRingNext() const {
  if (ring_count_ == 0) return false;
  if (heap_.empty()) return true;
  const Rank top = heap_[0];
  // Ring entries were posted at the current instant (the clock cannot
  // advance past a pending wake-up), so any strictly-future heap event
  // loses; at the current instant the smaller sequence number wins.
  if (TimeOf(top) > now_) return true;
  assert(TimeOf(top) == now_);
  return (KeyOf(top) >> kSlotBits) > ring_[ring_head_].seq;
}

void Scheduler::RingPush(std::coroutine_handle<> handle, std::uint64_t seq) {
  if (ring_count_ == ring_.size()) RingGrow();
  ring_[(ring_head_ + ring_count_) & (ring_.size() - 1)] =
      RingEntry{handle, seq};
  ++ring_count_;
}

Scheduler::RingEntry Scheduler::RingPop() {
  const RingEntry e = ring_[ring_head_];
  ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
  --ring_count_;
  return e;
}

void Scheduler::RingGrow() {
  const std::size_t old_cap = ring_.size();
  const std::size_t new_cap = old_cap == 0 ? 16 : old_cap * 2;
  std::vector<RingEntry> grown(new_cap);
  for (std::size_t i = 0; i < ring_count_; ++i) {
    grown[i] = ring_[(ring_head_ + i) & (old_cap - 1)];
  }
  ring_ = std::move(grown);
  ring_head_ = 0;
}

void Scheduler::ExecuteNext() {
  if (TakeRingNext()) {
    const RingEntry e = RingPop();
    ++executed_events_;
    if (exec_hook_) exec_hook_(exec_hook_ctx_, now_, e.seq);
    e.handle.resume();
    return;
  }
  const Rank top = heap_[0];
  const std::uint64_t key = KeyOf(top);
  const std::uint32_t head = SlotOf(key);
  EventFn fn = std::move(FnAt(head));
  SlotMeta& hm = meta_[head];
  const std::uint64_t next_key = hm.next_key;
  hm.seq = 0;  // moved-from slot: free without the redundant Reset
  free_slots_.push_back(head);
  // The chain's next event, if any, is most likely the next to run.
  __builtin_prefetch(&FnAt(SlotOf(next_key)));
  // Move the root on before running the closure, so the heap is
  // consistent for anything the callback does.
  AdvanceRoot(next_key);
  --live_scheduled_;
  assert(TimeOf(top) >= now_);
  now_ = TimeOf(top);
  ++executed_events_;
  if (exec_hook_) exec_hook_(exec_hook_ctx_, now_, key >> kSlotBits);
  fn();
}

std::size_t Scheduler::Run(SimTime until, std::size_t max_events) {
  if (until < now_) return 0;
  std::size_t executed = 0;
  for (; executed < max_events; ++executed) {
    ResolveTop();
    // A non-empty ring always has work due at the current instant, which
    // is <= until by the loop invariant.
    if (ring_count_ == 0) {
      if (heap_.empty()) {
        // Queue drained before the time limit: land the clock on `until`,
        // matching the next-event-beyond-`until` exit below.
        if (until > now_ && std::isfinite(until)) now_ = until;
        break;
      }
      if (TimeOf(heap_[0]) > until) {
        if (until > now_) now_ = until;
        break;
      }
    }
    ExecuteNext();
  }
  return executed;
}

}  // namespace wimpy::sim
