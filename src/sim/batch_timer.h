// Batched identical-delay timers.
//
// Connection models arm many timers with the *same* delay — TCP
// TIME_WAIT expiry is the canonical case: every closed connection holds
// its slot for exactly `time_wait` seconds. Scheduling one engine event
// per timer puts one timestamp chain per connection on the scheduler's
// pending set; with thousands of closes per simulated second that is
// pure overhead, because equal delays armed at non-decreasing times
// expire in exactly the order they were armed.
//
// A BatchTimerQueue exploits that: it keeps a FIFO of {due, closure}
// entries (the per-delay analogue of the scheduler's timestamp chains,
// keyed by delay at arm time) and arms exactly ONE engine event, for the
// front entry. Arm is an O(1) ring append; Cancel is an O(1) closure
// reset (the dead entry is skipped for free when the FIFO drains); the
// engine's pending set holds one chain per queue instead of one per
// timer — TIME_WAIT handling is O(1) end to end (ROADMAP item).
//
// Ordering semantics: entries due at the same instant run back-to-back
// inside one engine event, in arm order. Relative order against
// *unrelated* events at the exact same timestamp is not specified; the
// engine's own golden-trace contract is untouched because this type is a
// client of the scheduler, not a change to it.
#ifndef WIMPY_SIM_BATCH_TIMER_H_
#define WIMPY_SIM_BATCH_TIMER_H_

#include <cstdint>

#include "common/units.h"
#include "sim/event_fn.h"
#include "sim/ring_buffer.h"
#include "sim/scheduler.h"

namespace wimpy::sim {

class BatchTimerQueue {
 public:
  // Identifies an armed timer for cancellation; 0 is never valid.
  using Token = std::uint64_t;

  // All timers armed on this queue fire `delay` seconds after their Arm
  // call (negative treated as 0).
  BatchTimerQueue(Scheduler* sched, Duration delay);
  ~BatchTimerQueue();

  BatchTimerQueue(const BatchTimerQueue&) = delete;
  BatchTimerQueue& operator=(const BatchTimerQueue&) = delete;

  // Arms `fn` to fire after the queue's delay. O(1), amortised
  // allocation-free: at most one engine event is pending per queue.
  Token Arm(EventFn fn);

  // Cancels a pending timer in O(1). Returns false if it already fired
  // or was cancelled before.
  bool Cancel(Token token);

  Duration delay() const { return delay_; }
  // Live (armed, not yet fired or cancelled) timers. The class invariant
  // — checked after every mutation in debug builds — is that this equals
  // the number of non-empty closures resident in the FIFO.
  std::size_t pending_count() const { return live_; }
  std::size_t pending() const { return live_; }  // legacy alias
  // Engine events this queue has consumed; tests pin the batching win
  // (many arms, few engine events).
  std::uint64_t engine_events_armed() const { return engine_events_armed_; }

 private:
  struct Entry {
    SimTime due;
    EventFn fn;  // empty = cancelled, skipped when drained
  };

  void ArmHead();
  void OnFire();
  // Debug-only consistency walk: token arithmetic, live-entry count, and
  // head-event armed state must all agree. No-op under NDEBUG.
  void CheckInvariants() const;

  Scheduler* sched_;
  Duration delay_;
  RingDeque<Entry> fifo_;  // fifo_[i] holds token first_token_ + i
  Token first_token_ = 1;
  Token next_token_ = 1;
  std::size_t live_ = 0;
  EventId head_event_ = 0;
  bool in_fire_ = false;
  std::uint64_t engine_events_armed_ = 0;
};

}  // namespace wimpy::sim

#endif  // WIMPY_SIM_BATCH_TIMER_H_
