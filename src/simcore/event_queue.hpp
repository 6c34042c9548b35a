// Deterministic pending-event set.
//
// Events run in (time, insertion) order: at equal timestamps, FIFO. That
// makes the whole simulation reproducible regardless of how the order is
// kept.
//
// Callback payloads live in a slot array recycled through a free list; the
// order is kept by three index structures over it, which move small
// (time, seq, slot) keys or slot indices and never touch the payloads. Keys
// are unique (seq is a monotone counter), so the pop order is a pure
// function of the schedule() call sequence.
//
// * The same-time lane. An event scheduled at the current instant
//   (`floor()`) — coroutine resumptions, trigger wake-ups, flow-done posts:
//   28% of the events of perfbench's `npb_lu` and 36% of `npb_bulk`'s —
//   appends its slot to a FIFO `Ring` of slot indices.
// * Delay lanes. An event scheduled `d = t - floor() > 0` ahead appends its
//   key to the FIFO `Ring` of keys bound to `d`, one of kDelayLanes; an
//   empty lane is rebound to a new `d`. Each lane is sorted by (time, seq)
//   by construction: `floor()` never decreases, so each key appended to a
//   lane is no earlier than the one before it, and seq keeps counting.
//   Simulated events reuse a few delays (the cluster RTT that spaces TCP
//   ticks, a message's stack overhead, a link's latency): of the events
//   scheduled later than now, 95.6% of `npb_lu`'s and 98.5% of
//   `npb_bulk`'s enter a lane.
// * A hand-rolled 4-ary min-heap holds the front key of every non-empty
//   lane, and the keys that found no lane (every lane bound to another
//   delay). Each lane's least key is its front, so the heap's top is the
//   least key of all. Appending to a non-empty lane touches no heap;
//   popping a lane key is one sift-down of the lane's next front into the
//   root. The heap holds 6.0 keys at an average pop on `npb_lu` and 4.3 on
//   `npb_bulk`, where it held 54.3 and 26.7 with every key in it. 4-ary:
//   half a binary heap's levels per sift, and the four children of a node
//   share a cache line pair.
//
// `run_next` pops heap keys while the heap's top is at `floor()`, then the
// same-time lane. That is exactly the (time, seq) order: a key at `floor()`
// was scheduled before the clock reached that time, so it precedes every
// same-time entry, and the same-time lane itself is in insertion order. It
// only ever holds events at `floor()`: the clock advances only by popping a
// later key, which happens once the same-time lane is empty. `size()` and
// `peak_size()` count every pending event once, and the slot array grows
// to `peak_size()` entries.
//
// Payloads are a small-buffer-optimized `Callback` (simcore/callback.hpp):
// captures of up to 48 trivially-copyable bytes are stored inline, so the
// common path performs no heap allocation at all; larger captures come from
// a pooled free list. `callback_stats()` counts the spills.
//
// There is deliberately no cancel(): components that need to invalidate a
// scheduled event (e.g. a fluid-flow completion that a rate change made
// stale) guard their callback with a generation counter instead. This keeps
// the queue allocation-free per event and the common path fast. A cancel()
// would have to mark a key dead rather than remove it: most pending keys
// sit inside a lane, where no heap position names them.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "simcore/callback.hpp"
#include "simcore/check.hpp"
#include "simcore/ring.hpp"
#include "simcore/time.hpp"

namespace gridsim {

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `t`.
  void schedule(SimTime t, Callback fn);

  bool empty() const noexcept { return heap_.empty() && same_time_.empty(); }
  /// Pending events: every one holds a payload slot until it runs.
  std::size_t size() const noexcept {
    return slots_.size() - free_slots_.size();
  }

  /// High-water mark of size() over the queue's lifetime.
  std::size_t peak_size() const noexcept { return peak_size_; }

  /// Timestamp of the next event; kSimTimeNever when empty.
  SimTime next_time() const noexcept {
    if (!same_time_.empty()) return floor_;
    return heap_.empty() ? kSimTimeNever : heap_.front().time;
  }

  /// Pops and runs the next event; returns its timestamp.
  /// Precondition: !empty().
  SimTime run_next() {
    GRIDSIM_CHECK(!empty(), "EventQueue::run_next on an empty queue");
    std::uint32_t slot;
    if (!same_time_.empty() &&
        (heap_.empty() || heap_.front().time != floor_)) {
      slot = same_time_.front();
      same_time_.pop_front();
    } else {
      const Key top = heap_.front();
      slot = top.slot;
      pop_top();
      floor_ = top.time;
    }
    // Detach the payload and retire the slot before invoking: the callback
    // may schedule new events and must never observe its own half-removed
    // entry.
    const SimTime now = floor_;
    Callback fn = std::move(slots_[slot]);
    free_slots_.push_back(slot);
    fn();
    return now;
  }

  /// Timestamp of the most recently executed event. No later schedule()
  /// may target an earlier time — the engine's time-monotonicity floor.
  SimTime floor() const noexcept { return floor_; }

 private:
  // Enough for the few delays simulated events reuse (see the lane shares
  // above); a key whose delay finds no lane just goes to the heap.
  static constexpr std::uint32_t kDelayLanes = 8;
  static constexpr std::uint32_t kNoLane = ~std::uint32_t{0};

  struct Key {
    SimTime time;
    std::uint64_t seq;   // FIFO tiebreaker for equal timestamps
    std::uint32_t slot;  // index of the payload in slots_
    std::uint32_t lane;  // delay lane holding the key, or kNoLane
  };
  static_assert(sizeof(Key) == 24, "the lane index must fit Key's padding");

  static bool before(const Key& a, const Key& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Files a key later than floor_ behind the keys of the lane bound to
  /// its delay; start_lane() takes the other cases.
  void push_later(Key key);
  /// Files `key` as the front of `lane`, the empty lane bound to its delay
  /// (kNoLane: none is), or of an empty lane rebound to that delay; the
  /// front also goes to the heap. With every lane holding keys of other
  /// delays, the key goes to the heap alone.
  void start_lane(Key key, std::uint32_t lane);
  /// Removes the heap's top key: a lane's next front takes its place, or
  /// the heap shrinks by one.
  void pop_top();
  void sift_up(std::size_t idx);
  /// Places `key` at the root, moving it down to restore the heap order.
  void sift_down(Key key);

  std::vector<Key> heap_;  // 4-ary min-heap; children of i: 4i+1 .. 4i+4
  // The delay each lane is bound to (0: never bound, a bound delay is > 0),
  // kept apart from the rings so that finding a key's lane reads one cache
  // line.
  std::array<SimTime, kDelayLanes> lane_delay_{};
  // Each lane's keys, (time, seq)-sorted; a lane's front is also in heap_.
  std::array<Ring<Key>, kDelayLanes> lane_keys_;
  std::vector<Callback> slots_;  // payloads of every pending event
  Ring<std::uint32_t> same_time_;  // slots of the events at floor_, FIFO
  std::vector<std::uint32_t> free_slots_;  // recycled slot indices
  std::uint64_t next_seq_ = 0;
  std::size_t peak_size_ = 0;
  SimTime floor_ = 0;
};

}  // namespace gridsim
