// Deterministic pending-event set.
//
// Events at equal timestamps fire in insertion order (FIFO), which makes the
// whole simulation reproducible regardless of heap implementation details.
//
// Callback payloads live in a slot array recycled through a free list; the
// order is kept by two index structures over it. Events scheduled for a
// later time than the current one go to a hand-rolled 4-ary min-heap over
// small (time, seq, slot) keys, so sift operations shuffle 24-byte
// trivially-copyable keys and never touch the payloads. Keys are unique
// (seq is a monotone counter), so the heap's pop order is a pure function
// of the schedule() call sequence, independent of heap arity or sift
// details. 4-ary beats binary here: half the levels per sift and the four
// children of a node share a cache line pair.
//
// Events scheduled at the current instant (`floor()`) — coroutine
// resumptions, trigger wake-ups, flow-done posts: 28% of the events of
// perfbench's `npb_lu` and 36% of `npb_bulk`'s — skip the heap: their slot
// goes to a FIFO lane, a `Ring` of slot indices. `run_next` pops heap keys
// while the heap's top is at `floor()`, then the lane. That is exactly the
// (time, seq) order: a heap key at `floor()` was scheduled before the clock
// reached that time, so it precedes every lane entry, and the lane itself
// is in insertion order. The lane only ever holds events at `floor()`: the
// clock advances only by popping a later heap key, which happens once the
// lane is empty. `size()` and `peak_size()` count both parts, and the slot
// array grows to `peak_size()` entries, as with a heap alone.
//
// Payloads are a small-buffer-optimized `Callback` (simcore/callback.hpp):
// captures of up to 48 trivially-copyable bytes are stored inline, so the
// common path performs no heap allocation at all; larger captures come from
// a pooled free list. `callback_stats()` counts the spills.
//
// There is deliberately no cancel(): components that need to invalidate a
// scheduled event (e.g. a fluid-flow completion that a rate change made
// stale) guard their callback with a generation counter instead. This keeps
// the queue allocation-free per event and the common path fast.
#pragma once

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
  void schedule(SimTime t, Callback fn) {
    GRIDSIM_CHECK(static_cast<bool>(fn), "EventQueue::schedule: null callback");
    GRIDSIM_CHECK(t >= floor_,
                  "EventQueue::schedule: time travels backwards (t=%lld ns, "
                  "last executed event at %lld ns)",
                  static_cast<long long>(t), static_cast<long long>(floor_));
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::move(fn));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(fn);
    }
    if (t == floor_) {
      lane_.push_back(slot);
    } else {
      heap_.push_back(Key{t, next_seq_++, slot});
      sift_up(heap_.size() - 1);
    }
    if (size() > peak_size_) peak_size_ = size();
  }

  bool empty() const noexcept { return heap_.empty() && lane_.empty(); }
  std::size_t size() const noexcept { return heap_.size() + lane_.size(); }

  /// High-water mark of size() over the queue's lifetime.
  std::size_t peak_size() const noexcept { return peak_size_; }

  /// Timestamp of the next event; kSimTimeNever when empty.
  SimTime next_time() const noexcept {
    if (!lane_.empty()) return floor_;
    return heap_.empty() ? kSimTimeNever : heap_.front().time;
  }

  /// Pops and runs the next event; returns its timestamp.
  /// Precondition: !empty().
  SimTime run_next() {
    GRIDSIM_CHECK(!empty(), "EventQueue::run_next on an empty queue");
    std::uint32_t slot;
    if (!lane_.empty() && (heap_.empty() || heap_.front().time != floor_)) {
      slot = lane_.front();
      lane_.pop_front();
    } else {
      const Key top = heap_.front();
      slot = top.slot;
      pop_root();
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
  struct Key {
    SimTime time;
    std::uint64_t seq;   // FIFO tiebreaker for equal timestamps
    std::uint32_t slot;  // index of the payload in slots_
  };

  static bool before(const Key& a, const Key& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t idx);
  /// Removes the root key and restores the heap property.
  void pop_root();

  std::vector<Key> heap_;  // 4-ary min-heap; children of i: 4i+1 .. 4i+4
  std::vector<Callback> slots_;  // payloads of heap and lane entries
  Ring<std::uint32_t> lane_;     // slots of the events at floor_, FIFO
  std::vector<std::uint32_t> free_slots_;  // recycled slot indices
  std::uint64_t next_seq_ = 0;
  std::size_t peak_size_ = 0;
  SimTime floor_ = 0;
};

}  // namespace gridsim
