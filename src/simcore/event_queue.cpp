#include "simcore/event_queue.hpp"

namespace gridsim {

inline void EventQueue::push_later(Key key) {
  // At most one lane is bound to a delay. The scan has no branch per lane:
  // which lane a key takes varies from event to event, and a mispredicted
  // exit cost more than the whole scan.
  const SimTime delay = key.time - floor_;
  std::uint32_t lane = kNoLane;
  for (std::uint32_t i = 0; i < kDelayLanes; ++i)
    lane = lane_delay_[i] == delay ? i : lane;
  if (lane != kNoLane && !lane_keys_[lane].empty()) {
    Ring<Key>& keys = lane_keys_[lane];
    GRIDSIM_DCHECK(!before(key, keys.back()),
                   "EventQueue: delay lane %u out of order (t=%lld ns)", lane,
                   static_cast<long long>(key.time));
    key.lane = lane;
    keys.push_back(key);
    return;
  }
  start_lane(key, lane);
}

void EventQueue::start_lane(Key key, std::uint32_t lane) {
  if (lane == kNoLane) {
    for (std::uint32_t i = 0; i < kDelayLanes; ++i) {
      if (lane_keys_[i].empty()) {
        lane_delay_[i] = key.time - floor_;
        lane = i;
        break;
      }
    }
  }
  if (lane != kNoLane) {
    key.lane = lane;
    lane_keys_[lane].push_back(key);
  }
  heap_.push_back(key);
  sift_up(heap_.size() - 1);
}

// Out of line: inlined, schedule() made Simulation::at() too large to inline
// at its call sites, which then moved every payload through one more call.
void EventQueue::schedule(SimTime t, Callback fn) {
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
    same_time_.push_back(slot);
  } else {
    push_later(Key{t, next_seq_++, slot, kNoLane});
  }
  if (size() > peak_size_) peak_size_ = size();
}

void EventQueue::pop_top() {
  const std::uint32_t lane = heap_.front().lane;
  if (lane != kNoLane) {
    Ring<Key>& keys = lane_keys_[lane];
    keys.pop_front();
    if (!keys.empty()) {
      sift_down(keys.front());
      return;
    }
  }
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(last);
}

void EventQueue::sift_up(std::size_t idx) {
  if (idx == 0) return;
  std::size_t parent = (idx - 1) / 4;
  if (!before(heap_[idx], heap_[parent])) return;
  const Key key = heap_[idx];
  do {
    heap_[idx] = heap_[parent];
    idx = parent;
    parent = (idx - 1) / 4;
  } while (idx > 0 && before(key, heap_[parent]));
  heap_[idx] = key;
}

void EventQueue::sift_down(Key key) {
  const std::size_t n = heap_.size();
  std::size_t idx = 0;
  for (;;) {
    const std::size_t first_child = idx * 4 + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], key)) break;
    heap_[idx] = heap_[best];
    idx = best;
  }
  heap_[idx] = key;
}

}  // namespace gridsim
