// Coroutine synchronisation primitives for simulated processes.
//
// All wake-ups are posted through the simulation's event queue so that the
// order in which blocked processes resume is deterministic (FIFO per
// primitive, FIFO across primitives fired at the same timestamp).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "simcore/check.hpp"
#include "simcore/simulation.hpp"

namespace gridsim {

namespace detail {
// Liveness canary for synchronisation primitives. Coroutine code is the
// classic habitat of use-after-destroy bugs: a callback captures `&trigger`,
// the owning coroutine finishes and pops its frame, then the callback fires
// into freed memory. ASan catches that with poisoned heap; the canary
// catches most of it in every build. Debug/sanitizer builds verify it via
// GRIDSIM_DCHECK.
inline constexpr std::uint32_t kAliveCanary = 0xA11FE5A5u;
inline constexpr std::uint32_t kDeadCanary = 0xDEADDEADu;
}  // namespace detail

/// One-shot broadcast event: any number of waiters, released when fire()d.
/// Waiting on an already-fired trigger completes immediately. The first
/// waiter is kept inline (almost every trigger has exactly one), later ones
/// in a vector; they resume in the order they started waiting.
class Trigger {
 public:
  explicit Trigger(Simulation& sim) : sim_(sim) {}
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;
  ~Trigger() {
    GRIDSIM_DCHECK(!first_,
                   "Trigger destroyed with %zu blocked waiters; they can "
                   "never be resumed",
                   waiters_.size() + 1);
    canary_ = detail::kDeadCanary;
  }

  bool fired() const { return fired_; }

  void fire() {
    GRIDSIM_DCHECK(canary_ == detail::kAliveCanary,
                   "Trigger::fire on a destroyed Trigger");
    if (fired_) return;
    fired_ = true;
    if (!first_) return;
    sim_.post([h = std::exchange(first_, {})] { h.resume(); });
    for (auto h : waiters_) sim_.post([h] { h.resume(); });
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Trigger& t;
      bool await_ready() const noexcept { return t.fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        GRIDSIM_DCHECK(t.canary_ == detail::kAliveCanary,
                       "Trigger::wait on a destroyed Trigger");
        if (t.first_)
          t.waiters_.push_back(h);
        else
          t.first_ = h;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulation& sim_;
  bool fired_ = false;
  std::uint32_t canary_ = detail::kAliveCanary;
  std::coroutine_handle<> first_;  ///< earliest waiter, if any
  std::vector<std::coroutine_handle<>> waiters_;  ///< the ones after it
};

/// Single-producer, single-consumer one-shot value. The consumer may wait
/// before or after the value is set.
template <typename T>
class OneShot {
 public:
  explicit OneShot(Simulation& sim) : sim_(sim) {}
  OneShot(const OneShot&) = delete;
  OneShot& operator=(const OneShot&) = delete;
  ~OneShot() {
    GRIDSIM_DCHECK(!waiter_,
                   "OneShot destroyed with a blocked waiter; it can never "
                   "be resumed");
    canary_ = detail::kDeadCanary;
  }

  bool ready() const { return value_.has_value(); }

  void set(T value) {
    GRIDSIM_CHECK(canary_ == detail::kAliveCanary,
                  "OneShot::set on a destroyed OneShot");
    GRIDSIM_CHECK(!value_.has_value(), "OneShot::set called twice");
    value_ = std::move(value);
    if (waiter_) {
      auto h = std::exchange(waiter_, {});
      sim_.post([h] { h.resume(); });
    }
  }

  auto wait() {
    struct Awaiter {
      OneShot& o;
      bool await_ready() const noexcept { return o.value_.has_value(); }
      void await_suspend(std::coroutine_handle<> h) {
        GRIDSIM_DCHECK(o.canary_ == detail::kAliveCanary,
                       "OneShot::wait on a destroyed OneShot");
        GRIDSIM_CHECK(!o.waiter_, "OneShot supports a single waiter");
        o.waiter_ = h;
      }
      T await_resume() { return std::move(*o.value_); }
    };
    return Awaiter{*this};
  }

 private:
  Simulation& sim_;
  std::optional<T> value_;
  std::uint32_t canary_ = detail::kAliveCanary;
  std::coroutine_handle<> waiter_;
};

/// Unbounded FIFO channel. pop() suspends until an item is available;
/// multiple poppers are served in arrival order.
///
/// Invariant: items_ and waiters_ are never both non-empty — a push with
/// waiters present hands the item directly to the front waiter (reserving it
/// so an intervening pop() cannot steal it before the waiter resumes).
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Simulation& sim) : sim_(sim) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  void push(T item) {
    if (!waiters_.empty()) {
      WaitNode w = waiters_.front();
      waiters_.pop_front();
      *w.slot = std::move(item);
      sim_.post([h = w.handle] { h.resume(); });
    } else {
      items_.push_back(std::move(item));
    }
  }

  auto pop() {
    struct Awaiter {
      Mailbox& m;
      std::optional<T> slot{};
      bool await_ready() const noexcept { return !m.items_.empty(); }
      void await_suspend(std::coroutine_handle<> h) {
        m.waiters_.push_back(WaitNode{h, &slot});
      }
      T await_resume() {
        if (slot.has_value()) return std::move(*slot);
        assert(!m.items_.empty());
        T v = std::move(m.items_.front());
        m.items_.pop_front();
        return v;
      }
    };
    return Awaiter{*this, std::nullopt};
  }

 private:
  struct WaitNode {
    std::coroutine_handle<> handle;
    std::optional<T>* slot;
  };

  Simulation& sim_;
  std::deque<T> items_;
  std::deque<WaitNode> waiters_;
};

/// Counting semaphore with FIFO wake-up.
class Semaphore {
 public:
  Semaphore(Simulation& sim, int initial) : sim_(sim), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  int count() const { return count_; }

  void release(int n = 1) {
    count_ += n;
    while (count_ > 0 && !waiters_.empty()) {
      --count_;
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_.post([h] { h.resume(); });
    }
  }

  auto acquire() {
    struct Awaiter {
      Semaphore& s;
      bool await_ready() noexcept {
        if (s.count_ > 0 && s.waiters_.empty()) {
          --s.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        s.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulation& sim_;
  int count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace gridsim
