// The discrete-event simulation engine.
//
// One `Simulation` instance owns virtual time, the pending-event set and the
// root coroutine processes. All coroutine resumption funnels through the
// event queue (FIFO at equal timestamps), so a run is a deterministic
// function of its inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "simcore/callback.hpp"
#include "simcore/check.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"
#include "simcore/trace.hpp"

namespace gridsim {

/// Thrown by Simulation::run() when the event queue drains while spawned
/// processes are still suspended and no idle hook can make progress: no
/// future event exists that could ever resume them, so the simulation has
/// deadlocked. `blocked()` carries one line per blocked operation, collected
/// from registered blocked-state reporters (the MPI engine names the rank,
/// source and tag of every pending receive).
class DeadlockError : public std::runtime_error {
 public:
  DeadlockError(const std::string& what, std::vector<std::string> blocked)
      : std::runtime_error(what), blocked_(std::move(blocked)) {}
  const std::vector<std::string>& blocked() const { return blocked_; }

 private:
  std::vector<std::string> blocked_;
};

/// Thrown from inside the event loop when a wall-clock deadline set via
/// `set_wall_deadline` expires. The campaign runner's per-scenario watchdog
/// (`gridsim campaign --timeout-s N`) catches it and reports the scenario
/// as timed out instead of stalling the whole campaign.
class TimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Simulation {
 public:
  /// Registers this engine with the GRIDSIM_CHECK diagnostic context, so a
  /// failed invariant anywhere in the process reports sim-time, live-process
  /// count and event-queue depth.
  Simulation();
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  /// Schedules a callback at absolute virtual time `t` (must be >= now()).
  /// `Callback` stores small trivially-copyable captures inline, so the
  /// common scheduling path performs no heap allocation.
  void at(SimTime t, Callback fn) {
    if (t < now_) throw std::logic_error("Simulation::at: time in the past");
    queue_.schedule(t, std::move(fn));
  }
  /// Schedules a callback `dt` after now().
  void after(SimTime dt, Callback fn) { at(now_ + dt, std::move(fn)); }
  /// Schedules a callback at the current time, after already-queued events
  /// with the same timestamp.
  void post(Callback fn) { at(now_, std::move(fn)); }

  /// Starts a root process. The task begins executing when the event loop
  /// reaches the current timestamp; it is destroyed when it completes.
  void spawn(Task<void> task);

  /// Runs every queued event, including the timers left pending after the
  /// last spawned process completed (superseded TCP ticks, stale flow
  /// completion checks), until the queue is empty. Returns the time of the
  /// last event run, which can be later than the last process's finish;
  /// CAMPAIGN.json's `final_time_ns` and the campaign digest's end-time
  /// fold both read it.
  ///
  /// If the queue drains while processes are still suspended, registered
  /// idle hooks run in registration order; a hook returning true claims to
  /// have made progress (typically by firing a trigger) and the loop
  /// resumes. If no hook makes progress the run has deadlocked and a
  /// DeadlockError is thrown instead of returning with the wedge hidden.
  SimTime run();

  /// Runs events with timestamp <= t, then sets now() = t. `t` must be
  /// >= now(): an earlier one throws std::logic_error, as at() does, and
  /// leaves the clock alone. Returns true if the queue still has pending
  /// events. Unlike run(), never throws DeadlockError: callers use the
  /// returned horizon as their own watchdog (see
  /// tests/fault_properties_test.cpp).
  bool run_until(SimTime t);

  /// Registers a quiescence hook consulted by run() when the queue drains
  /// with live processes. Returns an id for remove_idle_hook. The hook must
  /// return true only if it scheduled new work (the model-checker's
  /// deferred wildcard matching resolves one receive per invocation).
  using IdleHook = std::function<bool()>;
  std::uint64_t add_idle_hook(IdleHook hook);
  void remove_idle_hook(std::uint64_t id);

  /// Registers a reporter that appends one human-readable line per blocked
  /// operation when a deadlock is diagnosed. Returns an id for
  /// remove_blocked_reporter.
  using BlockedReporter = std::function<void(std::vector<std::string>*)>;
  std::uint64_t add_blocked_reporter(BlockedReporter reporter);
  void remove_blocked_reporter(std::uint64_t id);

  /// Arms a wall-clock watchdog: once `deadline` passes, the event loop
  /// throws TimeoutError at the next check (every few thousand events, so
  /// the overhead on the hot path is a predicted-not-taken branch).
  void set_wall_deadline(std::chrono::steady_clock::time_point deadline) {
    wall_deadline_ = deadline;
    wall_deadline_armed_ = true;
  }
  void clear_wall_deadline() { wall_deadline_armed_ = false; }

  /// Number of processes spawned and not yet completed.
  int live_processes() const { return live_processes_; }

  std::uint64_t events_processed() const { return events_processed_; }

  /// Current and high-water pending-event counts (perf observability;
  /// perfbench's traced run reports the peak as
  /// `simcore.peak_queue_depth`).
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t peak_queue_depth() const { return queue_.peak_size(); }

  /// Structured event trace (categories disabled by default).
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  /// Awaitable that suspends the current coroutine for `dt` of virtual time.
  auto delay(SimTime dt) {
    struct Awaiter {
      Simulation& sim;
      SimTime dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim.after(dt, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dt};
  }

 private:
  static CheckContext check_context_of(const void* self);

  bool resolve_idle();
  [[noreturn]] void throw_deadlock();
  void check_wall_deadline();
  void maybe_check_wall_deadline() {
    if (wall_deadline_armed_ && (events_processed_ & 0x3FFFu) == 0)
        [[unlikely]] {
      check_wall_deadline();
    }
  }

  SimTime now_ = 0;
  EventQueue queue_;
  int live_processes_ = 0;
  std::uint64_t events_processed_ = 0;
  Tracer tracer_;
  std::vector<std::pair<std::uint64_t, IdleHook>> idle_hooks_;
  std::vector<std::pair<std::uint64_t, BlockedReporter>> blocked_reporters_;
  std::uint64_t next_hook_id_ = 1;
  bool wall_deadline_armed_ = false;
  std::chrono::steady_clock::time_point wall_deadline_{};
};

/// Optional observation hooks for harness-owned simulations. Scenario
/// runners that construct their Simulation internally call `on_start` right
/// after the engine is built (before any process is spawned) and `on_finish`
/// once the event loop has drained, while the engine is still alive. The
/// campaign runner uses them to enable tracing and digest the event trace
/// without the runners leaking their engine.
struct SimHooks {
  std::function<void(Simulation&)> on_start;
  std::function<void(Simulation&)> on_finish;
};

}  // namespace gridsim
