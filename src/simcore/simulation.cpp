#include "simcore/simulation.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace gridsim {

namespace {

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "gridsim: unhandled exception in spawned process: %s\n",
               what);
  std::abort();
}

// Fire-and-forget driver coroutine. Its frame owns the user task; the frame
// self-destroys at completion (final_suspend = suspend_never). Like task
// frames, it comes from the engine's pool.
struct Detached {
  struct promise_type {
    static void* operator new(std::size_t size) {
      return detail::pool_alloc(size);
    }
    static void operator delete(void* frame, std::size_t size) noexcept {
      detail::pool_free(frame, size);
    }
    Detached get_return_object() {
      return Detached{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { die("exception escaped driver"); }
  };
  std::coroutine_handle<> handle;
};

Detached drive_impl(Task<void> user, int* live_counter) {
  try {
    co_await std::move(user);
  } catch (const std::exception& e) {
    die(e.what());
  } catch (...) {
    die("(non-std::exception)");
  }
  --*live_counter;
}

}  // namespace

Simulation::Simulation() {
  detail::install_check_context(this, &Simulation::check_context_of);
}

Simulation::~Simulation() { detail::uninstall_check_context(this); }

CheckContext Simulation::check_context_of(const void* self) {
  const auto* sim = static_cast<const Simulation*>(self);
  return CheckContext{sim->now_, sim->live_processes_, sim->queue_.size()};
}

void Simulation::spawn(Task<void> task) {
  if (!task.valid())
    throw std::invalid_argument("Simulation::spawn: empty task");
  ++live_processes_;
  Detached d = drive_impl(std::move(task), &live_processes_);
  post([h = d.handle] { h.resume(); });
}

SimTime Simulation::run() {
  for (;;) {
    while (!queue_.empty()) {
      now_ = queue_.next_time();
      queue_.run_next();
      ++events_processed_;
      maybe_check_wall_deadline();
    }
    if (live_processes_ == 0) return now_;
    // Quiescent with suspended processes: no queued event can ever resume
    // them. Idle hooks (the model-checker's deferred wildcard matching) get
    // one chance to schedule new work; otherwise this is a deadlock.
    if (wall_deadline_armed_) check_wall_deadline();
    if (!resolve_idle()) throw_deadlock();
  }
}

bool Simulation::run_until(SimTime t) {
  if (t < now_)
    throw std::logic_error("Simulation::run_until: time in the past");
  while (!queue_.empty() && queue_.next_time() <= t) {
    now_ = queue_.next_time();
    queue_.run_next();
    ++events_processed_;
    maybe_check_wall_deadline();
  }
  now_ = t;
  return !queue_.empty();
}

std::uint64_t Simulation::add_idle_hook(IdleHook hook) {
  const std::uint64_t id = next_hook_id_++;
  idle_hooks_.emplace_back(id, std::move(hook));
  return id;
}

void Simulation::remove_idle_hook(std::uint64_t id) {
  idle_hooks_.erase(
      std::remove_if(idle_hooks_.begin(), idle_hooks_.end(),
                     [id](const auto& entry) { return entry.first == id; }),
      idle_hooks_.end());
}

std::uint64_t Simulation::add_blocked_reporter(BlockedReporter reporter) {
  const std::uint64_t id = next_hook_id_++;
  blocked_reporters_.emplace_back(id, std::move(reporter));
  return id;
}

void Simulation::remove_blocked_reporter(std::uint64_t id) {
  blocked_reporters_.erase(
      std::remove_if(blocked_reporters_.begin(), blocked_reporters_.end(),
                     [id](const auto& entry) { return entry.first == id; }),
      blocked_reporters_.end());
}

bool Simulation::resolve_idle() {
  for (auto& [id, hook] : idle_hooks_) {
    if (hook()) return true;
  }
  return false;
}

void Simulation::throw_deadlock() {
  std::vector<std::string> blocked;
  for (auto& [id, reporter] : blocked_reporters_) reporter(&blocked);
  std::string what = "deadlock: event queue drained with " +
                     std::to_string(live_processes_) +
                     " live process(es) at t=" + std::to_string(now_) + " ns";
  if (blocked.empty()) {
    what += " (no blocked-state reporters registered)";
  } else {
    for (const std::string& line : blocked) what += "\n  " + line;
  }
  throw DeadlockError(what, std::move(blocked));
}

void Simulation::check_wall_deadline() {
  if (std::chrono::steady_clock::now() < wall_deadline_) return;
  wall_deadline_armed_ = false;  // throw once, not from every later check
  throw TimeoutError("wall-clock budget exceeded at virtual time " +
                     std::to_string(now_) + " ns (" +
                     std::to_string(events_processed_) +
                     " events processed)");
}

}  // namespace gridsim
