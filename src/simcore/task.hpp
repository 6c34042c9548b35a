// C++20 coroutine task type used to write simulated processes.
//
// A `Task<T>` is a lazy coroutine: it starts when awaited and resumes its
// awaiter by symmetric transfer when it finishes, so nested calls
// (`co_await sub_step()`) compose with zero scheduling overhead. Root
// processes are started with `Simulation::spawn`, which drives a task to
// completion through the event queue.
//
// Exceptions thrown inside a task propagate to the awaiter; an exception
// escaping a *spawned* (detached) task terminates the simulation, because a
// simulated process with no parent has nowhere to report failure.
//
// Coroutine frames come from the engine's small-block pool (see
// simcore/callback.hpp), so a warm run calls coroutines without touching the
// global allocator.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "simcore/callback.hpp"
#include "simcore/check.hpp"

namespace gridsim {

template <typename T>
class Task;

namespace detail {

class TaskPromiseBase {
 public:
  std::coroutine_handle<> continuation;

  // Frame allocation: the sized delete receives the frame size, which picks
  // the pool's size class.
  static void* operator new(std::size_t size) { return pool_alloc(size); }
  static void operator delete(void* frame, std::size_t size) noexcept {
    pool_free(frame, size);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }
};

template <typename T>
class TaskPromise final : public TaskPromiseBase {
 public:
  Task<T> get_return_object() noexcept;
  void return_value(T value) { value_ = std::move(value); }
  void unhandled_exception() { exception_ = std::current_exception(); }

  T take_result() {
    if (exception_) std::rethrow_exception(exception_);
    return std::move(value_);
  }

 private:
  T value_{};
  std::exception_ptr exception_;
};

template <>
class TaskPromise<void> final : public TaskPromiseBase {
 public:
  Task<void> get_return_object() noexcept;
  void return_void() noexcept {}
  void unhandled_exception() { exception_ = std::current_exception(); }

  void take_result() {
    if (exception_) std::rethrow_exception(exception_);
  }

 private:
  std::exception_ptr exception_;
};

}  // namespace detail

/// Lazy coroutine returning T. Move-only; owns its coroutine frame.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (handle_) {
      // Destroying a task someone is awaiting would leave the awaiter's
      // handle dangling — its later resume would be use-after-free.
      GRIDSIM_DCHECK(handle_.done() || !handle_.promise().continuation,
                     "Task destroyed while a coroutine is awaiting it");
      handle_.destroy();
    }
  }

  bool valid() const noexcept { return static_cast<bool>(handle_); }
  bool done() const noexcept { return handle_ && handle_.done(); }

  /// Awaiting a task starts it and suspends the awaiter until it completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().continuation = awaiting;
        return handle;  // symmetric transfer: start the child now
      }
      T await_resume() {
        GRIDSIM_CHECK(static_cast<bool>(handle),
                      "co_await on an empty (moved-from) Task");
        return handle.promise().take_result();
      }
    };
    return Awaiter{handle_};
  }

  /// Escape hatch for the spawn driver; most code should co_await instead.
  Handle release() noexcept { return std::exchange(handle_, {}); }

 private:
  Handle handle_;
};

namespace detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() noexcept {
  return Task<void>(
      std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace gridsim
