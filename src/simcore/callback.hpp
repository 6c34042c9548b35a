// Small-buffer-optimized callback for the event engine hot path, and the
// engine's one small-block pool.
//
// Every scheduled event used to carry a `std::function<void()>`, which heap
// allocates for any capture over 16 bytes — and almost every interesting
// simulation callback (a component pointer plus a sequence number plus a
// generation counter) is bigger than that. `Callback` stores captures of up
// to `kCallbackInlineSize` (48) bytes inline, provided they are trivially
// copyable and trivially destructible, which covers every hot callback in
// the simulator. Oversized or non-trivial captures spill to the pool.
//
// The pool (`detail::pool_alloc` / `detail::pool_free`, callback.cpp) is a
// thread-local set of size-class free lists. It serves spilled callback
// payloads and, through `operator new`/`operator delete` on the coroutine
// promise types (simcore/task.hpp, simulation.cpp), every coroutine frame,
// so once a run is warm neither scheduling an event nor calling a coroutine
// touches the global allocator. Under AddressSanitizer a pooled block is
// poisoned while it sits on a free list, so touching a destroyed frame or a
// freed payload is still reported (use-after-poison).
//
// `Callback` is move-only and trivially relocatable by construction: every
// state is either a trivially copyable inline buffer or a raw owning
// pointer, so a move is a 64-byte copy plus nulling the source. The event
// queue exploits this to shuffle heap entries without indirect manager
// calls.
//
// Instrumentation: `callback_stats()` counts how many payloads spilled out
// of the inline buffer and how many of those missed the pool's free lists
// and had to call `operator new` (coroutine frames are not counted).
// perfbench's traced run reports both (`simcore.callback_spills`,
// `simcore.pool_misses`), so an accidental regression of the
// zero-allocation property shows up there.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace gridsim {

namespace detail {

inline constexpr std::size_t kCallbackInlineSize = 48;

/// Allocates `size` bytes from the calling thread's pool. Sizes up to the
/// largest size class are served from that class's free list (falling back
/// to `operator new` when it is empty); larger ones go straight to
/// `operator new`.
void* pool_alloc(std::size_t size);
/// Returns a block obtained from `pool_alloc` (or `callback_alloc`) with the
/// same `size`.
void pool_free(void* p, std::size_t size) noexcept;
/// `pool_alloc` for a spilled callback payload; counted in CallbackStats.
void* callback_alloc(std::size_t size);

}  // namespace detail

/// Allocation counters for the callback payload path (process-wide for the
/// simulating thread; reset with `reset_callback_stats`).
struct CallbackStats {
  std::uint64_t heap_payloads = 0;  ///< callbacks that did not fit inline
  std::uint64_t pool_misses = 0;    ///< heap payloads that hit operator new
};

CallbackStats callback_stats() noexcept;
void reset_callback_stats() noexcept;

/// Move-only type-erased `void()` callable with 48 bytes of inline storage.
class Callback {
 public:
  Callback() noexcept = default;
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, like
  // std::function — scheduling reads `sim.at(t, [this] { ... })`.
  Callback(std::nullptr_t) noexcept {}

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor)
  Callback(F&& f) {  // NOLINT(bugprone-forwarding-reference-overload)
    using Fn = std::decay_t<F>;
    if constexpr (std::is_same_v<Fn, std::function<void()>>) {
      // Preserve std::function's null state so the engine's null-callback
      // check still fires for an empty wrapped function.
      if (!f) return;
    }
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned callback captures are not supported");
    if constexpr (sizeof(Fn) <= detail::kCallbackInlineSize &&
                  std::is_trivially_copyable_v<Fn> &&
                  std::is_trivially_destructible_v<Fn> &&
                  alignof(Fn) <= alignof(Storage)) {
      ::new (static_cast<void*>(store_.inline_bytes)) Fn(std::forward<F>(f));
      invoke_ = &invoke_inline<Fn>;
    } else {
      void* mem = detail::callback_alloc(sizeof(Fn));
      try {
        store_.heap = ::new (mem) Fn(std::forward<F>(f));
      } catch (...) {
        detail::pool_free(mem, sizeof(Fn));
        throw;
      }
      invoke_ = &invoke_heap<Fn>;
      destroy_ = &destroy_heap<Fn>;
    }
  }

  // Moves copy the whole union regardless of how much of it the payload
  // uses; the tail bytes (all of them, for a null callback) are
  // indeterminate but only ever copied as raw bytes, never interpreted.
  // GCC's -W(maybe-)uninitialized cannot see that and warns at inlined call
  // sites, so both are silenced for these two members only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
  Callback(Callback&& other) noexcept
      : invoke_(other.invoke_), destroy_(other.destroy_) {
    std::memcpy(&store_, &other.store_, sizeof(store_));
    other.invoke_ = nullptr;
    other.destroy_ = nullptr;
  }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      if (destroy_ != nullptr) destroy_(&store_);
      invoke_ = other.invoke_;
      destroy_ = other.destroy_;
      std::memcpy(&store_, &other.store_, sizeof(store_));
      other.invoke_ = nullptr;
      other.destroy_ = nullptr;
    }
    return *this;
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() {
    if (destroy_ != nullptr) destroy_(&store_);
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  /// Precondition: non-null.
  void operator()() { invoke_(&store_); }

 private:
  union Storage {
    alignas(std::max_align_t) std::byte inline_bytes[detail::kCallbackInlineSize];
    void* heap;
  };

  template <typename Fn>
  static void invoke_inline(void* s) {
    (*static_cast<Fn*>(s))();
  }
  template <typename Fn>
  static void invoke_heap(void* s) {
    (*static_cast<Fn*>(static_cast<Storage*>(s)->heap))();
  }
  template <typename Fn>
  static void destroy_heap(void* s) noexcept {
    Fn* fn = static_cast<Fn*>(static_cast<Storage*>(s)->heap);
    fn->~Fn();
    detail::pool_free(fn, sizeof(Fn));
  }

  using InvokeFn = void (*)(void*);
  using DestroyFn = void (*)(void*) noexcept;

  InvokeFn invoke_ = nullptr;
  DestroyFn destroy_ = nullptr;  ///< non-null only for heap payloads
  Storage store_;
};

}  // namespace gridsim
