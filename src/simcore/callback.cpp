#include "simcore/callback.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace gridsim {

namespace {

// Requests are rounded up to a multiple of kGranule bytes; each multiple up
// to kMaxPooled has its own free list. A free block stores the list's next
// pointer in its first bytes. 4 kB covers every coroutine frame and every
// spilled capture the simulator creates per message with room to spare.
constexpr std::size_t kGranule = 32;
constexpr std::size_t kMaxPooled = 4096;
constexpr std::size_t kClasses = kMaxPooled / kGranule;

struct FreeBlock {
  FreeBlock* next;
};

constexpr std::size_t size_class(std::size_t size) {
  return size == 0 ? 0 : (size - 1) / kGranule;
}
constexpr std::size_t class_bytes(std::size_t c) { return (c + 1) * kGranule; }

// A block on a free list is poisoned, so ASan reports any touch of a freed
// payload or a destroyed coroutine frame instead of silently reading a
// recycled block. The pool unpoisons a block before it reads the link.
void poison(void* p, std::size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}
void unpoison(void* p, std::size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

// The engine is single-threaded per simulation; thread_local keeps the pool
// lock-free while staying correct when simulations run on several threads
// (a block freed on another thread than the one that allocated it simply
// joins that thread's list). The destructor returns pooled blocks so leak
// checkers stay green.
struct Pool {
  FreeBlock* free_lists[kClasses] = {};
  ~Pool() {
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (FreeBlock* b = free_lists[c]) {
        unpoison(b, class_bytes(c));
        free_lists[c] = b->next;
        ::operator delete(b);
      }
    }
  }
};

thread_local Pool g_pool;
thread_local CallbackStats g_stats;

void* allocate(std::size_t size, std::uint64_t* misses) {
  if (size <= kMaxPooled) {
    const std::size_t c = size_class(size);
    if (FreeBlock* b = g_pool.free_lists[c]; b != nullptr) {
      unpoison(b, class_bytes(c));
      g_pool.free_lists[c] = b->next;
      return b;
    }
    size = class_bytes(c);
  }
  if (misses != nullptr) ++*misses;
  return ::operator new(size);
}

}  // namespace

namespace detail {

void* pool_alloc(std::size_t size) { return allocate(size, nullptr); }

void* callback_alloc(std::size_t size) {
  ++g_stats.heap_payloads;
  return allocate(size, &g_stats.pool_misses);
}

void pool_free(void* p, std::size_t size) noexcept {
  if (size > kMaxPooled) {
    ::operator delete(p);
    return;
  }
  const std::size_t c = size_class(size);
  auto* b = static_cast<FreeBlock*>(p);
  b->next = g_pool.free_lists[c];
  g_pool.free_lists[c] = b;
  poison(b, class_bytes(c));
}

}  // namespace detail

CallbackStats callback_stats() noexcept { return g_stats; }

void reset_callback_stats() noexcept { g_stats = CallbackStats{}; }

}  // namespace gridsim
