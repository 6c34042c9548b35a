// FIFO queue over one power-of-two ring buffer.
//
// `std::deque` allocates a fresh chunk whenever its tail crosses a chunk
// boundary, even in steady state; a ring that has grown to its working size
// never allocates again. Elements must be default-constructible and
// move-assignable: a popped slot is reset to `T{}` and reused in place.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace gridsim {

template <typename T>
class Ring {
 public:
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// The i-th element from the front. Precondition: i < size().
  T& operator[](std::size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  /// Precondition: !empty().
  T& front() { return buf_[head_]; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    (*this)[size_++] = std::move(value);
  }

  /// Precondition: !empty().
  void pop_front() {
    buf_[head_] = T{};
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  // Starts at two slots: most queues (a TCP channel's segments) rarely hold
  // more, and a larger first buffer showed up in peak memory.
  void grow() {
    std::vector<T> next(buf_.empty() ? 2 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;  // capacity is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace gridsim
