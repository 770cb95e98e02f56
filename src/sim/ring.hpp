#pragma once
// FIFO ring buffer: a power-of-two vector indexed by free-running head and
// tail counters. Push and pop are O(1) and allocate nothing once the ring
// has grown to its working size; a full ring doubles. Popping moves the
// element out, so a popped slot keeps only a moved-from value (an empty
// shared_ptr, say), never the resource it held.
#include <cstddef>
#include <utility>
#include <vector>

namespace resex::sim {

template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == tail_; }
  [[nodiscard]] std::size_t size() const noexcept { return tail_ - head_; }

  /// The oldest element. Precondition: !empty().
  [[nodiscard]] T& front() noexcept { return buf_[head_ & mask_]; }
  [[nodiscard]] const T& front() const noexcept { return buf_[head_ & mask_]; }

  void push_back(T&& v) {
    if (size() == buf_.size()) grow();
    buf_[tail_++ & mask_] = std::move(v);
  }

  /// Remove the oldest element and return it. Precondition: !empty().
  T pop_front() noexcept { return std::move(buf_[head_++ & mask_]); }

  /// The element `i` places behind the oldest. Precondition: i < size().
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return buf_[(head_ + i) & mask_];
  }

  /// Remove every element.
  void clear() noexcept {
    while (!empty()) (void)pop_front();
  }

 private:
  static constexpr std::size_t kInitialSize = 8;

  /// Double the ring, moving its elements to the start of the new one.
  void grow() {
    const std::size_t n = size();
    std::vector<T> next(buf_.empty() ? kInitialSize : buf_.size() * 2);
    for (std::size_t i = 0; i < n; ++i) {
      next[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_ = std::move(next);
    mask_ = buf_.size() - 1;
    head_ = 0;
    tail_ = n;
  }

  std::vector<T> buf_;
  std::size_t mask_ = 0;  // buf_.size() - 1 once allocated
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

}  // namespace resex::sim
