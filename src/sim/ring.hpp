// Growable FIFO ring buffer over raw storage -- the value store behind
// Channel<T> (items in flight, claimed hand-offs, parked producer values)
// and RateServer's parked-waiter queue.
//
// Properties the channel relies on:
//   * amortized allocation-free: capacity only ever grows (power of two),
//     so a steady-state producer/consumer pair never allocates;
//   * T needs only a move constructor (no default construction, no
//     copy): slots are raw storage with manual lifetime;
//   * destruction of a non-empty ring destroys the remaining values --
//     values parked in a channel are channel-owned and cannot leak when a
//     suspended coroutine frame is torn down at simulation end.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace snacc::sim {

template <class T>
class RingBuf {
 public:
  RingBuf() = default;
  RingBuf(const RingBuf&) = delete;
  RingBuf& operator=(const RingBuf&) = delete;
  /// Takes over `o`'s storage and leaves it empty (owners that are moved,
  /// such as a RateServer inside pcie::Fabric's Port, move their rings).
  RingBuf(RingBuf&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        head_(std::exchange(o.head_, 0)),
        size_(std::exchange(o.size_, 0)),
        cap_(std::exchange(o.cap_, 0)) {}

  ~RingBuf() {
    clear();
    if (data_) std::allocator<T>().deallocate(data_, cap_);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void push_back(T&& v) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(slot(head_ + size_))) T(std::move(v));
    ++size_;
  }

  T& front() {
    assert(size_ > 0);
    return *std::launder(slot(head_));
  }

  T& back() {
    assert(size_ > 0);
    return *std::launder(slot(head_ + size_ - 1));
  }

  T pop_front() {
    assert(size_ > 0);
    T* p = std::launder(slot(head_));
    T v(std::move(*p));
    p->~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
    return v;
  }

  void clear() {
    while (size_ > 0) {
      std::launder(slot(head_))->~T();
      head_ = (head_ + 1) & (cap_ - 1);
      --size_;
    }
    head_ = 0;
  }

 private:
  T* slot(std::size_t i) { return data_ + (i & (cap_ - 1)); }

  void grow() {
    const std::size_t new_cap = cap_ == 0 ? 8 : cap_ * 2;
    T* new_data = std::allocator<T>().allocate(new_cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T* p = std::launder(slot(head_ + i));
      ::new (static_cast<void*>(new_data + i)) T(std::move(*p));
      p->~T();
    }
    if (data_) std::allocator<T>().deallocate(data_, cap_);
    data_ = new_data;
    cap_ = new_cap;
    head_ = 0;
  }

  T* data_ = nullptr;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace snacc::sim
