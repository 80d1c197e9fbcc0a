// Bounded FIFO modelling a hardware queue.
//
// The ALPU and the NIC decouple their producers and consumers with
// fixed-depth hardware FIFOs (header FIFO, command FIFO, result FIFO,
// network Rx/Tx FIFOs).  This container models exactly that: a depth
// chosen at construction and explicit full/empty flow control that
// callers must respect the way hardware producers respect an
// `almost_full` signal.
//
// The depth is a hardware parameter; host memory follows occupancy.
// Construction allocates nothing.  A push that finds the storage full
// doubles it (from 8 slots, never past the depth) and moves the
// contents over in FIFO order, reporting the allocation through an
// AllocSink.  clear() keeps the storage and storage never shrinks, so
// a FIFO that has reached its working occupancy stops allocating.  A
// FIFO that is 8192 deep but never holds more than a few entries costs
// a few slots, not 8192 zero-filled ones.
//
// Like std::vector growth, a push may invalidate references returned
// by front() and at().
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/dense.hpp"

namespace alpu::common {

/// Bounded single-producer/single-consumer FIFO (simulation-local, not
/// thread-safe: the DES kernel is single-threaded by design).
template <typename T>
class BoundedFifo {
 public:
  /// A FIFO with space for `capacity` elements.  Capacity must be nonzero.
  explicit BoundedFifo(std::size_t capacity) : capacity_(capacity) {
    ALPU_ASSERT(capacity > 0, "hardware FIFOs have nonzero depth");
  }

  /// Count each storage growth into `sink` (default: nowhere).
  void set_alloc_sink(AllocSink sink) { sink_ = sink; }

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t free_slots() const { return capacity_ - size_; }

  /// Push one element.  Returns false (and drops nothing) when full;
  /// the caller models back-pressure.
  [[nodiscard]] bool try_push(T value) {
    if (full()) return false;
    if (size_ == slots_.size()) grow();
    slots_[wrap(head_ + size_)] = std::move(value);
    ++size_;
    return true;
  }

  /// Push that asserts on overflow.  Use where the protocol guarantees
  /// space (e.g. a response slot reserved by a command).
  void push(T value) {
    const bool ok = try_push(std::move(value));
    ALPU_ASSERT(ok, "FIFO overflow violates flow-control protocol");
    (void)ok;
  }

  /// Peek at the head without consuming it.
  const T& front() const { return at(0); }
  T& front() {
    ALPU_ASSERT(!empty(), "front() on an empty FIFO");
    return slots_[head_];
  }

  /// The i-th oldest element (0 == front).
  const T& at(std::size_t i) const {
    ALPU_ASSERT(i < size_, "at() past the FIFO's occupancy");
    return slots_[wrap(head_ + i)];
  }

  /// Pop the head.  Precondition: not empty.
  T pop() {
    ALPU_ASSERT(!empty(), "pop() on an empty FIFO");
    T out = std::move(slots_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
    return out;
  }

  /// Pop the head if present.
  std::optional<T> try_pop() {
    if (empty()) return std::nullopt;
    return pop();
  }

  /// Drop all contents (models a hardware reset).  Keeps the storage.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  /// Index into the ring; `i` is below twice the storage size.
  std::size_t wrap(std::size_t i) const {
    return i >= slots_.size() ? i - slots_.size() : i;
  }

  void grow() {
    const std::size_t n =
        std::min(slots_.empty() ? std::size_t{8} : 2 * slots_.size(),
                 capacity_);
    std::vector<T> next(n);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[wrap(head_ + i)]);
    }
    slots_ = std::move(next);
    head_ = 0;
    sink_.count(n * sizeof(T));
  }

  std::vector<T> slots_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  AllocSink sink_;
};

}  // namespace alpu::common
