// Coroutine plumbing for device-thread programs.
//
// A device kernel body is a C++20 coroutine returning ThreadProgram. Each
// simulated thread (lane) is one coroutine instance. Memory operations never
// suspend: the ThreadCtx applies them and notes each event in the lane's
// recorder (or tape), so one resume runs the lane to its next barrier or to
// completion. sync() is the only suspension point; the BlockExecutor then
// regroups the recorded streams into warp transactions in lockstep round
// order (block_exec.cpp). Memory effects thus apply in lane-resume order
// within a barrier segment: the contract of warp-synchronous CUDA code that
// separates conflicting accesses with __syncthreads, as every kconv kernel
// does. With no conflicting cross-lane accesses between barriers, running
// each lane to its barrier in one resume leaves memory bit-identical to
// lockstep execution (MODEL.md §5b). A body with no barrier still needs a
// `co_return;` to be a coroutine.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#include "src/sim/event.hpp"

namespace kconv::sim {

/// Free list of lane coroutine frames. One LaneSet (block_exec.hpp) owns
/// one, so it lives exactly as long as a launch chunk: when a block's lanes
/// are rebuilt their frames go back on the list and the next block's come
/// off it, so a chunk allocates one frame per lane instead of one per lane
/// per block. Frames are drawn from a pool only inside a Scope on the
/// creating thread; all others come from the global heap. Each frame
/// carries a header naming its pool, so it returns to the list it came
/// from. Under ASan a frame on the list is poisoned, so touching a dead
/// lane's frame still reports as a use-after-free.
class FramePool {
 public:
  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool() {
    for (Bucket& b : free_) {
      for (void* base : b.frames) {
        ASAN_UNPOISON_MEMORY_REGION(base, kHeader + b.bytes);
        ::operator delete(base);
      }
    }
  }

  /// Routes this thread's coroutine frame allocations to `pool` while
  /// alive.
  class Scope {
   public:
    explicit Scope(FramePool& pool) : prev_(std::exchange(current_, &pool)) {}
    ~Scope() { current_ = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    FramePool* prev_;
  };

  static void* allocate(std::size_t bytes) {
    FramePool* const pool = current_;
    void* base = pool != nullptr ? pool->take(bytes) : nullptr;
    if (base == nullptr) base = ::operator new(kHeader + bytes);
    ::new (base) Header{pool, bytes};
    return static_cast<std::byte*>(base) + kHeader;
  }

  static void deallocate(void* frame) noexcept {
    void* const base = static_cast<std::byte*>(frame) - kHeader;
    const Header h = *std::launder(static_cast<Header*>(base));
    if (h.pool == nullptr) {
      ::operator delete(base);
    } else {
      h.pool->give(base, h.bytes);
    }
  }

 private:
  struct Header {
    FramePool* pool;
    std::size_t bytes;
  };
  /// Keeps the frame behind the header at the default new alignment.
  static constexpr std::size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
  static_assert(sizeof(Header) <= kHeader);

  /// Frames of one size; a kernel body can create coroutines of a few
  /// types (e.g. an edge and an interior path), each with its own size.
  struct Bucket {
    std::size_t bytes;
    std::vector<void*> frames;
  };

  void* take(std::size_t bytes) {
    for (Bucket& b : free_) {
      if (b.bytes != bytes || b.frames.empty()) continue;
      void* const base = b.frames.back();
      b.frames.pop_back();
      ASAN_UNPOISON_MEMORY_REGION(base, kHeader + bytes);
      return base;
    }
    return nullptr;
  }

  void give(void* base, std::size_t bytes) noexcept {
    Bucket* bucket = nullptr;
    for (Bucket& b : free_) {
      if (b.bytes == bytes) bucket = &b;
    }
    // A full heap while recycling is fatal like any other allocation
    // failure inside a noexcept destructor path.
    if (bucket == nullptr) bucket = &free_.emplace_back(Bucket{bytes, {}});
    bucket->frames.push_back(base);
    ASAN_POISON_MEMORY_REGION(base, kHeader + bytes);
  }

  std::vector<Bucket> free_;
  static inline thread_local FramePool* current_ = nullptr;
};

/// Handle to one lane's coroutine. Move-only RAII owner.
class ThreadProgram {
 public:
  struct promise_type {
    /// The event this lane is suspended on — always the barrier, since
    /// sync() is the only suspension point.
    Access pending{};
    /// Error escaping the body; rethrown by the executor.
    std::exception_ptr error;

    ThreadProgram get_return_object() {
      return ThreadProgram(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { error = std::current_exception(); }

    static void* operator new(std::size_t bytes) {
      return FramePool::allocate(bytes);
    }
    static void operator delete(void* frame) noexcept {
      FramePool::deallocate(frame);
    }
  };

  using Handle = std::coroutine_handle<promise_type>;

  ThreadProgram() = default;
  explicit ThreadProgram(Handle h) : h_(h) {}
  ThreadProgram(ThreadProgram&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  ThreadProgram& operator=(ThreadProgram&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  ThreadProgram(const ThreadProgram&) = delete;
  ThreadProgram& operator=(const ThreadProgram&) = delete;
  ~ThreadProgram() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return h_.done(); }
  void resume() { h_.resume(); }
  promise_type& promise() const { return h_.promise(); }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  Handle h_;
};

namespace detail {

/// Awaitable for a barrier: always suspends, publishing the barrier as the
/// lane's pending event.
struct SyncAwait {
  static constexpr bool await_ready() noexcept { return false; }
  void await_suspend(ThreadProgram::Handle h) const noexcept {
    h.promise().pending = Access{Op::Sync, 0, 0, profile::Phase::Sync};
  }
  void await_resume() const noexcept {}
};

}  // namespace detail

}  // namespace kconv::sim
