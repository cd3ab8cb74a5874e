// Coroutine plumbing for device-thread programs.
//
// A device kernel body is a C++20 coroutine returning ThreadProgram. Each
// simulated thread (lane) is one coroutine instance. Memory operations never
// suspend: the ThreadCtx applies them and notes each event in the lane's
// recorder (or tape), so one resume runs the lane to its next barrier or to
// completion. sync() is the only suspension point; the BlockExecutor then
// regroups the recorded streams into warp transactions in lockstep round
// order (block_exec.cpp).
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "src/sim/event.hpp"

namespace kconv::sim {

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

/// Awaitable for a load: the functional read (or tape note) already
/// happened when the awaitable was built, so it never suspends and carries
/// only the value. Memory effects thus apply in lane-resume order within a
/// barrier segment — the same contract as warp-synchronous CUDA code that
/// separates conflicting accesses with __syncthreads (all kconv kernels do).
/// With no conflicting cross-lane accesses between barriers, running each
/// lane to its barrier in one resume leaves memory state bit-identical to
/// lockstep execution (MODEL.md §5b).
template <typename V>
struct LoadAwait {
  V value;

  static constexpr bool await_ready() noexcept { return true; }
  void await_suspend(ThreadProgram::Handle) const noexcept {}
  V await_resume() const noexcept { return value; }
};

/// Awaitable for a store (write already applied); never suspends.
struct VoidAwait {
  static constexpr bool await_ready() noexcept { return true; }
  void await_suspend(ThreadProgram::Handle) const noexcept {}
  void await_resume() const noexcept {}
};

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
