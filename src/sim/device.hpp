// The simulated GPU device: architecture + memory allocators + L2.
//
// A Device is the root object user code creates; everything else (buffers,
// constant banks, launches) hangs off it. Addresses are handed out
// monotonically (AddressBump) so that no two allocations ever alias.
#pragma once

#include <memory>
#include <span>

#include "src/sim/arch.hpp"
#include "src/sim/l2cache.hpp"
#include "src/sim/memory.hpp"

namespace kconv::sim {

/// The device address policy: a monotonic bump from 0x1000 (page 0 stays
/// unmapped to catch null-ish bugs) with 256-byte-aligned successors, like
/// cudaMalloc. Global and constant space each run one. Kernel plans run
/// their own instances to place buffers where a fresh Device would.
class AddressBump {
 public:
  u64 alloc(u64 bytes) {
    const u64 base = next_;
    next_ = static_cast<u64>(round_up(static_cast<i64>(base + bytes), 256));
    return base;
  }

 private:
  u64 next_ = 0x1000;
};

class Device {
 public:
  explicit Device(Arch arch)
      : arch_(std::move(arch)),
        l2_(arch_.l2_capacity, arch_.gm_sector_bytes) {}

  const Arch& arch() const { return arch_; }
  L2Cache& l2() { return l2_; }

  /// Allocates `bytes` of simulated global memory (256-byte aligned base,
  /// like cudaMalloc).
  std::unique_ptr<DeviceBuffer> alloc_bytes(std::size_t bytes) {
    return std::make_unique<DeviceBuffer>(gm_.alloc(bytes), bytes);
  }

  /// Allocates a typed global array of `count` elements.
  template <typename T>
  DeviceArray<T> alloc(i64 count) {
    KCONV_CHECK(count >= 0, "negative allocation");
    return DeviceArray<T>(alloc_bytes(static_cast<std::size_t>(count) *
                                      sizeof(T)),
                          count);
  }

  /// Allocates a typed global array and uploads `src` into it.
  template <typename T>
  DeviceArray<T> alloc(std::span<const T> src) {
    auto arr = alloc<T>(static_cast<i64>(src.size()));
    arr.upload(src);
    return arr;
  }

  /// Creates a constant-memory bank holding `src` (rejected if it exceeds
  /// the architecture's constant capacity — the paper's reason for moving
  /// general-case filters to global memory).
  template <typename T>
  std::unique_ptr<ConstBuffer> alloc_const(std::span<const T> src) {
    auto buf = std::make_unique<ConstBuffer>(
        const_.alloc(src.size_bytes()), src.size_bytes(),
        arch_.const_capacity);
    buf->upload(src);
    return buf;
  }

 private:
  Arch arch_;
  L2Cache l2_;
  AddressBump gm_;
  AddressBump const_;  // constant space is separate from global space
};

}  // namespace kconv::sim
