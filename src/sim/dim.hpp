// 3-component launch geometry, mirroring CUDA's dim3.
#pragma once

#include "src/common/types.hpp"

namespace kconv::sim {

struct Dim3 {
  u32 x = 1;
  u32 y = 1;
  u32 z = 1;

  constexpr u64 count() const {
    return static_cast<u64>(x) * y * z;
  }
  friend constexpr bool operator==(const Dim3&, const Dim3&) = default;
};

/// The block of `grid` at x-fastest linear index `flat`.
inline constexpr Dim3 unflatten(const Dim3& grid, u64 flat) {
  return Dim3{static_cast<u32>(flat % grid.x),
              static_cast<u32>((flat / grid.x) % grid.y),
              static_cast<u32>(flat / (static_cast<u64>(grid.x) * grid.y))};
}

}  // namespace kconv::sim
