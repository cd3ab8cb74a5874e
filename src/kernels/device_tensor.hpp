// Pitched multi-plane device images (the cudaMallocPitch idiom), generic
// over the storage element type.
//
// Device images are `planes` row-major planes whose rows are padded to a
// 16-byte-aligned pitch. The pitch guarantees that the vector-unit accesses
// the paper's kernels rely on (float2/float4, or half8/char8 in the
// short-dtype extension) are always naturally aligned at any row start, and
// a small tail slack lets edge threads over-read harmlessly instead of
// faulting.
//
// Storage types: `float` (the paper's evaluation), `f16`, `i8q` (the
// conclusion's short-data-type extension). Host-side values are always
// float; conversion happens on upload/download and inside kernels on
// load/store, matching what a real mixed-precision pipeline does.
#pragma once

#include "src/sim/device.hpp"
#include "src/tensor/tensor.hpp"

namespace kconv::kernels {

/// The pitched-image rule, for `elem`-byte storage: rows padded to a
/// 16-byte-aligned pitch (in elements), plus 64 bytes of slack so edge
/// threads may over-read within their last vector unit.
inline i64 plane_pitch(i64 w, i64 elem) { return round_up(w, 16 / elem); }
inline i64 plane_elems(i64 planes, i64 h, i64 w, i64 elem) {
  return planes * h * plane_pitch(w, elem) + 64 / elem;
}

/// Non-owning device-side view: index math only, captured by kernels.
template <typename T>
struct PlanesViewT {
  sim::BufferView<T> buf;
  i64 planes = 0;
  i64 h = 0;
  i64 w = 0;
  i64 pitch = 0;  // elements per row; pitch * sizeof(T) is 16B-aligned

  /// Element index of (plane, row, col). Columns may reach into the pitch
  /// padding (but never past it) — that is by design, see file comment.
  i64 idx(i64 p, i64 y, i64 x) const { return (p * h + y) * pitch + x; }
};

using PlanesView = PlanesViewT<float>;

/// Owning pitched allocation + its view.
template <typename T>
class DevicePlanesT {
 public:
  DevicePlanesT() = default;

  /// Allocates `planes` x `h` x `w` with aligned pitch on `dev`, zeroed.
  DevicePlanesT(sim::Device& dev, i64 planes, i64 h, i64 w) {
    KCONV_CHECK(planes >= 1 && h >= 1 && w >= 1,
                "empty device plane allocation");
    const i64 elem = static_cast<i64>(sizeof(T));
    arr_ = dev.alloc<T>(plane_elems(planes, h, w, elem));
    view_ = PlanesViewT<T>{arr_.view(), planes, h, w, plane_pitch(w, elem)};
  }

  const PlanesViewT<T>& view() const { return view_; }

  /// Uploads image `n` of a (N, C, H, W) float tensor, converting each
  /// element to T (rounding for f16, saturating for i8q).
  void upload(const tensor::Tensor& t, i64 n = 0) {
    KCONV_CHECK(t.c() == view_.planes && t.h() == view_.h && t.w() == view_.w,
                "tensor shape does not match device planes");
    std::vector<T> staged(
        static_cast<std::size_t>(arr_.size()), T{});
    for (i64 p = 0; p < view_.planes; ++p)
      for (i64 y = 0; y < view_.h; ++y)
        for (i64 x = 0; x < view_.w; ++x)
          staged[static_cast<std::size_t>(view_.idx(p, y, x))] =
              T(t.at(n, p, y, x));
    arr_.upload(staged);
  }

  /// Downloads into a fresh (1, planes, h, w) float tensor.
  tensor::Tensor download() const {
    const auto raw = arr_.download();
    tensor::Tensor t(1, view_.planes, view_.h, view_.w);
    for (i64 p = 0; p < view_.planes; ++p)
      for (i64 y = 0; y < view_.h; ++y)
        for (i64 x = 0; x < view_.w; ++x)
          t.at(0, p, y, x) = static_cast<float>(
              raw[static_cast<std::size_t>(view_.idx(p, y, x))]);
    return t;
  }

  void zero() { arr_.zero(); }

 private:
  sim::DeviceArray<T> arr_;
  PlanesViewT<T> view_;
};

using DevicePlanes = DevicePlanesT<float>;

/// Flattens an (F, C, K, K) filter tensor into a host vector in
/// filter-major order (f, c, ky, kx) — the GM layout of the general case
/// and the CM layout of the special case.
inline std::vector<float> flatten_filters(const tensor::Tensor& filters) {
  std::vector<float> flat;
  flat.reserve(static_cast<std::size_t>(filters.size()));
  for (i64 f = 0; f < filters.n(); ++f)
    for (i64 c = 0; c < filters.c(); ++c)
      for (i64 y = 0; y < filters.h(); ++y)
        for (i64 x = 0; x < filters.w(); ++x)
          flat.push_back(filters.at(f, c, y, x));
  return flat;
}

}  // namespace kconv::kernels
