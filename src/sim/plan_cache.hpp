// Disk-backed launch-plan store (docs/MODEL.md §5d).
//
// A PlanCache is a directory of versioned, checksummed blobs keyed by a
// caller-built string (kernel id + shape + launch config + arch). The store
// is deliberately dumb: it moves opaque payload bytes and owns exactly the
// envelope-level integrity story —
//
//   * every blob carries a magic, the format version, the full key string
//     and an FNV checksum of the payload;
//   * load() re-derives all four and reports any mismatch as a distinct
//     miss reason ("stale-version", "stale-key", "corrupt", ...) instead of
//     returning questionable bytes — a stale or truncated store can only
//     ever cost a re-capture, never a silently wrong plan;
//   * store() writes to a unique temp file and renames it into place, so
//     concurrent writers (parallel autotune candidates, several processes
//     sharing one cache dir) leave either the old blob or a complete new
//     one, never a torn file.
//
// What the payload *means* (serialized traces, tapes, pattern tables) is
// plan_io.hpp's business; what a hit is worth is the launch layer's.
#pragma once

#include <atomic>
#include <cstring>
#include <string>
#include <string_view>

#include "src/common/types.hpp"

namespace kconv::sim {

/// Envelope format version: bump whenever plan_io's payload layout changes
/// incompatibly, so old stores are rejected loudly instead of misparsed.
/// v2: tape op set grew (TapeOp::BiasRelu, the fused conv epilogue).
/// v3: plan header records the capturing kernel's static access signature
///     (kconv-xray, docs/MODEL.md §10) for warm-side pre-validation.
/// v4: class traces drop the per-phase splits (diagnostic launches never
///     replay, so no plan serves a phase profile).
inline constexpr u32 kPlanFormatVersion = 4;

/// Little-endian byte-buffer writer for plan payloads.
class PlanWriter {
 public:
  void put_u8(u8 v) { raw(&v, 1); }
  void put_u16(u16 v) { raw(&v, 2); }
  void put_u32(u32 v) { raw(&v, 4); }
  void put_u64(u64 v) { raw(&v, 8); }
  void put_i32(i32 v) { raw(&v, 4); }
  void put_i64(i64 v) { raw(&v, 8); }
  void put_f64(double v) { raw(&v, 8); }
  void put_str(std::string_view s) {
    put_u32(static_cast<u32>(s.size()));
    raw(s.data(), s.size());
  }
  void raw(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }

  const std::string& buf() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a plan payload. Any out-of-range read flips
/// ok() to false and yields zeros; callers validate once at the end (or at
/// structural checkpoints) instead of per field.
class PlanReader {
 public:
  explicit PlanReader(std::string_view bytes) : p_(bytes.data()), n_(bytes.size()) {}

  u8 get_u8() { return get<u8>(); }
  u16 get_u16() { return get<u16>(); }
  u32 get_u32() { return get<u32>(); }
  u64 get_u64() { return get<u64>(); }
  i32 get_i32() { return get<i32>(); }
  i64 get_i64() { return get<i64>(); }
  double get_f64() { return get<double>(); }
  std::string get_str() {
    const u32 len = get_u32();
    if (!can(len)) return {};
    std::string s(p_ + off_, len);
    off_ += len;
    return s;
  }
  bool raw(void* out, std::size_t n) {
    if (!can(n)) return false;
    std::memcpy(out, p_ + off_, n);
    off_ += n;
    return true;
  }
  /// Zero-copy read: a pointer to the next `n` payload bytes (valid while
  /// the underlying buffer lives), or nullptr past the end.
  const char* view(std::size_t n) {
    if (!can(n)) return nullptr;
    const char* p = p_ + off_;
    off_ += n;
    return p;
  }

  bool ok() const { return ok_; }
  bool at_end() const { return ok_ && off_ == n_; }
  std::size_t remaining() const { return n_ - off_; }

 private:
  template <typename T>
  T get() {
    T v{};
    raw(&v, sizeof(T));
    return v;
  }
  bool can(std::size_t n) {
    if (!ok_ || n > n_ - off_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const char* p_;
  std::size_t n_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

/// FNV-1a over a byte range, folded 8 bytes at a time (payload checksums).
u64 plan_checksum(std::string_view bytes);

/// The directory store. Construction probes the directory (creating it if
/// absent) and throws kconv::Error when it is not a readable+writable
/// directory — callers that want a clean exit (kconv_cli) probe by
/// constructing early, before any simulation work.
class PlanCache {
 public:
  /// `byte_budget` caps the directory's total blob bytes (0 = unbounded):
  /// when a store pushes the directory past the cap, least-recently-used
  /// entries are evicted — a plan blob and its `<key>|tapes` sidecar always
  /// leave together, so a surviving entry is never left half-warm. Eviction
  /// only costs a re-capture (an evicted key is an ordinary "miss" later);
  /// the entry just stored is never evicted, even when it alone exceeds the
  /// cap.
  explicit PlanCache(std::string dir, u64 byte_budget = 0);

  const std::string& dir() const { return dir_; }

  /// Adjusts the byte cap; takes effect at the next store() (0 disables).
  void set_byte_budget(u64 bytes) {
    budget_.store(bytes, std::memory_order_relaxed);
  }
  u64 byte_budget() const { return budget_.load(std::memory_order_relaxed); }

  /// Total bytes currently held by the directory's plan blobs.
  u64 disk_bytes() const;

  /// Loads and envelope-validates the blob for `key`. True on a valid hit
  /// (payload filled); false otherwise with `*why` one of "miss",
  /// "corrupt", "stale-version" or "stale-key".
  bool load(const std::string& key, std::string& payload,
            std::string* why = nullptr);

  /// Zero-copy variant: fills `blob` with the raw file and points `payload`
  /// at the validated payload bytes inside it. The view is valid as long as
  /// `blob` is alive and unmodified. The hot path for multi-megabyte plans —
  /// load() costs one extra full-payload copy on top of this.
  bool load_view(const std::string& key, std::string& blob,
                 std::string_view& payload, std::string* why = nullptr);

  /// Atomically (tmp + rename) writes the blob for `key`, replacing any
  /// previous version. Throws kconv::Error on I/O failure.
  void store(const std::string& key, std::string_view payload);

  /// Final on-disk path of a key's blob (hash-named; the full key string
  /// lives inside the envelope and is verified on load).
  std::string path_for(const std::string& key) const;

  u64 loads() const { return loads_.load(std::memory_order_relaxed); }
  u64 hits() const { return hits_.load(std::memory_order_relaxed); }
  u64 stores() const { return stores_.load(std::memory_order_relaxed); }
  /// Files removed by budget eviction (a blob and its sidecar count as two).
  u64 evictions() const { return evictions_.load(std::memory_order_relaxed); }

 private:
  void evict_to_budget(const std::string& keep_key);

  std::string dir_;
  std::atomic<u64> budget_{0};
  // One store may serve several host threads (parallel autotune probes,
  // concurrent warm launches) — count with relaxed atomics.
  std::atomic<u64> loads_{0};
  std::atomic<u64> hits_{0};
  std::atomic<u64> stores_{0};
  std::atomic<u64> evictions_{0};
};

}  // namespace kconv::sim
