// In-memory spans for the traced run.
//
// The traced run records one span around each of the benchmark's own calls
// into a layer's public functions: name, start, end, parent span and op id.
// Spans stay in memory and are written out when the run ends. A span's self
// time is its duration minus the part of it that its child spans cover.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "src/common/types.hpp"

namespace kbench {

struct Span {
  std::string name;
  kconv::i64 start_ns = 0;  ///< since the tracer was created
  kconv::i64 end_ns = 0;
  kconv::i32 parent = -1;   ///< index into the span list; -1 for a root
  kconv::u64 op = 0;        ///< the op the span belongs to
};

/// Single-threaded span recorder. Disabled, every call is a no-op.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span under the innermost open one; -1 when disabled.
  kconv::i32 begin(std::string name, kconv::u64 op);
  /// Closes span `id` (the innermost open one).
  void end(kconv::i32 id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  kconv::i64 now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<kconv::i32> open_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, kconv::u64 op)
      : t_(t), id_(t.begin(std::move(name), op)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  kconv::i32 id_;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent.
std::vector<kconv::i64> self_times(const std::vector<Span>& spans);

struct SpanTotal {
  std::string name;
  kconv::u64 count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Count, total and self time per span name, in first-seen order.
std::vector<SpanTotal> totals_by_name(const std::vector<Span>& spans);

/// The span list with self times as a JSON document.
std::string spans_json(const std::vector<Span>& spans);

}  // namespace kbench
