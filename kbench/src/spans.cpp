#include "kbench/src/spans.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/strutil.hpp"

namespace kbench {

using kconv::i32;
using kconv::i64;
using kconv::u64;

i64 Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

i32 Tracer::begin(std::string name, u64 op) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  s.end_ns = s.start_ns;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<i32>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(i32 id) {
  if (!enabled_ || id < 0) return;
  KCONV_CHECK(!open_.empty() && open_.back() == id,
              "spans must close innermost first");
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

std::vector<i64> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<i64, i64>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const i64 b = std::max(s.start_ns, p.start_ns);
    const i64 e = std::min(s.end_ns, p.end_ns);
    if (b < e) kids[static_cast<std::size_t>(s.parent)].push_back({b, e});
  }
  std::vector<i64> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    i64 covered = 0;
    i64 run_b = 0, run_e = 0;
    bool open = false;
    for (const auto& [b, e] : iv) {
      if (open && b <= run_e) {
        run_e = std::max(run_e, e);
        continue;
      }
      if (open) covered += run_e - run_b;
      run_b = b;
      run_e = e;
      open = true;
    }
    if (open) covered += run_e - run_b;
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

std::vector<SpanTotal> totals_by_name(const std::vector<Span>& spans) {
  const std::vector<i64> self = self_times(spans);
  std::vector<SpanTotal> out;
  std::map<std::string, std::size_t> at;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto [it, fresh] = at.try_emplace(spans[i].name, out.size());
    if (fresh) out.push_back(SpanTotal{spans[i].name});
    SpanTotal& t = out[it->second];
    ++t.count;
    t.total_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-6;
    t.self_ms += static_cast<double>(self[i]) * 1e-6;
  }
  return out;
}

std::string spans_json(const std::vector<Span>& spans) {
  const std::vector<i64> self = self_times(spans);
  std::string out = "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += kconv::strf(
        "  {\"id\": %zu, \"name\": \"%s\", \"op\": %llu, \"parent\": %d, "
        "\"start_ns\": %lld, \"end_ns\": %lld, \"self_ns\": %lld}%s\n",
        i, s.name.c_str(), static_cast<unsigned long long>(s.op), s.parent,
        static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
        static_cast<long long>(self[i]), i + 1 < spans.size() ? "," : "");
  }
  out += "]}\n";
  return out;
}

}  // namespace kbench
