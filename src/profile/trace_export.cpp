#include "src/profile/trace_export.hpp"

#include <algorithm>
#include <functional>
#include <map>

#include "src/common/strutil.hpp"
#include "src/profile/roofline.hpp"

namespace kconv::profile {

namespace {

// Modeled wall time of one slice under the single-block pipe model, in
// microseconds. Sync slices cost barriers * barrier_cost; everything else
// costs its binding pipe. Floored at a tenth of a cycle so zero-cost
// slices stay visible and timestamps stay strictly ordered per track.
double slice_us(const sim::Arch& arch, const PhaseSlice& sl) {
  double cycles;
  if (sl.phase == Phase::Sync) {
    cycles = static_cast<double>(sl.stats.barriers) * arch.barrier_cost;
  } else {
    cycles = phase_pipe_cycles(arch, sl.stats).total;
  }
  cycles = std::max(cycles, 0.1);
  return cycles / (arch.clock_ghz * 1e3);
}

using Emit = std::function<void(std::string)>;

// Emits one block timeline under `pid` with the given process label.
// Shared by the single-launch export and the unified serving export.
void emit_block_timeline(const Emit& emit, const sim::Arch& arch,
                         const BlockTimeline& tl, unsigned long long pid,
                         const std::string& label) {
  emit(strf("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %llu, "
            "\"tid\": 0, \"args\": {\"name\": \"%s\"}}",
            pid, json_escape(label).c_str()));
  emit(strf("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %llu, "
            "\"tid\": 0, \"args\": {\"name\": \"phases\"}}",
            pid));
  double ts = 0.0;
  for (const PhaseSlice& sl : tl.slices) {
    const double dur = slice_us(arch, sl);
    const sim::KernelStats& s = sl.stats;
    emit(strf("{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %llu, "
              "\"tid\": 0, \"ts\": %.6f, \"dur\": %.6f, \"args\": "
              "{\"gm_sectors\": %llu, \"smem_request_cycles\": %llu, "
              "\"const_requests\": %llu, \"fma_lane_ops\": %llu, "
              "\"barriers\": %llu}}",
              phase_name(sl.phase), pid, ts, dur,
              static_cast<unsigned long long>(s.gm_sectors),
              static_cast<unsigned long long>(s.smem_request_cycles),
              static_cast<unsigned long long>(s.const_requests),
              static_cast<unsigned long long>(s.fma_lane_ops),
              static_cast<unsigned long long>(s.barriers)));
    // Average bandwidths over the slice, as counter tracks.
    const double secs = dur * 1e-6;
    const double gm_gbps = static_cast<double>(s.gm_sectors) *
                           arch.gm_sector_bytes / secs / 1e9;
    const double sm_gbps = static_cast<double>(s.smem_bytes) / secs / 1e9;
    emit(strf("{\"name\": \"GM GB/s\", \"ph\": \"C\", \"pid\": %llu, "
              "\"ts\": %.6f, \"args\": {\"value\": %.4g}}",
              pid, ts, gm_gbps));
    emit(strf("{\"name\": \"SM GB/s\", \"ph\": \"C\", \"pid\": %llu, "
              "\"ts\": %.6f, \"args\": {\"value\": %.4g}}",
              pid, ts, sm_gbps));
    ts += dur;
  }
  // Close the counter tracks so the last value has an extent.
  emit(strf("{\"name\": \"GM GB/s\", \"ph\": \"C\", \"pid\": %llu, "
            "\"ts\": %.6f, \"args\": {\"value\": 0}}",
            pid, ts));
  emit(strf("{\"name\": \"SM GB/s\", \"ph\": \"C\", \"pid\": %llu, "
            "\"ts\": %.6f, \"args\": {\"value\": 0}}",
            pid, ts));
}

}  // namespace

std::string chrome_trace_json(const sim::Arch& arch,
                              const LaunchProfile& prof) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  Emit emit = [&](std::string ev) {
    if (!first) out += ",\n";
    first = false;
    out += ev;
  };
  for (const BlockTimeline& tl : prof.timelines) {
    emit_block_timeline(emit, arch, tl, tl.seq,
                        strf("block (%u,%u,%u)", tl.block.x, tl.block.y,
                             tl.block.z));
  }
  out += "\n]}";
  return out;
}

std::string unified_chrome_trace_json(
    const sim::Arch& arch, const std::vector<ServingTraceSpan>& serving,
    const std::vector<DeviceTraceSlice>& devices,
    const std::vector<LabeledTimeline>& blocks) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  Emit emit = [&](std::string ev) {
    if (!first) out += ",\n";
    first = false;
    out += ev;
  };

  // ---- serving tier: pid 0, B/E spans, one lane per thread -------------
  emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
       "\"tid\": 0, \"args\": {\"name\": \"serving\"}}");
  std::map<u64, std::vector<const ServingTraceSpan*>> lanes;
  for (const ServingTraceSpan& sp : serving) lanes[sp.lane].push_back(&sp);
  for (auto& [lane, spans] : lanes) {
    emit(strf("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
              "\"tid\": %llu, \"args\": {\"name\": \"%s\"}}",
              (unsigned long long)lane,
              json_escape(spans.front()->lane_name).c_str()));
    // Spans on a lane nest by construction; sort outer-first (earlier
    // begin, then longer) and emit B/E with an explicit stack so every
    // inner end precedes its enclosing end.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const ServingTraceSpan* a, const ServingTraceSpan* b) {
                       if (a->begin_us != b->begin_us)
                         return a->begin_us < b->begin_us;
                       return a->end_us > b->end_us;
                     });
    std::vector<const ServingTraceSpan*> stack;
    auto close_until = [&](double ts) {
      while (!stack.empty() && stack.back()->end_us <= ts) {
        emit(strf("{\"name\": \"%s\", \"ph\": \"E\", \"pid\": 0, "
                  "\"tid\": %llu, \"ts\": %.3f}",
                  json_escape(stack.back()->name).c_str(),
                  (unsigned long long)lane, stack.back()->end_us));
        stack.pop_back();
      }
    };
    for (const ServingTraceSpan* sp : spans) {
      close_until(sp->begin_us);
      emit(strf("{\"name\": \"%s\", \"ph\": \"B\", \"pid\": 0, "
                "\"tid\": %llu, \"ts\": %.3f}",
                json_escape(sp->name).c_str(), (unsigned long long)lane,
                sp->begin_us));
      stack.push_back(sp);
    }
    close_until(1e300);
  }

  // ---- device tier: pid 100+d, transfer (tid 0) / compute (tid 1) ------
  std::map<u32, std::map<int, std::vector<const DeviceTraceSlice*>>> devs;
  for (const DeviceTraceSlice& sl : devices) {
    devs[sl.device][sl.transfer ? 0 : 1].push_back(&sl);
  }
  for (auto& [dev, tids] : devs) {
    const unsigned long long pid = 100ull + dev;
    emit(strf("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %llu, "
              "\"tid\": 0, \"args\": {\"name\": \"device %u\"}}",
              pid, dev));
    for (auto& [tid, slices] : tids) {
      emit(strf("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %llu, "
                "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
                pid, tid, tid == 0 ? "transfer" : "compute"));
      std::stable_sort(slices.begin(), slices.end(),
                       [](const DeviceTraceSlice* a,
                          const DeviceTraceSlice* b) {
                         return a->begin_us < b->begin_us;
                       });
      for (const DeviceTraceSlice* sl : slices) {
        emit(strf("{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %llu, "
                  "\"tid\": %d, \"ts\": %.6f, \"dur\": %.6f, "
                  "\"args\": {\"bytes\": %llu}}",
                  json_escape(sl->name).c_str(), pid, tid, sl->begin_us,
                  sl->dur_us, (unsigned long long)sl->bytes));
      }
    }
  }

  // ---- block tier: pid 1000+i, the §7 phase timelines ------------------
  unsigned long long next = 1000;
  for (const LabeledTimeline& lt : blocks) {
    const BlockTimeline& tl = lt.timeline;
    emit_block_timeline(emit, arch, tl, next++,
                        strf("block %s (%u,%u,%u)", lt.label.c_str(),
                             tl.block.x, tl.block.y, tl.block.z));
  }

  out += "\n]}";
  return out;
}

}  // namespace kconv::profile
