#include "src/obs/scope.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "src/common/error.hpp"
#include "src/common/strutil.hpp"

namespace kconv::obs {

namespace fs = std::filesystem;

void PlanCacheTaxonomy::add(const std::string& status, u64 n) {
  if (status.empty() || status == "unplanned") {
    unplanned += n;
  } else if (status == "hit") {
    hit += n;
  } else if (status == "miss") {
    miss += n;
  } else if (status == "corrupt") {
    corrupt += n;
  } else if (status == "corrupt-payload") {
    corrupt_payload += n;
  } else if (status == "stale-version") {
    stale_version += n;
  } else if (status == "stale-key") {
    stale_key += n;
  } else if (status == "stale-arch") {
    stale_arch += n;
  } else if (status == "stale-config") {
    stale_config += n;
  } else if (status == "stale-trace-level") {
    stale_trace_level += n;
  } else if (status == "stale-static-signature") {
    stale_static_signature += n;
  } else if (status == "disabled") {
    disabled += n;
  } else {
    corrupt += n;
  }
}

u64 PlanCacheTaxonomy::total() const {
  return hit + miss + corrupt + corrupt_payload + stale_version + stale_key +
         stale_arch + stale_config + stale_trace_level +
         stale_static_signature + disabled + unplanned;
}

PlanCacheTaxonomy& PlanCacheTaxonomy::operator+=(const PlanCacheTaxonomy& o) {
  hit += o.hit;
  miss += o.miss;
  corrupt += o.corrupt;
  corrupt_payload += o.corrupt_payload;
  stale_version += o.stale_version;
  stale_key += o.stale_key;
  stale_arch += o.stale_arch;
  stale_config += o.stale_config;
  stale_trace_level += o.stale_trace_level;
  stale_static_signature += o.stale_static_signature;
  disabled += o.disabled;
  unplanned += o.unplanned;
  return *this;
}

RunTotals& RunTotals::operator+=(const RunTotals& o) {
  conv_launches += o.conv_launches;
  plan_taxonomy += o.plan_taxonomy;
  fused_pairs += o.fused_pairs;
  fusion_gm_bytes_eliminated += o.fusion_gm_bytes_eliminated;
  fleet_h2d_bytes += o.fleet_h2d_bytes;
  fleet_d2h_bytes += o.fleet_d2h_bytes;
  fleet_d2d_bytes += o.fleet_d2d_bytes;
  fleet_transfer_seconds += o.fleet_transfer_seconds;
  fleet_device_chunks += o.fleet_device_chunks;
  comm_bound_devices += o.comm_bound_devices;
  arena_slot_reuses += o.arena_slot_reuses;
  arena_peak_bytes = std::max(arena_peak_bytes, o.arena_peak_bytes);
  return *this;
}

void RunTotals::add_to(Metrics& m) const {
  m.count("conv_launches", conv_launches);
  m.count("fused_pairs", fused_pairs);
  m.count("plan_hit", plan_taxonomy.hit);
  m.count("plan_miss", plan_taxonomy.miss_total());
  m.count("arena_slot_reuses", arena_slot_reuses);
  m.count("fleet_device_chunks", fleet_device_chunks);
  m.count("comm_bound_devices", comm_bound_devices);
  m.gauge_max("arena_peak_bytes", static_cast<double>(arena_peak_bytes));
}

TelemetrySink::TelemetrySink(std::string dir) : dir_(std::move(dir)) {
  KCONV_CHECK(!dir_.empty(), "telemetry output directory path is empty");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  KCONV_CHECK(!ec && fs::is_directory(dir_, ec),
              strf("telemetry path '%s' is not a usable directory",
                   dir_.c_str()));
  const std::string events_path = dir_ + "/events.jsonl";
  events_ = std::fopen(events_path.c_str(), "wb");
  KCONV_CHECK(events_ != nullptr,
              strf("telemetry directory '%s' is not writable", dir_.c_str()));
  const std::string metrics_path = dir_ + "/metrics.jsonl";
  metrics_file_ = std::fopen(metrics_path.c_str(), "wb");
  if (metrics_file_ == nullptr) {
    std::fclose(events_);
    events_ = nullptr;
    KCONV_CHECK(false, strf("telemetry directory '%s' is not writable",
                            dir_.c_str()));
  }
  epoch_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
}

TelemetrySink::~TelemetrySink() {
  if (events_ != nullptr) std::fclose(events_);
  if (metrics_file_ != nullptr) std::fclose(metrics_file_);
}

double TelemetrySink::now_us() const {
  const i64 ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now().time_since_epoch())
                     .count();
  return static_cast<double>(ns - epoch_ns_) / 1e3;
}

void TelemetrySink::write_line(const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), events_);
  std::fputc('\n', events_);
  std::fflush(events_);
  ++events_written_;
}

u64 TelemetrySink::begin_span(u64 trace, u64 parent, const char* tier,
                              const std::string& name,
                              std::string args_json) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 id = next_span_++;
  SpanRecord rec;
  rec.trace = trace;
  rec.span = id;
  rec.parent = parent;
  rec.tier = tier;
  rec.name = name;
  rec.args_json = std::move(args_json);
  rec.begin_us = now_us();
  span_index_[id] = spans_.size();
  std::string line = strf(
      "{\"ev\":\"span_begin\",\"trace\":%llu,\"span\":%llu,\"parent\":%llu,"
      "\"tier\":\"%s\",\"name\":\"%s\",\"ts_us\":%.3f",
      (unsigned long long)trace, (unsigned long long)id,
      (unsigned long long)parent, tier, json_escape(name).c_str(),
      rec.begin_us);
  if (!rec.args_json.empty()) line += strf(",\"args\":%s", rec.args_json.c_str());
  line += "}";
  spans_.push_back(std::move(rec));
  ++open_;
  write_line(line);
  return id;
}

void TelemetrySink::end_span(u64 span) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = span_index_.find(span);
  if (it == span_index_.end()) return;
  SpanRecord& rec = spans_[it->second];
  if (rec.end_us >= 0.0) return;
  rec.end_us = now_us();
  if (open_ > 0) --open_;
  write_line(strf("{\"ev\":\"span_end\",\"trace\":%llu,\"span\":%llu,"
                  "\"ts_us\":%.3f}",
                  (unsigned long long)rec.trace, (unsigned long long)span,
                  rec.end_us));
}

void TelemetrySink::plan_cache_event(u64 trace, u64 span,
                                     const std::string& status,
                                     u64 blocks_replayed) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string st = status.empty() ? "unplanned" : status;
  write_line(strf("{\"ev\":\"plan_cache\",\"trace\":%llu,\"span\":%llu,"
                  "\"status\":\"%s\",\"blocks_replayed\":%llu,"
                  "\"ts_us\":%.3f}",
                  (unsigned long long)trace, (unsigned long long)span,
                  json_escape(st).c_str(), (unsigned long long)blocks_replayed,
                  now_us()));
}

void TelemetrySink::fleet_device_event(u64 trace, u64 span, u32 device,
                                       u64 blocks, u64 h2d_bytes,
                                       u64 d2h_bytes, u64 d2d_bytes,
                                       double transfer_s, double compute_s,
                                       double comm_ratio, bool comm_bound) {
  std::lock_guard<std::mutex> lock(mu_);
  write_line(strf(
      "{\"ev\":\"fleet_device\",\"trace\":%llu,\"span\":%llu,\"device\":%u,"
      "\"blocks\":%llu,\"h2d_bytes\":%llu,\"d2h_bytes\":%llu,"
      "\"d2d_bytes\":%llu,\"transfer_us\":%.3f,\"compute_us\":%.3f,"
      "\"comm_ratio\":%.6f,\"comm_bound\":%s,\"ts_us\":%.3f}",
      (unsigned long long)trace, (unsigned long long)span, device,
      (unsigned long long)blocks, (unsigned long long)h2d_bytes,
      (unsigned long long)d2h_bytes, (unsigned long long)d2d_bytes,
      transfer_s * 1e6, compute_s * 1e6, comm_ratio,
      comm_bound ? "true" : "false", now_us()));
  // Device lanes: the launch model serialises a chunk's transfers before its
  // compute, so the lane cursor advances transfer-then-compute per event.
  double& cur = device_cursor_us_[device];
  DeviceLaneSlice t;
  t.device = device;
  t.transfer = true;
  t.name = strf("transfer trace=%llu", (unsigned long long)trace);
  t.begin_us = cur;
  t.dur_us = transfer_s * 1e6;
  t.bytes = h2d_bytes + d2h_bytes + d2d_bytes;
  device_slices_.push_back(t);
  DeviceLaneSlice c;
  c.device = device;
  c.transfer = false;
  c.name = strf("compute trace=%llu blocks=%llu", (unsigned long long)trace,
                (unsigned long long)blocks);
  c.begin_us = cur + t.dur_us;
  c.dur_us = compute_s * 1e6;
  c.bytes = 0;
  device_slices_.push_back(c);
  cur = c.begin_us + c.dur_us;
}

void TelemetrySink::arena_event(u64 trace, u64 span, const std::string& node,
                                i64 slot, bool reused, u64 bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  write_line(strf("{\"ev\":\"arena_slot\",\"trace\":%llu,\"span\":%llu,"
                  "\"node\":\"%s\",\"slot\":%lld,\"reused\":%s,"
                  "\"bytes\":%llu,\"ts_us\":%.3f}",
                  (unsigned long long)trace, (unsigned long long)span,
                  json_escape(node).c_str(), (long long)slot,
                  reused ? "true" : "false", (unsigned long long)bytes,
                  now_us()));
}

void TelemetrySink::merge_metrics(const MetricsKey& key,
                                  const Metrics& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  registry_.merge(key, delta);
}

void TelemetrySink::snapshot_metrics() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string lines = registry_.snapshot_jsonl(snapshots_++);
  std::fwrite(lines.data(), 1, lines.size(), metrics_file_);
  std::fflush(metrics_file_);
}

u64 TelemetrySink::events_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_written_;
}

u64 TelemetrySink::snapshots_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshots_;
}

u64 TelemetrySink::open_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_;
}

std::vector<SpanRecord> TelemetrySink::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<DeviceLaneSlice> TelemetrySink::device_slices() const {
  std::lock_guard<std::mutex> lock(mu_);
  return device_slices_;
}

MetricsRegistry TelemetrySink::metrics_copy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return registry_;
}

}  // namespace kconv::obs
