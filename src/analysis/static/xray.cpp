#include "src/analysis/static/xray.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "src/common/error.hpp"
#include "src/common/strutil.hpp"
#include "src/sim/banks.hpp"
#include "src/sim/charge.hpp"

namespace kconv::xray {

const char* race_verdict_name(RaceVerdict v) {
  switch (v) {
    case RaceVerdict::ProvenDisjoint: return "proven-disjoint";
    case RaceVerdict::PossibleRace: return "possible-race";
    case RaceVerdict::DefiniteRace: return "definite-race";
  }
  return "?";
}

bool StaticReport::clean() const {
  for (const RacePair& r : races) {
    if (r.verdict == RaceVerdict::DefiniteRace) return false;
  }
  for (const Finding& f : findings) {
    if (f.severity != analysis::Severity::Info) return false;
  }
  return true;
}

namespace {

constexpr u64 kFnvOffset = 1469598103934665603ULL;
constexpr u64 kFnvPrime = 1099511628211ULL;

u64 fnv1a(u64 h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

u64 fnv_u64(u64 h, u64 v) { return fnv1a(h, &v, sizeof(v)); }

u64 fnv_str(u64 h, const std::string& s) {
  h = fnv_u64(h, s.size());
  return fnv1a(h, s.data(), s.size());
}

/// Charges the modeled stream through the executor's own charge rule
/// (src/sim/charge.hpp): per instruction, per warp, the lanes' accesses
/// retire through sim::retire_tx with no caches, segments close through
/// sim::close_segment and each warp's arithmetic goes through
/// sim::charge_warp_compute, so the predicted counters are bit-equal to an
/// executed launch by construction. Shared and global groups are priced by
/// the executor's pattern memo (docs/MODEL.md §5c), whose answers are the
/// analyzers' own, bit for bit. The sink itself only adds the per-site
/// profile from the returned costs.
class CounterSink final : public ModelSink {
 public:
  CounterSink(const sim::Arch& arch, const KernelModel& model,
              bool dual_banks, std::vector<SiteStats>& site_stats,
              sim::KernelStats& stats)
      : arch_(arch),
        model_(model),
        dual_banks_(dual_banks),
        site_stats_(site_stats),
        stats_(stats),
        pattern_(arch.smem_banks, arch.smem_bank_bytes, arch.gm_sector_bytes),
        n_lanes_(static_cast<u32>(model.cfg.block.count())) {
    acc_.resize(arch.warp_size);
    tx_.gmem.sectors.reserve(2 * arch.warp_size);
    lane_alu_.resize(n_lanes_);
  }

  void begin_block() {
    events_ = 0;
    fma_per_lane_ = 0;
    alu_per_lane_ = 0;
    std::fill(lane_alu_.begin(), lane_alu_.end(), u64{0});
    seg_ = sim::SegmentFlags{};
  }

  /// Closes the final (sync-less) segment and charges the warp-granular
  /// arithmetic, exactly like run_block's epilogue. Events and FMA ops are
  /// lane-uniform (every lane executes every memory op, barrier and arithmetic
  /// statement); only the implicit address-ALU charge varies by predicate.
  void end_block() {
    sim::close_segment(seg_, /*at_barrier=*/false, stats_);
    for (u32 lo = 0; lo < n_lanes_; lo += arch_.warp_size) {
      sim::WarpCompute w;
      for (u32 t = lo; t < std::min(lo + arch_.warp_size, n_lanes_); ++t) {
        w.add_lane(fma_per_lane_, alu_per_lane_ + lane_alu_[t], events_);
      }
      sim::charge_warp_compute(w, stats_);
    }
    ++stats_.blocks_executed;
  }

  void site(u32 site, std::span<const LaneAccess> lanes) override {
    KCONV_CHECK(site < model_.sites.size(),
                "xray: site index out of range");
    KCONV_CHECK(lanes.size() == n_lanes_,
                strf("xray: site '%s' emitted %zu lanes for a %u-lane block",
                     model_.sites[site].name.c_str(), lanes.size(),
                     n_lanes_));
    const sim::Op op = model_.sites[site].op;
    KCONV_CHECK(op != sim::Op::Sync, "xray: unsupported site op");
    ++events_;
    // ThreadCtx charges one address-computation ALU op on the taken path of
    // every global/shared load and store (never for constant loads, never
    // for predicated-off lanes) — mirror it here so alu counters stay exact.
    const bool addr_alu = op != sim::Op::LoadConst;
    SiteStats& ss = site_stats_[site];
    for (u32 lo = 0; lo < n_lanes_; lo += arch_.warp_size) {
      const u32 n = std::min(lo + arch_.warp_size, n_lanes_) - lo;
      u64 live = 0;
      for (u32 i = 0; i < n; ++i) {
        const LaneAccess& l = lanes[lo + i];
        // A predicated-off lane keeps its slot as an empty access.
        acc_[i] = {op, l.pred ? l.addr : 0, l.pred ? l.bytes : 0u,
                   profile::Phase::Other};
        live += acc_[i].bytes > 0 ? 1 : 0;
        if (addr_alu && l.pred) ++lane_alu_[lo + i];
      }
      const std::span<const sim::Access> group(acc_.data(), n);
      note_site(ss, group, live,
                sim::retire_tx(arch_, &pattern_, op, group, nullptr, nullptr,
                               stats_, seg_, tx_));
    }
  }

  void sync() override {
    ++events_;
    sim::close_segment(seg_, /*at_barrier=*/true, stats_);
  }

  void fma(u64 lane_ops) override { fma_per_lane_ += lane_ops; }
  void alu(u64 lane_ops) override { alu_per_lane_ += lane_ops; }

 private:
  /// Adds one retired group's cost to its site's profile.
  void note_site(SiteStats& ss, std::span<const sim::Access> group, u64 live,
                 const sim::TxCost& c) {
    if (!c.issued()) return;  // every lane predicated off
    ++ss.instrs;
    ss.live_lanes += live;
    if (is_smem(c.op)) {
      ss.lane_bytes += c.smem.lane_bytes;
      ss.unique_bytes += c.smem.unique_bytes;
      ss.request_cycles += c.smem.request_cycles;
      ss.max_conflict_degree =
          std::max(ss.max_conflict_degree, c.smem.request_cycles);
      if (dual_banks_) {
        ss.request_cycles_4b +=
            sim::analyze_smem(group, arch_.smem_banks, 4).request_cycles;
        ss.request_cycles_8b +=
            sim::analyze_smem(group, arch_.smem_banks, 8).request_cycles;
      }
    } else if (is_gmem(c.op)) {
      ss.lane_bytes += c.gmem.lane_bytes;
      ss.sectors += c.gmem.sectors.size();
    } else {
      ss.const_requests += c.cnst.requests;
      for (const sim::Access& a : group) ss.lane_bytes += a.bytes;
    }
  }

  const sim::Arch& arch_;
  const KernelModel& model_;
  const bool dual_banks_;
  std::vector<SiteStats>& site_stats_;
  sim::KernelStats& stats_;
  sim::PatternCache pattern_;
  const u32 n_lanes_;
  std::vector<sim::Access> acc_;
  sim::TxCost tx_;
  sim::SegmentFlags seg_;
  std::vector<u64> lane_alu_;  // implicit address-ALU charges, per lane
  u64 events_ = 0;
  u64 fma_per_lane_ = 0;
  u64 alu_per_lane_ = 0;
};

/// Byte-exact may-overlap analysis over one block's shared memory, one
/// barrier interval at a time. Two accesses conflict iff they touch a
/// common byte from DIFFERENT warps inside one interval with at least one
/// write: same-warp accesses are either ordered (different instructions
/// retire in round order) or warp-synchronous (one lockstep instruction),
/// matching the dynamic detector's epoch model. The `superset` pass widens
/// every predicate to its pred_any form, covering the access pattern of
/// every block of the grid (predicates only remove accesses, and smem
/// addresses are block-invariant in the shipping kernels).
class RaceSink final : public ModelSink {
 public:
  RaceSink(const KernelModel& model, u32 warp_size, bool superset)
      : model_(model),
        superset_(superset),
        warp_size_(warp_size),
        n_sites_(static_cast<u32>(model.sites.size())),
        smem_bytes_(model.cfg.shared_bytes) {
    stamp_.assign(smem_bytes_, 0);
    wmask_.assign(static_cast<std::size_t>(smem_bytes_) * n_sites_, 0);
    rmask_.assign(static_cast<std::size_t>(smem_bytes_) * n_sites_, 0);
    const std::size_t pairs = static_cast<std::size_t>(n_sites_) * n_sites_;
    race_.assign(pairs, false);
    overlap_.assign(pairs, false);
    witness_.assign(pairs, 0);
  }

  void site(u32 site, std::span<const LaneAccess> lanes) override {
    const sim::Op op = model_.sites[site].op;
    if (!is_smem(op)) return;
    const bool write = op == sim::Op::StoreShared;
    for (u32 t = 0; t < lanes.size(); ++t) {
      if (superset_ ? !lanes[t].pred_any : !lanes[t].pred) continue;
      const u32 warp = t / warp_size_;
      // Superset addresses of predicated-off lanes may decode past the
      // staging area (the guarded index math is free to); clamp.
      const u64 end =
          std::min<u64>(lanes[t].addr + lanes[t].bytes, smem_bytes_);
      for (u64 b = lanes[t].addr; b < end; ++b) touch(site, warp, b, write);
    }
  }

  void sync() override { ++epoch_; }
  void fma(u64) override {}
  void alu(u64) override {}

  bool race(u32 a, u32 b) const { return race_[a * n_sites_ + b]; }
  bool overlap(u32 a, u32 b) const { return overlap_[a * n_sites_ + b]; }
  u64 witness(u32 a, u32 b) const { return witness_[a * n_sites_ + b]; }

  /// Folds (a, b) and (b, a) entries together so lookups are symmetric.
  void symmetrize() {
    for (u32 a = 0; a < n_sites_; ++a) {
      for (u32 b = 0; b < a; ++b) {
        merge(a * n_sites_ + b, b * n_sites_ + a);
        merge(b * n_sites_ + a, a * n_sites_ + b);
      }
    }
  }

 private:
  void merge(std::size_t dst, std::size_t src) {
    if (race_[src] && !race_[dst]) witness_[dst] = witness_[src];
    race_[dst] = race_[dst] || race_[src];
    overlap_[dst] = overlap_[dst] || overlap_[src];
  }

  void touch(u32 site, u32 warp, u64 byte, bool write) {
    u32* wm = &wmask_[byte * n_sites_];
    u32* rm = &rmask_[byte * n_sites_];
    if (stamp_[byte] != epoch_) {
      std::fill_n(wm, n_sites_, 0u);
      std::fill_n(rm, n_sites_, 0u);
      stamp_[byte] = epoch_;
    }
    const u32 other = ~(1u << warp);
    for (u32 s2 = 0; s2 < n_sites_; ++s2) {
      // Earlier same-interval accesses that make this one a conflict
      // candidate: any write (and, when this is a write, any read too).
      const u32 cm = write ? (wm[s2] | rm[s2]) : wm[s2];
      if (cm == 0) continue;
      const std::size_t pair = site * n_sites_ + s2;
      if (!overlap_[pair]) overlap_[pair] = true;
      if ((cm & other) != 0 && !race_[pair]) {
        race_[pair] = true;
        witness_[pair] = byte;
      }
    }
    if (write) {
      wm[site] |= 1u << warp;
    } else {
      rm[site] |= 1u << warp;
    }
  }

  const KernelModel& model_;
  const bool superset_;
  const u32 warp_size_;
  const u32 n_sites_;
  const u64 smem_bytes_;
  u32 epoch_ = 1;
  std::vector<u32> stamp_;
  std::vector<u32> wmask_;  // [byte][site] -> warps that wrote the byte
  std::vector<u32> rmask_;  // [byte][site] -> warps that read the byte
  std::vector<char> race_;
  std::vector<char> overlap_;
  std::vector<u64> witness_;
};

/// The access signature: launch geometry + the per-site retire profile of
/// the first analyzed block. Any change to an address expression, a
/// predicate, a site's op, or the instruction mix moves it.
u64 signature_of(const KernelModel& model,
                 const std::vector<SiteStats>& first_block,
                 const sim::KernelStats& stats) {
  u64 h = kFnvOffset;
  h = fnv_str(h, model.kernel);
  h = fnv_u64(h, model.cfg.grid.x);
  h = fnv_u64(h, model.cfg.grid.y);
  h = fnv_u64(h, model.cfg.grid.z);
  h = fnv_u64(h, model.cfg.block.x);
  h = fnv_u64(h, model.cfg.block.y);
  h = fnv_u64(h, model.cfg.block.z);
  h = fnv_u64(h, model.cfg.shared_bytes);
  for (std::size_t i = 0; i < model.sites.size(); ++i) {
    const SiteDecl& d = model.sites[i];
    h = fnv_str(h, d.name);
    h = fnv_u64(h, static_cast<u64>(d.op));
    const SiteStats& s = first_block[i];
    h = fnv_u64(h, s.instrs);
    h = fnv_u64(h, s.lane_bytes);
    h = fnv_u64(h, s.unique_bytes);
    h = fnv_u64(h, s.request_cycles);
    h = fnv_u64(h, s.sectors);
    h = fnv_u64(h, s.const_requests);
  }
  h = fnv_u64(h, stats.barriers);
  h = fnv_u64(h, stats.max_warp_instrs);
  return h;
}

// Finding calibration. Thresholds follow the dynamic linter
// (analysis::LintThresholds) where a counterpart exists; the volume gates
// keep structurally-minor sites (halo tails, staging stores) from drowning
// the report — the paper's own kernels must come out clean.
constexpr u64 kMinSiteInstrs = 32;
constexpr double kReplayTrip = 2.0;
constexpr double kWidthFraction = 0.75;
constexpr double kWidthVolumeGate = 0.25;
constexpr double kOverfetchTrip = 4.0;
constexpr double kOverfetchVolumeGate = 0.10;
constexpr double kConstRequestsTrip = 2.0;

void add_finding(StaticReport& rep, std::string site, std::string kind,
                 analysis::Severity sev, double value, double threshold,
                 std::string message, std::string remediation,
                 std::string citation) {
  Finding f;
  f.site = std::move(site);
  f.kind = std::move(kind);
  f.severity = sev;
  f.value = value;
  f.threshold = threshold;
  f.message = std::move(message);
  f.remediation = std::move(remediation);
  f.citation = std::move(citation);
  rep.findings.push_back(std::move(f));
}

void derive_findings(const sim::Arch& arch, StaticReport& rep) {
  for (std::size_t i = 0; i < rep.sites.size(); ++i) {
    const SiteDecl& d = rep.sites[i];
    const SiteStats& s = rep.site_stats[i];
    if (s.instrs < kMinSiteInstrs) continue;
    const double instrs = static_cast<double>(s.instrs);
    if (is_smem(d.op)) {
      const double replay = static_cast<double>(s.request_cycles) / instrs;
      if (replay > kReplayTrip) {
        const double r4 = static_cast<double>(s.request_cycles_4b) / instrs;
        const double r8 = static_cast<double>(s.request_cycles_8b) / instrs;
        add_finding(
            rep, d.name, "bank-conflict-replays", analysis::Severity::Warning,
            replay, kReplayTrip,
            strf("%s replays %.2f request cycles per instruction (worst "
                 "single instruction %u; 4-byte banks %.2f, 8-byte banks "
                 "%.2f; 1.0 = conflict-free)",
                 sim::op_name(d.op), replay, s.max_conflict_degree, r4, r8),
            "restructure the layout so a warp's lanes hit distinct banks — "
            "pad the transposed leading dimension by one bank word as in "
            "the paper's §4.2 filter staging",
            d.citation.empty() ? "§2.1" : d.citation);
      }
      const double avg_lane =
          s.live_lanes == 0 ? 0.0
                            : static_cast<double>(s.lane_bytes) /
                                  static_cast<double>(s.live_lanes);
      const double floor = kWidthFraction * arch.smem_bank_bytes;
      const bool dominant =
          rep.predicted.smem_lane_bytes > 0 &&
          static_cast<double>(s.lane_bytes) >=
              kWidthVolumeGate *
                  static_cast<double>(rep.predicted.smem_lane_bytes);
      if (avg_lane < floor && dominant) {
        add_finding(
            rep, d.name, "bank-width-mismatch", analysis::Severity::Warning,
            avg_lane, floor,
            strf("average lane access width %.2f B is below the %u B bank "
                 "width (W_CD < W_SMB) on a dominant site",
                 avg_lane, arch.smem_bank_bytes),
            strf("widen the computation data width to the bank width "
                 "(Eq. 1: %u-byte units, e.g. float%u accesses) so each "
                 "bank cycle moves a full word",
                 arch.smem_bank_bytes, arch.smem_bank_bytes / 4),
            d.citation.empty() ? "§2.1" : d.citation);
      }
    } else if (is_gmem(d.op)) {
      const double moved =
          static_cast<double>(s.sectors) * arch.gm_sector_bytes;
      const double overfetch = moved / static_cast<double>(s.lane_bytes);
      const bool dominant =
          rep.gm_bytes_moved > 0 &&
          moved >= kOverfetchVolumeGate * rep.gm_bytes_moved;
      if (overfetch > kOverfetchTrip && dominant) {
        add_finding(
            rep, d.name, "uncoalesced-gmem", analysis::Severity::Warning,
            overfetch, kOverfetchTrip,
            strf("%s moves %.2fx the bytes its lanes ask for (%u B sector "
                 "granularity)",
                 sim::op_name(d.op), overfetch, arch.gm_sector_bytes),
            "make contiguous lanes access contiguous addresses so requests "
            "coalesce into full sectors, or stage through shared memory",
            d.citation.empty() ? "§2.2" : d.citation);
      }
    } else if (d.op == sim::Op::LoadConst) {
      const double rpi = static_cast<double>(s.const_requests) / instrs;
      if (rpi > kConstRequestsTrip) {
        add_finding(
            rep, d.name, "low-cm-broadcast", analysis::Severity::Warning,
            rpi, kConstRequestsTrip,
            strf("constant loads serialize into %.2f requests per "
                 "instruction (1.0 = full-warp broadcast)",
                 rpi),
            "make every lane of a warp read the same constant address per "
            "instruction (loop filters in the same order across lanes)",
            d.citation.empty() ? "§2.3/§3.3" : d.citation);
      }
    }
  }

  for (const RacePair& p : rep.races) {
    if (p.verdict == RaceVerdict::ProvenDisjoint) continue;
    const bool definite = p.verdict == RaceVerdict::DefiniteRace;
    add_finding(
        rep, rep.sites[p.site_a].name + "+" + rep.sites[p.site_b].name,
        definite ? "smem-definite-race" : "smem-possible-race",
        definite ? analysis::Severity::Error : analysis::Severity::Warning,
        static_cast<double>(p.witness_addr), 0.0,
        strf("sites '%s' and '%s' touch smem byte 0x%llx from different "
             "warps within one barrier interval%s",
             rep.sites[p.site_a].name.c_str(),
             rep.sites[p.site_b].name.c_str(),
             static_cast<unsigned long long>(p.witness_addr),
             definite ? "" : " under some block's predicates"),
        "order the conflicting accesses with a barrier (__syncthreads "
        "between the staging store and the consuming load)",
        "§3 Alg. 1 / §4 Alg. 2");
  }

  if (rep.min_gm_bytes > 0) {
    const double ratio = rep.gm_bytes_moved / rep.min_gm_bytes;
    add_finding(
        rep, "", "gm-traffic-vs-bound", analysis::Severity::Info, ratio, 1.0,
        strf("predicted GM traffic is %.2fx the communication lower bound "
             "(%.3g MB moved vs %.3g MB minimum)",
             ratio, rep.gm_bytes_moved / 1e6, rep.min_gm_bytes / 1e6),
        "halo re-reads and per-tile filter reloads account for the excess; "
        "larger tiles trade occupancy for traffic",
        "§3.1/§4.1");
  }
}

}  // namespace

StaticReport analyze(const sim::Arch& arch, const KernelModel& model,
                     const XrayOptions& opt) {
  KCONV_CHECK(model.emit != nullptr, "xray: model has no emit function");
  KCONV_CHECK(model.cfg.block.count() >= 1 &&
                  model.cfg.block.count() <= 1024,
              "xray: block size out of range");
  KCONV_CHECK(model.cfg.grid.count() >= 1, "xray: empty grid");

  StaticReport rep;
  rep.kernel = model.kernel;
  rep.cfg = model.cfg;
  rep.sites = model.sites;
  rep.site_stats.assign(model.sites.size(), SiteStats{});
  rep.blocks_total = model.cfg.grid.count();
  rep.min_gm_bytes = model.min_gm_bytes;
  rep.sampled =
      !opt.block_ids.empty() && opt.block_ids.size() < rep.blocks_total;

  CounterSink counters(arch, model, opt.dual_bank_modes, rep.site_stats,
                       rep.predicted);
  u64 first_flat = 0;
  const auto run_one = [&](u64 flat) {
    counters.begin_block();
    model.emit(sim::unflatten(model.cfg.grid, flat), counters);
    counters.end_block();
    if (rep.blocks_analyzed == 0) {
      first_flat = flat;
      rep.signature = signature_of(model, rep.site_stats, rep.predicted);
    }
    ++rep.blocks_analyzed;
  };
  if (opt.block_ids.empty()) {
    for (u64 flat = 0; flat < rep.blocks_total; ++flat) run_one(flat);
  } else {
    for (const u64 flat : opt.block_ids) {
      KCONV_CHECK(flat < rep.blocks_total,
                  "xray: sampled block id out of range");
      run_one(flat);
    }
  }
  rep.gm_bytes_moved =
      static_cast<double>(rep.predicted.gm_sectors) * arch.gm_sector_bytes;

  const bool have_smem = std::any_of(
      model.sites.begin(), model.sites.end(),
      [](const SiteDecl& d) { return is_smem(d.op); });
  if (opt.races && have_smem && model.cfg.shared_bytes > 0) {
    const sim::Dim3 b0 = sim::unflatten(model.cfg.grid, first_flat);
    RaceSink actual(model, arch.warp_size, /*superset=*/false);
    model.emit(b0, actual);
    actual.symmetrize();
    RaceSink superset(model, arch.warp_size, /*superset=*/true);
    model.emit(b0, superset);
    superset.symmetrize();
    const u32 n = static_cast<u32>(model.sites.size());
    for (u32 a = 0; a < n; ++a) {
      if (!is_smem(model.sites[a].op)) continue;
      for (u32 b = a; b < n; ++b) {
        if (!is_smem(model.sites[b].op)) continue;
        RacePair p;
        p.site_a = a;
        p.site_b = b;
        p.overlap = superset.overlap(a, b);
        if (actual.race(a, b)) {
          p.verdict = RaceVerdict::DefiniteRace;
          p.witness_addr = actual.witness(a, b);
        } else if (superset.race(a, b) ||
                   (p.overlap && (model.sites[a].data_dependent ||
                                  model.sites[b].data_dependent))) {
          p.verdict = RaceVerdict::PossibleRace;
          p.witness_addr = superset.witness(a, b);
        }
        rep.races.push_back(p);
      }
    }
  }

  if (opt.findings) derive_findings(arch, rep);
  return rep;
}

u64 static_signature(const sim::Arch& arch, const KernelModel& model) {
  XrayOptions opt;
  opt.block_ids = {0};
  opt.races = false;
  opt.dual_bank_modes = false;
  opt.findings = false;
  return analyze(arch, model, opt).signature;
}

u64 memoized_signature(const sim::Arch& arch, const std::string& key,
                       const std::function<KernelModel()>& make) {
  // Only the geometry the signature hash actually consumes (bank layout,
  // sector size, warp width, constant line) discriminates between archs;
  // bandwidth/latency knobs cannot move an access signature.
  const std::string full_key =
      strf("%s|banks=%u.%u|sector=%u|warp=%u|cline=%u", key.c_str(),
           arch.smem_banks, arch.smem_bank_bytes, arch.gm_sector_bytes,
           arch.warp_size, arch.const_line_bytes);
  static std::mutex mu;
  static std::unordered_map<std::string, u64> memo;
  {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = memo.find(full_key);
    if (it != memo.end()) return it->second;
  }
  const u64 sig = static_signature(arch, make());
  std::lock_guard<std::mutex> lock(mu);
  memo.emplace(full_key, sig);
  return sig;
}

CrossCheck cross_validate(const StaticReport& rep,
                          const sim::KernelStats& dyn, bool analytic) {
  CrossCheck cc;
  cc.mismatches = sim::stats_mismatches(
      rep.predicted, dyn,
      analytic ? StatsLevel::Analytic : StatsLevel::Schedule, "static",
      "dynamic");
  cc.ok = cc.mismatches.empty();
  return cc;
}

std::string format_static(const StaticReport& rep) {
  std::string out = "=== kconv-xray ===\n";
  out += strf("kernel: %s  grid %ux%ux%u  block %ux%ux%u  smem %u B\n",
              rep.kernel.c_str(), rep.cfg.grid.x, rep.cfg.grid.y,
              rep.cfg.grid.z, rep.cfg.block.x, rep.cfg.block.y,
              rep.cfg.block.z, rep.cfg.shared_bytes);
  out += strf("blocks: %llu analyzed of %llu%s  signature 0x%016llx\n",
              static_cast<unsigned long long>(rep.blocks_analyzed),
              static_cast<unsigned long long>(rep.blocks_total),
              rep.sampled ? " (sampled)" : "",
              static_cast<unsigned long long>(rep.signature));
  const sim::KernelStats& s = rep.predicted;
  out += strf("predicted: smem %llu instrs / %llu cycles (replay %.3f), "
              "gm %llu instrs / %llu sectors, const %llu instrs / %llu "
              "requests, %llu barriers\n",
              static_cast<unsigned long long>(s.smem_instrs),
              static_cast<unsigned long long>(s.smem_request_cycles),
              s.smem_replay_factor(),
              static_cast<unsigned long long>(s.gm_instrs),
              static_cast<unsigned long long>(s.gm_sectors),
              static_cast<unsigned long long>(s.const_instrs),
              static_cast<unsigned long long>(s.const_requests),
              static_cast<unsigned long long>(s.barriers));
  if (rep.min_gm_bytes > 0) {
    out += strf("traffic: %.3g MB GM moved vs %.3g MB lower bound (%.2fx)\n",
                rep.gm_bytes_moved / 1e6, rep.min_gm_bytes / 1e6,
                rep.gm_bytes_moved / rep.min_gm_bytes);
  }
  out += strf("sites: %zu\n", rep.sites.size());
  for (std::size_t i = 0; i < rep.sites.size(); ++i) {
    const SiteDecl& d = rep.sites[i];
    const SiteStats& st = rep.site_stats[i];
    out += strf("  [%s] %s (%s): %llu instrs", d.name.c_str(),
                sim::op_name(d.op), d.citation.c_str(),
                static_cast<unsigned long long>(st.instrs));
    if (st.instrs == 0) {
      out += "\n";
      continue;
    }
    const double instrs = static_cast<double>(st.instrs);
    if (is_smem(d.op)) {
      out += strf(", replay %.2f (4B banks %.2f / 8B banks %.2f), worst %u",
                  static_cast<double>(st.request_cycles) / instrs,
                  static_cast<double>(st.request_cycles_4b) / instrs,
                  static_cast<double>(st.request_cycles_8b) / instrs,
                  st.max_conflict_degree);
    } else if (is_gmem(d.op)) {
      out += strf(", %llu sectors, %llu B useful",
                  static_cast<unsigned long long>(st.sectors),
                  static_cast<unsigned long long>(st.lane_bytes));
    } else {
      out += strf(", %.2f requests/instr",
                  static_cast<double>(st.const_requests) / instrs);
    }
    out += "\n";
  }
  if (!rep.races.empty()) {
    u64 disjoint = 0;
    for (const RacePair& p : rep.races) {
      if (p.verdict == RaceVerdict::ProvenDisjoint) ++disjoint;
    }
    out += strf("races: %llu site pairs proven disjoint\n",
                static_cast<unsigned long long>(disjoint));
    for (const RacePair& p : rep.races) {
      if (p.verdict == RaceVerdict::ProvenDisjoint) continue;
      out += strf("  [%s] %s vs %s at smem byte 0x%llx\n",
                  race_verdict_name(p.verdict),
                  rep.sites[p.site_a].name.c_str(),
                  rep.sites[p.site_b].name.c_str(),
                  static_cast<unsigned long long>(p.witness_addr));
    }
  }
  if (!rep.findings.empty()) {
    out += strf("findings: %zu\n", rep.findings.size());
    for (const Finding& f : rep.findings) {
      out += strf("  [%s] %s%s%s: %s (measured %.3g, threshold %.3g, %s)\n",
                  analysis::severity_name(f.severity), f.kind.c_str(),
                  f.site.empty() ? "" : " at ",
                  f.site.c_str(), f.message.c_str(), f.value, f.threshold,
                  f.citation.c_str());
      out += strf("      fix: %s\n", f.remediation.c_str());
    }
  }
  out += strf("verdict: %s\n", rep.clean() ? "PASS" : "FAIL");
  return out;
}

std::string to_json(const StaticReport& rep, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string in1 = pad + "  ";
  const std::string in2 = pad + "    ";
  std::string out = "{\n";
  out += in1 + strf("\"kernel\": \"%s\",\n", json_escape(rep.kernel).c_str());
  out += in1 + strf("\"grid\": [%u,%u,%u],\n", rep.cfg.grid.x, rep.cfg.grid.y,
                    rep.cfg.grid.z);
  out += in1 + strf("\"block\": [%u,%u,%u],\n", rep.cfg.block.x,
                    rep.cfg.block.y, rep.cfg.block.z);
  out += in1 + strf("\"shared_bytes\": %u,\n", rep.cfg.shared_bytes);
  out += in1 + strf("\"blocks_total\": %llu,\n",
                    static_cast<unsigned long long>(rep.blocks_total));
  out += in1 + strf("\"blocks_analyzed\": %llu,\n",
                    static_cast<unsigned long long>(rep.blocks_analyzed));
  out += in1 + strf("\"sampled\": %s,\n", rep.sampled ? "true" : "false");
  // Hex string: a raw 64-bit JSON number would lose precision past 2^53.
  out += in1 + strf("\"signature\": \"0x%016llx\",\n",
                    static_cast<unsigned long long>(rep.signature));
  out += in1 + strf("\"clean\": %s,\n", rep.clean() ? "true" : "false");
  out += in1 + "\"predicted\": {\n";
  out += in2 + counters_json(sim::kKernelCounters, rep.predicted, ",\n" + in2);
  out += "\n";
  out += in1 + "},\n";
  out += in1 + strf("\"gm_bytes_moved\": %.6g,\n", rep.gm_bytes_moved);
  out += in1 + strf("\"min_gm_bytes\": %.6g,\n", rep.min_gm_bytes);
  out += in1 + "\"sites\": [";
  for (std::size_t i = 0; i < rep.sites.size(); ++i) {
    const SiteDecl& d = rep.sites[i];
    const SiteStats& st = rep.site_stats[i];
    out += i == 0 ? "\n" : ",\n";
    out += in2 +
           strf("{\"name\": \"%s\", \"op\": \"%s\", \"citation\": \"%s\", "
                "\"data_dependent\": %s, \"instrs\": %llu, "
                "\"live_lanes\": %llu, "
                "\"lane_bytes\": %llu, \"unique_bytes\": %llu, "
                "\"request_cycles\": %llu, \"request_cycles_4b\": %llu, "
                "\"request_cycles_8b\": %llu, \"max_conflict_degree\": %u, "
                "\"sectors\": %llu, \"const_requests\": %llu}",
                json_escape(d.name).c_str(), sim::op_name(d.op),
                json_escape(d.citation).c_str(),
                d.data_dependent ? "true" : "false",
                static_cast<unsigned long long>(st.instrs),
                static_cast<unsigned long long>(st.live_lanes),
                static_cast<unsigned long long>(st.lane_bytes),
                static_cast<unsigned long long>(st.unique_bytes),
                static_cast<unsigned long long>(st.request_cycles),
                static_cast<unsigned long long>(st.request_cycles_4b),
                static_cast<unsigned long long>(st.request_cycles_8b),
                st.max_conflict_degree,
                static_cast<unsigned long long>(st.sectors),
                static_cast<unsigned long long>(st.const_requests));
  }
  out += rep.sites.empty() ? "],\n" : "\n" + in1 + "],\n";
  out += in1 + "\"races\": [";
  for (std::size_t i = 0; i < rep.races.size(); ++i) {
    const RacePair& p = rep.races[i];
    out += i == 0 ? "\n" : ",\n";
    out += in2 +
           strf("{\"site_a\": \"%s\", \"site_b\": \"%s\", \"verdict\": "
                "\"%s\", \"overlap\": %s, \"witness_addr\": %llu}",
                json_escape(rep.sites[p.site_a].name).c_str(),
                json_escape(rep.sites[p.site_b].name).c_str(),
                race_verdict_name(p.verdict), p.overlap ? "true" : "false",
                static_cast<unsigned long long>(p.witness_addr));
  }
  out += rep.races.empty() ? "],\n" : "\n" + in1 + "],\n";
  out += in1 + "\"findings\": [";
  for (std::size_t i = 0; i < rep.findings.size(); ++i) {
    const Finding& f = rep.findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += in2 +
           strf("{\"site\": \"%s\", \"kind\": \"%s\", \"severity\": \"%s\", "
                "\"value\": %.6g, \"threshold\": %.6g, \"message\": \"%s\", "
                "\"remediation\": \"%s\", \"citation\": \"%s\"}",
                json_escape(f.site).c_str(), json_escape(f.kind).c_str(),
                analysis::severity_name(f.severity), f.value, f.threshold,
                json_escape(f.message).c_str(),
                json_escape(f.remediation).c_str(),
                json_escape(f.citation).c_str());
  }
  out += rep.findings.empty() ? "]\n" : "\n" + in1 + "]\n";
  out += pad + "}";
  return out;
}

}  // namespace kconv::xray
