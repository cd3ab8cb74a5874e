#include "src/sim/fleet.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"
#include "src/common/strutil.hpp"

namespace kconv::sim {

namespace {

/// Slab boundary i of E items split across D devices: balanced to within
/// one item, and a pure function of (i, E, D) — never of host scheduling.
u64 slab_bound(u64 i, u64 extent, u32 devices) {
  return extent * i / devices;
}

/// bytes * part / whole in exact integer arithmetic (byte shares of the
/// staged tensors stay deterministic across hosts).
u64 byte_share(u64 bytes, u64 part, u64 whole) {
  if (whole == 0) return 0;
  return static_cast<u64>(static_cast<unsigned __int128>(bytes) * part /
                          whole);
}

u32 axis_extent(const Dim3& grid, i32 axis) {
  switch (axis) {
    case 0: return grid.x;
    case 1: return grid.y;
    case 2: return grid.z;
    default: return 0;
  }
}

}  // namespace

std::vector<FleetShard> shard_grid(const Dim3& grid, const FleetOptions& fleet,
                                   const FleetHints& hints) {
  const u64 total = grid.count();
  const u32 D = fleet.devices;
  KCONV_CHECK(D >= 1, "fleet needs at least one device");
  std::vector<FleetShard> shards(D);
  for (u32 d = 0; d < D; ++d) shards[d].device = d;

  switch (fleet.strategy) {
    case ShardStrategy::Batch: {
      // Contiguous slabs of the flat block list — no axis knowledge needed.
      for (u32 d = 0; d < D; ++d) {
        const u64 b = slab_bound(d, total, D);
        const u64 e = slab_bound(d + 1, total, D);
        if (e > b) shards[d].runs.push_back({b, e});
        shards[d].blocks = e - b;
      }
      break;
    }
    case ShardStrategy::Spatial: {
      KCONV_CHECK(hints.provided && hints.spatial_axis == 1,
                  "kernel declares no spatial (output-row) shard axis");
      KCONV_CHECK(grid.z == 1,
                  "spatial sharding requires a 2D grid (z == 1)");
      const u64 minor = std::max<u32>(hints.spatial_minor, 1);
      const u64 extent = axis_extent(grid, hints.spatial_axis);
      KCONV_CHECK(extent % minor == 0,
                  "spatial axis extent not divisible by its minor fold");
      const u64 rows = extent / minor;
      // Row group g occupies the contiguous flat range
      // [g * minor * grid.x, (g+1) * minor * grid.x): the spatial axis is
      // the outermost non-trivial axis, so row slabs are flat slabs.
      const u64 per_row = minor * grid.x;
      for (u32 d = 0; d < D; ++d) {
        const u64 r0 = slab_bound(d, rows, D);
        const u64 r1 = slab_bound(d + 1, rows, D);
        shards[d].row_begin = r0;
        shards[d].row_end = r1;
        if (r1 > r0) shards[d].runs.push_back({r0 * per_row, r1 * per_row});
        shards[d].blocks = (r1 - r0) * per_row;
      }
      break;
    }
    case ShardStrategy::Channel: {
      KCONV_CHECK(hints.provided && hints.channel_axis == 0,
                  "kernel declares no output-channel shard axis");
      KCONV_CHECK(grid.z == 1,
                  "channel sharding requires a 2D grid (z == 1)");
      const u64 groups = grid.x;
      // Device d owns filter groups [x0, x1) of every spatial block: one
      // strided run per grid.y row, in launch order.
      for (u32 d = 0; d < D; ++d) {
        const u64 x0 = slab_bound(d, groups, D);
        const u64 x1 = slab_bound(d + 1, groups, D);
        if (x1 > x0) {
          shards[d].runs.reserve(grid.y);
          for (u64 y = 0; y < grid.y; ++y) {
            shards[d].runs.push_back({y * groups + x0, y * groups + x1});
          }
        }
        shards[d].blocks = (x1 - x0) * grid.y;
      }
      break;
    }
  }

  u64 covered = 0;
  for (const FleetShard& s : shards) covered += s.blocks;
  KCONV_ASSERT(covered == total);
  return shards;
}

void model_transfers(const FleetOptions& fleet, const FleetHints& hints,
                     u64 blocks_total, std::vector<FleetShard>& shards) {
  if (!hints.provided) return;
  // The last device that owns at least one spatial row: halos flow from a
  // device to its upward neighbor (output rows [r0, r1) depend on input
  // rows up to r1 * block_h + K - 1, which the next shard staged).
  for (FleetShard& s : shards) {
    if (s.blocks == 0) continue;
    TransferLedger& l = s.ledger;
    switch (fleet.strategy) {
      case ShardStrategy::Batch:
        // Naive block slab: the device cannot prove which input region its
        // blocks touch before staging, so it replicates the full input.
        l.h2d_bytes = hints.input_bytes + hints.filter_bytes;
        l.h2d_ops = 2;
        break;
      case ShardStrategy::Channel:
        // Every output channel reads the whole image; only the filter bank
        // splits.
        l.h2d_bytes =
            hints.input_bytes +
            byte_share(hints.filter_bytes, s.blocks, blocks_total);
        l.h2d_ops = 2;
        break;
      case ShardStrategy::Spatial:
        // Interior rows stage once; the (K-1)-row overlap into the next
        // shard arrives device-to-device below.
        l.h2d_bytes = byte_share(hints.input_bytes, s.blocks, blocks_total) +
                      hints.filter_bytes;
        l.h2d_ops = 2;
        break;
    }
    l.d2h_bytes = byte_share(hints.output_bytes, s.blocks, blocks_total);
    l.d2h_ops = 1;
  }
  if (fleet.strategy == ShardStrategy::Spatial &&
      hints.halo_bytes_per_cut > 0) {
    // One exchange per interior cut, charged to the receiving device (the
    // one whose bottom rows need its neighbor's top input rows).
    for (std::size_t d = 0; d + 1 < shards.size(); ++d) {
      if (shards[d].blocks == 0) continue;
      // Find the next shard that actually owns rows.
      std::size_t next = d + 1;
      while (next < shards.size() && shards[next].blocks == 0) ++next;
      if (next == shards.size()) break;
      shards[d].ledger.d2d_bytes += hints.halo_bytes_per_cut;
      shards[d].ledger.d2d_ops += 1;
    }
  }
}

namespace {

std::string bound_verdict(double ratio, double transfer_s, double compute_s) {
  // Transfers dominating execution is the louder diagnosis: the shard is
  // limited by the interconnect no matter how tight its byte ratio is.
  if (comm_bound(transfer_s, compute_s)) return "communication-bound";
  if (ratio <= 1.15) return "optimal";
  return strf("within-%.0fx", std::ceil(ratio));
}

}  // namespace

FleetResult analyze_fleet(const Arch& arch, const FleetOptions& fleet,
                          const FleetHints& hints, u64 blocks_total,
                          const std::vector<FleetShard>& shards,
                          const std::vector<KernelStats>& per_device_stats,
                          const std::vector<double>& compute_seconds) {
  FleetResult res;
  res.enabled = true;
  res.devices = fleet.devices;
  res.strategy = fleet.strategy;
  res.interconnect = fleet.interconnect.name;
  res.p2p = fleet.interconnect.p2p;

  // Fast-memory size for the inter-level bound: shared-memory words per SM
  // (registers ignored; constant factors of the Demmel–Dinh bound dropped —
  // see docs/MODEL.md §9).
  const double m_words =
      std::max(1.0, static_cast<double>(arch.smem_per_sm) / sizeof(float));

  // Devices stage and compute concurrently, so the communication-bound
  // diagnosis compares the slowest single device's transfer time against
  // the slowest device's compute time — not the fleet-wide transfer sum.
  double max_transfer = 0.0;
  for (std::size_t d = 0; d < shards.size(); ++d) {
    const FleetShard& s = shards[d];
    FleetDeviceReport rep;
    rep.device = s.device;
    rep.blocks = s.blocks;
    rep.ledger = s.ledger;
    rep.transfer_seconds = s.ledger.seconds(fleet.interconnect);
    rep.compute_seconds =
        d < compute_seconds.size() ? compute_seconds[d] : 0.0;

    if (s.blocks > 0 && hints.provided) {
      // Inter-device footprint bound: what the device's outputs provably
      // require over the interconnect. Channel shards genuinely need the
      // whole input; batch/spatial slabs need their row share plus the
      // halo; everyone writes back its output share and reads (its slice
      // of) the filters.
      const double share = static_cast<double>(s.blocks) /
                           static_cast<double>(blocks_total);
      double in_need = 0.0, flt_need = 0.0;
      if (fleet.strategy == ShardStrategy::Channel) {
        in_need = static_cast<double>(hints.input_bytes);
        flt_need = static_cast<double>(hints.filter_bytes) * share;
      } else {
        in_need = static_cast<double>(hints.input_bytes) * share +
                  static_cast<double>(s.ledger.d2d_bytes);
        flt_need = static_cast<double>(hints.filter_bytes);
      }
      const double out_need =
          static_cast<double>(hints.output_bytes) * share;
      rep.comm_bound_bytes = in_need + flt_need + out_need;
      rep.comm_ratio =
          rep.comm_bound_bytes > 0
              ? static_cast<double>(rep.ledger.total_bytes()) /
                    rep.comm_bound_bytes
              : 0.0;

      // Inter-level (GM) bound for this device: its footprint must cross
      // GM at least once, and a fast memory of M words caps data reuse at
      // sqrt(M) per word moved (Demmel–Dinh / Hong–Kung form).
      const KernelStats& st =
          d < per_device_stats.size() ? per_device_stats[d] : KernelStats{};
      const double flops = st.flops();
      const double gm_bound = std::max(
          rep.comm_bound_bytes,
          sizeof(float) * flops / (2.0 * std::sqrt(m_words)));
      res.interlevel_bound_bytes += gm_bound;
      res.interlevel_moved_bytes +=
          static_cast<double>(st.gm_sectors) * arch.gm_sector_bytes;
    }

    res.h2d_bytes += s.ledger.h2d_bytes;
    res.d2h_bytes += s.ledger.d2h_bytes;
    res.d2d_bytes += s.ledger.d2d_bytes;
    res.transfer_seconds += rep.transfer_seconds;
    max_transfer = std::max(max_transfer, rep.transfer_seconds);
    res.compute_seconds = std::max(res.compute_seconds, rep.compute_seconds);
    res.seconds =
        std::max(res.seconds, rep.transfer_seconds + rep.compute_seconds);
    res.interdevice_bound_bytes += rep.comm_bound_bytes;
    res.interdevice_moved_bytes +=
        static_cast<double>(rep.ledger.total_bytes());
    res.device_reports.push_back(std::move(rep));
  }

  res.interdevice_ratio =
      res.interdevice_bound_bytes > 0
          ? res.interdevice_moved_bytes / res.interdevice_bound_bytes
          : 0.0;
  res.interdevice_verdict = bound_verdict(
      res.interdevice_ratio, max_transfer, res.compute_seconds);
  res.interlevel_ratio =
      res.interlevel_bound_bytes > 0
          ? res.interlevel_moved_bytes / res.interlevel_bound_bytes
          : 0.0;
  // The inter-level verdict is about the memory hierarchy, not the links:
  // never "communication-bound" (pass equal times so the ratio decides).
  res.interlevel_verdict = bound_verdict(res.interlevel_ratio, 0.0, 1.0);
  return res;
}

}  // namespace kconv::sim
