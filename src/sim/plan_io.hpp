// Launch-plan payload serialization (docs/MODEL.md §5d).
//
// A LaunchPlan is everything a warm launch needs to replay *every* block of
// a repeated kernel invocation with zero representative execution: the
// per-class capture traces (stats splits, congruence hashes, transaction
// schedules as warp lane masks) and the functional dataflow tapes of the
// classes a launch saw a second block of. Every stored tape passed its
// validate-then-trust check when it was made, so a warm launch interprets
// it from the first block. The chunk-local access-pattern tables (§5c) are
// never part of it: a warm launch rebuilds them as it goes. The plan also
// records the identity it was captured under — arch fingerprint, launch
// config, trace level — and plan_matches() rejects any divergence before a
// single byte is trusted.
//
// Addresses are deliberately absent from the payload: traces store only
// translation-invariant data (shared offsets, event hashes, lane schedules)
// and tapes store anchor-relative offsets, so a plan written by one process
// replays in another whose buffers live at different simulated addresses.
// Origin anchors are re-resolved against the live kernel's replay_origins
// declaration at prime time (replay.hpp).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/arch.hpp"
#include "src/sim/config.hpp"
#include "src/sim/plan_cache.hpp"
#include "src/sim/trace.hpp"

namespace kconv::sim {

/// One block-equivalence class: its capture trace and (when a functional
/// launch of a relocatable kernel saw a second block of the class) its
/// tape, which that block already validated (replay.hpp). Both are
/// immutable and shared with the replay runners a plan primes.
struct PlanClass {
  u64 id = 0;
  std::shared_ptr<const BlockTrace> trace;
  std::shared_ptr<const FuncTape> tape;  // null: the class has none
};

/// The unit the plan cache stores per (kernel, shape, config, arch) key.
struct LaunchPlan {
  std::string arch;  // arch_fingerprint() of the capturing device
  u8 trace_level = 0;
  LaunchConfig cfg;
  /// kconv-xray signature (docs/MODEL.md §10) of the kernel that captured
  /// this plan: a hash of the symbolic per-site access profile of block 0.
  /// 0 when the capturing runner did not compute one. A warm launch whose
  /// own signature disagrees rejects the plan ("stale-static-signature")
  /// before trusting a byte of it — the capture predates a kernel change
  /// the plan key's version tag missed.
  u64 static_signature = 0;
  std::vector<PlanClass> classes;
};

/// Stable identity string of the arch parameters a trace depends on. Two
/// arches with equal fingerprints produce interchangeable plans.
std::string arch_fingerprint(const Arch& arch);

/// The full store key: the caller's kernel/shape key qualified by arch,
/// launch geometry and trace level — everything that changes what a
/// capture would record.
std::string plan_store_key(std::string_view kernel_key, const Arch& arch,
                           const LaunchConfig& cfg, TraceLevel level);

/// The key the plan's tape sidecar is stored under. Tapes are by far the
/// heaviest part of a plan and only functional warm launches execute them,
/// so they live in their own store entry: an analytic launch (and any
/// timing-level launch) loads just the trace payload and never pays the
/// tape bytes.
std::string plan_tape_key(const std::string& store_key);

/// One KernelStats in plan byte order: every counter as a little-endian
/// u64, in kKernelCounters (= declaration) order.
void save_stats(PlanWriter& w, const KernelStats& s);
void load_stats(PlanReader& r, KernelStats& s);

/// Serializes everything but the tapes: identity and per-class traces.
/// This is the payload stored under the base key.
std::string serialize_plan(const LaunchPlan& plan);

/// Parses and structurally validates a payload (vector sizes, transaction
/// lane masks and lane counts against the embedded config). False with a reason on any
/// inconsistency — the envelope checksum makes this unlikely, but a plan is
/// never half-trusted. Classes come back without tapes; attach the
/// sidecar with deserialize_tapes() when the launch will execute tapes.
bool deserialize_plan(std::string_view payload, LaunchPlan& out,
                      std::string* why = nullptr);

/// Serializes the tape sidecar: the tape of every class that has one. Empty string when no class has a tape (timing
/// captures, checked launches) — nothing worth a store entry.
std::string serialize_tapes(const LaunchPlan& plan);

/// Attaches a tape sidecar to an already-deserialized plan, matching
/// classes by id and validating every entry against the plan's launch
/// config. All-or-nothing: any unknown id or structural damage leaves the
/// plan tape-free (warm replay falls back to per-block fast-forward, which
/// is always correct).
bool deserialize_tapes(std::string_view payload, LaunchPlan& plan,
                       std::string* why = nullptr);

/// True when a loaded plan was captured under this exact launch identity.
bool plan_matches(const LaunchPlan& plan, const Arch& arch,
                  const LaunchConfig& cfg, TraceLevel level,
                  std::string* why = nullptr);

}  // namespace kconv::sim
