// Human-readable rendering of launch results.
#pragma once

#include <span>
#include <string>

#include "src/sim/arch.hpp"
#include "src/sim/launch.hpp"

namespace kconv::sim {

/// Multi-line summary: timing, binding pipe, occupancy, traffic breakdown.
/// With more than one stage, `res` is their fold: its occupancy and pipe
/// lines give way to one line per stage.
std::string format_report(const Arch& arch, const LaunchResult& res,
                          std::span<const LaunchStage> stages = {});

/// One-line summary (for benchmark tables).
std::string format_brief(const LaunchResult& res);

/// Machine-readable JSON export of a launch's statistics and timing —
/// the hook for external analysis/plotting of simulator runs. With more
/// than one stage it adds a `stages` array: per stage its name, launch
/// count, blocks, seconds, GFlop/s and every counter.
std::string to_json(const Arch& arch, const LaunchResult& res,
                    std::span<const LaunchStage> stages = {});

/// JSON object for a fleet report (the `fleet` block of to_json; also used
/// by bench_fleet_scaling). `indent` is the caller's current indent depth.
std::string fleet_to_json(const FleetResult& f, int indent);

}  // namespace kconv::sim
