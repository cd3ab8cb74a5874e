// BlockExecutor — runs one thread block in lockstep warps.
//
// Scheduling model: execution proceeds in barrier-delimited segments. Each
// live lane runs to its next sync() (or completion) in one resume, recording
// its memory events; the recorded streams then retire in lockstep rounds —
// the k-th event of every lane in a warp that share an operation kind
// retire together as ONE warp transaction through the space-specific
// analyzer, and mixed kinds (branch divergence) retire as separate
// subgroups, modeling hardware replay. A barrier releases once every live
// lane of the block has reached it.
#pragma once

#include <functional>

#include "src/sim/arch.hpp"
#include "src/sim/config.hpp"
#include "src/sim/l2cache.hpp"
#include "src/sim/stats.hpp"
#include "src/sim/task.hpp"
#include "src/sim/thread_ctx.hpp"

namespace kconv::analysis {
class BlockChecker;
}  // namespace kconv::analysis

namespace kconv::profile {
class BlockProfiler;
}  // namespace kconv::profile

namespace kconv::sim {

struct BlockTrace;
class PatternCache;

/// Type-erased kernel body: builds one lane's coroutine from its context.
using KernelBody = std::function<ThreadProgram(ThreadCtx&)>;

/// Executes the block at `block_idx` and accumulates its statistics.
///
/// `const_cache` models the per-SM constant cache (pass nullptr to treat
/// every constant line as resident); `gm_l2` is the L2 the block's global
/// sectors probe — the device's own L2 on the serial path, a per-worker
/// shadow on parallel launches. Throws kconv::Error on device faults
/// (OOB/misaligned accesses, runaway loops) and rethrows exceptions escaping
/// the kernel body.
///
/// When `capture` is non-null the executor additionally records the block's
/// replayable trace (trace.hpp): its global/constant warp transactions in
/// retire order and each lane's event-stream hash. Execution itself is
/// unchanged — a captured block charges exactly what it would have anyway.
///
/// `pattern` (optional) memoizes the shared/global analyzers across the
/// chunk's warp transactions (docs/MODEL.md §5c); nullptr re-runs them on
/// every transaction. Either way the counters are bit-identical.
///
/// `checker` (optional) runs the shadow-state hazard detector over the
/// block (docs/MODEL.md §6): every retired access is fed in retire order,
/// each barrier release advances its epoch. Purely observational — outputs,
/// counters and retire order are bit-identical with or without it.
///
/// `prof` (optional) charges the block's costs to kconv-prof phases
/// (docs/MODEL.md §7): each retired transaction goes to the phase stamped
/// on its accesses, lane arithmetic is drained per phase at every barrier,
/// and barrier releases land on the sync phase. Purely observational like
/// the checker — the base counters are charged identically either way.
void run_block(const Arch& arch, const KernelBody& body,
               const LaunchConfig& cfg, Dim3 block_idx, TraceLevel trace,
               u64 max_rounds, L2Cache* const_cache, L2Cache& gm_l2,
               KernelStats& stats, BlockTrace* capture = nullptr,
               PatternCache* pattern = nullptr,
               analysis::BlockChecker* checker = nullptr,
               profile::BlockProfiler* prof = nullptr);

}  // namespace kconv::sim
