// Registry export of the engine's bespoke per-workspace statistics.
//
// The hot paths keep their cheap single-threaded accumulators (DeltaStats
// on AnalysisWorkspace, the EvaluationCache hit/miss counters): a job
// publishes them into the global metrics registry ONCE, at job end, from
// the worker thread that owns them.  Job-end granularity keeps the inner
// loops untouched while the registry still ends up with campaign-wide
// totals — and because every published value is deterministic per job,
// the merged totals are bit-stable for any `--jobs` value.
#pragma once

#include <cstdint>

namespace mcs::core {
class AnalysisWorkspace;
}
namespace mcs::sim {
struct FaultCounters;
}

namespace mcs::obs {

/// Publishes one finished job's analysis-engine counters: DeltaStats
/// (memo-eligible runs, fallbacks, memo hits, elided iterations, and
/// `delta.intra_skips`, the members of the RTA components the Fast kernel
/// skipped at a confirmed fixed point),
/// evaluation-cache hits/lookups, the resolved kernel choice and the
/// scratch footprint (gauge, max over jobs).  No-op while metrics are
/// disabled.
void publish_workspace(const core::AnalysisWorkspace& workspace,
                       std::uint64_t eval_cache_hits,
                       std::uint64_t eval_cache_misses,
                       const char* active_kernel_name);

/// Re-exports one simulation's injected-fault counters (sim/fault.hpp)
/// as sim.faults.* metrics.  No-op while metrics are disabled.
void publish_fault_counters(const sim::FaultCounters& counters);

}  // namespace mcs::obs
