// ASAP/ALAP mobility intervals for TTC activities (paper §5.1).
//
// The OptimizeResources move set shifts TT processes and TT messages
// "inside their [ASAP, ALAP] interval calculated based on the current
// values for the offsets and response times".  ASAP is the earliest start
// compatible with precedence (ignoring resource contention); ALAP is the
// latest start that still lets every downstream activity finish by the
// graph deadline.  Communication legs are accounted for with their current
// worst-case durations.
#pragma once

#include <vector>

#include "mcs/arch/platform.hpp"
#include "mcs/model/application.hpp"

namespace mcs::sched {

struct MobilityWindows {
  /// Per process: earliest/latest start.  For non-TT processes the window
  /// is the trivial [0, deadline - wcet] (they are not moved by the TTC
  /// move set).
  std::vector<util::Time> asap;
  std::vector<util::Time> alap;

  [[nodiscard]] bool has_slack(util::ProcessId p) const {
    return alap.at(p.index()) > asap.at(p.index());
  }
};

/// Computes mobility from graph structure and the *current* communication
/// durations: `message_latency[m]` must hold the worst-case time from
/// sender finish to delivery for remote message m (0 for local arcs), as
/// produced by the latest analysis run.
[[nodiscard]] MobilityWindows mobility_windows(
    const model::Application& app, const arch::Platform& platform,
    const std::vector<util::Time>& message_latency);

/// Same, given every graph's topological order (indexed by graph; e.g.
/// core::AnalysisWorkspace::topo_orders()) instead of deriving them.
[[nodiscard]] MobilityWindows mobility_windows(
    const model::Application& app,
    const std::vector<std::vector<util::ProcessId>>& topo_orders,
    const std::vector<util::Time>& message_latency);

}  // namespace mcs::sched
