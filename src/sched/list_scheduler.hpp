// Static cyclic scheduling of the time-triggered cluster (paper §4,
// StaticScheduling step; list-scheduling approach of reference [5]).
//
// Produces the TTC schedule tables (process start times) and the MEDL
// content (which TDMA slot occurrence carries each TTP message).  TT
// processes execute non-preemptively and sequentially on their node; a
// node's outgoing messages are packed into the earliest occurrence of its
// TDMA slot that starts after the sender finished and still has capacity.
//
// The scheduler takes lower-bound constraints per process and per message:
//  * the MultiClusterScheduling fixed point feeds worst-case ETC->TTC
//    message deliveries as process release lower bounds ("a process is not
//    activated before the worst-case arrival time of the message");
//  * the OptimizeResources move set pins processes/messages later inside
//    their [ASAP, ALAP] windows through the same mechanism.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mcs/arch/platform.hpp"
#include "mcs/arch/ttp.hpp"
#include "mcs/model/application.hpp"

namespace mcs::sched {

using model::Application;
using util::MessageId;
using util::NodeId;
using util::ProcessId;
using util::Time;

/// Additional release lower bounds merged (by max) into the schedule.
struct ScheduleConstraints {
  std::vector<Time> process_release;  ///< per ProcessId; empty = all zero
  std::vector<Time> message_tx;       ///< per MessageId; empty = all zero

  [[nodiscard]] static ScheduleConstraints none(const Application& app);
  [[nodiscard]] Time process_lb(ProcessId p) const;
  [[nodiscard]] Time message_lb(MessageId m) const;
};

/// Placement of one TTP-borne message in the TDMA calendar.
struct MessageSlotAssignment {
  std::size_t slot_index = 0;   ///< slot in the round (the sender's slot)
  std::int64_t first_round = 0; ///< occurrence index of the first carrying round
  std::int64_t rounds = 1;      ///< occurrences used (ceil(size / capacity))
  Time tx_start = 0;            ///< start of the first carrying occurrence
  Time delivery = 0;            ///< end of the last carrying occurrence
};

struct TtcSchedule {
  /// Start time per process (meaningful for TT processes only; the offsets
  /// phi of the schedule tables).
  std::vector<Time> process_start;
  /// Assignment per message (set for TT-sourced remote messages only).
  std::vector<std::optional<MessageSlotAssignment>> message_slot;
  Time makespan = 0;
  bool feasible = true;
  std::vector<std::string> problems;
};

/// Everything list scheduling derives from the application and the
/// platform alone — neither the TDMA round nor the constraints — so a
/// search loop builds it once (AnalysisWorkspace) and every call reads it.
/// All arrays are indexed by ProcessId.
class ListSchedulePlan {
public:
  /// Throws std::invalid_argument for cyclic graphs.
  ListSchedulePlan(const Application& app, const arch::Platform& platform);

  /// Priority: WCET-weighted longest path from the process to a sink of
  /// its graph (model::longest_path_from).
  [[nodiscard]] const std::vector<Time>& critical_path() const noexcept {
    return critical_path_;
  }
  [[nodiscard]] bool is_tt(ProcessId p) const { return is_tt_[p.index()] != 0; }
  /// Arcs from TT predecessors: a TT process is ready once all resolved.
  [[nodiscard]] std::uint32_t tt_predecessors(ProcessId p) const {
    return tt_preds_[p.index()];
  }
  [[nodiscard]] std::size_t tt_count() const noexcept { return tt_count_; }
  /// Successor arcs of `p` that carry no message: the successor list with
  /// one arc per outgoing message to that destination removed (parallel
  /// arcs — a message plus an explicit dependency — keep the dependency).
  [[nodiscard]] std::span<const ProcessId> pure_successors(ProcessId p) const {
    return {pure_succ_.data() + pure_succ_begin_[p.index()],
            pure_succ_.data() + pure_succ_begin_[p.index() + 1]};
  }

private:
  std::vector<Time> critical_path_;
  std::vector<std::uint8_t> is_tt_;
  std::vector<std::uint32_t> tt_preds_;
  std::size_t tt_count_ = 0;
  /// CSR: the pure successors of p are pure_succ_[begin[p], begin[p + 1]).
  std::vector<std::uint32_t> pure_succ_begin_;
  std::vector<ProcessId> pure_succ_;
};

/// Per-call working buffers of list_schedule, kept by the caller so
/// repeated calls reuse their capacity.  Contents between calls are
/// meaningless.
struct ListScheduleScratch {
  std::vector<std::uint32_t> unresolved;  ///< per process
  std::vector<Time> release;              ///< per process
  std::vector<Time> node_free;            ///< per node
  std::vector<ProcessId> ready;           ///< binary heap
};

/// List scheduling with critical-path priorities.  Deterministic: ties are
/// broken by ProcessId.  Throws std::invalid_argument for cyclic graphs.
[[nodiscard]] TtcSchedule list_schedule(const Application& app,
                                        const arch::Platform& platform,
                                        const arch::TdmaRound& tdma,
                                        const ScheduleConstraints& constraints);

/// Same, reading a prebuilt `plan` of (app, platform) and reusing
/// `scratch` (the MultiClusterScheduling hot path).
[[nodiscard]] TtcSchedule list_schedule(const Application& app,
                                        const arch::Platform& platform,
                                        const arch::TdmaRound& tdma,
                                        const ScheduleConstraints& constraints,
                                        const ListSchedulePlan& plan,
                                        ListScheduleScratch& scratch);

/// Recommended slot lengths for the slot owned by `node` (paper §5.1 /
/// reference [5]): the distinct "useful" lengths to try during the bus
/// access optimization — one per subset-sum of outgoing message sizes up
/// to the total, deduplicated and clamped to at most `max_candidates`
/// (1 keeps only the largest length; 0 throws std::invalid_argument).
[[nodiscard]] std::vector<Time> recommended_slot_lengths(const Application& app,
                                                         const arch::Platform& platform,
                                                         NodeId node,
                                                         std::size_t max_candidates = 8);

}  // namespace mcs::sched
