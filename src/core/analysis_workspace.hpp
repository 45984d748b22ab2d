// AnalysisWorkspace — candidate-invariant precomputation and reusable
// buffers for the analysis hot path (see DESIGN.md §1 and §2).
//
// The optimizers (HOPA, OS, OR, SAS/SAR) call the MultiClusterScheduling
// fixed point thousands of times on ONE application/platform pair; only
// the synthesized configuration psi = <phi, beta, pi> varies between
// calls.  Everything the response-time analysis derives from the
// application and the platform alone is therefore hoisted here and built
// exactly once per search:
//
//   * message routes (classify_route) and per-message CAN frame times,
//   * the activity pools (CAN-borne, ET->TT, TT->ET, per-node OutNi),
//   * ET processes grouped by node, topological orders per graph,
//   * per-process longest paths to and from each process (HOPA's initial
//     local deadlines, the list scheduler's critical-path priority),
//   * the list-scheduling plan (sched::ListSchedulePlan: critical paths,
//     TT flags, TT-predecessor counts, pure-precedence successor arcs)
//     plus its reusable scratch buffers,
//   * pass 1's pure-precedence predecessor arcs,
//   * the precedence reachability closure,
//   * the gateway transfer WCET and the divergence cap,
//   * an empty TTC schedule for pure-ET analyses,
//   * structure-of-arrays pools for the quadratic recurrence passes
//     (WCETs/periods/frame times packed contiguously, plus precomputed
//     interference-pair classes so the inner loops never chase the
//     reachability index),
//   * the recorded previous MCS run for the schedule memo (delta mode).
//
// The workspace additionally owns the fixed-point State buffers (13
// vectors over processes/messages) which are RESET, not reallocated, on
// every analysis call, the Fast kernel's gather scratch and candidate-list
// caches, and one ComponentRecord per recurrence component (each node
// pool, the CAN bus, the OutTTP FIFO).  The records carry the Fast
// kernel's only intra-run skip: a component whose previous run in the
// call changed nothing and counted no divergence, and whose members'
// state is still what that run left, is not run again.
//
// Delta mode (DESIGN.md §2): when `delta_mode()` is On, the
// MultiClusterScheduling overload taking a workspace records each run's
// per-iteration list-scheduling constraints and TTC schedules and, on the
// next run with the same TDMA round, pins and options, replays a recorded
// schedule wherever the release constraints match instead of re-running
// list scheduling.  list_schedule is a pure function of those inputs, so
// results are bit-identical to a cold run by construction.  Mode Check
// runs the memo leg AND a cold leg and throws on any difference.
//
// Ownership contract (DESIGN.md §4): a workspace is SINGLE-THREADED by
// design — one search loop, one workspace, owned by exactly one thread
// of execution for its whole lifetime.  There is no internal locking,
// and even const-looking use mutates the reusable State buffers, so a
// workspace (or the MoveContext owning one) must never be shared across
// threads.  Concurrent searches each build their own; the campaign
// engine (src/exp/campaign.hpp) builds one per job on the worker thread
// that runs it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "mcs/arch/ttp.hpp"
#include "mcs/core/analysis_types.hpp"
#include "mcs/model/process_graph.hpp"
#include "mcs/sched/list_scheduler.hpp"
#include "mcs/util/aligned.hpp"
#include "mcs/util/magic_div.hpp"

namespace mcs::core {

/// Incremental-evaluation policy of the MultiClusterScheduling overload
/// that reuses a workspace.  Off = always cold; On = schedule memo against
/// the previous run, with automatic fallback; Check = run the memo leg and
/// cold, compare bitwise, throw std::logic_error on any mismatch.
enum class DeltaMode { Off, On, Check };

/// Resolves the mode from the environment: MCS_DELTA_CHECK=1 selects
/// Check, MCS_DELTA=0/off selects Off, otherwise On.
[[nodiscard]] DeltaMode delta_mode_from_env() noexcept;

/// Counters of the incremental-evaluation machinery (per workspace).
struct DeltaStats {
  std::uint64_t full_runs = 0;      ///< cold MCS runs (incl. fallbacks)
  std::uint64_t delta_runs = 0;     ///< memo-eligible MCS runs
  std::uint64_t fallbacks = 0;      ///< memo-ineligible (tdma/pins/options moved)
  std::uint64_t checked = 0;        ///< Check-mode comparisons performed
  std::uint64_t mismatches = 0;     ///< Check-mode divergences detected
  std::uint64_t schedule_memo_hits = 0;   ///< list_schedule calls skipped
  std::uint64_t elided_iterations = 0;    ///< provably-redundant MCS iterations
  std::uint64_t cand_cache_hits = 0;      ///< candidate lists reused as-is
  std::uint64_t cand_cache_rebuilds = 0;  ///< kernel calls that (re)built lists
  /// Members of the components skipped at a confirmed fixed point.
  std::uint64_t intra_skips = 0;
};

class AnalysisWorkspace {
public:
  /// Builds all invariant structure, including an owned reachability index.
  AnalysisWorkspace(const model::Application& app, const arch::Platform& platform);

  /// Same, but reuses a caller-owned reachability index (must outlive the
  /// workspace).
  AnalysisWorkspace(const model::Application& app, const arch::Platform& platform,
                    const model::ReachabilityIndex& reachability);

  [[nodiscard]] const model::Application& app() const noexcept { return *app_; }
  [[nodiscard]] const arch::Platform& platform() const noexcept { return *platform_; }
  [[nodiscard]] const model::ReachabilityIndex& reachability() const noexcept {
    return *reach_;
  }

  /// True when this workspace was built for exactly these objects (the
  /// analysis entry points validate this before reusing buffers).
  [[nodiscard]] bool matches(const model::Application& app,
                             const arch::Platform& platform) const noexcept {
    return app_ == &app && platform_ == &platform;
  }

  // --- hoisted invariant structure ------------------------------------
  [[nodiscard]] const std::vector<MessageRoute>& routes() const noexcept {
    return routes_;
  }
  [[nodiscard]] MessageRoute route(util::MessageId m) const {
    return routes_[m.index()];
  }
  /// C_m on the CAN bus, 0 for messages that never touch CAN.
  [[nodiscard]] const std::vector<util::Time>& can_tx() const noexcept {
    return can_tx_;
  }
  [[nodiscard]] const std::vector<util::MessageId>& can_messages() const noexcept {
    return can_messages_;
  }
  [[nodiscard]] const std::vector<util::MessageId>& et_to_tt() const noexcept {
    return et_to_tt_;
  }
  [[nodiscard]] const std::vector<util::MessageId>& tt_to_et() const noexcept {
    return tt_to_et_;
  }
  /// ET-sourced CAN messages per sender node index (OutNi pools).
  [[nodiscard]] const std::vector<std::vector<util::MessageId>>& out_ni_by_node()
      const noexcept {
    return out_ni_by_node_;
  }
  /// Topological order of each graph's processes.
  [[nodiscard]] const std::vector<std::vector<util::ProcessId>>& topo_orders()
      const noexcept {
    return topo_;
  }
  /// WCET-weighted longest path ending at / starting from each process,
  /// inclusive (model::longest_path_to / longest_path_from), by ProcessId.
  [[nodiscard]] const std::vector<util::Time>& path_to() const noexcept {
    return path_to_;
  }
  [[nodiscard]] const std::vector<util::Time>& path_from() const noexcept {
    return list_plan_.critical_path();
  }
  /// The invariant half of list scheduling, and its reusable buffers.
  [[nodiscard]] const sched::ListSchedulePlan& list_plan() const noexcept {
    return list_plan_;
  }
  [[nodiscard]] sched::ListScheduleScratch& list_scratch() noexcept {
    return list_scratch_;
  }
  /// Pass 1's pure-precedence predecessors of `p`: the predecessor list
  /// minus EVERY arc from a process that sends `p` any message.  (The
  /// list scheduler strikes one arc per message instead; on parallel arcs
  /// the two rules differ, and each is kept as it is.)
  [[nodiscard]] std::span<const util::ProcessId> pure_predecessors(
      util::ProcessId p) const {
    return {pure_pred_.data() + pure_pred_begin_[p.index()],
            pure_pred_.data() + pure_pred_begin_[p.index() + 1]};
  }
  [[nodiscard]] bool has_gateway() const noexcept { return has_gateway_; }
  [[nodiscard]] util::NodeId gateway() const noexcept { return gateway_; }
  /// r_T of the gateway transfer process.
  [[nodiscard]] util::Time r_transfer() const noexcept { return r_transfer_; }
  /// Monotone-iteration divergence cap (4 hyper-periods + max period).
  [[nodiscard]] util::Time divergence_cap() const noexcept { return cap_; }
  /// All-zero TTC schedule used when the caller passes none (pure ETC).
  [[nodiscard]] const sched::TtcSchedule& empty_ttc_schedule() const noexcept {
    return empty_ttc_;
  }

  // --- structure-of-arrays recurrence pools ---------------------------
  /// Interference-pair classification, decided from statics alone (graph
  /// membership, reachability, periods, sender): the Fast kernel
  /// branches on one byte instead of re-deriving the pruning predicates.
  /// Window still needs the per-pass state check; Always/Pruned are final.
  enum PairClass : std::uint8_t { kPairWindow = 0, kPairAlways = 1, kPairPruned = 2 };

  /// One ETC node's processes with their static quantities packed in pool
  /// order (the order the Gauss-Seidel recurrence visits them).
  struct ProcPool {
    util::NodeId node = util::NodeId::invalid();
    std::vector<util::ProcessId> pids;
    std::vector<util::Time> wcet;
    std::vector<util::Time> period;
    /// pair[i*n + j]: class of pool member j interfering with member i.
    std::vector<std::uint8_t> pair;
    /// Magic-division constants of `period` (see util/magic_div.hpp);
    /// populated only when every period is encodable (see active_kernel).
    std::vector<std::uint64_t> mg_mul;
    std::vector<std::uint32_t> mg_shift;
  };

  /// The CAN arbitration pool (all CAN-borne messages, pool order).
  struct CanPool {
    std::vector<util::MessageId> mids;
    std::vector<util::Time> tx;
    std::vector<util::Time> period;
    std::vector<std::uint8_t> is_et_to_tt;
    /// index[message.index()]: position in `mids`, or npos for non-CAN
    /// messages.  Lets the FIFO/buffer passes reuse the interfere classes
    /// for their (sub)pools instead of re-deriving graph reachability.
    std::vector<std::size_t> index;
    /// interfere[m*n + j]: class of j interfering with m (hp preemption).
    std::vector<std::uint8_t> interfere;
    /// block[m*n + k]: class of k blocking m (lp non-preemptive start).
    std::vector<std::uint8_t> block;
    /// Magic-division constants of `period` (as in ProcPool).
    std::vector<std::uint64_t> mg_mul;
    std::vector<std::uint32_t> mg_shift;
  };

  [[nodiscard]] const std::vector<ProcPool>& proc_pools() const noexcept {
    return proc_pools_;
  }
  [[nodiscard]] const CanPool& can_pool() const noexcept { return can_pool_; }

  /// Reusable gather buffers for the Fast kernel (sized to the largest
  /// pool at build time; every array is 64-byte aligned and the lane
  /// arrays are padded to a kLaneWidth multiple so the inner loops run
  /// without a scalar tail — see DESIGN.md §2 "Analysis kernels").
  struct KernelScratch {
    /// Lanes per padding block.  Covers AVX-512 (8 x u64 per vector) and
    /// divides evenly into narrower widths; padding lanes are written as
    /// {a=0, cost=0, mul=0, shift=0} so they contribute exactly 0 to the
    /// ceiling-sum regardless of vector width.
    static constexpr std::size_t kLaneWidth = 8;

    util::AlignedVec<util::Time> o, e, j, w, r, d;
    util::AlignedVec<Priority> prio;
    /// Lane arrays of the ceiling-sum: per surviving candidate the
    /// w-independent addend a = J_i + J_j - phase_j, the preemption cost,
    /// and the magic-division constants of its period.  All lane math is
    /// uint64 (two's-complement wraparound, no signed-overflow UB).
    util::AlignedVec<std::uint64_t> lane_a, lane_cost, lane_mul, lane_sh;

    /// Total heap bytes currently reserved by the scratch arrays; the
    /// memory-stability test asserts this stops growing after warmup.
    [[nodiscard]] std::size_t footprint_bytes() const noexcept {
      return (o.capacity() + e.capacity() + j.capacity() + w.capacity() +
              r.capacity() + d.capacity()) *
                 sizeof(util::Time) +
             (lane_a.capacity() + lane_cost.capacity() + lane_mul.capacity() +
              lane_sh.capacity()) *
                 sizeof(std::uint64_t) +
             prio.capacity() * sizeof(Priority);
    }
  };
  [[nodiscard]] KernelScratch& kernel_scratch() noexcept { return kernel_scratch_; }

  // --- the Fast kernel's intra-run skip (DESIGN.md §2) -----------------
  /// What the last run of one component — a pass-2 node pool, the pass-3
  /// CAN bus or the pass-4 OutTTP FIFO — left behind in the current
  /// analysis call: the members' state tuple it started from (field-major)
  /// and whether that run was quiet, i.e. changed no value of the tuple
  /// and counted no divergence.  A component whose record is quiet and
  /// whose tuple still equals `snap` is at its fixed point and is skipped.
  /// reset_state() clears every `quiet`.
  struct ComponentRecord {
    bool quiet = false;
    std::vector<util::Time> snap;
  };
  [[nodiscard]] ComponentRecord& pool_record(std::size_t pool) noexcept {
    return pool_records_[pool];
  }
  [[nodiscard]] ComponentRecord& can_record() noexcept { return can_record_; }
  [[nodiscard]] ComponentRecord& fifo_record() noexcept { return fifo_record_; }

  /// Cached priority-compacted candidate lists, reused across evaluations.
  /// The static candidate relation of a pool member depends only on the
  /// pool's priority vector (pair classes are baked at build time), so
  /// the lists stay valid until a priority inside the pool changes — and then only the members whose relative order
  /// against a changed member flipped need rebuilding.  `prio` is the
  /// fingerprint the kernels revalidate against on entry.
  struct CandidateCache {
    bool valid = false;
    std::vector<Priority> prio;       ///< priorities the lists were built under
    std::vector<std::uint32_t> list;  ///< stride-n: hp candidates of member x
    std::vector<std::uint8_t> cls;    ///< pair class of each stored candidate
    std::vector<std::uint32_t> len;   ///< candidate count per member
    /// CAN pool only: the non-higher-priority blocking candidates.
    std::vector<std::uint32_t> blk_list;
    std::vector<std::uint8_t> blk_cls;
    std::vector<std::uint32_t> blk_len;

    [[nodiscard]] std::size_t footprint_bytes() const noexcept {
      return (list.capacity() + blk_list.capacity() + len.capacity() +
              blk_len.capacity()) *
                 sizeof(std::uint32_t) +
             cls.capacity() + blk_cls.capacity() +
             prio.capacity() * sizeof(Priority);
    }
  };
  [[nodiscard]] CandidateCache& proc_cand_cache(std::size_t pool) noexcept {
    return proc_cand_cache_[pool];
  }
  [[nodiscard]] CandidateCache& can_cand_cache() noexcept {
    return can_cand_cache_;
  }

  /// Scratch, candidate-cache and component-record heap footprint
  /// (memory-stability tests).
  [[nodiscard]] std::size_t scratch_footprint_bytes() const noexcept {
    std::size_t total = kernel_scratch_.footprint_bytes();
    for (const CandidateCache& c : proc_cand_cache_) total += c.footprint_bytes();
    std::size_t snaps = can_record_.snap.capacity() + fifo_record_.snap.capacity();
    for (const ComponentRecord& r : pool_records_) snaps += r.snap.capacity();
    return total + can_cand_cache_.footprint_bytes() + snaps * sizeof(util::Time);
  }

  /// The kernel that actually runs when `requested` is asked for.  The
  /// Fast kernel needs every pool period in the magic-division range
  /// [2, 2^62] (decided once at build time); otherwise a Fast request
  /// runs on Reference.
  [[nodiscard]] AnalysisKernel active_kernel(AnalysisKernel requested) const noexcept {
    return periods_encodable_ ? requested : AnalysisKernel::Reference;
  }
  [[nodiscard]] const char* active_kernel_name(AnalysisKernel requested) const noexcept {
    return kernel_name(active_kernel(requested));
  }

  // --- reusable fixed-point state -------------------------------------
  /// All mutable per-activity state of one analysis run.  Owned by the
  /// workspace so repeated runs reuse the allocations.
  struct State {
    // Processes.
    std::vector<util::Time> o_p, e_p, j_p, w_p, r_p;
    // Messages.
    std::vector<util::Time> o_m, e_m, j_m, w_m, r_m, d_m, ttp_wait;
    std::vector<std::int64_t> i_m;  ///< bytes ahead in OutTTP
  };

  /// Zeroes the state (std::vector::assign keeps capacity: no allocation
  /// after the first call), forgets every component record's quiet flag,
  /// and returns the state.
  [[nodiscard]] State& reset_state();

  // --- delta-mode schedule memo ---------------------------------------
  /// One MultiClusterScheduling iteration of the recorded base run.
  struct McsIterRecord {
    std::vector<util::Time> constraints_release;  ///< as fed to list_schedule
    sched::TtcSchedule schedule;
  };

  /// The recorded base MCS run plus its memo-eligibility fingerprint.
  /// Priorities are NOT part of the fingerprint: list scheduling never
  /// reads them.  Anything else mismatching forces the cold fallback
  /// (which records a fresh base).
  struct McsBase {
    bool valid = false;
    // Fingerprint.
    std::vector<arch::Slot> tdma_slots;
    std::vector<util::Time> pins_release, pins_tx;
    AnalysisOptions analysis_options;
    int max_iterations = 0;
    // Iteration records; iter_record maps loop index -> record index so
    // elided iterations alias the record they repeat.
    std::vector<McsIterRecord> records;
    std::size_t records_used = 0;
    std::vector<std::size_t> iter_record;
  };

  [[nodiscard]] DeltaMode delta_mode() const noexcept { return delta_mode_; }
  void set_delta_mode(DeltaMode mode) noexcept { delta_mode_ = mode; }
  [[nodiscard]] DeltaStats& delta_stats() noexcept { return delta_stats_; }
  [[nodiscard]] const DeltaStats& delta_stats() const noexcept { return delta_stats_; }

  /// The committed base run (internal to multi_cluster_scheduling).
  [[nodiscard]] McsBase& mcs_base() noexcept { return mcs_base_; }
  /// The in-progress capture (internal to multi_cluster_scheduling).
  [[nodiscard]] McsBase& mcs_capture() noexcept { return mcs_capture_; }
  /// Publishes the capture as the new base (a swap: both keep capacity).
  void commit_mcs_capture() noexcept { std::swap(mcs_base_, mcs_capture_); }

  // --- convergence trace sink -----------------------------------------
  /// One fixed-point trace record: the FNV-1a hash of the complete State
  /// after pass `pass` of MCS iteration `mcs_iteration` (pass -1 records
  /// the TTC schedule produced at the top of the iteration).  Golden-trace
  /// regression tests diff these at iteration granularity.
  struct TraceRecord {
    int mcs_iteration = 0;
    int pass = 0;
    std::uint64_t hash = 0;
  };

  [[nodiscard]] std::vector<TraceRecord>* trace_sink() const noexcept {
    return trace_sink_;
  }
  void set_trace_sink(std::vector<TraceRecord>* sink) noexcept {
    trace_sink_ = sink;
  }
  [[nodiscard]] int trace_iteration() const noexcept { return trace_iteration_; }
  void set_trace_iteration(int iteration) noexcept { trace_iteration_ = iteration; }

  // --- observability sampling ------------------------------------------
  /// Monotonic analysis-run counter, bumped on EVERY mcs_run regardless of
  /// whether tracing is armed, so the sampled-run set (run index divisible
  /// by obs::kAnalysisSampleEvery) is a deterministic property of the
  /// workload, not of when the tracer was switched on.
  [[nodiscard]] std::uint64_t next_obs_run() noexcept { return obs_runs_++; }
  /// Whether the analysis run currently in flight was picked for span
  /// sampling (set by mcs_run, read by the RTA pass loop).
  [[nodiscard]] bool obs_sampled() const noexcept { return obs_sampled_; }
  void set_obs_sampled(bool sampled) noexcept { obs_sampled_ = sampled; }

private:
  void build();

  const model::Application* app_;
  const arch::Platform* platform_;
  const model::ReachabilityIndex* reach_;
  /// Set when the workspace owns its reachability index (two-arg ctor).
  std::unique_ptr<model::ReachabilityIndex> owned_reach_;

  std::vector<MessageRoute> routes_;
  std::vector<util::Time> can_tx_;
  std::vector<util::MessageId> can_messages_;
  std::vector<util::MessageId> et_to_tt_;
  std::vector<util::MessageId> tt_to_et_;
  std::vector<std::vector<util::MessageId>> out_ni_by_node_;
  std::vector<std::vector<util::ProcessId>> topo_;
  std::vector<util::Time> path_to_;
  sched::ListSchedulePlan list_plan_;
  sched::ListScheduleScratch list_scratch_;
  /// CSR: the pure predecessors of p are pure_pred_[begin[p], begin[p + 1]).
  std::vector<std::uint32_t> pure_pred_begin_;
  std::vector<util::ProcessId> pure_pred_;
  bool has_gateway_ = false;
  util::NodeId gateway_ = util::NodeId::invalid();
  util::Time r_transfer_ = 0;
  util::Time cap_ = 0;
  sched::TtcSchedule empty_ttc_;

  std::vector<ProcPool> proc_pools_;
  CanPool can_pool_;
  KernelScratch kernel_scratch_;
  std::vector<CandidateCache> proc_cand_cache_;
  CandidateCache can_cand_cache_;
  bool periods_encodable_ = false;

  std::vector<ComponentRecord> pool_records_;
  ComponentRecord can_record_;
  ComponentRecord fifo_record_;

  State state_;

  DeltaMode delta_mode_ = DeltaMode::Off;
  DeltaStats delta_stats_;
  McsBase mcs_base_;
  McsBase mcs_capture_;

  std::vector<TraceRecord>* trace_sink_ = nullptr;
  int trace_iteration_ = -1;

  std::uint64_t obs_runs_ = 0;
  bool obs_sampled_ = false;
};

/// FNV-1a hash of the complete fixed-point state (trace records, tests).
[[nodiscard]] std::uint64_t state_hash(const AnalysisWorkspace::State& state);

}  // namespace mcs::core
