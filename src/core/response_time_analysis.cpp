#include "mcs/core/response_time_analysis.hpp"

#include <algorithm>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <vector>

#include "mcs/core/gateway_analysis.hpp"
#include "mcs/obs/trace.hpp"
#include "mcs/util/math.hpp"

namespace mcs::core {

namespace {

using model::Application;
using model::Message;
using model::Process;
using util::MessageId;
using util::NodeId;
using util::ProcessId;
using util::Time;

/// Number of activations of interferer j that can fall inside a level-i
/// busy window.
///
///  * `window`  — length of the busy window, anchored at i's release;
///  * `ji`      — i's own release jitter: i's actual release may drift
///                this far past its offset, shifting the window right and
///                scooping up later j releases;
///  * `jj`      — j's release jitter;
///  * `phase`   — (O_j - O_i) mod T_j, the offset phase of j's first
///                release at/after i's;
///  * `tj`      — j's period;
///  * `span_j`  — worst-case time an instance of j stays pending after
///                its release (used for carry-in: an instance released
///                BEFORE i's window can still be unserved at its start).
///
/// The boundary convention floor(x/T)+1 for x >= 0 counts a simultaneous
/// release as one activation, matching the critical instant and giving
/// the recurrence a non-degenerate least fixed point.
[[nodiscard]] std::int64_t interfering_activations(Time window, Time ji, Time jj,
                                                   Time phase, Time tj,
                                                   Time span_j) {
  const Time x = window + ji + jj - phase;
  std::int64_t n = (x < 0) ? 0 : x / tj + 1;
  // Carry-in: the previous instance of j released `distance` before the
  // window anchor; it contributes when it can still be pending then.
  const Time distance = (phase == 0) ? tj : tj - phase;
  if (span_j + ji > distance) {
    n += util::ceil_div(span_j + ji - distance, tj);
  }
  return n;
}

/// All mutable per-activity state of the fixed-point iteration (owned by
/// the AnalysisWorkspace so repeated runs reuse the allocations).  Every
/// field is monotonically non-decreasing across iterations, which (with
/// the divergence cap) guarantees termination.
using State = AnalysisWorkspace::State;

/// Per-call view: configuration-dependent quantities plus const references
/// into the workspace's hoisted invariant structure.
struct Ctx {
  const Application& app;
  const arch::Platform& platform;
  const SystemConfig& cfg;
  const sched::TtcSchedule& ttc;
  const AnalysisOptions& opt;
  const model::ReachabilityIndex& reach;
  AnalysisWorkspace& ws;  ///< pools, kernel scratch, delta stats

  const std::vector<MessageRoute>& route;
  const std::vector<Time>& can_tx;       ///< C_m on the CAN bus (0 if not CAN-borne)
  const std::vector<std::vector<ProcessId>>& et_procs_by_node;  ///< dense by node index
  const std::vector<MessageId>& can_messages;
  const std::vector<MessageId>& et_to_tt;
  const std::vector<MessageId>& tt_to_et;
  const std::vector<std::vector<MessageId>>& out_ni_by_node;
  const std::vector<std::vector<ProcessId>>& topo;  ///< per graph
  bool has_sg_slot = false;
  std::size_t sg_slot = 0;
  Time r_transfer = 0;  ///< r_T of the gateway transfer process
  Time cap = 0;         ///< divergence cap
  int diverged = 0;
  bool changed = false;  ///< any state value grew in the current pass

  /// Kernel that actually runs (AnalysisWorkspace::active_kernel: Fast
  /// needs magic-encodable periods).  Resolved once per call.
  AnalysisKernel eff_kernel = AnalysisKernel::Reference;

  [[nodiscard]] Time period_of(MessageId m) const { return app.period_of(m); }
  [[nodiscard]] Time period_of(ProcessId p) const { return app.period_of(p); }
};

/// Monotone update helper: raises `slot` to `value` (clamped at the cap),
/// recording changes and divergence.
void raise(Ctx& ctx, Time& slot, Time value) {
  if (value > ctx.cap) {
    value = ctx.cap;
    ++ctx.diverged;
  }
  if (value > slot) {
    slot = value;
    ctx.changed = true;
  }
}

[[nodiscard]] bool same_graph(const Ctx& ctx, MessageId a, MessageId b) {
  return ctx.app.message(a).graph == ctx.app.message(b).graph;
}

/// Window-disjointness pruning is sound whenever the two activities have a
/// FIXED phase relationship, i.e. equal periods: all their releases share
/// one hyper-frame, so provably disjoint busy windows never interact (the
/// application behaves as a single transaction with static offsets, in
/// Palencia/Gonzalez Harbour terms).  Differing periods shift phases every
/// period, so only the conservative periodic term applies there.
[[nodiscard]] bool fixed_phase(const Ctx& ctx, MessageId a, MessageId b) {
  return ctx.period_of(a) == ctx.period_of(b);
}

[[nodiscard]] bool fixed_phase_p(const Ctx& ctx, ProcessId a, ProcessId b) {
  return ctx.period_of(a) == ctx.period_of(b);
}

/// Messages are precedence-related when one's destination (transitively)
/// feeds the other's sender: the first is then fully delivered before the
/// second can be enqueued.
[[nodiscard]] bool messages_related(const Ctx& ctx, MessageId a, MessageId b) {
  const Message& ma = ctx.app.message(a);
  const Message& mb = ctx.app.message(b);
  return ctx.reach.reaches(ma.dst, mb.src) || ctx.reach.reaches(mb.dst, ma.src);
}

/// Offset-window pruning (DESIGN.md §3): can higher-priority message j
/// interfere with m?  Conservative "yes" across graphs and whenever the
/// windows might overlap.
[[nodiscard]] bool message_can_interfere(const Ctx& ctx, const State& s,
                                         MessageId j, MessageId m) {
  if (!ctx.opt.offset_pruning) return true;
  if (same_graph(ctx, j, m) && messages_related(ctx, j, m)) return false;
  if (!fixed_phase(ctx, j, m)) return true;
  const Time latest_m = s.o_m[m.index()] + s.j_m[m.index()] + s.w_m[m.index()] +
                        ctx.can_tx[m.index()];
  if (s.d_m[j.index()] <= s.e_m[m.index()]) return false;  // j gone before m exists
  if (s.e_m[j.index()] >= latest_m) return false;  // j arrives after m is done
  return true;
}

/// message_can_interfere with the static parts (graph relation, phase
/// fixedness) pre-resolved to a pair-class byte from the workspace's CAN
/// interfere matrix; only the window comparison reads state.  `latest_m`
/// must be the caller-hoisted o+j+w+tx of m.  Bit-identical to the scalar
/// predicate above — used by the Fast paths of passes that scan message
/// (sub)pools quadratically.
[[nodiscard]] bool message_can_interfere_cls(const Ctx& ctx, const State& s,
                                             std::uint8_t cls, MessageId j,
                                             Time e_m, Time latest_m) {
  if (!ctx.opt.offset_pruning) return true;
  if (cls == AnalysisWorkspace::kPairPruned) return false;
  if (cls == AnalysisWorkspace::kPairAlways) return true;
  if (s.d_m[j.index()] <= e_m) return false;       // j gone before m exists
  if (s.e_m[j.index()] >= latest_m) return false;  // j arrives after m is done
  return true;
}

/// Can lower-priority message k block m (non-preemptive transmission)?
/// k must be able to start transmission strictly before m's latest arrival.
/// Messages of the same sender are enqueued by one send call (or delivered
/// by one TTP frame / transfer invocation), so their arrivals coincide and
/// arbitration always favors the higher priority one: no blocking between
/// them.  This is what makes w_m1 = 0 (and hence J_2 = r_m1 = 15) in the
/// paper's Figure 4a.
[[nodiscard]] bool message_can_block(const Ctx& ctx, const State& s, MessageId k,
                                     MessageId m) {
  if (!ctx.opt.offset_pruning) return true;
  if (ctx.app.message(k).src == ctx.app.message(m).src) return false;
  if (same_graph(ctx, k, m) && messages_related(ctx, k, m)) return false;
  if (!fixed_phase(ctx, k, m)) return true;
  if (s.e_m[k.index()] >= s.o_m[m.index()] + s.j_m[m.index()]) return false;
  if (s.d_m[k.index()] <= s.e_m[m.index()]) return false;
  return true;
}

[[nodiscard]] bool process_can_interfere(const Ctx& ctx, const State& s,
                                         ProcessId j, ProcessId i) {
  if (!ctx.opt.offset_pruning) return true;
  if (ctx.app.process(j).graph == ctx.app.process(i).graph &&
      ctx.reach.related(j, i)) {
    return false;
  }
  if (!fixed_phase_p(ctx, j, i)) return true;
  // s.w_p is the full busy window (own WCET included).
  const Time latest_i =
      s.o_p[i.index()] + s.j_p[i.index()] +
      std::max(s.w_p[i.index()], ctx.app.process(i).wcet);
  if (s.o_p[j.index()] + s.r_p[j.index()] <= s.e_p[i.index()]) return false;
  if (s.e_p[j.index()] >= latest_i) return false;
  return true;
}

/// Phase of activity j relative to activity i: (O_j - O_i) mod T_j.
[[nodiscard]] Time relative_phase(Time oj, Time oi, Time tj) {
  return util::floor_mod(oj - oi, tj);
}

/// ---- Pass 1: propagate offsets / jitters along each graph ------------
///
/// Topological order guarantees every predecessor's current (monotone)
/// values are available.  TT quantities are pinned by the schedule; ET
/// quantities derive from their inputs.
void propagate(Ctx& ctx, State& s) {
  const Application& app = ctx.app;
  for (const auto& order : ctx.topo) {
    for (const ProcessId pid : order) {
      const Process& p = app.process(pid);
      const bool tt = ctx.platform.is_tt(p.node);

      if (tt) {
        // Pinned by the static schedule; deterministic start.
        const Time start = ctx.cfg.process_offset(pid);
        raise(ctx, s.o_p[pid.index()], start);
        raise(ctx, s.e_p[pid.index()], start);
        s.j_p[pid.index()] = 0;
        s.w_p[pid.index()] = 0;
        raise(ctx, s.r_p[pid.index()], p.wcet);
      } else {
        // Earliest release = all inputs present (earliest); jitter spans to
        // the worst-case arrival of the latest input.
        Time release = 0;      // earliest release (accounting offset O)
        Time latest = 0;       // latest arrival over all inputs
        for (const MessageId mid : p.in_messages) {
          const MessageRoute route = ctx.route[mid.index()];
          Time arc_release = 0;
          switch (route) {
            case MessageRoute::Local: {
              const Process& sp = app.process(app.message(mid).src);
              arc_release = s.o_p[app.message(mid).src.index()] + sp.wcet;
              break;
            }
            case MessageRoute::TtToEt:
              // Paper convention: available at the end of the TTP slot.
              arc_release = s.o_m[mid.index()];
              break;
            case MessageRoute::EtToEt:
              arc_release = s.e_m[mid.index()] + ctx.can_tx[mid.index()];
              break;
            default:
              // EtToTt / TtToTt arcs never target an ET process.
              arc_release = s.o_m[mid.index()];
              break;
          }
          release = std::max(release, arc_release);
          latest = std::max(latest, s.d_m[mid.index()]);
        }
        // Pure-precedence arcs (same node): release after predecessor.
        for (const ProcessId pred : ctx.ws.pure_predecessors(pid)) {
          release = std::max(release, s.o_p[pred.index()] + app.process(pred).wcet);
          latest = std::max(latest, s.o_p[pred.index()] + s.r_p[pred.index()]);
        }
        raise(ctx, s.o_p[pid.index()], release);
        raise(ctx, s.e_p[pid.index()], release);
        raise(ctx, s.j_p[pid.index()],
              std::max<Time>(0, latest - s.o_p[pid.index()]));
        // s.w_p is the full busy window (>= wcet once the recurrence ran).
        raise(ctx, s.r_p[pid.index()],
              s.j_p[pid.index()] + std::max(s.w_p[pid.index()], p.wcet));
      }

      // Outgoing messages of this process.
      for (const MessageId mid : p.out_messages) {
        const std::size_t mi = mid.index();
        switch (ctx.route[mi]) {
          case MessageRoute::Local: {
            raise(ctx, s.o_m[mi], s.o_p[pid.index()]);
            raise(ctx, s.e_m[mi], s.o_p[pid.index()] + p.wcet);
            s.j_m[mi] = 0;
            s.w_m[mi] = 0;
            raise(ctx, s.r_m[mi], s.r_p[pid.index()]);
            raise(ctx, s.d_m[mi], s.o_m[mi] + s.r_m[mi]);
            break;
          }
          case MessageRoute::TtToTt:
          case MessageRoute::TtToEt: {
            const auto& assignment = ctx.ttc.message_slot[mi];
            if (!assignment) {
              // Infeasible schedule: treat as diverged.
              raise(ctx, s.d_m[mi], ctx.cap);
              raise(ctx, s.r_m[mi], ctx.cap);
              break;
            }
            if (ctx.route[mi] == MessageRoute::TtToTt) {
              s.o_m[mi] = assignment->tx_start;
              s.e_m[mi] = assignment->delivery;
              s.j_m[mi] = 0;
              s.w_m[mi] = 0;
              raise(ctx, s.r_m[mi], assignment->delivery - assignment->tx_start);
              raise(ctx, s.d_m[mi], assignment->delivery);
            } else {
              // CAN leg starts at the TTP delivery into the gateway MBI.
              s.o_m[mi] = assignment->delivery;
              s.e_m[mi] = assignment->delivery;
              s.j_m[mi] = ctx.r_transfer;  // r_T of the transfer process
              raise(ctx, s.r_m[mi], s.j_m[mi] + s.w_m[mi] + ctx.can_tx[mi]);
              raise(ctx, s.d_m[mi], s.o_m[mi] + s.r_m[mi]);
            }
            break;
          }
          case MessageRoute::EtToEt:
          case MessageRoute::EtToTt: {
            raise(ctx, s.o_m[mi], s.o_p[pid.index()]);
            raise(ctx, s.e_m[mi], s.o_p[pid.index()] + p.wcet);
            raise(ctx, s.j_m[mi], s.r_p[pid.index()]);
            if (ctx.route[mi] == MessageRoute::EtToEt) {
              raise(ctx, s.r_m[mi], s.j_m[mi] + s.w_m[mi] + ctx.can_tx[mi]);
              raise(ctx, s.d_m[mi], s.o_m[mi] + s.r_m[mi]);
            }
            // EtToTt: r/d are finalized by the OutTTP drain pass.
            break;
          }
        }
      }
    }
  }
}

/// ---- The intra-run skip (Fast kernel only) ------------------------------
///
/// A component is one recurrence an outer pass re-solves: an ETC node's
/// process pool (pass 2), the CAN bus (pass 3) or the OutTTP FIFO (pass
/// 4).  Within one analysis call a component run is a deterministic
/// function of its members' state tuple (`fields` over `members`) plus
/// run constants — priorities, TDMA round, TTC schedule, cap, options,
/// workspace statics — and it writes only inside that tuple.  So once a
/// run left the tuple as it found it and counted no divergence, running
/// the component again on the same tuple repeats that no-op: it is
/// skipped until some other pass moves one of its members.  The record's
/// snap holds the tuple the component's last run started from.
/// Reference never skips and stays the oracle.
template <typename Id, typename Run>
void run_component(Ctx& ctx, AnalysisWorkspace::ComponentRecord& rec,
                   const std::vector<Id>& members,
                   std::initializer_list<const std::vector<Time>*> fields,
                   const Run& run) {
  const std::size_t n = members.size();
  rec.snap.resize(fields.size() * n);  // sized on the first run only
  Time* snap = rec.snap.data();
  const auto tuple_is_snap = [&] {
    const Time* t = snap;
    for (const std::vector<Time>* f : fields) {
      for (std::size_t x = 0; x < n; ++x, ++t) {
        if ((*f)[members[x].index()] != *t) return false;
      }
    }
    return true;
  };
  if (rec.quiet && tuple_is_snap()) {
    ctx.ws.delta_stats().intra_skips += n;
    return;
  }
  Time* t = snap;
  for (const std::vector<Time>* f : fields) {
    for (std::size_t x = 0; x < n; ++x, ++t) *t = (*f)[members[x].index()];
  }
  const int diverged = ctx.diverged;
  run();
  rec.quiet = ctx.diverged == diverged && tuple_is_snap();
}

/// ---- Pass 2: fixed-priority preemptive interference on each ETC node --
///
/// s.w_p holds the FULL level-i busy window including the process's own
/// WCET (preemptions landing while the process executes delay it too);
/// the paper's "interference" I_i = w - C_i is recovered at export time.
void pass2_pool_reference(Ctx& ctx, State& s,
                          const AnalysisWorkspace::ProcPool& pool) {
  const Application& app = ctx.app;
  for (const ProcessId pid : pool.pids) {
    const std::size_t pi = pid.index();
    const Time c_i = app.process(pid).wcet;
    Time w = std::max(s.w_p[pi], c_i);
    for (int iter = 0; iter < ctx.opt.max_recurrence_iterations; ++iter) {
      Time next = c_i;  // B_i = 0: no intra-node critical sections modeled
      for (const ProcessId j : pool.pids) {
        if (j == pid) continue;
        if (!ctx.cfg.higher_priority_process(j, pid)) continue;
        if (!process_can_interfere(ctx, s, j, pid)) continue;
        const Time phase =
            relative_phase(s.o_p[j.index()], s.o_p[pi], ctx.period_of(j));
        const Time span_j =
            s.j_p[j.index()] + std::max(s.w_p[j.index()], app.process(j).wcet);
        next += interfering_activations(w, s.j_p[pi], s.j_p[j.index()],
                                        phase, ctx.period_of(j), span_j) *
                app.process(j).wcet;
      }
      if (next > ctx.cap) {
        next = ctx.cap;
        ++ctx.diverged;
      }
      if (next <= w) break;
      w = next;
    }
    raise(ctx, s.w_p[pi], w);
    raise(ctx, s.r_p[pi], s.j_p[pi] + s.w_p[pi]);
  }
}

/// Refreshes one pool's cached candidate lists.  The static
/// candidate relation of member x — "jj != x and prio(jj) < prio(x)",
/// annotated with the baked pair class — depends only on the priority
/// vector, so the lists survive every evaluation that leaves this pool's
/// priorities untouched.  On a change, only members whose relative order
/// against a changed member flipped are rebuilt (O(n * changed) instead
/// of O(n^2)).  Pruned pairs are STORED with their class byte (the
/// offset_pruning=false path must still see them); window-class entries
/// keep their per-pass state checks in the kernel.  `rebuild` emits
/// member x's list in ascending index order — the exact scan order of the
/// reference kernel, so candidate order (and thus every sum) is identical.
template <typename Rebuild>
void refresh_candidates(Ctx& ctx, AnalysisWorkspace::CandidateCache& cc,
                        const Priority* prio, std::size_t n,
                        const Rebuild& rebuild) {
  DeltaStats& stats = ctx.ws.delta_stats();
  std::size_t changed[16];
  std::size_t num_changed = 0;
  bool full = !cc.valid;
  if (!full) {
    for (std::size_t x = 0; x < n; ++x) {
      if (cc.prio[x] != prio[x]) {
        if (num_changed == 16) {
          full = true;
          break;
        }
        changed[num_changed++] = x;
      }
    }
  }
  if (!full && num_changed == 0) {
    ++stats.cand_cache_hits;
    return;
  }
  ++stats.cand_cache_rebuilds;
  for (std::size_t x = 0; x < n; ++x) {
    bool stale = full || cc.prio[x] != prio[x];
    for (std::size_t c = 0; c < num_changed && !stale; ++c) {
      const std::size_t j = changed[c];
      // Relation flip: j moved across x in the priority order.
      stale = (cc.prio[j] < cc.prio[x]) != (prio[j] < prio[x]);
    }
    if (stale) rebuild(x);
  }
  std::copy(prio, prio + n, cc.prio.begin());
  cc.valid = true;
}

/// Fast pass-2 kernel.  Pool state is gathered into contiguous scratch
/// arrays, the pruning predicates' static parts come from the pair-class
/// bytes of the cached priority-compacted candidate list, and the window
/// anchors of the CURRENT member are hoisted out of the recurrence (its
/// own o/e/j/w/r only change after its recurrence finishes).  The
/// survivors' phase/span never read the iterated w, so each member's
/// candidates are resolved once, the per-candidate ceiling division uses
/// the precomputed magic constants, and the recurrence body is a
/// branch-free ceiling-sum over aligned, padded uint64 lanes:
///
///   lane_a[i]    = J_x + J_j - phase_j   (the w-independent addend)
///   lane_cost[i] = C_j
///   lane_mul/sh  = magic-division constants of T_j
///   x    = w + a[i]                      (uint64; wraps == int64 bits)
///   q    = magic_floor_div(x)            (exact for all x < 2^64)
///   sum += ((q + 1) & nonneg_mask(x)) * cost[i]
///
/// The carry-in term of interfering_activations never reads the iterated
/// w, so it is hoisted into a scalar added once per iteration.  Padding
/// lanes are {a=0, cost=0, mul=0, sh=0} and contribute exactly 0.  All
/// lane arithmetic is unsigned (no signed-overflow UB) and associative
/// mod 2^64, so lane order cannot change the sum: bit-identical to the
/// reference kernel by construction, enforced by soa_layout_test.
void pass2_pool_fast(Ctx& ctx, State& s, const AnalysisWorkspace::ProcPool& pool,
                     std::size_t pool_index) {
  const std::size_t n = pool.pids.size();
  AnalysisWorkspace::KernelScratch& ps = ctx.ws.kernel_scratch();
  for (std::size_t x = 0; x < n; ++x) {
    const std::size_t pi = pool.pids[x].index();
    ps.o[x] = s.o_p[pi];
    ps.e[x] = s.e_p[pi];
    ps.j[x] = s.j_p[pi];
    ps.w[x] = s.w_p[pi];
    ps.r[x] = s.r_p[pi];
    ps.prio[x] = ctx.cfg.process_priority(pool.pids[x]);
  }
  AnalysisWorkspace::CandidateCache& cc = ctx.ws.proc_cand_cache(pool_index);
  refresh_candidates(ctx, cc, ps.prio.data(), n, [&](std::size_t x) {
    const std::uint8_t* pair = pool.pair.data() + x * n;
    std::uint32_t* out = cc.list.data() + x * n;
    std::uint8_t* ocls = cc.cls.data() + x * n;
    std::uint32_t len = 0;
    for (std::size_t jj = 0; jj < n; ++jj) {
      if (jj == x) continue;
      if (!(ps.prio[jj] < ps.prio[x])) continue;
      out[len] = static_cast<std::uint32_t>(jj);
      ocls[len] = pair[jj];
      ++len;
    }
    cc.len[x] = len;
  });
  const bool prune = ctx.opt.offset_pruning;
  for (std::size_t x = 0; x < n; ++x) {
    const Time c_i = pool.wcet[x];
    const Time j_x = ps.j[x];
    const Time latest_x = ps.o[x] + j_x + std::max(ps.w[x], c_i);
    const std::uint32_t* cand = cc.list.data() + x * n;
    const std::uint8_t* ccls = cc.cls.data() + x * n;
    const std::uint32_t clen = cc.len[x];
    std::size_t m = 0;
    Time carry_total = 0;
    for (std::uint32_t t = 0; t < clen; ++t) {
      const std::size_t jj = cand[t];
      if (prune) {
        const std::uint8_t cls = ccls[t];
        if (cls == AnalysisWorkspace::kPairPruned) continue;
        if (cls == AnalysisWorkspace::kPairWindow) {
          if (ps.o[jj] + ps.r[jj] <= ps.e[x]) continue;
          if (ps.e[jj] >= latest_x) continue;
        }
      }
      const Time tj = pool.period[jj];
      const util::MagicDiv mg{pool.mg_mul[jj], pool.mg_shift[jj]};
      const Time phase = mg.floor_mod(ps.o[jj] - ps.o[x], tj);
      const Time span = ps.j[jj] + std::max(ps.w[jj], pool.wcet[jj]);
      // Hoisted carry-in (w-invariant part of interfering_activations).
      const Time distance = (phase == 0) ? tj : tj - phase;
      if (span + j_x > distance) {
        const auto num = static_cast<std::uint64_t>(span + j_x - distance + tj - 1);
        carry_total += static_cast<Time>(mg.divide(num)) * pool.wcet[jj];
      }
      ps.lane_a[m] = static_cast<std::uint64_t>(j_x + ps.j[jj] - phase);
      ps.lane_cost[m] = static_cast<std::uint64_t>(pool.wcet[jj]);
      ps.lane_mul[m] = pool.mg_mul[jj];
      ps.lane_sh[m] = pool.mg_shift[jj];
      ++m;
    }
    constexpr std::size_t kW = AnalysisWorkspace::KernelScratch::kLaneWidth;
    const std::size_t mp = (m + kW - 1) & ~(kW - 1);
    for (std::size_t i = m; i < mp; ++i) {
      ps.lane_a[i] = 0;
      ps.lane_cost[i] = 0;
      ps.lane_mul[i] = 0;
      ps.lane_sh[i] = 0;
    }
    const std::uint64_t* lane_a = ps.lane_a.data();
    const std::uint64_t* lane_cost = ps.lane_cost.data();
    const std::uint64_t* lane_mul = ps.lane_mul.data();
    const std::uint64_t* lane_sh = ps.lane_sh.data();
    Time w = std::max(ps.w[x], c_i);
    for (int iter = 0; iter < ctx.opt.max_recurrence_iterations; ++iter) {
      const auto wu = static_cast<std::uint64_t>(w);
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < mp; ++i) {
        const std::uint64_t xv = wu + lane_a[i];
        const std::uint64_t hi = util::mulhi_u64_limbs(xv, lane_mul[i]);
        const std::uint64_t q = (((xv - hi) >> 1) + hi) >> lane_sh[i];
        const std::uint64_t nonneg =
            ~static_cast<std::uint64_t>(static_cast<std::int64_t>(xv) >> 63);
        acc += ((q + 1) & nonneg) * lane_cost[i];
      }
      Time next = static_cast<Time>(
          static_cast<std::uint64_t>(c_i + carry_total) + acc);
      if (next > ctx.cap) {
        next = ctx.cap;
        ++ctx.diverged;
      }
      if (next <= w) break;
      w = next;
    }
    raise(ctx, ps.w[x], w);
    raise(ctx, ps.r[x], j_x + ps.w[x]);
  }
  for (std::size_t x = 0; x < n; ++x) {
    const std::size_t pi = pool.pids[x].index();
    s.w_p[pi] = ps.w[x];
    s.r_p[pi] = ps.r[x];
  }
}

/// Pass-2 driver: every ETC node pool is one component on the selected
/// kernel.
void pass2(Ctx& ctx, State& s) {
  const std::vector<AnalysisWorkspace::ProcPool>& pools = ctx.ws.proc_pools();
  for (std::size_t pool_index = 0; pool_index < pools.size(); ++pool_index) {
    const AnalysisWorkspace::ProcPool& pool = pools[pool_index];
    if (ctx.eff_kernel != AnalysisKernel::Fast) {
      pass2_pool_reference(ctx, s, pool);
      continue;
    }
    run_component(ctx, ctx.ws.pool_record(pool_index), pool.pids,
                  {&s.o_p, &s.e_p, &s.j_p, &s.w_p, &s.r_p},
                  [&] { pass2_pool_fast(ctx, s, pool, pool_index); });
  }
}

/// ---- Pass 3: CAN bus arbitration (OutNi and OutCAN queuing, §4.1.1) ---
void can_message_recurrences(Ctx& ctx, State& s) {
  for (const MessageId mid : ctx.can_messages) {
    const std::size_t mi = mid.index();
    Time w = s.w_m[mi];
    for (int iter = 0; iter < ctx.opt.max_recurrence_iterations; ++iter) {
      // Blocking: largest lower-priority frame that can be in flight.
      Time blocking = 0;
      for (const MessageId k : ctx.can_messages) {
        if (k == mid) continue;
        if (ctx.cfg.higher_priority_message(k, mid)) continue;  // k is hp
        if (!message_can_block(ctx, s, k, mid)) continue;
        blocking = std::max(blocking, ctx.can_tx[k.index()]);
      }
      Time next = blocking;
      for (const MessageId j : ctx.can_messages) {
        if (j == mid) continue;
        if (!ctx.cfg.higher_priority_message(j, mid)) continue;
        if (!message_can_interfere(ctx, s, j, mid)) continue;
        const Time phase = relative_phase(s.o_m[j.index()], s.o_m[mi], ctx.period_of(j));
        const Time span_j =
            s.j_m[j.index()] + s.w_m[j.index()] + ctx.can_tx[j.index()];
        next += interfering_activations(w, s.j_m[mi], s.j_m[j.index()], phase,
                                        ctx.period_of(j), span_j) *
                ctx.can_tx[j.index()];
      }
      if (next > ctx.cap) {
        next = ctx.cap;
        ++ctx.diverged;
      }
      if (next <= w) break;
      w = next;
    }
    raise(ctx, s.w_m[mi], w);
    raise(ctx, s.r_m[mi], s.j_m[mi] + s.w_m[mi] + ctx.can_tx[mi]);
    if (ctx.route[mi] != MessageRoute::EtToTt) {
      raise(ctx, s.d_m[mi], s.o_m[mi] + s.r_m[mi]);
    }
  }
}

/// Fast CAN kernel: the gather/hoist treatment of pass2_pool_fast with
/// cached candidate AND blocking lists (both keyed on the message priority
/// vector; the pair-class matrices resolve the hp-interference and
/// lp-blocking predicates' static parts) and the same branch-free
/// magic-division ceiling-sum.  Neither the blocking term nor the
/// interference candidate set reads the iterated w, so both are resolved
/// once per member: blocking to a scalar, the hp survivors to lanes.
void can_recurrences_fast(Ctx& ctx, State& s) {
  const AnalysisWorkspace::CanPool& cp = ctx.ws.can_pool();
  const std::size_t n = cp.mids.size();
  AnalysisWorkspace::KernelScratch& ps = ctx.ws.kernel_scratch();
  for (std::size_t x = 0; x < n; ++x) {
    const std::size_t mi = cp.mids[x].index();
    ps.o[x] = s.o_m[mi];
    ps.e[x] = s.e_m[mi];
    ps.j[x] = s.j_m[mi];
    ps.w[x] = s.w_m[mi];
    ps.d[x] = s.d_m[mi];
    ps.prio[x] = ctx.cfg.message_priority(cp.mids[x]);
  }
  AnalysisWorkspace::CandidateCache& cc = ctx.ws.can_cand_cache();
  refresh_candidates(ctx, cc, ps.prio.data(), n, [&](std::size_t x) {
    const std::uint8_t* interfere = cp.interfere.data() + x * n;
    const std::uint8_t* block_cls = cp.block.data() + x * n;
    std::uint32_t* out = cc.list.data() + x * n;
    std::uint8_t* ocls = cc.cls.data() + x * n;
    std::uint32_t* blk = cc.blk_list.data() + x * n;
    std::uint8_t* bcls = cc.blk_cls.data() + x * n;
    std::uint32_t len = 0;
    std::uint32_t blen = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == x) continue;
      if (ps.prio[k] < ps.prio[x]) {
        out[len] = static_cast<std::uint32_t>(k);
        ocls[len] = interfere[k];
        ++len;
      } else {
        blk[blen] = static_cast<std::uint32_t>(k);
        bcls[blen] = block_cls[k];
        ++blen;
      }
    }
    cc.len[x] = len;
    cc.blk_len[x] = blen;
  });
  const bool prune = ctx.opt.offset_pruning;
  for (std::size_t x = 0; x < n; ++x) {
    const Time latest_x = ps.o[x] + ps.j[x] + ps.w[x] + cp.tx[x];
    const Time arrival_x = ps.o[x] + ps.j[x];
    const Time j_x = ps.j[x];
    Time blocking = 0;
    {
      const std::uint32_t* blk = cc.blk_list.data() + x * n;
      const std::uint8_t* bcls = cc.blk_cls.data() + x * n;
      const std::uint32_t blen = cc.blk_len[x];
      for (std::uint32_t t = 0; t < blen; ++t) {
        const std::size_t k = blk[t];
        if (prune) {
          const std::uint8_t cls = bcls[t];
          if (cls == AnalysisWorkspace::kPairPruned) continue;
          if (cls == AnalysisWorkspace::kPairWindow) {
            if (ps.e[k] >= arrival_x) continue;
            if (ps.d[k] <= ps.e[x]) continue;
          }
        }
        blocking = std::max(blocking, cp.tx[k]);
      }
    }
    const std::uint32_t* cand = cc.list.data() + x * n;
    const std::uint8_t* ccls = cc.cls.data() + x * n;
    const std::uint32_t clen = cc.len[x];
    std::size_t m = 0;
    Time carry_total = 0;
    for (std::uint32_t t = 0; t < clen; ++t) {
      const std::size_t jj = cand[t];
      if (prune) {
        const std::uint8_t cls = ccls[t];
        if (cls == AnalysisWorkspace::kPairPruned) continue;
        if (cls == AnalysisWorkspace::kPairWindow) {
          if (ps.d[jj] <= ps.e[x]) continue;
          if (ps.e[jj] >= latest_x) continue;
        }
      }
      const Time tj = cp.period[jj];
      const util::MagicDiv mg{cp.mg_mul[jj], cp.mg_shift[jj]};
      const Time phase = mg.floor_mod(ps.o[jj] - ps.o[x], tj);
      const Time span = ps.j[jj] + ps.w[jj] + cp.tx[jj];
      const Time distance = (phase == 0) ? tj : tj - phase;
      if (span + j_x > distance) {
        const auto num = static_cast<std::uint64_t>(span + j_x - distance + tj - 1);
        carry_total += static_cast<Time>(mg.divide(num)) * cp.tx[jj];
      }
      ps.lane_a[m] = static_cast<std::uint64_t>(j_x + ps.j[jj] - phase);
      ps.lane_cost[m] = static_cast<std::uint64_t>(cp.tx[jj]);
      ps.lane_mul[m] = cp.mg_mul[jj];
      ps.lane_sh[m] = cp.mg_shift[jj];
      ++m;
    }
    constexpr std::size_t kW = AnalysisWorkspace::KernelScratch::kLaneWidth;
    const std::size_t mp = (m + kW - 1) & ~(kW - 1);
    for (std::size_t i = m; i < mp; ++i) {
      ps.lane_a[i] = 0;
      ps.lane_cost[i] = 0;
      ps.lane_mul[i] = 0;
      ps.lane_sh[i] = 0;
    }
    const std::uint64_t* lane_a = ps.lane_a.data();
    const std::uint64_t* lane_cost = ps.lane_cost.data();
    const std::uint64_t* lane_mul = ps.lane_mul.data();
    const std::uint64_t* lane_sh = ps.lane_sh.data();
    Time w = ps.w[x];
    for (int iter = 0; iter < ctx.opt.max_recurrence_iterations; ++iter) {
      const auto wu = static_cast<std::uint64_t>(w);
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < mp; ++i) {
        const std::uint64_t xv = wu + lane_a[i];
        const std::uint64_t hi = util::mulhi_u64_limbs(xv, lane_mul[i]);
        const std::uint64_t q = (((xv - hi) >> 1) + hi) >> lane_sh[i];
        const std::uint64_t nonneg =
            ~static_cast<std::uint64_t>(static_cast<std::int64_t>(xv) >> 63);
        acc += ((q + 1) & nonneg) * lane_cost[i];
      }
      Time next = static_cast<Time>(
          static_cast<std::uint64_t>(blocking + carry_total) + acc);
      if (next > ctx.cap) {
        next = ctx.cap;
        ++ctx.diverged;
      }
      if (next <= w) break;
      w = next;
    }
    raise(ctx, ps.w[x], w);
    const std::size_t mi = cp.mids[x].index();
    raise(ctx, s.r_m[mi], ps.j[x] + ps.w[x] + cp.tx[x]);
    if (cp.is_et_to_tt[x] == 0) {
      raise(ctx, ps.d[x], ps.o[x] + s.r_m[mi]);
    }
  }
  for (std::size_t x = 0; x < n; ++x) {
    const std::size_t mi = cp.mids[x].index();
    s.w_m[mi] = ps.w[x];
    s.d_m[mi] = ps.d[x];
  }
}

/// Pass-3 driver: the whole CAN bus is one component on the selected
/// kernel (arbitration couples every CAN-borne message).
void pass3(Ctx& ctx, State& s) {
  if (ctx.can_messages.empty()) return;
  if (ctx.eff_kernel != AnalysisKernel::Fast) {
    can_message_recurrences(ctx, s);
    return;
  }
  run_component(ctx, ctx.ws.can_record(), ctx.can_messages,
                {&s.o_m, &s.e_m, &s.j_m, &s.w_m, &s.d_m, &s.r_m},
                [&] { can_recurrences_fast(ctx, s); });
}

/// ---- Pass 4: OutTTP FIFO drain through the gateway slot (§4.1.2) ------
void out_ttp_drain(Ctx& ctx, State& s) {
  if (ctx.et_to_tt.empty()) return;
  if (!ctx.has_sg_slot) {
    // No gateway slot: ET->TT traffic can never be delivered.
    for (const MessageId mid : ctx.et_to_tt) {
      if (s.d_m[mid.index()] < ctx.cap) ++ctx.diverged;
      raise(ctx, s.d_m[mid.index()], ctx.cap);
      raise(ctx, s.r_m[mid.index()], ctx.cap);
    }
    return;
  }
  const Application& app = ctx.app;
  for (const MessageId mid : ctx.et_to_tt) {
    const std::size_t mi = mid.index();
    // Worst-case arrival into OutTTP: CAN leg complete.
    Time arrival = s.o_m[mi] + s.j_m[mi] + s.w_m[mi] + ctx.can_tx[mi];
    if (ctx.opt.charge_transfer_on_et_to_tt) arrival += ctx.r_transfer;
    if (arrival > ctx.cap) arrival = ctx.cap;

    // I_m: bytes ahead of m in the FIFO.  OutTTP is ordered by ARRIVAL,
    // not by priority, so any other ET->TT message instance that can reach
    // the gateway no later than m — regardless of CAN priority — may sit
    // ahead of it (the paper's hp-only count under-approximates a FIFO;
    // see DESIGN.md §3).  The arrival window of m spans its own arrival
    // jitter J_m + w_m + C_m; an instance of j arriving earlier still
    // counts while it can remain queued (ttp residency carry-in).
    const Time m_arrival_spread = s.j_m[mi] + s.w_m[mi] + ctx.can_tx[mi];
    // Every ET->TT message rides the CAN bus, so the precomputed interfere
    // classes apply; the Fast kernel uses them, the reference kernel
    // keeps the scalar predicate as the independent baseline.
    const AnalysisWorkspace::CanPool& cp = ctx.ws.can_pool();
    const std::uint8_t* cls_row =
        ctx.eff_kernel != AnalysisKernel::Reference
            ? cp.interfere.data() + cp.index[mi] * cp.mids.size()
            : nullptr;
    const Time latest_m = s.o_m[mi] + m_arrival_spread;
    std::int64_t bytes_ahead = 0;
    for (const MessageId j : ctx.et_to_tt) {
      if (j == mid) continue;
      if (cls_row != nullptr
              ? !message_can_interfere_cls(ctx, s, cls_row[cp.index[j.index()]],
                                           j, s.e_m[mi], latest_m)
              : !message_can_interfere(ctx, s, j, mid)) {
        continue;
      }
      const Time arrival_jitter_j =
          s.j_m[j.index()] + s.w_m[j.index()] + ctx.can_tx[j.index()];
      const Time span_j = arrival_jitter_j + s.ttp_wait[j.index()];
      const Time phase =
          relative_phase(s.o_m[j.index()], s.o_m[mi], ctx.period_of(j));
      bytes_ahead += interfering_activations(m_arrival_spread, 0, arrival_jitter_j,
                                             phase, ctx.period_of(j), span_j) *
                     app.message(j).size_bytes;
    }
    const TtpDrainResult drain =
        ttp_drain(ctx.cfg.tdma(), ctx.sg_slot, arrival,
                  app.message(mid).size_bytes + bytes_ahead,
                  ctx.opt.ttp_queue_model);
    // Derived quantities (recomputed each pass; the final pass, which runs
    // with the converged inputs, leaves the reported values).
    s.i_m[mi] = bytes_ahead;
    s.ttp_wait[mi] = std::min(drain.wait, ctx.cap);
    raise(ctx, s.d_m[mi], std::min(drain.delivery, ctx.cap));
    raise(ctx, s.r_m[mi], s.d_m[mi] - s.o_m[mi]);
  }
}

/// Pass-4 driver: the OutTTP FIFO is one component (arrival order couples
/// all ET->TT messages).
void pass4(Ctx& ctx, State& s) {
  if (ctx.et_to_tt.empty()) return;
  if (ctx.eff_kernel != AnalysisKernel::Fast) {
    out_ttp_drain(ctx, s);
    return;
  }
  run_component(ctx, ctx.ws.fifo_record(), ctx.et_to_tt,
                {&s.o_m, &s.e_m, &s.j_m, &s.w_m, &s.r_m, &s.d_m, &s.i_m, &s.ttp_wait},
                [&] { out_ttp_drain(ctx, s); });
}

/// ---- Buffer bounds (§4.1.1 - §4.1.2) -----------------------------------
BufferBounds buffer_bounds(const Ctx& ctx, const State& s) {
  const Application& app = ctx.app;
  BufferBounds bounds;

  // Worst-case content of a priority-ordered output queue holding `pool`:
  // the message plus every higher-priority same-queue message instance
  // that can arrive while m waits.
  const AnalysisWorkspace::CanPool& cp = ctx.ws.can_pool();
  auto priority_queue_bound = [&](const std::vector<MessageId>& pool) {
    std::int64_t worst = 0;
    for (const MessageId m : pool) {
      std::int64_t bytes = app.message(m).size_bytes;
      // These queues hold CAN-borne messages only, so the precomputed
      // interfere classes apply (Fast kernel; reference keeps the
      // scalar predicate).
      const std::uint8_t* cls_row =
          ctx.eff_kernel != AnalysisKernel::Reference
              ? cp.interfere.data() + cp.index[m.index()] * cp.mids.size()
              : nullptr;
      const Time latest_m = s.o_m[m.index()] + s.j_m[m.index()] +
                            s.w_m[m.index()] + ctx.can_tx[m.index()];
      for (const MessageId j : pool) {
        if (j == m) continue;
        if (!ctx.cfg.higher_priority_message(j, m)) continue;
        if (cls_row != nullptr
                ? !message_can_interfere_cls(ctx, s,
                                             cls_row[cp.index[j.index()]], j,
                                             s.e_m[m.index()], latest_m)
                : !message_can_interfere(ctx, s, j, m)) {
          continue;
        }
        const Time phase =
            relative_phase(s.o_m[j.index()], s.o_m[m.index()], ctx.period_of(j));
        const Time span_j =
            s.j_m[j.index()] + s.w_m[j.index()] + ctx.can_tx[j.index()];
        bytes += interfering_activations(s.w_m[m.index()], s.j_m[m.index()],
                                         s.j_m[j.index()], phase,
                                         ctx.period_of(j), span_j) *
                 app.message(j).size_bytes;
      }
      worst = std::max(worst, bytes);
    }
    return worst;
  };

  bounds.out_can = priority_queue_bound(ctx.tt_to_et);

  // OutNi: one priority queue per ETC node for all messages its processes
  // send onto the CAN bus (pools precomputed in the workspace).
  const auto& by_node = ctx.out_ni_by_node;
  for (std::size_t n = 0; n < by_node.size(); ++n) {
    if (by_node[n].empty()) continue;
    bounds.out_node[NodeId(static_cast<NodeId::underlying_type>(n))] =
        priority_queue_bound(by_node[n]);
  }

  // OutTTP: FIFO of the ET->TT traffic.
  std::int64_t worst_ttp = 0;
  for (const MessageId m : ctx.et_to_tt) {
    worst_ttp =
        std::max(worst_ttp, app.message(m).size_bytes + s.i_m[m.index()]);
  }
  bounds.out_ttp = worst_ttp;
  return bounds;
}

}  // namespace

AnalysisResult response_time_analysis(const AnalysisInput& input,
                                      AnalysisWorkspace& workspace) {
  if (input.app == nullptr || input.platform == nullptr || input.config == nullptr) {
    throw std::invalid_argument("response_time_analysis: null input");
  }
  const Application& app = *input.app;
  const arch::Platform& platform = *input.platform;
  if (!workspace.matches(app, platform)) {
    throw std::invalid_argument(
        "response_time_analysis: workspace built for a different system");
  }

  // Fallback empty TTC schedule for pure-ET systems.
  const sched::TtcSchedule* ttc = input.ttc_schedule;
  if (ttc == nullptr) ttc = &workspace.empty_ttc_schedule();

  Ctx ctx{app,
          platform,
          *input.config,
          *ttc,
          input.options,
          workspace.reachability(),
          workspace,
          workspace.routes(),
          workspace.can_tx(),
          workspace.et_procs_by_node(),
          workspace.can_messages(),
          workspace.et_to_tt(),
          workspace.tt_to_et(),
          workspace.out_ni_by_node(),
          workspace.topo_orders(),
          false,
          0,
          workspace.r_transfer(),
          workspace.divergence_cap(),
          0,
          false};

  // The gateway slot depends on beta (part of the candidate), so it is the
  // one piece of setup resolved per call.
  if (workspace.has_gateway() && ctx.cfg.tdma().owns_slot(workspace.gateway())) {
    ctx.has_sg_slot = true;
    ctx.sg_slot = ctx.cfg.tdma().slot_of(workspace.gateway());
  }

  // Resolve the kernel that actually runs: a Fast request runs on the
  // (bit-identical) reference kernel when the periods are not
  // magic-encodable.
  ctx.eff_kernel = workspace.active_kernel(input.options.kernel);

  State& s = workspace.reset_state();

  AnalysisResult result;
  int iterations = 0;
  for (; iterations < ctx.opt.max_outer_iterations; ++iterations) {
    ctx.changed = false;
    // One span per fixed-point pass, only on runs the workspace sampled
    // (mcs.run counter divisible by obs::kAnalysisSampleEvery).
    std::optional<obs::Span> pass_span;
    if (workspace.obs_sampled()) {
      pass_span.emplace("rta.pass", static_cast<std::uint64_t>(iterations));
    }
    // Pass 1 is the conduit through which every cross-component effect
    // travels; it sweeps every graph on every pass.
    propagate(ctx, s);

    pass2(ctx, s);
    pass3(ctx, s);
    pass4(ctx, s);

    if (std::vector<AnalysisWorkspace::TraceRecord>* sink =
            workspace.trace_sink()) {
      sink->push_back({workspace.trace_iteration(), iterations, state_hash(s)});
    }
    if (!ctx.changed) break;
  }
  result.converged =
      (iterations < ctx.opt.max_outer_iterations) && (ctx.diverged == 0);
  result.outer_iterations = iterations;
  result.diverged_activities = ctx.diverged;

  result.buffers = buffer_bounds(ctx, s);

  // Graph responses: completion of the latest process (sinks dominate, but
  // the max over all processes is robust to mid-fixed-point offsets).
  result.graph_response.assign(app.num_graphs(), 0);
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    const Process& p = app.processes()[pi];
    const Time completion = util::sat_add(s.o_p[pi], s.r_p[pi]);
    result.graph_response[p.graph.index()] =
        std::max(result.graph_response[p.graph.index()], completion);
  }

  // Copy (not move): the State buffers stay with the workspace so the
  // next call reuses their capacity.
  result.process_offsets = s.o_p;
  result.message_offsets = s.o_m;
  result.process_response = s.r_p;
  result.process_jitter = s.j_p;
  // s.w_p is the full busy window; report the paper's interference
  // I_i = w_i - C_i (e.g. I2 = 20 in Figure 4a).
  result.process_interference = s.w_p;
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    result.process_interference[pi] = std::max<Time>(
        0, result.process_interference[pi] - app.processes()[pi].wcet);
  }
  result.message_response = s.r_m;
  result.message_jitter = s.j_m;
  result.message_queue_delay = s.w_m;
  result.message_ttp_wait = s.ttp_wait;
  result.message_bytes_ahead = s.i_m;
  result.message_delivery = s.d_m;

  return result;
}

AnalysisResult response_time_analysis(const AnalysisInput& input,
                                      const model::ReachabilityIndex& reach) {
  if (input.app == nullptr || input.platform == nullptr) {
    throw std::invalid_argument("response_time_analysis: null input");
  }
  AnalysisWorkspace workspace(*input.app, *input.platform, reach);
  return response_time_analysis(input, workspace);
}

AnalysisResult response_time_analysis(const AnalysisInput& input) {
  if (input.app == nullptr || input.platform == nullptr) {
    throw std::invalid_argument("response_time_analysis: null input");
  }
  AnalysisWorkspace workspace(*input.app, *input.platform);
  return response_time_analysis(input, workspace);
}

}  // namespace mcs::core
