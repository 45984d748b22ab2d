#include "mcs/core/analysis_workspace.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "mcs/util/hash.hpp"
#include "mcs/util/math.hpp"

namespace mcs::core {

using model::Application;
using util::GraphId;
using util::MessageId;
using util::ProcessId;
using util::Time;

DeltaMode delta_mode_from_env() noexcept {
  if (const char* check = std::getenv("MCS_DELTA_CHECK")) {
    if (std::strcmp(check, "0") != 0 && std::strcmp(check, "off") != 0) {
      return DeltaMode::Check;
    }
  }
  if (const char* delta = std::getenv("MCS_DELTA")) {
    if (std::strcmp(delta, "0") == 0 || std::strcmp(delta, "off") == 0) {
      return DeltaMode::Off;
    }
  }
  return DeltaMode::On;
}

AnalysisWorkspace::AnalysisWorkspace(const Application& app,
                                     const arch::Platform& platform)
    : app_(&app),
      platform_(&platform),
      owned_reach_(std::make_unique<model::ReachabilityIndex>(app)),
      list_plan_(app, platform) {
  reach_ = owned_reach_.get();
  build();
}

AnalysisWorkspace::AnalysisWorkspace(const Application& app,
                                     const arch::Platform& platform,
                                     const model::ReachabilityIndex& reachability)
    : app_(&app), platform_(&platform), reach_(&reachability), list_plan_(app, platform) {
  build();
}

void AnalysisWorkspace::build() {
  const Application& app = *app_;
  const arch::Platform& platform = *platform_;

  routes_.resize(app.num_messages());
  can_tx_.assign(app.num_messages(), 0);
  for (std::size_t mi = 0; mi < app.num_messages(); ++mi) {
    const MessageId m(static_cast<MessageId::underlying_type>(mi));
    routes_[mi] = classify_route(app, platform, m);
    switch (routes_[mi]) {
      case MessageRoute::EtToEt:
      case MessageRoute::EtToTt:
      case MessageRoute::TtToEt:
        can_tx_[mi] = platform.can().tx_time(app.message(m).size_bytes);
        can_messages_.push_back(m);
        if (routes_[mi] == MessageRoute::EtToTt) et_to_tt_.push_back(m);
        if (routes_[mi] == MessageRoute::TtToEt) tt_to_et_.push_back(m);
        break;
      default:
        break;
    }
  }

  // ETC processes per node index (dense over all nodes): the members of
  // the per-node process pools built below.
  std::vector<std::vector<ProcessId>> et_procs_by_node(platform.num_nodes());
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    const ProcessId p(static_cast<ProcessId::underlying_type>(pi));
    const model::Process& proc = app.process(p);
    if (platform.is_et(proc.node)) {
      et_procs_by_node[proc.node.index()].push_back(p);
    }
  }

  out_ni_by_node_.resize(platform.num_nodes());
  for (const MessageId m : can_messages_) {
    const MessageRoute route = routes_[m.index()];
    if (route != MessageRoute::EtToEt && route != MessageRoute::EtToTt) continue;
    out_ni_by_node_[app.process(app.message(m).src).node.index()].push_back(m);
  }

  topo_.reserve(app.num_graphs());
  for (std::size_t gi = 0; gi < app.num_graphs(); ++gi) {
    topo_.push_back(model::topological_order(
        app, GraphId(static_cast<GraphId::underlying_type>(gi))));
  }

  path_to_.assign(app.num_processes(), 0);
  for (const auto& order : topo_) model::longest_path_to(app, order, path_to_);

  // Pass 1's pure-precedence arcs: a predecessor counts only when it sends
  // the process no message at all.
  pure_pred_begin_.assign(app.num_processes() + 1, 0);
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    const model::Process& proc =
        app.process(ProcessId(static_cast<ProcessId::underlying_type>(pi)));
    pure_pred_begin_[pi] = static_cast<std::uint32_t>(pure_pred_.size());
    for (const ProcessId pred : proc.predecessors) {
      const bool via_message =
          std::any_of(proc.in_messages.begin(), proc.in_messages.end(),
                      [&](MessageId mid) { return app.message(mid).src == pred; });
      if (!via_message) pure_pred_.push_back(pred);
    }
  }
  pure_pred_begin_[app.num_processes()] = static_cast<std::uint32_t>(pure_pred_.size());

  has_gateway_ = platform.has_gateway();
  if (has_gateway_) gateway_ = platform.gateway();
  r_transfer_ = platform.gateway_transfer().wcet;

  Time max_period = 0;
  for (const auto& g : app.graphs()) max_period = std::max(max_period, g.period);
  cap_ = util::sat_add(util::sat_mul(4, app.hyper_period()), max_period);

  empty_ttc_.process_start.assign(app.num_processes(), 0);
  empty_ttc_.message_slot.assign(app.num_messages(), std::nullopt);

  // Structure-of-arrays pools for the quadratic recurrence passes.  Pool
  // order matches the scalar reference iteration order exactly (bit-for-bit
  // Gauss-Seidel equivalence depends on it).  Pair classes bake the static
  // parts of the pruning predicates (graph membership, reachability,
  // periods, shared sender) into one byte per ordered pair.
  std::size_t max_pool = can_messages_.size();
  for (const auto& procs : et_procs_by_node) {
    if (procs.empty()) continue;
    ProcPool pool;
    pool.node = app.process(procs.front()).node;
    pool.pids = procs;
    const std::size_t n = procs.size();
    pool.wcet.resize(n);
    pool.period.resize(n);
    pool.pair.assign(n * n, kPairWindow);
    for (std::size_t x = 0; x < n; ++x) {
      pool.wcet[x] = app.process(procs[x]).wcet;
      pool.period[x] = app.period_of(procs[x]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const ProcessId pi = procs[i];
        const ProcessId pj = procs[j];
        std::uint8_t cls = kPairWindow;
        if (app.process(pj).graph == app.process(pi).graph &&
            reach_->related(pj, pi)) {
          cls = kPairPruned;
        } else if (pool.period[j] != pool.period[i]) {
          cls = kPairAlways;
        }
        pool.pair[i * n + j] = cls;
      }
    }
    max_pool = std::max(max_pool, n);
    proc_pools_.push_back(std::move(pool));
  }

  {
    const std::size_t n = can_messages_.size();
    can_pool_.mids = can_messages_;
    can_pool_.tx.resize(n);
    can_pool_.period.resize(n);
    can_pool_.is_et_to_tt.resize(n);
    can_pool_.interfere.assign(n * n, kPairWindow);
    can_pool_.block.assign(n * n, kPairWindow);
    const auto related = [&](MessageId a, MessageId b) {
      const model::Message& ma = app.message(a);
      const model::Message& mb = app.message(b);
      return reach_->reaches(ma.dst, mb.src) || reach_->reaches(mb.dst, ma.src);
    };
    can_pool_.index.assign(app.num_messages(),
                           std::numeric_limits<std::size_t>::max());
    for (std::size_t x = 0; x < n; ++x) {
      const MessageId m = can_messages_[x];
      can_pool_.tx[x] = can_tx_[m.index()];
      can_pool_.period[x] = app.period_of(m);
      can_pool_.is_et_to_tt[x] = routes_[m.index()] == MessageRoute::EtToTt;
      can_pool_.index[m.index()] = x;
    }
    for (std::size_t mi = 0; mi < n; ++mi) {
      for (std::size_t ji = 0; ji < n; ++ji) {
        if (mi == ji) continue;
        const MessageId m = can_messages_[mi];
        const MessageId j = can_messages_[ji];
        const bool same_graph = app.message(m).graph == app.message(j).graph;
        const bool fixed_phase = can_pool_.period[mi] == can_pool_.period[ji];
        std::uint8_t interfere = kPairWindow;
        if (same_graph && related(j, m)) {
          interfere = kPairPruned;
        } else if (!fixed_phase) {
          interfere = kPairAlways;
        }
        can_pool_.interfere[mi * n + ji] = interfere;
        std::uint8_t block = kPairWindow;
        if (app.message(j).src == app.message(m).src) {
          block = kPairPruned;
        } else if (same_graph && related(j, m)) {
          block = kPairPruned;
        } else if (!fixed_phase) {
          block = kPairAlways;
        }
        can_pool_.block[mi * n + ji] = block;
      }
    }
  }

  kernel_scratch_.o.resize(max_pool);
  kernel_scratch_.e.resize(max_pool);
  kernel_scratch_.j.resize(max_pool);
  kernel_scratch_.w.resize(max_pool);
  kernel_scratch_.r.resize(max_pool);
  kernel_scratch_.d.resize(max_pool);
  kernel_scratch_.prio.resize(max_pool);
  // Lanes: the largest candidate list rounded up to a full padding block
  // (padding lanes contribute 0 by construction).
  const std::size_t lanes =
      (max_pool + KernelScratch::kLaneWidth) & ~(KernelScratch::kLaneWidth - 1);
  kernel_scratch_.lane_a.resize(lanes);
  kernel_scratch_.lane_cost.resize(lanes);
  kernel_scratch_.lane_mul.resize(lanes);
  kernel_scratch_.lane_sh.resize(lanes);

  // Magic-division tables: every divisor the recurrences use is a pool
  // member's period, known here.  A period outside the encodable range
  // (< 2 or > 2^62, never seen from the generator but representable in
  // the model) makes a Fast request run on the Reference kernel for this
  // workspace — correctness never depends on the tables.
  periods_encodable_ = true;
  for (const ProcPool& pool : proc_pools_) {
    for (const Time t : pool.period) {
      if (!util::MagicDiv::supports(t)) periods_encodable_ = false;
    }
  }
  for (const Time t : can_pool_.period) {
    if (!util::MagicDiv::supports(t)) periods_encodable_ = false;
  }
  if (periods_encodable_) {
    for (ProcPool& pool : proc_pools_) {
      const std::size_t n = pool.period.size();
      pool.mg_mul.resize(n);
      pool.mg_shift.resize(n);
      for (std::size_t x = 0; x < n; ++x) {
        const util::MagicDiv m = util::MagicDiv::make(pool.period[x]);
        pool.mg_mul[x] = m.mul;
        pool.mg_shift[x] = m.shift;
      }
    }
    const std::size_t n = can_pool_.period.size();
    can_pool_.mg_mul.resize(n);
    can_pool_.mg_shift.resize(n);
    for (std::size_t x = 0; x < n; ++x) {
      const util::MagicDiv m = util::MagicDiv::make(can_pool_.period[x]);
      can_pool_.mg_mul[x] = m.mul;
      can_pool_.mg_shift[x] = m.shift;
    }
  }

  // Candidate-list caches: sized for their pools up front so the steady
  // state never allocates; built lazily by the kernels (valid = false).
  proc_cand_cache_.resize(proc_pools_.size());
  for (std::size_t pi = 0; pi < proc_pools_.size(); ++pi) {
    const std::size_t n = proc_pools_[pi].pids.size();
    proc_cand_cache_[pi].prio.resize(n);
    proc_cand_cache_[pi].list.resize(n * n);
    proc_cand_cache_[pi].cls.resize(n * n);
    proc_cand_cache_[pi].len.resize(n);
  }
  {
    const std::size_t n = can_pool_.mids.size();
    can_cand_cache_.prio.resize(n);
    can_cand_cache_.list.resize(n * n);
    can_cand_cache_.cls.resize(n * n);
    can_cand_cache_.len.resize(n);
    can_cand_cache_.blk_list.resize(n * n);
    can_cand_cache_.blk_cls.resize(n * n);
    can_cand_cache_.blk_len.resize(n);
  }

  // One record per node pool for the intra-run skip (the kernel sizes
  // each tuple on its first run).
  pool_records_.resize(proc_pools_.size());
}

AnalysisWorkspace::State& AnalysisWorkspace::reset_state() {
  const std::size_t np = app_->num_processes();
  const std::size_t nm = app_->num_messages();
  state_.o_p.assign(np, 0);
  state_.e_p.assign(np, 0);
  state_.j_p.assign(np, 0);
  state_.w_p.assign(np, 0);
  state_.r_p.assign(np, 0);
  state_.o_m.assign(nm, 0);
  state_.e_m.assign(nm, 0);
  state_.j_m.assign(nm, 0);
  state_.w_m.assign(nm, 0);
  state_.r_m.assign(nm, 0);
  state_.d_m.assign(nm, 0);
  state_.ttp_wait.assign(nm, 0);
  state_.i_m.assign(nm, 0);
  for (ComponentRecord& r : pool_records_) r.quiet = false;
  can_record_.quiet = false;
  fifo_record_.quiet = false;
  return state_;
}

std::uint64_t state_hash(const AnalysisWorkspace::State& state) {
  util::Fnv1a h;
  const auto mix = [&h](const std::vector<Time>& v) {
    h.update(static_cast<std::int64_t>(v.size()));
    for (const Time t : v) h.update(t);
  };
  mix(state.o_p);
  mix(state.e_p);
  mix(state.j_p);
  mix(state.w_p);
  mix(state.r_p);
  mix(state.o_m);
  mix(state.e_m);
  mix(state.j_m);
  mix(state.w_m);
  mix(state.r_m);
  mix(state.d_m);
  mix(state.ttp_wait);
  h.update(static_cast<std::int64_t>(state.i_m.size()));
  for (const std::int64_t b : state.i_m) h.update(b);
  return h.digest();
}

}  // namespace mcs::core
