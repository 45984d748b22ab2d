#include "mcs/sched/asap_alap.hpp"

#include <algorithm>
#include <stdexcept>

#include "mcs/model/process_graph.hpp"
#include "mcs/util/math.hpp"

namespace mcs::sched {

using model::GraphId;
using model::MessageId;
using model::ProcessId;
using util::Time;

MobilityWindows mobility_windows(const model::Application& app,
                                 const arch::Platform& platform,
                                 const std::vector<Time>& message_latency) {
  (void)platform;
  std::vector<std::vector<ProcessId>> topo_orders;
  topo_orders.reserve(app.num_graphs());
  for (std::size_t gi = 0; gi < app.num_graphs(); ++gi) {
    topo_orders.push_back(
        model::topological_order(app, GraphId(static_cast<GraphId::underlying_type>(gi))));
  }
  return mobility_windows(app, topo_orders, message_latency);
}

MobilityWindows mobility_windows(const model::Application& app,
                                 const std::vector<std::vector<ProcessId>>& topo_orders,
                                 const std::vector<Time>& message_latency) {
  if (topo_orders.size() != app.num_graphs()) {
    throw std::invalid_argument("mobility_windows: one topological order per graph");
  }
  if (message_latency.size() != app.num_messages()) {
    throw std::invalid_argument("mobility_windows: latency vector arity mismatch");
  }
  MobilityWindows w;
  w.asap.assign(app.num_processes(), 0);
  w.alap.assign(app.num_processes(), 0);

  // Latency of the arc src->dst: message latency if a message carries it,
  // otherwise 0 (same-node precedence).
  auto arc_latency = [&](ProcessId src, ProcessId dst) -> Time {
    Time latency = 0;
    for (const MessageId mid : app.process(src).out_messages) {
      if (app.message(mid).dst == dst) {
        latency = std::max(latency, message_latency[mid.index()]);
      }
    }
    return latency;
  };

  for (std::size_t gi = 0; gi < app.num_graphs(); ++gi) {
    const GraphId g(static_cast<GraphId::underlying_type>(gi));
    const auto& order = topo_orders[gi];
    const Time deadline = app.graph(g).deadline;

    // Forward pass: ASAP.
    for (const ProcessId p : order) {
      Time earliest = 0;
      for (const ProcessId pred : app.process(p).predecessors) {
        const Time pred_done = w.asap[pred.index()] + app.process(pred).wcet;
        earliest = std::max(earliest, pred_done + arc_latency(pred, p));
      }
      w.asap[p.index()] = earliest;
    }
    // Backward pass: ALAP relative to the graph deadline (or the process's
    // own local deadline when tighter).
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const ProcessId p = *it;
      const model::Process& proc = app.process(p);
      Time latest_finish = proc.local_deadline
                               ? std::min(deadline, *proc.local_deadline)
                               : deadline;
      for (const ProcessId succ : proc.successors) {
        latest_finish =
            std::min(latest_finish, w.alap[succ.index()] - arc_latency(p, succ));
      }
      w.alap[p.index()] = latest_finish - proc.wcet;
    }
    // Clamp inverted windows (infeasible precedence under current
    // latencies): ALAP := ASAP so the window is empty but well-formed.
    for (const ProcessId p : order) {
      if (w.alap[p.index()] < w.asap[p.index()]) w.alap[p.index()] = w.asap[p.index()];
    }
  }
  return w;
}

}  // namespace mcs::sched
