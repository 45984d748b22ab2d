#include "mcs/model/process_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcs::model {

std::vector<ProcessId> topological_order(const Application& app, GraphId g) {
  const auto& procs = app.graph(g).processes;
  // In-degrees indexed by ProcessId (entries of other graphs stay unused).
  // Duplicate arcs (a message plus an explicit dependency between the same
  // pair) are counted as-is; Kahn's algorithm handles multiplicities
  // naturally.
  std::vector<std::size_t> deg(app.num_processes(), 0);
  std::vector<ProcessId> order;
  order.reserve(procs.size());
  for (const ProcessId p : procs) {
    deg[p.index()] = app.process(p).predecessors.size();
    if (deg[p.index()] == 0) order.push_back(p);
  }
  // Sources in id order; `order` doubles as the FIFO queue of Kahn.
  std::sort(order.begin(), order.end());
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const ProcessId s : app.process(order[head]).successors) {
      if (app.process(s).graph != g) continue;  // defensive: successor outside graph
      if (--deg[s.index()] == 0) order.push_back(s);
    }
  }
  if (order.size() != procs.size()) {
    throw std::invalid_argument("topological_order: graph has a cycle");
  }
  return order;
}

std::vector<ProcessId> sources(const Application& app, GraphId g) {
  std::vector<ProcessId> out;
  for (const ProcessId p : app.graph(g).processes) {
    if (app.process(p).predecessors.empty()) out.push_back(p);
  }
  return out;
}

std::vector<ProcessId> sinks(const Application& app, GraphId g) {
  std::vector<ProcessId> out;
  for (const ProcessId p : app.graph(g).processes) {
    if (app.process(p).successors.empty()) out.push_back(p);
  }
  return out;
}

void longest_path_to(const Application& app, std::span<const ProcessId> order,
                     std::span<Time> dist) {
  for (const ProcessId p : order) {
    Time best = 0;
    for (const ProcessId pred : app.process(p).predecessors) {
      best = std::max(best, dist[pred.index()]);
    }
    dist[p.index()] = best + app.process(p).wcet;
  }
}

void longest_path_from(const Application& app, std::span<const ProcessId> order,
                       std::span<Time> dist) {
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Time best = 0;
    for (const ProcessId s : app.process(*it).successors) {
      best = std::max(best, dist[s.index()]);
    }
    dist[it->index()] = best + app.process(*it).wcet;
  }
}

namespace {

/// Gathers a dense per-process vector into the graph's process order.
std::vector<Time> in_graph_order(const Application& app, GraphId g,
                                 const std::vector<Time>& dist) {
  std::vector<Time> out;
  out.reserve(app.graph(g).processes.size());
  for (const ProcessId p : app.graph(g).processes) out.push_back(dist[p.index()]);
  return out;
}

}  // namespace

std::vector<Time> longest_path_to(const Application& app, GraphId g) {
  std::vector<Time> dist(app.num_processes(), 0);
  longest_path_to(app, topological_order(app, g), dist);
  return in_graph_order(app, g, dist);
}

std::vector<Time> longest_path_from(const Application& app, GraphId g) {
  std::vector<Time> dist(app.num_processes(), 0);
  longest_path_from(app, topological_order(app, g), dist);
  return in_graph_order(app, g, dist);
}

ReachabilityIndex::ReachabilityIndex(const Application& app) {
  const std::size_t n = app.num_processes();
  words_ = (n + 63) / 64;
  closure_.assign(n * words_, 0);
  for (std::size_t gi = 0; gi < app.num_graphs(); ++gi) {
    const GraphId g(static_cast<GraphId::underlying_type>(gi));
    const auto order = topological_order(app, g);
    // Reverse topological: successors' rows are complete when merged.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const std::size_t row = it->index();
      set_bit(row, row);
      for (const ProcessId s : app.process(*it).successors) {
        or_row(row, s.index());
      }
    }
  }
}

bool ReachabilityIndex::reaches(ProcessId from, ProcessId to) const {
  return bit(from.index(), to.index());
}

bool ReachabilityIndex::bit(std::size_t row, std::size_t col) const {
  return (closure_[row * words_ + col / 64] >> (col % 64)) & 1U;
}

void ReachabilityIndex::set_bit(std::size_t row, std::size_t col) {
  closure_[row * words_ + col / 64] |= (std::uint64_t{1} << (col % 64));
}

void ReachabilityIndex::or_row(std::size_t dst, std::size_t src) {
  for (std::size_t w = 0; w < words_; ++w) {
    closure_[dst * words_ + w] |= closure_[src * words_ + w];
  }
}

bool reaches(const Application& app, ProcessId from, ProcessId to) {
  if (from == to) return true;
  std::vector<ProcessId> stack{from};
  std::vector<bool> seen(app.num_processes(), false);
  seen[from.index()] = true;
  while (!stack.empty()) {
    const ProcessId p = stack.back();
    stack.pop_back();
    for (const ProcessId s : app.process(p).successors) {
      if (s == to) return true;
      if (!seen[s.index()]) {
        seen[s.index()] = true;
        stack.push_back(s);
      }
    }
  }
  return false;
}

}  // namespace mcs::model
