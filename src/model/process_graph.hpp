// Graph algorithms over process graphs: topological order, sources/sinks,
// longest paths, reachability.  These operate on one graph of an
// Application and are used by the list scheduler, the ASAP/ALAP interval
// computation and the workload generator.
#pragma once

#include <span>
#include <vector>

#include "mcs/model/application.hpp"

namespace mcs::model {

/// Processes of `g` in a topological order (Kahn: sources by ascending id,
/// then FIFO).  Throws std::invalid_argument if the graph has a cycle.
[[nodiscard]] std::vector<ProcessId> topological_order(const Application& app, GraphId g);

/// Processes of `g` without predecessors / successors.
[[nodiscard]] std::vector<ProcessId> sources(const Application& app, GraphId g);
[[nodiscard]] std::vector<ProcessId> sinks(const Application& app, GraphId g);

/// Length (sum of WCETs) of the longest WCET-weighted path ending at each
/// process, inclusive of the process itself.  Communication times are not
/// included (they depend on the synthesized configuration).
[[nodiscard]] std::vector<Time> longest_path_to(const Application& app, GraphId g);

/// Same, measured from each process (inclusive) to any sink.
[[nodiscard]] std::vector<Time> longest_path_from(const Application& app, GraphId g);

/// Dense forms of the two above for callers that already hold a graph's
/// topological `order`: each process p of the order gets its path length
/// in `dist[p.index()]`.  `dist` spans every process of the application;
/// entries of other graphs are neither read nor written.
void longest_path_to(const Application& app, std::span<const ProcessId> order,
                     std::span<Time> dist);
void longest_path_from(const Application& app, std::span<const ProcessId> order,
                       std::span<Time> dist);

/// True if `from` reaches `to` through precedence arcs (used by the
/// offset-window pruning in the response-time analysis and by tests).
[[nodiscard]] bool reaches(const Application& app, ProcessId from, ProcessId to);

/// Precomputed transitive closure over all graphs of an application:
/// O(1) reachability queries for the analysis hot path.  `reaches(p, p)`
/// is true; processes of different graphs never reach each other.
class ReachabilityIndex {
public:
  explicit ReachabilityIndex(const Application& app);

  [[nodiscard]] bool reaches(ProcessId from, ProcessId to) const;

  /// True when the two processes are ordered either way by precedence.
  [[nodiscard]] bool related(ProcessId a, ProcessId b) const {
    return reaches(a, b) || reaches(b, a);
  }

private:
  std::size_t words_ = 0;                 ///< 64-bit words per row
  std::vector<std::uint64_t> closure_;    ///< row-major bit matrix
  [[nodiscard]] bool bit(std::size_t row, std::size_t col) const;
  void set_bit(std::size_t row, std::size_t col);
  void or_row(std::size_t dst, std::size_t src);
};

}  // namespace mcs::model
