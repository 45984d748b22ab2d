#include "mcs/model/process_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace mcs::model {
namespace {

using util::NodeId;

/// Diamond: A -> B, A -> C, B -> D, C -> D.
struct Diamond {
  Application app;
  GraphId g;
  ProcessId a, b, c, d;

  Diamond() {
    g = app.add_graph("G", 100, 100);
    a = app.add_process(g, "A", NodeId(0), 5);
    b = app.add_process(g, "B", NodeId(0), 10);
    c = app.add_process(g, "C", NodeId(0), 20);
    d = app.add_process(g, "D", NodeId(0), 5);
    app.add_dependency(a, b);
    app.add_dependency(a, c);
    app.add_dependency(b, d);
    app.add_dependency(c, d);
  }
};

TEST(ProcessGraph, TopologicalOrderRespectsArcs) {
  Diamond f;
  const auto order = topological_order(f.app, f.g);
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&](ProcessId p) {
    return std::find(order.begin(), order.end(), p) - order.begin();
  };
  EXPECT_LT(pos(f.a), pos(f.b));
  EXPECT_LT(pos(f.a), pos(f.c));
  EXPECT_LT(pos(f.b), pos(f.d));
  EXPECT_LT(pos(f.c), pos(f.d));
}

TEST(ProcessGraph, CycleDetected) {
  Application app;
  const auto g = app.add_graph("G", 10, 10);
  const auto a = app.add_process(g, "A", NodeId(0), 1);
  const auto b = app.add_process(g, "B", NodeId(0), 1);
  app.add_dependency(a, b);
  app.add_dependency(b, a);
  EXPECT_THROW((void)topological_order(app, g), std::invalid_argument);
}

TEST(ProcessGraph, SourcesAndSinks) {
  Diamond f;
  EXPECT_EQ(sources(f.app, f.g), std::vector<ProcessId>{f.a});
  EXPECT_EQ(sinks(f.app, f.g), std::vector<ProcessId>{f.d});
}

TEST(ProcessGraph, LongestPaths) {
  Diamond f;
  const auto to = longest_path_to(f.app, f.g);    // indexed per graph order
  const auto from = longest_path_from(f.app, f.g);
  const auto& procs = f.app.graph(f.g).processes;
  auto at = [&](const std::vector<util::Time>& v, ProcessId p) {
    const auto it = std::find(procs.begin(), procs.end(), p);
    return v[static_cast<std::size_t>(it - procs.begin())];
  };
  EXPECT_EQ(at(to, f.a), 5);
  EXPECT_EQ(at(to, f.b), 15);
  EXPECT_EQ(at(to, f.c), 25);
  EXPECT_EQ(at(to, f.d), 30);  // A -> C -> D
  EXPECT_EQ(at(from, f.a), 30);
  EXPECT_EQ(at(from, f.b), 15);
  EXPECT_EQ(at(from, f.c), 25);
  EXPECT_EQ(at(from, f.d), 5);
}

/// Two graphs whose process ids interleave (G1: 0, 2, 4, 6, 7; G2: 1, 3,
/// 5), with arcs against id order and a parallel arc (message plus
/// dependency) A3 -> A1:
///   G1: A2 -> A0, A4 -> A0, A2 -> A3, A0 -> A1, A3 => A1
///   G2: B2 -> B1 -> B0
struct Interleaved {
  Application app;
  GraphId g1, g2;
  ProcessId a0, b0, a1, b1, a2, b2, a3, a4;

  Interleaved() {
    g1 = app.add_graph("G1", 100, 100);
    g2 = app.add_graph("G2", 50, 50);
    a0 = app.add_process(g1, "A0", NodeId(0), 3);
    b0 = app.add_process(g2, "B0", NodeId(0), 4);
    a1 = app.add_process(g1, "A1", NodeId(0), 7);
    b1 = app.add_process(g2, "B1", NodeId(0), 1);
    a2 = app.add_process(g1, "A2", NodeId(0), 2);
    b2 = app.add_process(g2, "B2", NodeId(0), 6);
    a3 = app.add_process(g1, "A3", NodeId(1), 11);
    a4 = app.add_process(g1, "A4", NodeId(0), 5);
    app.add_dependency(a2, a0);
    app.add_dependency(a4, a0);
    app.add_dependency(a2, a3);
    app.add_dependency(a0, a1);
    (void)app.add_message(a3, a1, 4);
    app.add_dependency(a3, a1);
    app.add_dependency(b2, b1);
    app.add_dependency(b1, b0);
  }
};

TEST(ProcessGraph, TopologicalOrderOfInterleavedGraphs) {
  Interleaved f;
  // Sources by ascending id, then FIFO (Kahn).
  EXPECT_EQ(topological_order(f.app, f.g1),
            (std::vector<ProcessId>{f.a2, f.a4, f.a3, f.a0, f.a1}));
  EXPECT_EQ(topological_order(f.app, f.g2),
            (std::vector<ProcessId>{f.b2, f.b1, f.b0}));
}

TEST(ProcessGraph, LongestPathsOfInterleavedGraphs) {
  Interleaved f;
  // Per-graph forms, in graph order (G1: A0 A1 A2 A3 A4; G2: B0 B1 B2).
  EXPECT_EQ(longest_path_to(f.app, f.g1), (std::vector<util::Time>{8, 20, 2, 13, 5}));
  EXPECT_EQ(longest_path_from(f.app, f.g1),
            (std::vector<util::Time>{10, 7, 20, 18, 15}));
  EXPECT_EQ(longest_path_to(f.app, f.g2), (std::vector<util::Time>{11, 7, 6}));
  EXPECT_EQ(longest_path_from(f.app, f.g2), (std::vector<util::Time>{4, 5, 11}));

  // Dense forms write only the given graph's entries, by ProcessId.
  std::vector<util::Time> to(f.app.num_processes(), -1);
  std::vector<util::Time> from(f.app.num_processes(), -1);
  const auto order = topological_order(f.app, f.g1);
  longest_path_to(f.app, order, to);
  longest_path_from(f.app, order, from);
  EXPECT_EQ(to, (std::vector<util::Time>{8, -1, 20, -1, 2, -1, 13, 5}));
  EXPECT_EQ(from, (std::vector<util::Time>{10, -1, 7, -1, 20, -1, 18, 15}));
}

TEST(ProcessGraph, Reaches) {
  Diamond f;
  EXPECT_TRUE(reaches(f.app, f.a, f.d));
  EXPECT_TRUE(reaches(f.app, f.a, f.a));
  EXPECT_FALSE(reaches(f.app, f.b, f.c));
  EXPECT_FALSE(reaches(f.app, f.d, f.a));
}

TEST(ReachabilityIndex, MatchesDirectSearch) {
  Diamond f;
  const ReachabilityIndex idx(f.app);
  for (const ProcessId x : {f.a, f.b, f.c, f.d}) {
    for (const ProcessId y : {f.a, f.b, f.c, f.d}) {
      EXPECT_EQ(idx.reaches(x, y), reaches(f.app, x, y))
          << x.value() << " -> " << y.value();
    }
  }
  EXPECT_TRUE(idx.related(f.a, f.d));
  EXPECT_FALSE(idx.related(f.b, f.c));
}

TEST(ReachabilityIndex, SeparateGraphsNeverReach) {
  Application app;
  const auto g1 = app.add_graph("G1", 10, 10);
  const auto g2 = app.add_graph("G2", 10, 10);
  const auto p = app.add_process(g1, "P", NodeId(0), 1);
  const auto q = app.add_process(g2, "Q", NodeId(0), 1);
  const ReachabilityIndex idx(app);
  EXPECT_FALSE(idx.reaches(p, q));
  EXPECT_FALSE(idx.reaches(q, p));
  EXPECT_TRUE(idx.reaches(p, p));
}

}  // namespace
}  // namespace mcs::model
