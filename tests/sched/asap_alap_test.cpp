#include "mcs/sched/asap_alap.hpp"

#include <gtest/gtest.h>

#include "mcs/gen/paper_example.hpp"

namespace mcs::sched {
namespace {

TEST(AsapAlap, ChainWindows) {
  arch::Platform pf(arch::TtpBusParams{1, 0}, arch::CanBusParams::linear(10, 0));
  const auto n1 = pf.add_tt_node("N1");
  model::Application app;
  const auto g = app.add_graph("G", 100, 100);
  const auto a = app.add_process(g, "A", n1, 10);
  const auto b = app.add_process(g, "B", n1, 20);
  app.add_dependency(a, b);

  const std::vector<util::Time> latency(app.num_messages(), 0);
  const auto w = mobility_windows(app, pf, latency);
  EXPECT_EQ(w.asap[a.index()], 0);
  EXPECT_EQ(w.alap[a.index()], 70);   // 100 - 20 - 10
  EXPECT_EQ(w.asap[b.index()], 10);
  EXPECT_EQ(w.alap[b.index()], 80);   // 100 - 20
  EXPECT_TRUE(w.has_slack(a));
}

TEST(AsapAlap, MessageLatencyShiftsWindows) {
  const auto ex = gen::make_paper_example();
  // Current worst-case latencies as in Figure 4a:
  //   m1: delivered 95 while P1 ends at 30 -> latency 65 (50 TTP + 15 CAN)
  //   m2: 75; m3: enqueue 135 -> delivery 180: latency measured from the
  //   sender's completion: 180 - 135 = 45.
  std::vector<util::Time> latency(ex.app.num_messages(), 0);
  latency[ex.m1.index()] = 65;
  latency[ex.m2.index()] = 75;
  latency[ex.m3.index()] = 45;
  const auto w = mobility_windows(ex.app, ex.platform, latency);

  EXPECT_EQ(w.asap[ex.p1.index()], 0);
  EXPECT_EQ(w.asap[ex.p2.index()], 95);    // 30 + 65
  EXPECT_EQ(w.asap[ex.p3.index()], 105);   // 30 + 75
  EXPECT_EQ(w.asap[ex.p4.index()], 160);   // 95 + 20 + 45

  // Backward from D = 200: P4 must start by 170; P2 by 170-45-20 = 105.
  EXPECT_EQ(w.alap[ex.p4.index()], 170);
  EXPECT_EQ(w.alap[ex.p2.index()], 105);
  EXPECT_LE(w.asap[ex.p2.index()], w.alap[ex.p2.index()]);
}

TEST(AsapAlap, InfeasibleWindowClampsToEmpty) {
  arch::Platform pf(arch::TtpBusParams{1, 0}, arch::CanBusParams::linear(10, 0));
  const auto n1 = pf.add_tt_node("N1");
  model::Application app;
  const auto g = app.add_graph("G", 100, 30);
  const auto a = app.add_process(g, "A", n1, 20);
  const auto b = app.add_process(g, "B", n1, 20);
  app.add_dependency(a, b);
  const std::vector<util::Time> latency(app.num_messages(), 0);
  const auto w = mobility_windows(app, pf, latency);
  // Critical path 40 > deadline 30: windows collapse instead of inverting.
  EXPECT_EQ(w.asap[b.index()], w.alap[b.index()]);
  EXPECT_FALSE(w.has_slack(b));
}

TEST(AsapAlap, LocalDeadlineTightensWindow) {
  arch::Platform pf(arch::TtpBusParams{1, 0}, arch::CanBusParams::linear(10, 0));
  const auto n1 = pf.add_tt_node("N1");
  model::Application app;
  const auto g = app.add_graph("G", 100, 100);
  const auto a = app.add_process(g, "A", n1, 10);
  app.set_local_deadline(a, 40);
  const std::vector<util::Time> latency(app.num_messages(), 0);
  const auto w = mobility_windows(app, pf, latency);
  EXPECT_EQ(w.alap[a.index()], 30);
}

TEST(AsapAlap, ArityMismatchThrows) {
  const auto ex = gen::make_paper_example();
  const std::vector<util::Time> wrong(1, 0);
  EXPECT_THROW((void)mobility_windows(ex.app, ex.platform, wrong),
               std::invalid_argument);
  // The precomputed-order form also rejects a missing graph order.
  const std::vector<util::Time> latency(ex.app.num_messages(), 0);
  EXPECT_THROW((void)mobility_windows(ex.app, {}, latency), std::invalid_argument);
}

}  // namespace
}  // namespace mcs::sched
