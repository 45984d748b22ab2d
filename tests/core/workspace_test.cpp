// Correctness of the AnalysisWorkspace reuse layer and the evaluation
// memoization cache: a workspace-reused analysis must be bit-identical to
// a fresh-state analysis (offsets, responses, jitters, deliveries, buffer
// bounds, convergence flags), and a memoized Evaluation must equal the
// recomputed one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mcs/core/hopa.hpp"
#include "mcs/core/moves.hpp"
#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/core/response_time_analysis.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/gen/paper_example.hpp"
#include "mcs/gen/suites.hpp"
#include "mcs/model/process_graph.hpp"
#include "mcs/util/hash.hpp"

namespace mcs::core {
namespace {

gen::GeneratorParams small_system(std::uint64_t seed, std::size_t tt = 2,
                                  std::size_t et = 2) {
  gen::GeneratorParams p;
  p.tt_nodes = tt;
  p.et_nodes = et;
  p.processes_per_node = 8;
  p.processes_per_graph = 16;
  p.seed = seed;
  p.wcet_min = 50;
  p.wcet_max = 400;
  return p;
}

void expect_same_analysis(const AnalysisResult& a, const AnalysisResult& b) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.outer_iterations, b.outer_iterations);
  EXPECT_EQ(a.diverged_activities, b.diverged_activities);
  EXPECT_EQ(a.process_offsets, b.process_offsets);
  EXPECT_EQ(a.message_offsets, b.message_offsets);
  EXPECT_EQ(a.process_response, b.process_response);
  EXPECT_EQ(a.process_jitter, b.process_jitter);
  EXPECT_EQ(a.process_interference, b.process_interference);
  EXPECT_EQ(a.message_response, b.message_response);
  EXPECT_EQ(a.message_jitter, b.message_jitter);
  EXPECT_EQ(a.message_queue_delay, b.message_queue_delay);
  EXPECT_EQ(a.message_ttp_wait, b.message_ttp_wait);
  EXPECT_EQ(a.message_bytes_ahead, b.message_bytes_ahead);
  EXPECT_EQ(a.message_delivery, b.message_delivery);
  EXPECT_EQ(a.graph_response, b.graph_response);
  EXPECT_EQ(a.buffers.out_can, b.buffers.out_can);
  EXPECT_EQ(a.buffers.out_ttp, b.buffers.out_ttp);
  EXPECT_EQ(a.buffers.out_node, b.buffers.out_node);
}

void expect_same_evaluation(const Evaluation& a, const Evaluation& b) {
  EXPECT_EQ(a.delta.f1, b.delta.f1);
  EXPECT_EQ(a.delta.f2, b.delta.f2);
  EXPECT_EQ(a.s_total, b.s_total);
  EXPECT_EQ(a.schedulable, b.schedulable);
  EXPECT_EQ(a.mcs.converged, b.mcs.converged);
  EXPECT_EQ(a.mcs.iterations, b.mcs.iterations);
  EXPECT_EQ(a.mcs.schedule.process_start, b.mcs.schedule.process_start);
  expect_same_analysis(a.mcs.analysis, b.mcs.analysis);
}

/// A deterministic family of candidates around the initial one: priority
/// swaps, slot swaps/resizes and TTC shifts, exercising every move kind.
std::vector<Candidate> candidate_family(const MoveContext& ctx) {
  std::vector<Candidate> family;
  Candidate base = Candidate::initial(ctx.app(), ctx.platform());
  family.push_back(base);

  Candidate c = base;
  if (ctx.can_messages().size() >= 2) {
    (void)ctx.apply(
        SwapMessagePrioritiesMove{ctx.can_messages().front(), ctx.can_messages().back()},
        c);
    family.push_back(c);
  }
  if (base.tdma.num_slots() >= 2) {
    c = base;
    (void)ctx.apply(SwapSlotsMove{0, base.tdma.num_slots() - 1}, c);
    family.push_back(c);
    c = base;
    (void)ctx.apply(
        ResizeSlotMove{0, base.tdma.slot(0).length + base.tdma.params().time_per_byte * 8},
        c);
    family.push_back(c);
  }
  if (!ctx.tt_processes().empty()) {
    c = base;
    (void)ctx.apply(ShiftProcessMove{ctx.tt_processes().front(), 64}, c);
    family.push_back(c);
  }
  for (std::size_t i = 0; i + 1 < ctx.et_processes().size(); ++i) {
    const auto a = ctx.et_processes()[i];
    const auto b = ctx.et_processes()[i + 1];
    if (ctx.app().process(a).node != ctx.app().process(b).node) continue;
    c = base;
    (void)ctx.apply(SwapProcessPrioritiesMove{a, b}, c);
    family.push_back(c);
    break;
  }
  return family;
}

TEST(AnalysisWorkspace, ReusedAnalysisIsBitIdenticalToFresh) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    for (const auto& [tt, et] : {std::pair<std::size_t, std::size_t>{1, 1},
                                 {2, 2},
                                 {3, 1}}) {
      const auto sys = gen::generate(small_system(seed, tt, et));
      const MoveContext ctx(sys.app, sys.platform, McsOptions{});
      AnalysisWorkspace shared(sys.app, sys.platform);

      // Interleave candidates through ONE shared workspace; any state
      // bleeding between runs would diverge from the fresh-state result.
      for (int round = 0; round < 2; ++round) {
        for (const Candidate& cand : candidate_family(ctx)) {
          SystemConfig cfg_ws = cand.to_config(sys.app);
          const McsResult reused = multi_cluster_scheduling(
              sys.app, sys.platform, cfg_ws, cand.pins, McsOptions{}, shared);

          SystemConfig cfg_fresh = cand.to_config(sys.app);
          const model::ReachabilityIndex fresh_reach(sys.app);
          const McsResult fresh = multi_cluster_scheduling(
              sys.app, sys.platform, cfg_fresh, cand.pins, McsOptions{}, fresh_reach);

          EXPECT_EQ(reused.converged, fresh.converged);
          EXPECT_EQ(reused.iterations, fresh.iterations);
          EXPECT_EQ(reused.schedule.process_start, fresh.schedule.process_start);
          expect_same_analysis(reused.analysis, fresh.analysis);
          EXPECT_EQ(cfg_ws.process_offsets(), cfg_fresh.process_offsets());
          EXPECT_EQ(cfg_ws.message_offsets(), cfg_fresh.message_offsets());
        }
      }
    }
  }
}

TEST(AnalysisWorkspace, DirectAnalysisMatchesFreshOnPaperExample) {
  const auto ex = gen::make_paper_example();
  AnalysisWorkspace shared(ex.app, ex.platform);
  for (const auto variant :
       {gen::Figure4Variant::A, gen::Figure4Variant::B, gen::Figure4Variant::C,
        gen::Figure4Variant::CSlotFirst}) {
    SystemConfig cfg = gen::make_figure4_config(ex, variant);
    const auto schedule = sched::list_schedule(
        ex.app, ex.platform, cfg.tdma(), sched::ScheduleConstraints::none(ex.app));
    AnalysisInput input;
    input.app = &ex.app;
    input.platform = &ex.platform;
    input.config = &cfg;
    input.ttc_schedule = &schedule;
    const AnalysisResult reused = response_time_analysis(input, shared);
    const AnalysisResult fresh = response_time_analysis(input);
    expect_same_analysis(reused, fresh);
  }
}

void expect_same_schedule(const sched::TtcSchedule& a, const sched::TtcSchedule& b) {
  EXPECT_EQ(a.process_start, b.process_start);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.problems, b.problems);
  ASSERT_EQ(a.message_slot.size(), b.message_slot.size());
  for (std::size_t mi = 0; mi < a.message_slot.size(); ++mi) {
    const auto& x = a.message_slot[mi];
    const auto& y = b.message_slot[mi];
    ASSERT_EQ(x.has_value(), y.has_value()) << "message " << mi;
    if (!x) continue;
    EXPECT_EQ(x->slot_index, y->slot_index) << "message " << mi;
    EXPECT_EQ(x->first_round, y->first_round) << "message " << mi;
    EXPECT_EQ(x->rounds, y->rounds) << "message " << mi;
    EXPECT_EQ(x->tx_start, y->tx_start) << "message " << mi;
    EXPECT_EQ(x->delivery, y->delivery) << "message " << mi;
  }
}

TEST(AnalysisWorkspace, ListSchedulePlanMatchesStandaloneAcrossSuites) {
  std::vector<gen::SuitePoint> points = gen::tiny_suite(2);
  for (const auto& suite : {gen::validation_suite(2), gen::figure9ab_suite(1),
                            gen::figure9c_suite(1)}) {
    points.insert(points.end(), suite.begin(), suite.end());
  }
  std::size_t compared = 0;
  for (const gen::SuitePoint& point : points) {
    const auto sys = gen::generate(point.params);
    const AnalysisWorkspace ws(sys.app, sys.platform);
    // One scratch across every call: stale contents must never leak.
    sched::ListScheduleScratch scratch;

    const Candidate initial = Candidate::initial(sys.app, sys.platform);
    std::vector<arch::TdmaRound> rounds{initial.tdma};
    if (initial.tdma.num_slots() >= 2) {
      rounds.push_back(initial.tdma.with_swapped_slots(0, initial.tdma.num_slots() - 1));
      rounds.push_back(initial.tdma.with_slot_length(
          1, initial.tdma.slot(1).length + initial.tdma.params().time_per_byte * 16));
    }
    std::vector<sched::ScheduleConstraints> pins{sched::ScheduleConstraints::none(sys.app)};
    sched::ScheduleConstraints pinned = pins.front();
    for (std::size_t i = 0; i < pinned.process_release.size(); i += 3) {
      pinned.process_release[i] = static_cast<util::Time>((i * 37) % 400);
    }
    for (std::size_t i = 0; i < pinned.message_tx.size(); i += 2) {
      pinned.message_tx[i] = static_cast<util::Time>((i * 53) % 600);
    }
    pins.push_back(pinned);

    for (const arch::TdmaRound& round : rounds) {
      for (const sched::ScheduleConstraints& c : pins) {
        const auto standalone = sched::list_schedule(sys.app, sys.platform, round, c);
        const auto planned = sched::list_schedule(sys.app, sys.platform, round, c,
                                                  ws.list_plan(), scratch);
        expect_same_schedule(planned, standalone);
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 50u);
}

TEST(AnalysisWorkspace, HoistedPathLengthsMatchPerGraphFunctions) {
  const auto sys = gen::generate(small_system(44, 2, 2));
  const AnalysisWorkspace ws(sys.app, sys.platform);
  for (std::size_t gi = 0; gi < sys.app.num_graphs(); ++gi) {
    const model::GraphId g(static_cast<model::GraphId::underlying_type>(gi));
    EXPECT_EQ(ws.topo_orders()[gi], model::topological_order(sys.app, g));
    const auto to = model::longest_path_to(sys.app, g);
    const auto from = model::longest_path_from(sys.app, g);
    const auto& procs = sys.app.graph(g).processes;
    for (std::size_t i = 0; i < procs.size(); ++i) {
      EXPECT_EQ(ws.path_to()[procs[i].index()], to[i]);
      EXPECT_EQ(ws.path_from()[procs[i].index()], from[i]);
    }
  }
}

/// The paper example plus parallel arcs — an explicit dependency beside a
/// message — on every route: TT->ET (P1 -> P2), ET->TT (P2 -> P4), local
/// on the ETC (P3 -> P5), local on the TTC (P1 -> P6) and ET->ET over CAN
/// (P5 -> P7, to a second ET node).
gen::PaperExample parallel_arc_example() {
  gen::PaperExample ex = gen::make_paper_example();
  const auto n3 = ex.platform.add_et_node("N3");
  ex.app.add_dependency(ex.p1, ex.p2);
  ex.app.add_dependency(ex.p2, ex.p4);
  const auto p5 = ex.app.add_process(ex.g1, "P5", ex.n2, 15);
  (void)ex.app.add_message(ex.p3, p5, 4, "m4");
  ex.app.add_dependency(ex.p3, p5);
  const auto p6 = ex.app.add_process(ex.g1, "P6", ex.n1, 10);
  (void)ex.app.add_message(ex.p1, p6, 4, "m5");
  ex.app.add_dependency(ex.p1, p6);
  const auto p7 = ex.app.add_process(ex.g1, "P7", n3, 5);
  (void)ex.app.add_message(p5, p7, 8, "m6");
  ex.app.add_dependency(p5, p7);
  return ex;
}

TEST(AnalysisWorkspace, ParallelArcAnalysisIsPinned) {
  // Pinned values: pass 1 drops EVERY arc from a predecessor that sends the
  // process any message, and the list scheduler strikes one arc per
  // message; hoisting either rule must not move a single value.
  using V = std::vector<util::Time>;
  const gen::PaperExample ex = parallel_arc_example();
  std::vector<McsResult> slotless;  // per kernel: Fast, then Reference
  for (const auto kernel : {AnalysisKernel::Fast, AnalysisKernel::Reference}) {
    for (const auto variant : {gen::Figure4Variant::A, gen::Figure4Variant::B}) {
      SystemConfig cfg = gen::make_figure4_config(ex, variant);
      McsOptions options;
      options.analysis.kernel = kernel;
      const McsResult r = multi_cluster_scheduling(ex.app, ex.platform, cfg, options);
      // Variant B runs the S1 slot first: everything after P1 moves 20 earlier.
      const util::Time d = variant == gen::Figure4Variant::A ? 0 : -20;
      const auto& a = r.analysis;
      EXPECT_TRUE(r.converged);
      EXPECT_EQ(r.iterations, 3);
      EXPECT_EQ(a.outer_iterations, 3);
      EXPECT_EQ(a.process_offsets, (V{0, 80 + d, 80 + d, 220 + d, 100 + d, 250 + d, 125 + d}));
      EXPECT_EQ(a.process_jitter, (V{0, 15, 25, 0, 25, 0, 55}));
      EXPECT_EQ(a.process_response, (V{30, 55, 45, 30, 60, 10, 60}));
      EXPECT_EQ(a.message_offsets, (V{80 + d, 80 + d, 80 + d, 80 + d, 0, 100 + d}));
      EXPECT_EQ(a.message_jitter, (V{5, 5, 55, 0, 0, 60}));
      EXPECT_EQ(a.message_response, (V{15, 25, 140, 45, 30, 80}));
      EXPECT_EQ(a.message_delivery, (V{95 + d, 105 + d, 220 + d, 125 + d, 30, 180 + d}));
      EXPECT_EQ(a.graph_response, (V{260 + d}));
      EXPECT_EQ(r.schedule.process_start, (V{0, 0, 0, 220 + d, 0, 250 + d, 0}));
    }

    // Without an S1 slot, P1's messages are never placed: their offsets
    // stay 0 while their deliveries hit the cap.  Here the two rules part:
    // pass 1 ignores the dependency P1 -> P2 beside m1, so P2 is released
    // at 0 (keeping the dependency would release it at P1's finish, 30).
    SystemConfig cfg(ex.app,
                     arch::TdmaRound({arch::Slot{ex.ng, 20}}, ex.platform.ttp()));
    McsOptions options;
    options.analysis.kernel = kernel;
    const McsResult r = multi_cluster_scheduling(ex.app, ex.platform, cfg, options);
    const auto& a = r.analysis;
    EXPECT_FALSE(r.converged);
    EXPECT_FALSE(r.schedule.feasible);
    EXPECT_EQ(r.iterations, 3);
    EXPECT_EQ(a.outer_iterations, 2);
    EXPECT_EQ(a.diverged_activities, 38);
    EXPECT_EQ(a.process_offsets, (V{0, 0, 0, 1200, 20, 1200, 45}));
    EXPECT_EQ(a.process_jitter, (V{0, 1200, 1200, 0, 1180, 0, 1155}));
    EXPECT_EQ(a.process_response, (V{30, 1200, 1200, 30, 1200, 10, 1160}));
    EXPECT_EQ(a.message_offsets, (V{0, 0, 0, 0, 0, 20}));
    EXPECT_EQ(a.message_delivery, (V{1200, 1200, 1200, 1200, 30, 1200}));
    EXPECT_EQ(a.graph_response, (V{1230}));
    EXPECT_EQ(r.schedule.process_start, (V{0, 0, 0, 1200, 0, 1230, 0}));
    slotless.push_back(r);
  }
  // Members sit at the cap here, so every pass re-counts their over-cap
  // raises: the Fast kernel may skip only runs that counted none.
  std::string why;
  EXPECT_TRUE(bit_identical(slotless[0], slotless[1], &why)) << why;
}

TEST(AnalysisWorkspace, RejectsMismatchedSystem) {
  const auto ex = gen::make_paper_example();
  const auto other = gen::generate(small_system(7));
  AnalysisWorkspace ws(other.app, other.platform);
  SystemConfig cfg = gen::make_figure4_config(ex, gen::Figure4Variant::A);
  AnalysisInput input;
  input.app = &ex.app;
  input.platform = &ex.platform;
  input.config = &cfg;
  EXPECT_THROW((void)response_time_analysis(input, ws), std::invalid_argument);
}

TEST(AnalysisWorkspace, HopaRejectsMismatchedSystem) {
  const auto ex = gen::make_paper_example();
  const auto other = gen::generate(small_system(7));
  AnalysisWorkspace ws(other.app, other.platform);
  const SystemConfig cfg = gen::make_figure4_config(ex, gen::Figure4Variant::A);
  EXPECT_THROW((void)hopa_priorities(ex.app, ex.platform, cfg.tdma(), ws),
               std::invalid_argument);
}

TEST(EvaluationCache, MemoizedEvaluationEqualsRecomputed) {
  const auto sys = gen::generate(small_system(5));
  const MoveContext ctx(sys.app, sys.platform, McsOptions{});

  const auto family = candidate_family(ctx);
  std::vector<Evaluation> first;
  first.reserve(family.size());
  for (const Candidate& cand : family) first.push_back(ctx.evaluate(cand));
  EXPECT_EQ(ctx.evaluation_cache().misses(), family.size());
  EXPECT_EQ(ctx.evaluation_cache().hits(), 0u);

  // Second pass: every lookup must hit and return the identical result.
  for (std::size_t i = 0; i < family.size(); ++i) {
    const Evaluation cached = ctx.evaluate(family[i]);
    expect_same_evaluation(cached, first[i]);
    // ... and equal a from-scratch recomputation.
    expect_same_evaluation(cached, ctx.evaluate_uncached(family[i]));
  }
  EXPECT_EQ(ctx.evaluation_cache().hits(), family.size());
}

/// `count` distinct candidates: the initial one with one TT process or one
/// TT message pin moved, cycling through the pinnable activities.
std::vector<Candidate> distinct_candidates(const MoveContext& ctx, std::size_t count) {
  const Candidate base = Candidate::initial(ctx.app(), ctx.platform());
  std::vector<Candidate> out;
  for (Time step = 1; out.size() < count; ++step) {
    for (const util::ProcessId p : ctx.tt_processes()) {
      if (out.size() == count) break;
      Candidate c = base;
      EXPECT_TRUE(ctx.apply(ShiftProcessMove{p, 16 * step}, c));
      out.push_back(std::move(c));
    }
    for (const util::MessageId m : ctx.tt_messages()) {
      if (out.size() == count) break;
      Candidate c = base;
      EXPECT_TRUE(ctx.apply(ShiftMessageMove{m, 16 * step}, c));
      out.push_back(std::move(c));
    }
  }
  return out;
}

// More distinct evaluations than the default capacity cycle every slot
// through copy-assignment; the most recent 32 must then all hit, and each
// hit must equal a recomputation, so no slot keeps data of the entry it
// replaced.
TEST(EvaluationCache, OverwrittenSlotsReturnTheirNewEntry) {
  const auto sys = gen::generate(small_system(5));
  const MoveContext ctx(sys.app, sys.platform, McsOptions{});
  const std::size_t capacity = ctx.evaluation_cache().capacity();
  ASSERT_EQ(capacity, 32u);
  const auto family = distinct_candidates(ctx, 3 * capacity + 5);
  for (const Candidate& cand : family) (void)ctx.evaluate(cand);
  EXPECT_EQ(ctx.evaluation_cache().misses(), family.size());
  EXPECT_EQ(ctx.evaluation_cache().size(), capacity);

  for (std::size_t i = family.size() - capacity; i < family.size(); ++i) {
    SCOPED_TRACE(i);
    const Evaluation cached = ctx.evaluate(family[i]);
    expect_same_evaluation(cached, ctx.evaluate_uncached(family[i]));
  }
  EXPECT_EQ(ctx.evaluation_cache().hits(), capacity);
  EXPECT_EQ(ctx.evaluation_cache().misses(), family.size());
}

// Once every slot is filled, a miss overwrites a slot in place: the
// cache's heap footprint stops growing however many misses follow.
TEST(EvaluationCache, SteadyStateMissesKeepTheFootprint) {
  const auto sys = gen::generate(small_system(5));
  const MoveContext ctx(sys.app, sys.platform, McsOptions{});
  const std::size_t capacity = ctx.evaluation_cache().capacity();
  const auto family = distinct_candidates(ctx, 4 * capacity);
  for (std::size_t i = 0; i < capacity; ++i) (void)ctx.evaluate(family[i]);
  const std::size_t warm = ctx.evaluation_cache().footprint_bytes();
  EXPECT_GT(warm, 0u);
  for (std::size_t i = capacity; i < family.size(); ++i) {
    (void)ctx.evaluate(family[i]);
    ASSERT_EQ(ctx.evaluation_cache().footprint_bytes(), warm) << "miss " << i;
  }
  EXPECT_EQ(ctx.evaluation_cache().misses(), family.size());
}

// The evicted slot itself takes the new entry, and copy-assignment keeps
// its buffers: the analysis vectors of the new entry live where the old
// entry's did, so the overwrite allocated none of them.
TEST(EvaluationCache, EvictedSlotReusesItsBuffers) {
  const auto sys = gen::generate(small_system(5));
  const MoveContext ctx(sys.app, sys.platform, McsOptions{});
  const auto family = candidate_family(ctx);  // [2] swaps two slots
  ASSERT_GE(family.size(), 3u);
  std::vector<Evaluation> evals;
  std::vector<std::vector<std::int64_t>> keys;
  for (std::size_t i = 0; i < 3; ++i) {
    evals.push_back(ctx.evaluate_uncached(family[i]));
    keys.push_back({static_cast<std::int64_t>(i)});
  }
  ASSERT_NE(evals[0].mcs.schedule.process_start, evals[2].mcs.schedule.process_start);
  EvaluationCache cache(2);
  cache.insert(util::fnv1a(keys[0]), keys[0], evals[0]);
  cache.insert(util::fnv1a(keys[1]), keys[1], evals[1]);
  const Evaluation* slot = cache.find(util::fnv1a(keys[0]), keys[0]);
  ASSERT_NE(slot, nullptr);
  const Time* offsets = slot->mcs.analysis.process_offsets.data();
  const Time* starts = slot->mcs.schedule.process_start.data();
  ASSERT_NE(cache.find(util::fnv1a(keys[1]), keys[1]), nullptr);  // keys[0] is LRU
  const std::size_t warm = cache.footprint_bytes();

  cache.insert(util::fnv1a(keys[2]), keys[2], evals[2]);
  EXPECT_EQ(cache.find(util::fnv1a(keys[0]), keys[0]), nullptr);
  EXPECT_EQ(cache.find(util::fnv1a(keys[2]), keys[2]), slot);
  EXPECT_EQ(slot->mcs.analysis.process_offsets.data(), offsets);
  EXPECT_EQ(slot->mcs.schedule.process_start.data(), starts);
  expect_same_evaluation(*slot, evals[2]);
  EXPECT_EQ(cache.footprint_bytes(), warm);
}

TEST(EvaluationCache, LruEvictionStaysBounded) {
  EvaluationCache cache(2);
  const std::vector<std::int64_t> k1{1}, k2{2}, k3{3};
  Evaluation e1, e2, e3;
  e1.s_total = 1;
  e2.s_total = 2;
  e3.s_total = 3;
  cache.insert(util::fnv1a(k1), k1, e1);
  cache.insert(util::fnv1a(k2), k2, e2);
  EXPECT_NE(cache.find(util::fnv1a(k1), k1), nullptr);  // touch k1: k2 is LRU
  cache.insert(util::fnv1a(k3), k3, e3);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(util::fnv1a(k2), k2), nullptr);  // evicted
  const Evaluation* hit1 = cache.find(util::fnv1a(k1), k1);
  const Evaluation* hit3 = cache.find(util::fnv1a(k3), k3);
  ASSERT_NE(hit1, nullptr);
  ASSERT_NE(hit3, nullptr);
  EXPECT_EQ(hit1->s_total, 1);
  EXPECT_EQ(hit3->s_total, 3);
}

TEST(EvaluationCache, GenotypeHashIsStable) {
  const std::vector<std::int64_t> key{4, 8, 15, 16, 23, 42};
  EXPECT_EQ(util::fnv1a(key), util::fnv1a(key));
  std::vector<std::int64_t> other = key;
  other.back() = 43;
  EXPECT_NE(util::fnv1a(key), util::fnv1a(other));
}

}  // namespace
}  // namespace mcs::core
