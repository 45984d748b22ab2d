// Differential-testing oracle for the delta-mode evaluation path
// (DESIGN.md §2).  Under DeltaMode::Check every MultiClusterScheduling run
// through a workspace executes BOTH the schedule-memo leg (list schedules
// replayed from the previous run wherever the release constraints match)
// and the plain cold algorithm and throws std::logic_error unless the two
// McsResults are bit-identical (including published offsets).  The tests
// below drive long random move walks — the same neighborhoods SA and the
// hill climbers explore — through Check mode, so every evaluation after
// every move (accepted and rejected alike) is a delta-vs-full comparison.
//
// Gateway/TTC-schedule moves (slot resizes, slot swaps, TTC shifts) change
// the memo-eligibility fingerprint and must fall back to a cold run; the
// walks mix those in and the stats assert that both the memo path and the
// fallback path were actually exercised — an oracle that silently never
// takes the path under test proves nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "mcs/core/hopa.hpp"
#include "mcs/core/moves.hpp"
#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/core/simulated_annealing.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/gen/paper_example.hpp"
#include "mcs/gen/suites.hpp"
#include "mcs/util/rng.hpp"

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

void expect_same_evaluation(const Evaluation& a, const Evaluation& b) {
  EXPECT_EQ(a.delta.f1, b.delta.f1);
  EXPECT_EQ(a.delta.f2, b.delta.f2);
  EXPECT_EQ(a.s_total, b.s_total);
  EXPECT_EQ(a.schedulable, b.schedulable);
  EXPECT_EQ(a.mcs.converged, b.mcs.converged);
  EXPECT_EQ(a.mcs.iterations, b.mcs.iterations);
  EXPECT_EQ(a.mcs.schedule.process_start, b.mcs.schedule.process_start);
  EXPECT_EQ(a.mcs.analysis.process_response, b.mcs.analysis.process_response);
  EXPECT_EQ(a.mcs.analysis.message_response, b.mcs.analysis.message_response);
  EXPECT_EQ(a.mcs.analysis.message_delivery, b.mcs.analysis.message_delivery);
  EXPECT_EQ(a.mcs.analysis.graph_response, b.mcs.analysis.graph_response);
  EXPECT_EQ(a.mcs.analysis.buffers.out_can, b.mcs.analysis.buffers.out_can);
  EXPECT_EQ(a.mcs.analysis.buffers.out_ttp, b.mcs.analysis.buffers.out_ttp);
  EXPECT_EQ(a.mcs.analysis.buffers.out_node, b.mcs.analysis.buffers.out_node);
}

/// SA-shaped random walk: every neighbor — kept or discarded — goes
/// through evaluate_uncached, i.e. through one Check-mode MCS run.  A
/// delta/full divergence anywhere in the walk throws std::logic_error and
/// fails the test; the return value is the number of checked evaluations.
std::uint64_t random_walk(const MoveContext& ctx, std::uint64_t seed,
                          std::uint64_t target_evaluations) {
  util::Rng rng(seed);
  Candidate current = Candidate::initial(ctx.app(), ctx.platform());
  Evaluation current_eval = ctx.evaluate_uncached(current);
  std::uint64_t evaluations = 1;
  // Bounded by attempts, not evaluations, so a pathological neighborhood
  // of all-no-op moves cannot loop forever.
  for (std::uint64_t i = 0;
       i < 4 * target_evaluations && evaluations < target_evaluations; ++i) {
    const Move move = ctx.random_move(current, current_eval, rng);
    Candidate neighbor = current;
    if (!ctx.apply(move, neighbor)) continue;
    Evaluation eval = ctx.evaluate_uncached(neighbor);
    ++evaluations;
    // Accept improvements plus a random fraction of regressions, like SA
    // at moderate temperature; rejected neighbors were still checked.
    if (eval.delta.delta() <= current_eval.delta.delta() || rng.bernoulli(0.3)) {
      current = std::move(neighbor);
      current_eval = std::move(eval);
    }
  }
  return evaluations;
}

TEST(DeltaOracle, RandomWalksAcrossSuitesBitIdenticalToFull) {
  struct SystemUnderTest {
    model::Application app;
    arch::Platform platform;
  };
  std::vector<SystemUnderTest> systems;
  {
    auto ex = gen::make_paper_example();
    systems.push_back({std::move(ex.app), std::move(ex.platform)});
  }
  for (const auto& point : gen::tiny_suite(1)) {
    auto sys = gen::generate(point.params);
    systems.push_back({std::move(sys.app), std::move(sys.platform)});
  }
  for (const auto& point : gen::validation_suite(1)) {
    auto sys = gen::generate(point.params);
    systems.push_back({std::move(sys.app), std::move(sys.platform)});
  }
  for (const std::uint64_t seed : {11u, 44u}) {
    auto sys = gen::generate(small_system(seed));
    systems.push_back({std::move(sys.app), std::move(sys.platform)});
  }

  // The acceptance bar for the whole oracle: at least 10k delta-vs-full
  // comparisons per CI run, zero mismatches.  Split evenly across systems.
  const std::uint64_t evals_per_system = 10'000 / systems.size() + 1;

  std::uint64_t checked = 0, mismatches = 0, delta_runs = 0, fallbacks = 0;
  std::uint64_t memo_hits = 0;
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const MoveContext ctx(systems[i].app, systems[i].platform, McsOptions{});
    ctx.workspace().set_delta_mode(DeltaMode::Check);
    ASSERT_NO_THROW(random_walk(ctx, 40'000 + i, evals_per_system))
        << "delta/full mismatch on system " << i;
    const DeltaStats& stats = ctx.delta_stats();
    checked += stats.checked;
    mismatches += stats.mismatches;
    delta_runs += stats.delta_runs;
    fallbacks += stats.fallbacks;
    memo_hits += stats.schedule_memo_hits;
  }

  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(checked, 10'000u);
  // The oracle must have exercised both paths: priority moves keep the
  // memo-eligibility fingerprint, TDMA/shift moves force the cold fallback.
  EXPECT_GT(delta_runs, 0u);
  EXPECT_GT(fallbacks, 0u);
  // Priority-only iterations skip list_schedule via the schedule memo.
  EXPECT_GT(memo_hits, 0u);
}

TEST(DeltaOracle, GlobalMovesForceColdFallback) {
  const auto sys = gen::generate(small_system(7));
  const MoveContext ctx(sys.app, sys.platform, McsOptions{});
  ctx.workspace().set_delta_mode(DeltaMode::Check);

  Candidate base = Candidate::initial(sys.app, sys.platform);
  (void)ctx.evaluate_uncached(base);

  // A local priority swap on the warm base: delta-eligible.
  ASSERT_GE(ctx.et_processes().size(), 2u);
  Candidate swapped = base;
  util::ProcessId pa = ctx.et_processes()[0], pb = ctx.et_processes()[1];
  for (std::size_t i = 0; i + 1 < ctx.et_processes().size(); ++i) {
    const auto a = ctx.et_processes()[i];
    const auto b = ctx.et_processes()[i + 1];
    if (sys.app.process(a).node == sys.app.process(b).node) {
      pa = a;
      pb = b;
      break;
    }
  }
  ASSERT_TRUE(ctx.apply(SwapProcessPrioritiesMove{pa, pb}, swapped));
  (void)ctx.evaluate_uncached(swapped);
  EXPECT_GT(ctx.delta_stats().delta_runs, 0u);

  const std::uint64_t fallbacks_before = ctx.delta_stats().fallbacks;

  // Every TTC/gateway-level move must invalidate the fingerprint.
  std::vector<Candidate> global;
  if (base.tdma.num_slots() >= 2) {
    Candidate c = base;
    ASSERT_TRUE(ctx.apply(SwapSlotsMove{0, base.tdma.num_slots() - 1}, c));
    global.push_back(c);
    c = base;
    ASSERT_TRUE(ctx.apply(
        ResizeSlotMove{0, base.tdma.slot(0).length +
                              base.tdma.params().time_per_byte * 8},
        c));
    global.push_back(c);
  }
  if (!ctx.tt_processes().empty()) {
    Candidate c = base;
    ASSERT_TRUE(ctx.apply(ShiftProcessMove{ctx.tt_processes().front(), 64}, c));
    global.push_back(c);
  }
  ASSERT_FALSE(global.empty());
  for (const Candidate& c : global) (void)ctx.evaluate_uncached(c);

  EXPECT_EQ(ctx.delta_stats().fallbacks, fallbacks_before + global.size());
  EXPECT_EQ(ctx.delta_stats().mismatches, 0u);
}

// The delta machinery must never seed the evaluation cache with values
// that depend on the warm-start state at insertion time: interleave cache
// hits, delta-path misses and fallback (cold) misses through one context,
// then compare every cached Evaluation against a ground-truth recompute
// from an independent DeltaMode::Off context.
TEST(DeltaOracle, EvaluationCacheMatchesRecomputeUnderDeltaMode) {
  for (const std::uint64_t seed : {11u, 22u}) {
    const auto sys = gen::generate(small_system(seed));
    const MoveContext ctx(sys.app, sys.platform, McsOptions{});
    ctx.workspace().set_delta_mode(DeltaMode::On);
    const MoveContext ground_truth(sys.app, sys.platform, McsOptions{});
    ground_truth.workspace().set_delta_mode(DeltaMode::Off);

    // A mixed family: priority moves (delta misses), TDMA/shift moves
    // (fallback misses).
    std::vector<Candidate> family;
    Candidate base = Candidate::initial(sys.app, sys.platform);
    family.push_back(base);
    for (std::size_t i = 0; i + 1 < ctx.et_processes().size(); ++i) {
      const auto a = ctx.et_processes()[i];
      const auto b = ctx.et_processes()[i + 1];
      if (sys.app.process(a).node != sys.app.process(b).node) continue;
      Candidate c = family.back();
      if (!ctx.apply(SwapProcessPrioritiesMove{a, b}, c)) continue;
      family.push_back(c);
      if (family.size() >= 4) break;
    }
    if (ctx.can_messages().size() >= 2) {
      Candidate c = family.back();
      if (ctx.apply(SwapMessagePrioritiesMove{ctx.can_messages().front(),
                                              ctx.can_messages().back()},
                    c)) {
        family.push_back(c);
      }
    }
    if (base.tdma.num_slots() >= 2) {
      Candidate c = family.back();
      if (ctx.apply(SwapSlotsMove{0, base.tdma.num_slots() - 1}, c)) {
        family.push_back(c);
      }
    }
    if (!ctx.tt_processes().empty()) {
      Candidate c = family.back();
      if (ctx.apply(ShiftProcessMove{ctx.tt_processes().front(), 64}, c)) {
        family.push_back(c);
      }
    }
    ASSERT_GE(family.size(), 4u);

    // Round 1 populates the cache with delta-path and fallback results in
    // interleaved order; round 2 revisits everything out of order (pure
    // hits); then each entry is checked against the cold recompute.
    const auto hits_before = ctx.evaluation_cache().hits();
    for (const Candidate& c : family) (void)ctx.evaluate(c);
    for (std::size_t i = family.size(); i-- > 0;) (void)ctx.evaluate(family[i]);
    EXPECT_GE(ctx.evaluation_cache().hits() - hits_before, family.size());
    EXPECT_GT(ctx.delta_stats().delta_runs, 0u);
    EXPECT_GT(ctx.delta_stats().fallbacks, 0u);

    for (const Candidate& c : family) {
      expect_same_evaluation(ctx.evaluate(c), ground_truth.evaluate_uncached(c));
    }
  }
}

// End-to-end: the real optimizers under Check mode.  SA stresses the
// accept/reject interleaving on one workspace; HOPA stresses repeated
// priority reassignment rounds over a fixed TDMA round (every round after
// the first is memo-eligible).
TEST(DeltaOracle, OptimizersRunCleanUnderCheckMode) {
  const auto sys = gen::generate(small_system(33));
  {
    const MoveContext ctx(sys.app, sys.platform, McsOptions{});
    ctx.workspace().set_delta_mode(DeltaMode::Check);
    SaOptions options;
    options.seed = 5;
    options.max_evaluations = 300;
    const Candidate start = Candidate::initial(sys.app, sys.platform);
    ASSERT_NO_THROW((void)simulated_annealing(ctx, start, options));
    EXPECT_EQ(ctx.delta_stats().mismatches, 0u);
    EXPECT_GT(ctx.delta_stats().checked, 0u);
  }
  {
    AnalysisWorkspace ws(sys.app, sys.platform);
    ws.set_delta_mode(DeltaMode::Check);
    const arch::TdmaRound tdma =
        Candidate::initial(sys.app, sys.platform).tdma;
    ASSERT_NO_THROW((void)hopa_priorities(sys.app, sys.platform, tdma, ws));
    EXPECT_EQ(ws.delta_stats().mismatches, 0u);
    EXPECT_GT(ws.delta_stats().delta_runs, 0u);
  }
}

}  // namespace
}  // namespace mcs::core
