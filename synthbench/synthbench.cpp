// End-to-end synthesis benchmark.
//
// Runs one named workload through the entry points users call
// (exp::run_campaign / exp::run_validation, i.e. `mcs_synth --campaign`
// and `--validate`) on one worker thread and prints every end-to-end
// metric, or, with `--trace 1`, a traced per-layer breakdown.  run.py
// builds this program and turns its last line into the benchmark result;
// see run.py for the full contract.
//
// Untraced run: set-up (repeated, median reported), then identical timed
// passes until --seconds have elapsed (at least `min_passes`).  Every
// pass must reproduce the first pass's outcome digest and exact work
// counters job by job; a pinned input/result digest, when given, must
// match.
//
// Traced run: alternates untraced run_campaign/run_validation passes with
// passes of this file's own job loop.  The own loop calls each layer's
// public function under a benchmark span (gen::generate, the MoveContext
// constructor, the strategies, sim::simulate, sim::check_bounds) with the
// program's tracer and metrics registry armed, so the spans and counters
// the program emits itself (hopa.run, sampled mcs.run/rta.pass, DeltaStats,
// eval-cache counters) nest inside.  The own loop must reproduce the
// untraced outcome digest.  Afterwards the benchmark times its own probe
// calls into hopa_priorities, multi_cluster_scheduling, list_schedule and
// response_time_analysis on the synthesized candidates, and re-evaluates
// every final candidate on a fresh Reference-kernel, delta-off MoveContext
// (the oracle).
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mcs/core/hopa.hpp"
#include "mcs/core/moves.hpp"
#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/core/optimize_resources.hpp"
#include "mcs/core/optimize_schedule.hpp"
#include "mcs/core/response_time_analysis.hpp"
#include "mcs/core/simulated_annealing.hpp"
#include "mcs/core/straightforward.hpp"
#include "mcs/exp/campaign.hpp"
#include "mcs/exp/validation.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/gen/suites.hpp"
#include "mcs/gen/textio.hpp"
#include "mcs/obs/export.hpp"
#include "mcs/obs/metrics.hpp"
#include "mcs/obs/trace.hpp"
#include "mcs/sched/list_scheduler.hpp"
#include "mcs/sim/simulator.hpp"
#include "mcs/util/hash.hpp"
#include "mcs/util/stats.hpp"

namespace {

using namespace mcs;
using Clock = std::chrono::steady_clock;
using exp::Strategy;

// ---- workloads ---------------------------------------------------------

/// Sweep seeds are spaced further apart than the validation suite's seed
/// span (base + dimension offsets + up to 500 replicas), so two benchmark
/// seeds never share a generated system.
constexpr std::uint64_t kSeedStride = 1'000'003;

/// Set-up takes milliseconds, so it is repeated (at least this many times
/// and for at least kSetupSeconds, at most kMaxSetupRepetitions times)
/// and its median reported.
constexpr int kSetupRepetitions = 11;
constexpr double kSetupSeconds = 0.5;
constexpr int kMaxSetupRepetitions = 1000;

struct Workload {
  std::string name;
  bool validation = false;
  exp::CampaignSpec campaign;
  exp::ValidationSpec sweep;
  /// Fixed per workload, so the metric means the same thing however many
  /// passes fit in a run: the highest percentile that leaves at least ten
  /// samples beyond it at the minimum pass count.
  double tail_percentile = 75.0;
  std::size_t min_passes = 4;

  [[nodiscard]] std::vector<gen::SuitePoint> suite() const {
    return validation ? gen::suite_by_name(sweep.suite, sweep.seeds_per_dim,
                                           sweep.suite_base_seed)
                      : gen::suite_by_name(campaign.suite, campaign.seeds_per_dim,
                                           campaign.suite_base_seed);
  }
};

/// `tiny` shrinks a workload to seconds for the self-test; the full sizes
/// are the ones BENCHMARK.json names.
///
/// The seed offsets every RNG stream of the run (the campaign seed behind
/// each job's annealing and fault-scenario streams).  It offsets the
/// generator seeds of the 1000-system sweep too, but not of the two
/// ten-system campaigns: there the systems are the pinned Figure 9 grids,
/// because ten fresh systems per seed moved throughput by 16% (fig9c) and
/// 24% (fig9ab) between seeds (IQR / median over five seeds), close to or
/// above any usable regression bound.
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "fig9ab-sched" || name == "fig9c-buffers") {
    exp::CampaignSpec& c = w.campaign;
    c.name = name;
    c.seeds_per_dim = 2;
    c.campaign_seed = 1 + seed;
    c.budgets.sa_max_evaluations = tiny ? 60 : 300;
    c.budgets.hopa_iterations = 3;
    c.jobs = 1;
    if (name == "fig9ab-sched") {
      c.suite = tiny ? "tiny" : "fig9ab";
      c.suite_base_seed = tiny ? 500 : 1000;
      c.strategies = {Strategy::Sf, Strategy::Os, Strategy::Sas};
    } else {
      c.suite = tiny ? "tiny" : "fig9c";
      c.suite_base_seed = tiny ? 500 : 9000;
      c.strategies = {Strategy::Or, Strategy::Sar};
      c.anneal_unschedulable_starts = false;
      c.budgets.or_max_seed_starts = tiny ? 1 : 3;
      c.budgets.or_max_climb_iterations = tiny ? 3 : 10;
      c.budgets.or_neighbors_per_step = tiny ? 4 : 16;
    }
  } else if (name == "soundness-sweep") {
    w.validation = true;
    exp::ValidationSpec& v = w.sweep;
    v.name = name;
    v.suite = "validation";
    v.seeds_per_dim = tiny ? 3 : 500;
    v.suite_base_seed = 7000 + seed * kSeedStride;
    v.campaign_seed = 1 + seed;
    v.strategy = Strategy::Os;
    for (const std::string& s : sim::FaultSpec::scenario_names()) {
      v.scenarios.push_back(sim::FaultSpec::scenario(s, /*seed=*/1));
    }
    v.max_sim_events = 2'000'000;
    v.budgets.hopa_iterations = 3;
    v.jobs = 1;
    w.tail_percentile = 99.0;
    w.min_passes = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (tiny) {
    w.tail_percentile = 75.0;
    w.min_passes = 2;
  }
  return w;
}

// ---- small helpers -----------------------------------------------------

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[nodiscard]] double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: with n samples, p = 100 * (1 - 10/n) leaves
/// exactly ten samples above the returned one.
[[nodiscard]] double nearest_rank(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

[[nodiscard]] double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

[[nodiscard]] std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

[[nodiscard]] std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- inputs ------------------------------------------------------------

/// Digest of every generated system in suite order, in the textual .mcs
/// form: a generator or suite change that alters (or shrinks) the work
/// changes it.
[[nodiscard]] std::uint64_t input_digest(const std::vector<gen::SuitePoint>& suite) {
  util::Fnv1a h;
  h.update(static_cast<std::uint64_t>(suite.size()));
  for (const gen::SuitePoint& point : suite) {
    const gen::GeneratedSystem sys = gen::generate(point.params);
    std::ostringstream text;
    gen::write_system(text, sys.platform, sys.app);
    for (const char c : text.str()) h.update_byte(static_cast<std::uint8_t>(c));
  }
  return h.digest();
}

// ---- per-job outcomes --------------------------------------------------

/// One job's deterministic outcome, reduced to what the checks need.
struct JobRecord {
  std::uint64_t digest = 0;  ///< outcome fields only (no work counters)
  bool settled = false;      ///< done / ok
  bool schedulable = false;  ///< final strategy (sweep: and bound-checked)
  /// Fault-free analytic-bound exceedances (sweep), with replay
  /// coordinates: soundness defects of the analysis the sweep exists to
  /// find.  Reported, and pinned by the digest, but not counted as failed
  /// operations (the job itself ran to completion).
  std::vector<std::string> violations;
  /// Exact work counters, keyed by name (evals per strategy, cache, delta).
  std::map<std::string, std::uint64_t> counters;
  double seconds = 0.0;
  /// Compared strategy vs annealing reference (campaigns), if both ran
  /// schedulable: the Figure 9 deviation sample.
  std::optional<double> deviation_pct;
};

void hash_string(util::Fnv1a& h, const std::string& s) {
  h.update(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) h.update_byte(static_cast<std::uint8_t>(c));
}

[[nodiscard]] JobRecord record_of(const exp::CampaignSpec& spec, const exp::JobResult& job) {
  JobRecord r;
  util::Fnv1a h;
  h.update(static_cast<std::uint64_t>(job.job_index));
  h.update(job.system_seed);
  h.update(static_cast<std::uint64_t>(job.state));
  for (const exp::StrategyOutcome& o : job.outcomes) {
    h.update(static_cast<std::uint64_t>(o.strategy));
    h.update(static_cast<std::uint64_t>(o.schedulable ? 1 : 0));
    h.update(static_cast<std::uint64_t>(o.skipped ? 1 : 0));
    h.update(static_cast<std::int64_t>(o.delta.f1));
    h.update(static_cast<std::int64_t>(o.delta.f2));
    h.update(o.s_total);
    h.update(o.s_total_before);
    r.counters[exp::to_string(o.strategy) + ".evals"] +=
        static_cast<std::uint64_t>(o.evaluations);
  }
  r.digest = h.digest();
  r.settled = job.state == exp::RunState::Done;
  r.schedulable = !job.outcomes.empty() && job.outcomes.back().schedulable;
  r.counters["eval_cache.lookups"] = job.cache_lookups;
  r.counters["eval_cache.hits"] = job.cache_hits;
  r.counters["delta.fallbacks"] = job.delta_fallbacks;
  r.seconds = job.seconds;
  // The paper's Figure 9 deviation: the strategy just before the last
  // annealing reference against that reference (OS vs SAS on delta,
  // OR vs SAR on s_total), over instances where both are schedulable.
  const std::size_t n = spec.strategies.size();
  if (n >= 2 && job.outcomes.size() == n) {
    const Strategy ref = spec.strategies[n - 1];
    const exp::StrategyOutcome& a = job.outcomes[n - 2];
    const exp::StrategyOutcome& b = job.outcomes[n - 1];
    if ((ref == Strategy::Sas || ref == Strategy::Sar) && a.schedulable && b.schedulable) {
      const auto metric = [ref](const exp::StrategyOutcome& o) {
        return ref == Strategy::Sar ? static_cast<double>(o.s_total)
                                    : static_cast<double>(o.delta.delta());
      };
      r.deviation_pct = util::percentage_deviation(metric(a), metric(b));
    }
  }
  return r;
}

[[nodiscard]] JobRecord record_of(const exp::ValidationJob& job) {
  JobRecord r;
  util::Fnv1a h;
  h.update(static_cast<std::uint64_t>(job.job_index));
  h.update(job.system_seed);
  h.update(static_cast<std::uint64_t>(job.status));
  h.update(static_cast<std::uint64_t>(job.converged ? 1 : 0));
  h.update(static_cast<std::uint64_t>(job.schedulable ? 1 : 0));
  h.update(static_cast<std::uint64_t>(job.bounds_checked ? 1 : 0));
  hash_string(h, job.skip_reason);
  h.update(static_cast<std::uint64_t>(job.violations.size()));
  for (const sim::BoundViolation& v : job.violations) {
    hash_string(h, v.activity);
    h.update(v.simulated);
    h.update(v.bound);
  }
  for (const exp::ScenarioOutcome& s : job.scenarios) {
    hash_string(h, s.scenario);
    h.update(static_cast<std::uint64_t>(s.sim_status));
    h.update(s.deadline_misses);
    h.update(s.messages_lost);
    h.update(s.config_violations);
    h.update(s.faults.can_frames_dropped);
    h.update(s.faults.can_messages_lost);
    h.update(s.faults.can_frames_delayed);
    h.update(s.faults.ttp_frames_dropped);
    h.update(s.faults.ttp_messages_lost);
    h.update(s.faults.babble_seizures);
    h.update(s.faults.tt_jitter_events);
    h.update(s.faults.gateway_jitter_events);
    h.update(s.faults.exec_variations);
    h.update(s.max_out_can);
    h.update(s.max_out_ttp);
    h.update(s.queue_over_bound);
    h.update(static_cast<std::int64_t>(s.worst_lateness));
  }
  r.digest = h.digest();
  r.settled = job.status == exp::JobStatus::Ok;
  r.schedulable = job.schedulable && job.bounds_checked;
  for (const sim::BoundViolation& v : job.violations) {
    r.violations.push_back("job " + std::to_string(job.job_index) + " (system_seed " +
                           std::to_string(job.system_seed) + "): " + v.activity +
                           " simulated " + std::to_string(v.simulated) + " > bound " +
                           std::to_string(v.bound));
  }
  r.counters["os.evals"] = job.evals;
  r.counters["eval_cache.lookups"] = job.cache_lookups;
  r.counters["eval_cache.hits"] = job.cache_hits;
  r.counters["delta.fallbacks"] = job.delta_fallbacks;
  r.seconds = job.seconds;
  return r;
}

[[nodiscard]] std::uint64_t result_digest(const std::vector<JobRecord>& jobs) {
  util::Fnv1a h;
  h.update(static_cast<std::uint64_t>(jobs.size()));
  for (const JobRecord& j : jobs) h.update(j.digest);
  return h.digest();
}

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<JobRecord> jobs;
};

/// One untraced pass through the public entry point.
[[nodiscard]] Pass untraced_pass(const Workload& w) {
  Pass pass;
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  if (w.validation) {
    const exp::ValidationResult result = exp::run_validation(w.sweep);
    pass.wall_s = seconds_since(start);
    pass.cpu_s = process_cpu_seconds() - cpu0;
    for (const exp::ValidationJob& job : result.jobs) pass.jobs.push_back(record_of(job));
  } else {
    const exp::CampaignResult result = exp::run_campaign(w.campaign);
    pass.wall_s = seconds_since(start);
    pass.cpu_s = process_cpu_seconds() - cpu0;
    for (const exp::JobResult& job : result.jobs) {
      pass.jobs.push_back(record_of(w.campaign, job));
    }
  }
  return pass;
}

/// Failure accounting: a job fails when it did not settle done/ok, or
/// when its outcome digest or any exact work counter differs from the
/// reference pass's same job.
struct Checker {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, bool> counter_repeats;

  void check(const std::vector<JobRecord>& jobs, const std::vector<JobRecord>& ref,
             const char* what) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ++attempted;
      const JobRecord& j = jobs[i];
      bool bad = !j.settled;
      if (i < ref.size()) {
        if (j.digest != ref[i].digest) {
          bad = true;
          note(std::string(what) + ": job " + std::to_string(i) +
               " outcome differs from the reference pass");
        }
        for (const auto& [name, value] : j.counters) {
          const auto it = ref[i].counters.find(name);
          const bool same = it != ref[i].counters.end() && it->second == value;
          counter_repeats.try_emplace(name, true);
          if (!same) {
            counter_repeats[name] = false;
            bad = true;
          }
        }
      }
      if (!j.settled) note(std::string(what) + ": job " + std::to_string(i) + " not settled");
      if (bad) ++failed;
    }
    if (jobs.size() != ref.size()) {
      failed += 1;
      ++attempted;
      note(std::string(what) + ": job count differs from the reference pass");
    }
  }

  void note(std::string problem) {
    if (problems.size() < 20) problems.push_back(std::move(problem));
  }
};

[[nodiscard]] std::map<std::string, std::uint64_t> sum_counters(
    const std::vector<JobRecord>& jobs) {
  std::map<std::string, std::uint64_t> total;
  for (const JobRecord& j : jobs) {
    for (const auto& [name, value] : j.counters) total[name] += value;
  }
  return total;
}

// ---- traced own job loop ----------------------------------------------

/// What the probes and the oracle need from one traced job.
struct KeptJob {
  std::unique_ptr<gen::GeneratedSystem> sys;
  /// Final candidate and outcome of every strategy that ran.
  std::vector<std::pair<core::Candidate, exp::StrategyOutcome>> finals;
};

/// Mirrors exp::run_campaign's per-job body, calling each layer under a
/// benchmark span.
[[nodiscard]] exp::JobResult traced_campaign_job(const exp::CampaignSpec& spec,
                                                 const gen::SuitePoint& point,
                                                 std::size_t job_index, KeptJob& kept) {
  const obs::Span job_span("bench.job", job_index);
  const auto job_start = Clock::now();
  exp::JobResult job;
  job.job_index = job_index;
  job.dimension = point.dimension;
  job.replica = point.replica;
  job.system_seed = point.params.seed;
  {
    const obs::Span span("bench.generate");
    kept.sys = std::make_unique<gen::GeneratedSystem>(gen::generate(point.params));
  }
  const gen::GeneratedSystem& sys = *kept.sys;
  job.processes = sys.app.num_processes();
  job.messages = sys.app.num_messages();
  job.inter_cluster_messages = sys.inter_cluster_messages;

  std::optional<core::MoveContext> ctx_slot;
  {
    const obs::Span span("bench.move_context");
    ctx_slot.emplace(sys.app, sys.platform, spec.mcs_options());
  }
  const core::MoveContext& ctx = *ctx_slot;

  core::OptimizeScheduleOptions os_options;
  os_options.hopa.max_iterations = spec.budgets.hopa_iterations;
  core::OptimizeResourcesOptions or_options;
  or_options.schedule = os_options;
  or_options.max_seed_starts = spec.budgets.or_max_seed_starts;
  or_options.max_climb_iterations = spec.budgets.or_max_climb_iterations;
  or_options.neighbors_per_step = spec.budgets.or_neighbors_per_step;

  core::Candidate sa_start = core::Candidate::initial(sys.app, sys.platform);
  for (std::size_t si = 0; si < spec.strategies.size(); ++si) {
    const Strategy strategy = spec.strategies[si];
    exp::StrategyOutcome outcome;
    outcome.strategy = strategy;
    const auto start = Clock::now();
    const auto fill = [&outcome](const core::Evaluation& e, int evals) {
      outcome.schedulable = e.schedulable;
      outcome.delta = e.delta;
      outcome.s_total = e.s_total;
      outcome.evaluations = evals;
    };
    switch (strategy) {
      case Strategy::Sf: {
        const obs::Span span("bench.sf");
        const auto sf = core::straightforward(ctx);
        fill(sf.evaluation, 1);
        sa_start = sf.candidate;
        break;
      }
      case Strategy::Os: {
        const obs::Span span("bench.os");
        const auto os = core::optimize_schedule(ctx, os_options);
        fill(os.best_eval, os.evaluations);
        sa_start = os.best;
        break;
      }
      case Strategy::Or: {
        const obs::Span span("bench.or");
        const auto orr = core::optimize_resources(ctx, or_options);
        fill(orr.best_eval, orr.evaluations);
        outcome.s_total_before = orr.s_total_before;
        sa_start = orr.best;
        break;
      }
      case Strategy::Sas:
      case Strategy::Sar: {
        if (!spec.anneal_unschedulable_starts && !job.outcomes.empty() &&
            !job.outcomes.back().schedulable) {
          outcome.skipped = true;
          break;
        }
        const obs::Span span("bench.sa");
        core::SaOptions sa;
        sa.objective = strategy == Strategy::Sas ? core::SaObjective::Schedulability
                                                 : core::SaObjective::BufferSize;
        sa.max_evaluations = spec.budgets.sa_max_evaluations;
        sa.max_milliseconds = 0;
        sa.seed = exp::derive_seed(spec.campaign_seed, job_index, si);
        const auto sar = core::simulated_annealing(ctx, sa_start, sa);
        fill(sar.best_eval, sar.evaluations);
        kept.finals.emplace_back(sar.best, outcome);
        break;
      }
    }
    outcome.seconds = seconds_since(start);
    if (strategy != Strategy::Sas && strategy != Strategy::Sar) {
      kept.finals.emplace_back(sa_start, outcome);
    }
    job.outcomes.push_back(outcome);
  }
  for (const exp::StrategyOutcome& o : job.outcomes) {
    job.evals += static_cast<std::uint64_t>(o.evaluations);
  }
  job.cache_hits = ctx.evaluation_cache().hits();
  job.cache_lookups = ctx.evaluation_cache().hits() + ctx.evaluation_cache().misses();
  job.delta_fallbacks = ctx.workspace().delta_stats().fallbacks;
  obs::publish_workspace(ctx.workspace(), ctx.evaluation_cache().hits(),
                         ctx.evaluation_cache().misses(),
                         ctx.workspace().active_kernel_name(
                             spec.mcs_options().analysis.kernel));
  job.seconds = seconds_since(job_start);
  return job;
}

/// Same seed derivation as the validation engine: FNV-1a over (scenario
/// seed, campaign seed, job index, scenario index).
[[nodiscard]] std::uint64_t scenario_seed(const sim::FaultSpec& scenario,
                                          std::uint64_t campaign_seed,
                                          std::size_t job_index, std::size_t si) {
  util::Fnv1a h;
  h.update(scenario.seed);
  h.update(campaign_seed);
  h.update(static_cast<std::uint64_t>(job_index));
  h.update(static_cast<std::uint64_t>(si));
  return h.digest();
}

[[nodiscard]] exp::ScenarioOutcome summarize(const sim::FaultSpec& scenario,
                                             const model::Application& app,
                                             const core::AnalysisResult& analysis,
                                             const sim::SimResult& sim) {
  exp::ScenarioOutcome s;
  s.scenario = scenario.name;
  s.sim_status = sim.status;
  s.deadline_misses = static_cast<std::int64_t>(sim.deadline_misses.size());
  s.messages_lost = static_cast<std::int64_t>(sim.lost_messages.size());
  s.config_violations = static_cast<std::int64_t>(sim.violations.size());
  s.faults = sim.faults;
  s.max_out_can = sim.max_out_can;
  s.max_out_ttp = sim.max_out_ttp;
  if (sim.max_out_can > analysis.buffers.out_can) ++s.queue_over_bound;
  if (sim.max_out_ttp > analysis.buffers.out_ttp) ++s.queue_over_bound;
  for (const auto& [node, occupancy] : sim.max_out_node) {
    const auto bound = analysis.buffers.out_node.find(node);
    if (occupancy > (bound == analysis.buffers.out_node.end() ? 0 : bound->second)) {
      ++s.queue_over_bound;
    }
  }
  util::Time worst = -util::kTimeInfinity;
  for (std::size_t gi = 0; gi < app.num_graphs(); ++gi) {
    const util::Time response = sim.graph_response[gi];
    worst = std::max(worst, response < 0 ? util::kTimeInfinity
                                         : response - app.graphs()[gi].deadline);
  }
  s.worst_lateness = app.num_graphs() == 0 ? 0 : worst;
  return s;
}

/// Mirrors exp::run_validation's per-job body (strategy OS).
[[nodiscard]] exp::ValidationJob traced_sweep_job(const exp::ValidationSpec& spec,
                                                  const gen::SuitePoint& point,
                                                  std::size_t job_index, KeptJob& kept) {
  const obs::Span job_span("bench.job", job_index);
  const auto job_start = Clock::now();
  exp::ValidationJob job;
  job.job_index = job_index;
  job.dimension = point.dimension;
  job.replica = point.replica;
  job.system_seed = point.params.seed;
  {
    const obs::Span span("bench.generate");
    kept.sys = std::make_unique<gen::GeneratedSystem>(gen::generate(point.params));
  }
  const gen::GeneratedSystem& sys = *kept.sys;
  job.processes = sys.app.num_processes();
  job.messages = sys.app.num_messages();

  std::optional<core::MoveContext> ctx_slot;
  {
    const obs::Span span("bench.move_context");
    ctx_slot.emplace(sys.app, sys.platform, spec.mcs_options());
  }
  const core::MoveContext& ctx = *ctx_slot;
  if (spec.strategy != Strategy::Os) {
    throw std::invalid_argument("the traced sweep loop mirrors strategy os only");
  }
  core::OptimizeScheduleOptions os_options;
  os_options.hopa.max_iterations = spec.budgets.hopa_iterations;
  std::optional<core::OptimizeScheduleResult> os;
  {
    const obs::Span span("bench.os");
    os.emplace(core::optimize_schedule(ctx, os_options));
  }
  const core::Evaluation& eval = os->best_eval;
  exp::StrategyOutcome outcome;
  outcome.strategy = Strategy::Os;
  outcome.schedulable = eval.schedulable;
  outcome.delta = eval.delta;
  outcome.s_total = eval.s_total;
  outcome.evaluations = os->evaluations;
  kept.finals.emplace_back(os->best, outcome);

  job.evals = static_cast<std::uint64_t>(os->evaluations);
  job.converged = eval.mcs.converged;
  job.schedulable = eval.schedulable;
  job.cache_hits = ctx.evaluation_cache().hits();
  job.cache_lookups = ctx.evaluation_cache().hits() + ctx.evaluation_cache().misses();
  job.delta_fallbacks = ctx.workspace().delta_stats().fallbacks;
  obs::publish_workspace(ctx.workspace(), ctx.evaluation_cache().hits(),
                         ctx.evaluation_cache().misses(),
                         ctx.workspace().active_kernel_name(
                             spec.mcs_options().analysis.kernel));
  if (!job.converged) {
    job.skip_reason = "analysis did not converge";
    job.seconds = seconds_since(job_start);
    return job;
  }

  core::SystemConfig cfg = os->best.to_config(sys.app);
  for (std::size_t pi = 0; pi < sys.app.num_processes(); ++pi) {
    cfg.set_process_offset(
        util::ProcessId(static_cast<util::ProcessId::underlying_type>(pi)),
        eval.mcs.analysis.process_offsets[pi]);
  }
  sim::SimOptions sim_options;
  sim_options.max_events = spec.max_sim_events;
  std::optional<sim::SimResult> nominal;
  {
    const obs::Span span("bench.simulate");
    nominal.emplace(sim::simulate(sys.app, sys.platform, cfg, eval.mcs.schedule, sim_options));
  }
  if (nominal->status == sim::SimStatus::EventLimitExhausted) {
    job.status = exp::JobStatus::Timeout;
    job.skip_reason = "fault-free simulation exhausted the event budget";
    job.seconds = seconds_since(job_start);
    return job;
  }
  if (!nominal->violations.empty()) {
    job.skip_reason = "fault-free run reported configuration violations";
  } else if (nominal->status != sim::SimStatus::Completed) {
    job.skip_reason = std::string("fault-free run ended ") + sim::to_string(nominal->status);
  } else {
    job.bounds_checked = true;
    const obs::Span span("bench.check_bounds");
    sim::check_bounds(sys.app, eval.mcs.analysis, *nominal);
    job.violations = std::move(nominal->bound_violations);
  }
  for (std::size_t si = 0; si < spec.scenarios.size(); ++si) {
    sim::FaultSpec scenario = spec.scenarios[si];
    scenario.seed = scenario_seed(scenario, spec.campaign_seed, job_index, si);
    std::optional<sim::SimResult> faulted;
    {
      const obs::Span span("bench.simulate");
      faulted.emplace(sim::simulate(sys.app, sys.platform, cfg, eval.mcs.schedule,
                                    sim_options, scenario));
    }
    obs::publish_fault_counters(faulted->faults);
    job.scenarios.push_back(summarize(scenario, sys.app, eval.mcs.analysis, *faulted));
    if (faulted->status == sim::SimStatus::EventLimitExhausted) {
      job.status = exp::JobStatus::Timeout;
    }
  }
  job.seconds = seconds_since(job_start);
  return job;
}

// ---- span accounting ---------------------------------------------------

struct SpanStat {
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  /// Time of this name's spans keyed by the enclosing span's name
  /// ("-" = top level).
  std::map<std::string, double> under_ms;
  /// Time of this name's spans that sit inside an os.run span (hopa's
  /// share of OS).
  double within_os_ms = 0.0;
};

/// Folds the Chrome trace the program's tracer collected into per-name
/// call counts, total and self times (self = duration minus the time its
/// direct children cover).
[[nodiscard]] std::map<std::string, SpanStat> fold_trace() {
  std::ostringstream json;
  obs::write_chrome_trace(json);
  struct Open {
    std::string name;
    std::int64_t ts;
    std::int64_t child_us = 0;
  };
  std::map<std::string, SpanStat> stats;
  std::map<long, std::vector<Open>> stacks;  // by tid
  std::istringstream lines(json.str());
  std::string line;
  const auto field = [](const std::string& s, const std::string& key) -> std::string {
    const std::size_t at = s.find("\"" + key + "\":");
    if (at == std::string::npos) return {};
    std::size_t b = at + key.size() + 3;
    if (s[b] == '"') {
      const std::size_t e = s.find('"', b + 1);
      return s.substr(b + 1, e - b - 1);
    }
    std::size_t e = b;
    while (e < s.size() && (std::isdigit(static_cast<unsigned char>(s[e])) || s[e] == '-')) ++e;
    return s.substr(b, e - b);
  };
  while (std::getline(lines, line)) {
    if (line.rfind("{\"name\":", 0) != 0) continue;
    const std::string ph = field(line, "ph");
    if (ph != "B" && ph != "E") continue;
    const long tid = std::stol(field(line, "tid"));
    const std::int64_t ts = std::stoll(field(line, "ts"));
    std::vector<Open>& stack = stacks[tid];
    if (ph == "B") {
      stack.push_back({field(line, "name"), ts});
      continue;
    }
    if (stack.empty()) throw std::runtime_error("unbalanced trace: E without B");
    const Open open = stack.back();
    stack.pop_back();
    const std::int64_t dur = ts - open.ts;
    SpanStat& s = stats[open.name];
    ++s.calls;
    s.total_ms += static_cast<double>(dur) / 1000.0;
    s.self_ms += static_cast<double>(dur - open.child_us) / 1000.0;
    s.under_ms[stack.empty() ? "-" : stack.back().name] += static_cast<double>(dur) / 1000.0;
    for (const Open& o : stack) {
      if (o.name == "os.run") {
        s.within_os_ms += static_cast<double>(dur) / 1000.0;
        break;
      }
    }
    if (!stack.empty()) stack.back().child_us += dur;
  }
  for (const auto& [tid, stack] : stacks) {
    if (!stack.empty()) throw std::runtime_error("unbalanced trace: B without E");
  }
  return stats;
}

/// One traced own-loop pass: timings (spans), exact counters (registry).
struct TracedPass {
  double wall_s = 0.0;
  std::vector<JobRecord> jobs;
  std::vector<KeptJob> kept;
  std::map<std::string, SpanStat> spans;
  obs::MetricsSnapshot metrics;
};

[[nodiscard]] TracedPass traced_pass(const Workload& w,
                                     const std::vector<gen::SuitePoint>& suite) {
  TracedPass pass;
  pass.kept.resize(suite.size());
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  obs::start_tracing();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    if (w.validation) {
      pass.jobs.push_back(record_of(traced_sweep_job(w.sweep, suite[i], i, pass.kept[i])));
    } else {
      pass.jobs.push_back(record_of(
          w.campaign, traced_campaign_job(w.campaign, suite[i], i, pass.kept[i])));
    }
  }
  pass.wall_s = seconds_since(start);
  obs::stop_tracing();
  obs::set_metrics_enabled(false);
  pass.metrics = obs::snapshot_metrics();
  pass.spans = fold_trace();
  return pass;
}

// ---- probes and oracle -------------------------------------------------

struct ProbeTotals {
  std::uint64_t calls = 0;
  double seconds = 0.0;
};

/// Repetitions of each probe call; the per-call time is total / calls.
constexpr int kProbeReps = 3;
/// At most this many jobs are probed (evenly spaced), so the probes stay
/// a small part of a run on the 1000-system sweep.
constexpr std::size_t kMaxProbedJobs = 64;

struct Probes {
  ProbeTotals hopa, mcs, list_schedule, rta;
};

template <typename F>
void time_probe(ProbeTotals& totals, F&& call) {
  for (int r = 0; r < kProbeReps; ++r) {
    const auto start = Clock::now();
    call();
    totals.seconds += seconds_since(start);
    ++totals.calls;
  }
}

/// Times the benchmark's own calls into the analysis layers on the final
/// candidate of each probed job, on a fresh (delta-off) workspace.
[[nodiscard]] Probes run_probes(const std::vector<KeptJob>& kept, const core::McsOptions& mcs,
                                int hopa_iterations) {
  Probes p;
  const std::size_t stride = std::max<std::size_t>(1, kept.size() / kMaxProbedJobs);
  for (std::size_t i = 0; i < kept.size(); i += stride) {
    const KeptJob& k = kept[i];
    if (k.finals.empty()) continue;
    const model::Application& app = k.sys->app;
    const arch::Platform& platform = k.sys->platform;
    const core::Candidate& cand = k.finals.back().first;
    core::AnalysisWorkspace ws(app, platform);
    core::HopaOptions hopa;
    hopa.max_iterations = hopa_iterations;
    hopa.mcs = mcs;
    time_probe(p.hopa, [&] {
      const auto r = core::hopa_priorities(app, platform, cand.tdma, ws, hopa);
      (void)r;
    });
    core::SystemConfig cfg = cand.to_config(app);
    core::McsResult result;
    time_probe(p.mcs, [&] {
      cfg = cand.to_config(app);
      result = core::multi_cluster_scheduling(app, platform, cfg, cand.pins, mcs, ws);
    });
    time_probe(p.list_schedule, [&] {
      const auto s = sched::list_schedule(app, platform, cand.tdma, cand.pins);
      (void)s;
    });
    core::AnalysisInput input;
    input.app = &app;
    input.platform = &platform;
    input.config = &cfg;
    input.ttc_schedule = &result.schedule;
    input.options = mcs.analysis;
    time_probe(p.rta, [&] {
      const auto a = core::response_time_analysis(input, ws);
      (void)a;
    });
  }
  return p;
}

/// Re-evaluates every final candidate on a fresh MoveContext with the
/// Reference kernel and delta analysis off; returns the number of
/// candidates whose verdict, delta or s_total disagree.
[[nodiscard]] std::size_t oracle_mismatches(const std::vector<KeptJob>& kept,
                                            core::McsOptions mcs, std::size_t& checked,
                                            Checker& checker) {
  mcs.analysis.kernel = core::AnalysisKernel::Reference;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const KeptJob& k = kept[i];
    if (k.finals.empty()) continue;
    const core::MoveContext fresh(k.sys->app, k.sys->platform, mcs, /*cache=*/0);
    fresh.workspace().set_delta_mode(core::DeltaMode::Off);
    for (const auto& [cand, outcome] : k.finals) {
      const core::Evaluation e = fresh.evaluate_uncached(cand);
      ++checked;
      if (e.schedulable != outcome.schedulable || e.delta.f1 != outcome.delta.f1 ||
          e.delta.f2 != outcome.delta.f2 || e.s_total != outcome.s_total) {
        ++mismatches;
        checker.note("oracle: job " + std::to_string(i) + " strategy " +
                     exp::to_string(outcome.strategy) +
                     " disagrees with the Reference/delta-off evaluation");
      }
    }
  }
  return mismatches;
}

// ---- output ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " " << num(m.value) << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
              << num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void print_counters(const std::map<std::string, std::uint64_t>& counters,
                    const std::map<std::string, bool>& repeats) {
  for (const auto& [name, value] : counters) {
    const auto it = repeats.find(name);
    const bool ok = it == repeats.end() || it->second;
    std::cout << "count " << name << " " << value << " per pass, repeats "
              << (ok ? "exactly" : "NOT EXACTLY") << "\n";
  }
}

/// Prints the sweep's soundness findings (violations of the reference
/// pass); returns how many there are.
std::size_t print_findings(const std::vector<JobRecord>& jobs) {
  std::size_t count = 0;
  for (const JobRecord& j : jobs) {
    for (const std::string& v : j.violations) {
      std::cout << "soundness finding: " << v << "\n";
      ++count;
    }
  }
  std::cout << "soundness findings: " << count
            << " analytic-bound violations in fault-free simulation\n";
  return count;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::optional<std::uint64_t> expect_input, expect_result;
};

// ---- the two run kinds -------------------------------------------------

struct Setup {
  double seconds = 0.0;  ///< median over the repetitions
  std::vector<gen::SuitePoint> suite;
  std::uint64_t digest = 0;
  bool stable = true;  ///< every repetition produced the same digest
};

[[nodiscard]] Setup set_up(const Options& opt, Workload& w) {
  Setup s;
  std::vector<double> times;
  const auto first = Clock::now();
  for (int r = 0; r < kMaxSetupRepetitions &&
                  (r < kSetupRepetitions || seconds_since(first) < kSetupSeconds);
       ++r) {
    const auto start = Clock::now();
    w = make_workload(opt.workload, opt.seed, opt.tiny);
    s.suite = w.suite();
    const std::uint64_t digest = input_digest(s.suite);
    times.push_back(seconds_since(start));
    if (r > 0 && digest != s.digest) s.stable = false;
    s.digest = digest;
  }
  s.seconds = median(times);
  return s;
}

/// Checks the input digest (pinned and repeatable) and reports problems.
[[nodiscard]] bool inputs_ok(const Options& opt, const Setup& setup, Checker& checker) {
  std::cout << "input digest " << hex(setup.digest);
  bool ok = setup.stable;
  if (opt.expect_input) {
    const bool match = *opt.expect_input == setup.digest;
    std::cout << (match ? " (matches the pinned digest)" : " (PINNED DIGEST MISMATCH)");
    ok = ok && match;
  } else {
    std::cout << " (no pinned digest for this seed)";
  }
  std::cout << "\n";
  if (!setup.stable) checker.note("input digest differs between set-up repetitions");
  if (!ok) checker.note("input digest check failed");
  return ok;
}

/// Compares the reference result digest with the pin, if any.
[[nodiscard]] bool result_ok(const Options& opt, std::uint64_t digest, Checker& checker) {
  std::cout << "result digest " << hex(digest);
  bool ok = true;
  if (opt.expect_result) {
    ok = *opt.expect_result == digest;
    std::cout << (ok ? " (matches the pinned digest)" : " (PINNED DIGEST MISMATCH)");
  } else {
    std::cout << " (no pinned digest for this seed)";
  }
  std::cout << "\n";
  if (!ok) checker.note("result digest differs from the pinned digest");
  return ok;
}

int run_untraced(const Options& opt) {
  Workload w;
  const Setup setup = set_up(opt, w);
  const std::size_t n = setup.suite.size();
  std::cout << "workload " << w.name << " seed " << opt.seed << ": " << n
            << " systems, one worker thread, untraced\n";
  Checker checker;
  bool ok = inputs_ok(opt, setup, checker);

  std::vector<Pass> passes;
  const auto start = Clock::now();
  while (passes.size() < w.min_passes || seconds_since(start) < opt.seconds) {
    passes.push_back(untraced_pass(w));
    const Pass& p = passes.back();
    std::cout << "pass " << passes.size() << ": wall " << num(p.wall_s) << " s, cpu "
              << num(p.cpu_s) << " s, result " << hex(result_digest(p.jobs)) << "\n";
  }
  for (const Pass& p : passes) checker.check(p.jobs, passes.front().jobs, "untraced pass");
  const std::uint64_t digest = result_digest(passes.front().jobs);
  // Wrong inputs or results taint every operation of the run.
  if (!result_ok(opt, digest, checker) || !ok) {
    ok = false;
    checker.failed = checker.attempted;
  }

  std::vector<double> walls, cpus, job_ms;
  for (const Pass& p : passes) {
    walls.push_back(p.wall_s);
    cpus.push_back(p.cpu_s);
    for (const JobRecord& j : p.jobs) job_ms.push_back(j.seconds * 1000.0);
  }
  const std::vector<JobRecord>& first = passes.front().jobs;
  std::size_t schedulable = 0;
  util::Accumulator deviation;
  for (const JobRecord& j : first) {
    schedulable += j.schedulable ? 1 : 0;
    if (j.deviation_pct) deviation.add(*j.deviation_pct);
  }
  print_counters(sum_counters(first), checker.counter_repeats);
  for (const auto& [name, same] : checker.counter_repeats) ok = ok && same;
  if (w.validation) print_findings(first);
  for (const std::string& problem : checker.problems) std::cout << "problem: " << problem << "\n";
  std::cout << "job latency: " << job_ms.size() << " samples (" << n << " systems x "
            << passes.size() << " passes); tail = p" << w.tail_percentile << "\n";
  std::cout << "quality_gap_pct over " << deviation.count() << " of " << n
            << " systems; failed_frac = " << checker.failed << " / " << checker.attempted
            << "\n";
  std::vector<Metric> metrics = {
      {"setup_s", setup.seconds, "s"},
      {"systems_per_s", static_cast<double>(n) / median(walls), "1/s"},
      {"cpu_s", median(cpus), "s"},
      {"job_p50_ms", median(job_ms), "ms"},
      {"job_tail_ms", nearest_rank(job_ms, w.tail_percentile), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"schedulable_frac", ratio(static_cast<double>(schedulable), static_cast<double>(n)),
       "fraction"},
      {"failed_frac",
       ratio(static_cast<double>(checker.failed), static_cast<double>(checker.attempted)),
       "fraction"},
  };
  if (!w.validation) metrics.push_back({"quality_gap_pct", deviation.mean(), "%"});
  print_result(ok && checker.failed == 0, checker.attempted, checker.failed, metrics);
  return 0;
}

[[nodiscard]] std::uint64_t counter_value(const obs::MetricsSnapshot& s, const char* name) {
  const obs::MetricValue* m = s.find(name);
  return m == nullptr ? 0 : m->value;
}

/// Every exact count of a traced pass: registry counters and gauges,
/// histogram counts/sums and span counts, keyed by name.
[[nodiscard]] std::map<std::string, std::uint64_t> traced_counters(const TracedPass& p) {
  std::map<std::string, std::uint64_t> out;
  for (const obs::MetricValue& m : p.metrics.metrics) {
    switch (m.kind) {
      case obs::MetricValue::Kind::Counter: out[m.name] = m.value; break;
      case obs::MetricValue::Kind::Gauge:
        out[m.name] = static_cast<std::uint64_t>(m.gauge);
        break;
      case obs::MetricValue::Kind::Histogram:
        out[m.name + ".count"] = m.count;
        out[m.name + ".sum"] = m.sum;
        break;
    }
  }
  for (const auto& [name, s] : p.spans) out["spans." + name] = s.calls;
  return out;
}

int run_traced(const Options& opt) {
  Workload w;
  const Setup setup = set_up(opt, w);
  const std::size_t n = setup.suite.size();
  std::cout << "workload " << w.name << " seed " << opt.seed << ": " << n
            << " systems, one worker thread, traced\n";
  Checker checker;
  bool ok = inputs_ok(opt, setup, checker);

  // Untraced and traced passes alternate, so host noise hits both sides
  // of trace.overhead_pct alike.
  std::vector<Pass> plain;
  std::vector<TracedPass> traced;
  const auto start = Clock::now();
  while (traced.size() < 2 || seconds_since(start) < opt.seconds) {
    plain.push_back(untraced_pass(w));
    traced.push_back(traced_pass(w, setup.suite));
    std::cout << "round " << traced.size() << ": untraced " << num(plain.back().wall_s)
              << " s, traced " << num(traced.back().wall_s) << " s\n";
    if (traced.size() > 2) traced[traced.size() - 2].kept.clear();  // keep memory flat
  }
  const std::vector<JobRecord>& ref = plain.front().jobs;
  for (const Pass& p : plain) checker.check(p.jobs, ref, "untraced pass");
  for (const TracedPass& p : traced) checker.check(p.jobs, ref, "traced own-loop pass");
  if (!result_ok(opt, result_digest(ref), checker) || !ok) {
    ok = false;
    checker.failed = checker.attempted;
  }

  // Exact counters of the traced passes must repeat bit for bit.
  const std::map<std::string, std::uint64_t> counts = traced_counters(traced.front());
  std::map<std::string, bool> repeats = checker.counter_repeats;
  for (const TracedPass& p : traced) {
    const auto other = traced_counters(p);
    for (const auto& [name, value] : counts) {
      const auto it = other.find(name);
      if (it == other.end() || it->second != value) repeats[name] = false;
    }
    if (other.size() != counts.size()) repeats["(counter set)"] = false;
  }
  for (const auto& [name, same] : repeats) {
    if (!same) {
      ok = false;
      checker.note("count " + name + " does not repeat across passes");
    }
  }
  std::map<std::string, std::uint64_t> all_counts = sum_counters(ref);
  all_counts.insert(counts.begin(), counts.end());
  print_counters(all_counts, repeats);

  // Oracle and probes on the last traced pass's synthesized candidates.
  const TracedPass& last = traced.back();
  const core::McsOptions mcs =
      w.validation ? w.sweep.mcs_options() : w.campaign.mcs_options();
  const int hopa_iterations = w.validation ? w.sweep.budgets.hopa_iterations
                                           : w.campaign.budgets.hopa_iterations;
  std::size_t oracle_checked = 0;
  const std::size_t oracle_bad = oracle_mismatches(last.kept, mcs, oracle_checked, checker);
  checker.attempted += oracle_checked;
  checker.failed += oracle_bad;
  const std::size_t findings = w.validation ? print_findings(ref) : 0;
  std::cout << "oracle: " << oracle_checked << " final candidates re-evaluated "
            << "(Reference kernel, delta off), " << oracle_bad << " disagree\n";
  const Probes probes = run_probes(last.kept, mcs, hopa_iterations);

  // Per-layer table (last traced pass): calls, total, self, share of the
  // pass, and the enclosing span with the time spent under it.
  const double pass_ms = last.wall_s * 1000.0;
  std::cout << "layer table (traced pass " << traced.size() << ", " << num(pass_ms)
            << " ms; mcs.run, mcs.iteration and rta.pass cover every "
            << obs::kAnalysisSampleEvery << "th MCS run only):\n";
  for (const auto& [name, s] : last.spans) {
    std::string parent = "-";
    double under = 0.0;
    for (const auto& [pname, ms] : s.under_ms) {
      if (ms > under) {
        parent = pname;
        under = ms;
      }
    }
    std::cout << "layer " << name << " calls=" << s.calls << " total_ms=" << num(s.total_ms)
              << " self_ms=" << num(s.self_ms)
              << " share_pct=" << num(100.0 * ratio(s.self_ms, pass_ms))
              << " parent=" << parent << " under_parent_ms=" << num(under) << "\n";
  }

  // Per-layer metrics: times are medians over the traced passes, counts
  // come from the first traced pass (checked equal in all of them).
  const auto med = [&traced](auto&& f) {
    std::vector<double> v;
    for (const TracedPass& p : traced) v.push_back(f(p));
    return median(v);
  };
  const auto span_ms = [](const TracedPass& p, const char* name) {
    const auto it = p.spans.find(name);
    return it == p.spans.end() ? 0.0 : it->second.total_ms;
  };
  const auto span_calls = [](const TracedPass& p, const char* name) {
    const auto it = p.spans.find(name);
    return it == p.spans.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  const TracedPass& t0 = traced.front();
  const auto count = [&t0](const char* name) {
    return static_cast<double>(counter_value(t0.metrics, name));
  };
  const obs::MetricValue* iters = t0.metrics.find("mcs.iterations_per_run");
  const double mcs_runs = iters == nullptr ? 0.0 : static_cast<double>(iters->count);
  const double mcs_iters = iters == nullptr ? 0.0 : static_cast<double>(iters->sum);
  const obs::MetricValue* scratch = t0.metrics.find("workspace.scratch_bytes_max");
  const std::map<std::string, std::uint64_t> plain_counts = sum_counters(ref);
  const auto evals = [&plain_counts](const std::string& s) {
    const auto it = plain_counts.find(s + ".evals");
    return it == plain_counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double sf_s = med([&](const TracedPass& p) { return span_ms(p, "bench.sf") / 1000; });
  const double os_s = med([&](const TracedPass& p) { return span_ms(p, "bench.os") / 1000; });
  const double or_s = med([&](const TracedPass& p) { return span_ms(p, "bench.or") / 1000; });
  const double sa_s = med([&](const TracedPass& p) { return span_ms(p, "bench.sa") / 1000; });
  const double hopa_s = med([&](const TracedPass& p) { return span_ms(p, "hopa.run") / 1000; });
  const double hopa_in_os_s = med([&](const TracedPass& p) {
    const auto it = p.spans.find("hopa.run");
    return it == p.spans.end() ? 0.0 : it->second.within_os_ms / 1000;
  });
  const double os_run_s = med([&](const TracedPass& p) { return span_ms(p, "os.run") / 1000; });
  const double cache_lookups = count("eval_cache.hits") + count("eval_cache.misses");
  const double delta_runs = count("delta.delta_runs");
  const double full_runs = count("delta.full_runs");
  const double comp_skipped = count("delta.components_skipped");
  const double comp_total = comp_skipped + count("delta.components_recomputed");
  const double cand_hits = count("delta.cand_cache_hits");
  const double cand_total = cand_hits + count("delta.cand_cache_rebuilds");
  const double memo_hits = count("delta.schedule_memo_hits");
  const double sim_calls = span_calls(t0, "bench.simulate");
  const double bounds_calls = span_calls(t0, "bench.check_bounds");
  const double sampled_mcs = span_calls(t0, "mcs.run");
  std::vector<double> untraced_walls, exp_overhead;
  for (const Pass& p : plain) {
    untraced_walls.push_back(p.wall_s);
    double job_sum = 0.0;
    for (const JobRecord& j : p.jobs) job_sum += j.seconds;
    exp_overhead.push_back((p.wall_s - job_sum) * 1000.0);
  }
  const double traced_wall = med([](const TracedPass& p) { return p.wall_s; });
  const double untraced_wall = median(untraced_walls);

  std::cout << "ratio bases: eval_cache " << count("eval_cache.hits") << "/" << cache_lookups
            << " lookups; delta " << delta_runs << " replayed / " << delta_runs + full_runs
            << " runs; components " << comp_skipped << "/" << comp_total
            << "; candidate lists " << cand_hits << "/" << cand_total
            << "; schedule memo " << memo_hits << "/" << mcs_iters << " MCS iterations"
            << "; rta.share_of_mcs over " << sampled_mcs << " sampled MCS runs"
            << "; hopa " << hopa_in_os_s << " s in os.run / " << os_run_s << " s\n";
  std::cout << "probes: hopa " << probes.hopa.calls << " calls, mcs " << probes.mcs.calls
            << ", list_schedule " << probes.list_schedule.calls << ", rta "
            << probes.rta.calls << "\n";
  for (const std::string& problem : checker.problems) std::cout << "problem: " << problem << "\n";

  const std::vector<Metric> metrics = {
      {"gen.ms_per_system",
       med([&](const TracedPass& p) { return span_ms(p, "bench.generate"); }) / n, "ms"},
      {"exp.overhead_ms", median(exp_overhead), "ms"},
      {"moves.ctx_build_ms",
       med([&](const TracedPass& p) { return span_ms(p, "bench.move_context"); }) / n, "ms"},
      {"eval_cache.lookups", cache_lookups, "count"},
      {"eval_cache.hit_ratio", ratio(count("eval_cache.hits"), cache_lookups), "ratio"},
      {"sf.s", sf_s, "s"},
      {"os.s", os_s, "s"},
      {"or.s", or_s, "s"},
      {"sa.s", sa_s, "s"},
      {"os.evals", evals("os"), "count"},
      {"or.evals", evals("or"), "count"},
      {"sa.evals", evals("sas") + evals("sar"), "count"},
      {"os.evals_per_s", ratio(evals("os"), os_s), "1/s"},
      {"or.evals_per_s", ratio(evals("or"), or_s), "1/s"},
      {"sa.evals_per_s", ratio(evals("sas") + evals("sar"), sa_s), "1/s"},
      {"hopa.calls", span_calls(t0, "hopa.run"), "count"},
      {"hopa.s", hopa_s, "s"},
      {"hopa.share_of_os", ratio(hopa_in_os_s, os_run_s), "ratio"},
      {"hopa.cold_ms_per_call", 1000.0 * ratio(probes.hopa.seconds, probes.hopa.calls), "ms"},
      {"mcs.runs", mcs_runs, "count"},
      {"mcs.iterations_per_run", ratio(mcs_iters, mcs_runs), "ratio"},
      {"mcs.ms_per_run",
       med([&](const TracedPass& p) {
         return ratio(span_ms(p, "mcs.run"), span_calls(p, "mcs.run"));
       }),
       "ms"},
      {"mcs.cold_ms_per_run", 1000.0 * ratio(probes.mcs.seconds, probes.mcs.calls), "ms"},
      {"delta.replay_ratio", ratio(delta_runs, delta_runs + full_runs), "ratio"},
      {"delta.fallbacks", count("delta.fallbacks"), "count"},
      {"delta.component_skip_ratio", ratio(comp_skipped, comp_total), "ratio"},
      {"list_schedule.us_per_call",
       1e6 * ratio(probes.list_schedule.seconds, probes.list_schedule.calls), "us"},
      {"list_schedule.memo_hit_ratio", ratio(memo_hits, mcs_iters), "ratio"},
      {"rta.us_per_call", 1e6 * ratio(probes.rta.seconds, probes.rta.calls), "us"},
      {"rta.share_of_mcs",
       med([&](const TracedPass& p) {
         return ratio(span_ms(p, "rta.pass"), span_ms(p, "mcs.run"));
       }),
       "ratio"},
      {"rta.cand_cache_hit_ratio", ratio(cand_hits, cand_total), "ratio"},
      {"rta.intra_skips", count("delta.intra_skips"), "count"},
      {"workspace.scratch_bytes_max",
       scratch == nullptr ? 0.0 : static_cast<double>(scratch->gauge), "bytes"},
      {"sim.calls", sim_calls, "count"},
      {"sim.bound_violations", static_cast<double>(findings), "count"},
      {"sim.simulate_ms",
       ratio(med([&](const TracedPass& p) { return span_ms(p, "bench.simulate"); }), sim_calls),
       "ms"},
      {"sim.check_bounds_ms",
       ratio(med([&](const TracedPass& p) { return span_ms(p, "bench.check_bounds"); }),
             bounds_calls),
       "ms"},
      {"trace.overhead_pct", 100.0 * ratio(traced_wall - untraced_wall, untraced_wall), "%"},
  };
  print_result(ok && checker.failed == 0, checker.attempted, checker.failed, metrics);
  return 0;
}

[[nodiscard]] std::uint64_t parse_u64(const std::string& s, int base) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(s, &used, base);
  if (used != s.size()) throw std::invalid_argument("bad number '" + s + "'");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options opt;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = parse_u64(value(), 10);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = parse_u64(value(), 10) != 0;
      } else if (arg == "--size") {
        const std::string size = value();
        if (size != "full" && size != "tiny") throw std::invalid_argument("--size full|tiny");
        opt.tiny = size == "tiny";
      } else if (arg == "--expect-input-digest") {
        opt.expect_input = parse_u64(value(), 16);
      } else if (arg == "--expect-result-digest") {
        opt.expect_result = parse_u64(value(), 16);
      } else {
        throw std::invalid_argument("unknown argument '" + arg + "'");
      }
    }
    if (opt.workload.empty()) throw std::invalid_argument("--workload is required");
    return opt.trace ? run_traced(opt) : run_untraced(opt);
  } catch (const std::exception& e) {
    std::cerr << "synthbench: " << e.what() << "\n";
    return 2;
  }
}
