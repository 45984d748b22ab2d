#include "mcs/exp/validation.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>
#include <utility>

#include "mcs/gen/generator.hpp"
#include "mcs/obs/export.hpp"
#include "mcs/obs/trace.hpp"

namespace mcs::exp {

namespace {

constexpr const char* kSpecContext = "validation spec";

/// The per-(job, scenario) RNG seed: a pure function of the spec, so the
/// same scenario perturbs the same instance identically for any thread
/// count — and differently across instances and scenario positions.
[[nodiscard]] std::uint64_t scenario_seed(const sim::FaultSpec& scenario,
                                          std::uint64_t campaign_seed,
                                          std::size_t job_index,
                                          std::size_t scenario_index) {
  util::Fnv1a h;
  h.update(scenario.seed);
  h.update(campaign_seed);
  h.update(static_cast<std::uint64_t>(job_index));
  h.update(static_cast<std::uint64_t>(scenario_index));
  return h.digest();
}

/// Simulated lateness of the worst graph: response - deadline, with an
/// unfinished graph counting as util::kTimeInfinity (starved forever).
[[nodiscard]] util::Time worst_lateness(const model::Application& app,
                                        const sim::SimResult& sim) {
  util::Time worst = -util::kTimeInfinity;
  for (std::size_t gi = 0; gi < app.num_graphs(); ++gi) {
    const util::Time response = sim.graph_response[gi];
    const util::Time lateness = response < 0
                                    ? util::kTimeInfinity
                                    : response - app.graphs()[gi].deadline;
    worst = std::max(worst, lateness);
  }
  return app.num_graphs() == 0 ? 0 : worst;
}

[[nodiscard]] ScenarioOutcome summarize(const sim::FaultSpec& scenario,
                                        const model::Application& app,
                                        const core::AnalysisResult& analysis,
                                        const sim::SimResult& sim) {
  ScenarioOutcome outcome;
  outcome.scenario = scenario.name;
  outcome.sim_status = sim.status;
  outcome.deadline_misses = static_cast<std::int64_t>(sim.deadline_misses.size());
  outcome.messages_lost = static_cast<std::int64_t>(sim.lost_messages.size());
  outcome.config_violations = static_cast<std::int64_t>(sim.violations.size());
  outcome.faults = sim.faults;
  outcome.max_out_can = sim.max_out_can;
  outcome.max_out_ttp = sim.max_out_ttp;
  if (sim.max_out_can > analysis.buffers.out_can) ++outcome.queue_over_bound;
  if (sim.max_out_ttp > analysis.buffers.out_ttp) ++outcome.queue_over_bound;
  for (const auto& [node, occupancy] : sim.max_out_node) {
    const auto bound = analysis.buffers.out_node.find(node);
    const std::int64_t limit =
        bound == analysis.buffers.out_node.end() ? 0 : bound->second;
    if (occupancy > limit) ++outcome.queue_over_bound;
  }
  outcome.worst_lateness = worst_lateness(app, sim);
  return outcome;
}

/// One instance end to end: synthesize, soundness-check the fault-free
/// run, then sweep the fault scenarios.  Everything mutable is local to
/// the one worker thread executing this call.
[[nodiscard]] ValidationJob run_job(const ValidationSpec& spec,
                                    const gen::SuitePoint& point,
                                    std::size_t job_index,
                                    const util::CancelToken& cancel) {
  const obs::Span job_span("validation.job", static_cast<std::uint64_t>(job_index));
  const auto job_start = std::chrono::steady_clock::now();
  ValidationJob job;
  identify(job, point, job_index);

  const gen::GeneratedSystem sys = gen::generate(point.params);
  job.processes = sys.app.num_processes();
  job.messages = sys.app.num_messages();

  const core::MoveContext ctx(sys.app, sys.platform, spec.mcs_options());
  const Synthesis synthesis =
      synthesize(ctx, spec.strategy, optimizer_options(spec.budgets, cancel));
  const core::Evaluation& eval = synthesis.evaluation;
  job.evals = static_cast<std::uint64_t>(synthesis.evaluations);
  job.converged = eval.mcs.converged;
  job.schedulable = eval.schedulable;
  // Synthesis is over, so the job-local cache and workspace counters are
  // final: record them before any of the early returns below.
  record_engine_metrics(job, ctx);

  // Bounds from a non-converged fixed point are not claims the analysis
  // makes, so there is nothing sound to check (mirrors the cross
  // validation test's skip rule).
  if (!job.converged) {
    job.skip_reason = "analysis did not converge";
    job.seconds = seconds_since(job_start);
    return job;
  }

  const core::SystemConfig cfg = synthesis.config(sys.app);
  sim::SimOptions sim_options;
  sim_options.max_events = spec.max_sim_events;

  // Fault-free WCET run: every simulated instant must respect its
  // analytic bound; any exceedance is a soundness bug in the analysis.
  sim::SimResult nominal =
      sim::simulate(sys.app, sys.platform, cfg, eval.mcs.schedule, sim_options);
  if (nominal.status == sim::SimStatus::EventLimitExhausted) {
    job.status = JobStatus::Timeout;
    job.skip_reason = "fault-free simulation exhausted the event budget";
    job.seconds = seconds_since(job_start);
    return job;
  }
  if (!nominal.violations.empty()) {
    job.skip_reason = "fault-free run reported configuration violations";
  } else if (nominal.status != sim::SimStatus::Completed) {
    job.skip_reason =
        std::string("fault-free run ended ") + sim::to_string(nominal.status);
  } else {
    job.bounds_checked = true;
    sim::check_bounds(sys.app, eval.mcs.analysis, nominal);
    job.violations = std::move(nominal.bound_violations);
  }

  // Degradation sweep.  Under faults the bounds need not hold; we record
  // what actually broke (and how badly) per scenario.
  for (std::size_t si = 0; si < spec.scenarios.size(); ++si) {
    cancel.throw_if_cancelled();
    sim::FaultSpec scenario = spec.scenarios[si];
    scenario.seed =
        scenario_seed(scenario, spec.campaign_seed, job_index, si);
    const sim::SimResult faulted = sim::simulate(
        sys.app, sys.platform, cfg, eval.mcs.schedule, sim_options, scenario);
    obs::publish_fault_counters(faulted.faults);
    job.scenarios.push_back(
        summarize(scenario, sys.app, eval.mcs.analysis, faulted));
    if (faulted.status == sim::SimStatus::EventLimitExhausted) {
      job.status = JobStatus::Timeout;
    }
  }

  job.seconds = seconds_since(job_start);
  return job;
}

/// The report status of a job the runtime settled without a completed
/// run_job (watchdog timeout, failure, shed, pending).
[[nodiscard]] JobStatus to_job_status(RunState state) {
  switch (state) {
    case RunState::Timeout: return JobStatus::Timeout;
    case RunState::Failed: return JobStatus::Failed;
    case RunState::Shed: return JobStatus::Shed;
    case RunState::Pending: return JobStatus::Pending;
    case RunState::Done: break;  // not reached: Done keeps run_job's row
  }
  return JobStatus::Ok;
}

void update_signature(util::Fnv1a& h, const ValidationJob& job) {
  h.update(static_cast<std::uint64_t>(job.job_index));
  h.update(static_cast<std::uint64_t>(job.dimension));
  h.update(static_cast<std::uint64_t>(job.replica));
  h.update(job.system_seed);
  h.update(static_cast<std::uint64_t>(job.processes));
  h.update(static_cast<std::uint64_t>(job.messages));
  h.update(static_cast<std::uint64_t>(job.status));
  h.update(static_cast<std::uint64_t>(job.attempts));
  hash_string(h, job.error);
  h.update(static_cast<std::uint64_t>(job.converged ? 1 : 0));
  h.update(static_cast<std::uint64_t>(job.schedulable ? 1 : 0));
  h.update(static_cast<std::uint64_t>(job.bounds_checked ? 1 : 0));
  hash_string(h, job.skip_reason);
  for (const sim::BoundViolation& v : job.violations) {
    hash_string(h, v.activity);
    h.update(v.simulated);
    h.update(v.bound);
  }
  for (const ScenarioOutcome& s : job.scenarios) {
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
  h.update(job.evals);
  h.update(job.cache_hits);
  h.update(job.cache_lookups);
  h.update(job.delta_fallbacks);
}

}  // namespace

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::Ok: return "ok";
    case JobStatus::Timeout: return "timeout";
    case JobStatus::Failed: return "failed";
    case JobStatus::Shed: return "shed";
    case JobStatus::Pending: return "pending";
  }
  return "?";
}

ValidationSpec parse_validation_spec(std::istream& in) {
  ValidationSpec spec;
  parse_spec(in, kSpecContext, spec, [&spec](const util::KvEntry& e) {
    if (e.key == "strategy") {
      try {
        spec.strategy = parse_strategy(e.value);
      } catch (const std::invalid_argument& err) {
        util::kv_fail(kSpecContext, e.line, err.what());
      }
      if (spec.strategy == Strategy::Sas || spec.strategy == Strategy::Sar) {
        util::kv_fail(kSpecContext, e.line,
                      "strategy must be sf, os or or (the annealing "
                      "strategies need a start candidate)");
      }
    } else if (e.key == "scenarios") {
      spec.scenarios.clear();
      for (const std::string& name : util::kv_list(e, kSpecContext)) {
        try {
          spec.scenarios.push_back(sim::FaultSpec::scenario(name, /*seed=*/1));
        } catch (const std::invalid_argument& err) {
          util::kv_fail(kSpecContext, e.line, err.what());
        }
      }
    } else if (e.key == "max_sim_events") {
      spec.max_sim_events = static_cast<std::int64_t>(util::kv_u64(e, kSpecContext));
    } else {
      return false;
    }
    return true;
  });
  return spec;
}

ValidationSpec parse_validation_spec_file(const std::string& path) {
  std::ifstream in = open_spec_file(path, kSpecContext);
  return parse_validation_spec(in);
}

std::uint64_t ValidationJob::signature() const {
  util::Fnv1a h;
  update_signature(h, *this);
  return h.digest();
}

std::uint64_t ValidationResult::signature() const {
  util::Fnv1a h;
  for (const ValidationJob& job : jobs) update_signature(h, job);
  return h.digest();
}

std::size_t ValidationResult::total_violations() const {
  std::size_t total = 0;
  for (const ValidationJob& job : jobs) total += job.violations.size();
  return total;
}

std::size_t ValidationResult::count(JobStatus status) const {
  std::size_t n = 0;
  for (const ValidationJob& job : jobs) {
    if (job.status == status) ++n;
  }
  return n;
}

ValidationResult run_validation(const ValidationSpec& spec) {
  return run_validation(spec, ValidationRunOptions{});
}

ValidationResult run_validation(const ValidationSpec& spec,
                                const ValidationRunOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const auto suite =
      gen::suite_by_name(spec.suite, spec.seeds_per_dim, spec.suite_base_seed);

  ValidationResult result;
  result.spec = spec;
  result.jobs.resize(suite.size());

  run_suite(
      result, suite, options, nullptr, run_job,
      [](ValidationJob& job, RunState state) { job.status = to_job_status(state); },
      [](const ValidationJob&) {});
  result.wall_seconds = seconds_since(start);
  return result;
}

util::Table ValidationResult::summary_table() const {
  std::vector<std::string> header = {"dimension", "instances", "ok",
                                     "timeout",   "failed",    "shed",
                                     "checked",   "violations"};
  for (const sim::FaultSpec& scenario : spec.scenarios) {
    header.push_back(scenario.name + " miss");
    header.push_back(scenario.name + " lost");
  }

  struct Cell {
    std::int64_t instances = 0, ok = 0, timeout = 0, failed = 0, shed = 0;
    std::int64_t checked = 0, violations = 0;
    std::vector<std::int64_t> misses, lost;
  };
  std::map<std::size_t, Cell> by_dimension;
  for (const ValidationJob& job : jobs) {
    Cell& cell = by_dimension[job.dimension];
    cell.misses.resize(spec.scenarios.size());
    cell.lost.resize(spec.scenarios.size());
    ++cell.instances;
    switch (job.status) {
      case JobStatus::Ok: ++cell.ok; break;
      case JobStatus::Timeout: ++cell.timeout; break;
      case JobStatus::Failed: ++cell.failed; break;
      case JobStatus::Shed: ++cell.shed; break;
      case JobStatus::Pending: break;  // instances - (ok+timeout+failed+shed)
    }
    if (job.bounds_checked) ++cell.checked;
    cell.violations += static_cast<std::int64_t>(job.violations.size());
    for (std::size_t si = 0; si < job.scenarios.size() &&
                             si < spec.scenarios.size();
         ++si) {
      cell.misses[si] += job.scenarios[si].deadline_misses;
      cell.lost[si] += job.scenarios[si].messages_lost;
    }
  }

  util::Table table(header);
  for (const auto& [dimension, cell] : by_dimension) {
    std::vector<std::string> row = {
        util::Table::fmt(static_cast<std::int64_t>(dimension)),
        util::Table::fmt(cell.instances),
        util::Table::fmt(cell.ok),
        util::Table::fmt(cell.timeout),
        util::Table::fmt(cell.failed),
        util::Table::fmt(cell.shed),
        util::Table::fmt(cell.checked),
        util::Table::fmt(cell.violations)};
    for (std::size_t si = 0; si < spec.scenarios.size(); ++si) {
      row.push_back(util::Table::fmt(cell.misses[si]));
      row.push_back(util::Table::fmt(cell.lost[si]));
    }
    table.add_row(row);
  }
  return table;
}

void write_json(const ValidationResult& result, std::ostream& out) {
  const ValidationSpec& spec = result.spec;
  out << "{\n  \"validation\": \"" << json_escape(spec.name) << "\",\n"
      << "  \"suite\": \"" << json_escape(spec.suite) << "\",\n"
      << "  \"seeds_per_dim\": " << spec.seeds_per_dim << ",\n"
      << "  \"campaign_seed\": " << spec.campaign_seed << ",\n"
      << "  \"strategy\": \"" << to_string(spec.strategy) << "\",\n"
      << "  \"scenarios\": [";
  for (std::size_t i = 0; i < spec.scenarios.size(); ++i) {
    out << (i ? ", " : "") << "\"" << json_escape(spec.scenarios[i].name) << "\"";
  }
  out << "],\n  \"workers\": " << result.workers << ",\n"
      << "  \"interrupted\": " << (result.interrupted ? "true" : "false") << ",\n"
      << "  \"wall_seconds\": " << result.wall_seconds << ",\n";
  out << "  \"signature\": \"" << hex_digest(result.signature()) << "\",\n"
      << "  \"totals\": {\"jobs\": " << result.jobs.size() << ", \"ok\": "
      << result.count(JobStatus::Ok) << ", \"timeout\": "
      << result.count(JobStatus::Timeout) << ", \"failed\": "
      << result.count(JobStatus::Failed) << ", \"shed\": "
      << result.count(JobStatus::Shed) << ", \"pending\": "
      << result.count(JobStatus::Pending) << ", \"bound_violations\": "
      << result.total_violations() << "},\n  \"jobs\": [\n";

  for (std::size_t ji = 0; ji < result.jobs.size(); ++ji) {
    const ValidationJob& job = result.jobs[ji];
    out << "    {" << JsonRowHead{job} << ", \"status\": \"" << to_string(job.status)
        << "\", \"attempts\": "
        << job.attempts << ", \"error\": \""
        << json_escape(job.error) << "\", \"converged\": "
        << (job.converged ? "true" : "false") << ", \"schedulable\": "
        << (job.schedulable ? "true" : "false") << ", \"checked\": "
        << (job.bounds_checked ? "true" : "false") << ", \"skip_reason\": \""
        << json_escape(job.skip_reason) << "\", \"seconds\": " << job.seconds
        << ",\n     " << JsonMetrics{job} << ",\n     \"violations\": [";
    for (std::size_t vi = 0; vi < job.violations.size(); ++vi) {
      const sim::BoundViolation& v = job.violations[vi];
      out << (vi ? ", " : "") << "{\"activity\": \"" << json_escape(v.activity)
          << "\", \"simulated\": " << v.simulated << ", \"bound\": " << v.bound
          << "}";
    }
    out << "],\n     \"scenarios\": [";
    for (std::size_t si = 0; si < job.scenarios.size(); ++si) {
      const ScenarioOutcome& s = job.scenarios[si];
      out << (si ? ",\n       " : "\n       ") << "{\"scenario\": \""
          << json_escape(s.scenario) << "\", \"sim_status\": \""
          << sim::to_string(s.sim_status) << "\", \"deadline_misses\": "
          << s.deadline_misses << ", \"messages_lost\": " << s.messages_lost
          << ", \"config_violations\": " << s.config_violations
          << ", \"faults_injected\": " << s.faults.total()
          << ", \"max_out_can\": " << s.max_out_can << ", \"max_out_ttp\": "
          << s.max_out_ttp << ", \"queue_over_bound\": " << s.queue_over_bound
          << ", \"worst_lateness\": " << static_cast<std::int64_t>(s.worst_lateness)
          << "}";
    }
    out << "]}" << (ji + 1 < result.jobs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void write_csv(const ValidationResult& result, std::ostream& out) {
  out << "validation,job,dimension,replica,system_seed,processes,messages,"
         "status,attempts,error,converged,schedulable,checked,skip_reason,"
         "violations,"
         "scenario,sim_status,deadline_misses,messages_lost,config_violations,"
         "faults_injected,max_out_can,max_out_ttp,queue_over_bound,"
         "worst_lateness,evals,cache_hit_rate,delta_fallbacks,seconds\n";
  const std::string name = csv_escape(result.spec.name);
  for (const ValidationJob& job : result.jobs) {
    const auto prefix = [&](std::ostream& os) -> std::ostream& {
      return os << name << ',' << job.job_index << ',' << job.dimension << ','
                << job.replica << ',' << job.system_seed << ',' << job.processes
                << ',' << job.messages << ',' << to_string(job.status) << ','
                << job.attempts << ','
                << csv_escape(job.error) << ',' << (job.converged ? 1 : 0)
                << ',' << (job.schedulable ? 1 : 0) << ','
                << (job.bounds_checked ? 1 : 0) << ','
                << csv_escape(job.skip_reason) << ','
                << job.violations.size();
    };
    // Instrumentation columns, then the wall-clock column LAST: everything
    // before `seconds` is deterministic, so consumers can strip the final
    // column to compare reports across runs and thread counts.
    const auto suffix = [&](std::ostream& os) -> std::ostream& {
      return os << ',' << job.evals << ',' << job.cache_hit_rate() << ','
                << job.delta_fallbacks << ',' << job.seconds;
    };
    // The fault-free row, then one row per fault scenario.
    suffix(prefix(out) << ",nominal,-,0,0,0,0,0,0,0,0") << '\n';
    for (const ScenarioOutcome& s : job.scenarios) {
      suffix(prefix(out) << ',' << csv_escape(s.scenario) << ','
                         << sim::to_string(s.sim_status) << ',' << s.deadline_misses
                         << ',' << s.messages_lost << ',' << s.config_violations << ','
                         << s.faults.total() << ',' << s.max_out_can << ','
                         << s.max_out_ttp << ',' << s.queue_over_bound << ','
                         << static_cast<std::int64_t>(s.worst_lateness))
          << '\n';
    }
  }
}

}  // namespace mcs::exp
