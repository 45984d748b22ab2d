// Campaign-scale soundness fuzzing and fault-tolerance sweeps.
//
// A validation campaign turns the discrete-event simulator into a
// standing adversarial validator of the analysis (ROADMAP item 5): for
// every system of a generator suite it
//
//   1. synthesizes a configuration with one strategy (SF/OS/OR),
//   2. simulates it fault-free under WCET execution and asserts
//      `simulated <= analytic bound` for every process completion,
//      message delivery, graph response and queue maximum — any
//      exceedance is a soundness BUG in the analysis and is reported
//      with the replayable (suite, system_seed) pair that produced it,
//   3. re-simulates under each configured fault scenario (sim/fault.hpp)
//      and records degradation: deadline misses, lost messages, queue
//      growth beyond the fault-free bounds, residual slack.
//
// Graceful campaign degradation: each job runs under the job runtime and a
// deterministic event budget, so a pathological instance yields a `failed`
// or `timeout` row in the JSON/CSV report instead of killing the campaign.
// The determinism contract of experiment.hpp holds (scenario RNG seeds
// derive from (scenario seed, campaign seed, job index, scenario index) by
// FNV-1a).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "mcs/exp/experiment.hpp"
#include "mcs/sim/simulator.hpp"
#include "mcs/util/table.hpp"

namespace mcs::exp {

/// Declarative description of one validation campaign: the shared
/// experiment keys (experiment.hpp) plus the synthesis strategy, the fault
/// scenarios and the simulation event budget.
struct ValidationSpec : ExperimentSpec {
  ValidationSpec() {
    name = "validation";
    suite = "validation";
    seeds_per_dim = 25;
    suite_base_seed = 7000;
  }

  /// Configuration synthesis strategy (Sf, Os or Or; the annealing
  /// strategies need a start candidate and are not meaningful here).
  Strategy strategy = Strategy::Sf;
  /// Fault scenarios simulated after the fault-free soundness check.
  std::vector<sim::FaultSpec> scenarios;
  /// Per-simulation event budget: a run that exhausts it becomes a
  /// `timeout` row (deterministic, unlike a wall-clock limit).
  std::int64_t max_sim_events = 2'000'000;
};

/// Parses the `key = value` spec format (experiment.hpp's parse_spec) with
/// the validation keys strategy (sf|os|or), scenarios (comma list of
/// sim::FaultSpec scenario names) and max_sim_events; see
/// examples/soundness.validation.  Line-numbered std::invalid_argument
/// ("validation spec line N: ...") on errors.
[[nodiscard]] ValidationSpec parse_validation_spec(std::istream& in);
[[nodiscard]] ValidationSpec parse_validation_spec_file(const std::string& path);

/// How one job ended.  Everything except Ok is a report row, never an
/// abort.  Timeout covers both the deterministic event budget and the
/// runtime's wall-clock watchdog (the error/skip_reason text tells them
/// apart).
enum class JobStatus {
  Ok,       ///< synthesis + simulations ran to the end
  Timeout,  ///< event budget exhausted, or the watchdog deadline fired
  Failed,   ///< an exception escaped the job (error holds what())
  Shed,     ///< refused by admission control (queue_limit), never ran
  Pending,  ///< never finished: shutdown drained the run first
};
[[nodiscard]] const char* to_string(JobStatus status);

/// Degradation statistics of one fault scenario on one instance.
struct ScenarioOutcome {
  std::string scenario;
  sim::SimStatus sim_status = sim::SimStatus::Completed;
  std::int64_t deadline_misses = 0;
  std::int64_t messages_lost = 0;
  std::int64_t config_violations = 0;  ///< missed slots, late TT starts, ...
  sim::FaultCounters faults;
  std::int64_t max_out_can = 0;
  std::int64_t max_out_ttp = 0;
  /// Queue maxima that exceeded the fault-free analytic bound (OutCAN,
  /// OutTTP and every OutNi counted separately).
  std::int64_t queue_over_bound = 0;
  /// max over graphs of simulated response - deadline (negative = slack
  /// everywhere, util::kTimeInfinity = some graph starved forever).
  util::Time worst_lateness = 0;
};

/// One instance: synthesis verdict, soundness check, degradation rows.
/// `evals` counts the synthesis strategy's evaluations.
struct ValidationJob : JobRow {
  JobStatus status = JobStatus::Ok;
  bool converged = false;
  bool schedulable = false;
  /// True when the fault-free bound assertion actually ran (it is skipped
  /// — with skip_reason set — when the analysis did not converge or the
  /// fault-free simulation was inconsistent).
  bool bounds_checked = false;
  std::string skip_reason;
  /// Fault-free analytic-bound exceedances: each one is a soundness bug,
  /// replayable from (suite, system_seed, strategy).
  std::vector<sim::BoundViolation> violations;
  std::vector<ScenarioOutcome> scenarios;

  /// FNV-1a over every deterministic field (seconds excluded).
  [[nodiscard]] std::uint64_t signature() const;
};

struct ValidationResult {
  ValidationSpec spec;
  std::vector<ValidationJob> jobs;  ///< indexed by job_index (= suite order)
  std::size_t workers = 1;
  bool interrupted = false;  ///< shutdown drained the run early
  double wall_seconds = 0.0;

  [[nodiscard]] std::uint64_t signature() const;
  [[nodiscard]] std::size_t total_violations() const;
  [[nodiscard]] std::size_t count(JobStatus status) const;

  /// Per-dimension roll-up: job statuses, checked/violating instances,
  /// and per scenario the total deadline misses and lost messages.
  [[nodiscard]] util::Table summary_table() const;
};

using ValidationRunOptions = RunControl;

/// Runs the validation campaign on `spec.jobs` worker threads.  All
/// deterministic fields are bit-identical for any thread count.
[[nodiscard]] ValidationResult run_validation(const ValidationSpec& spec);
[[nodiscard]] ValidationResult run_validation(const ValidationSpec& spec,
                                              const ValidationRunOptions& options);

void write_json(const ValidationResult& result, std::ostream& out);
void write_csv(const ValidationResult& result, std::ostream& out);

}  // namespace mcs::exp
