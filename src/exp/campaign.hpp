// Parallel campaign engine — the paper's §6 evaluation as a declarative,
// thread-pooled sweep.
//
// A campaign is "suite × strategies × seeds": a generator suite (the
// Figure 9 grids or the tiny smoke grid) enumerates system instances, and
// every instance is one JOB that runs the requested strategies in order
// (SF, OS, OR, and the annealing references SAS/SAR) and records their
// verdict, degree of schedulability, buffer need and run time.  Jobs are
// sharded across a util::ThreadPool and aggregated into per-dimension
// series (schedulable fraction, deviation from the annealing reference,
// delta/s_total averages) plus campaign-wide runtime percentiles, written
// as a plain-text table, JSON and CSV.
//
// The determinism contract of experiment.hpp holds: every stochastic
// component inside a job draws from FNV-1a(campaign_seed, job_index,
// strategy_index), so every field except wall-clock times is bit-identical
// for any `jobs` value, which tests/exp/campaign_test.cpp asserts (jobs=1
// vs jobs=4) and CampaignResult::signature() digests.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "mcs/core/degree_of_schedulability.hpp"
#include "mcs/exp/experiment.hpp"
#include "mcs/util/table.hpp"

namespace mcs::exp {

/// Declarative description of one campaign: the shared experiment keys
/// (experiment.hpp) plus the strategy list.  Everything that influences a
/// deterministic result field lives here; `jobs` only controls sharding.
/// The resilience knobs are part of the spec digest: they change which
/// rows exist.
struct CampaignSpec : ExperimentSpec {
  CampaignSpec() {
    name = "campaign";
    suite = "tiny";  // fig9ab | fig9c | tiny
    seeds_per_dim = 2;
    suite_base_seed = 1000;
  }

  std::vector<Strategy> strategies = {Strategy::Sf, Strategy::Os, Strategy::Sas};
  /// When false, SAS/SAR is skipped (outcome.skipped = true) on jobs
  /// whose preceding strategy was unschedulable — the Figure 9b/9c
  /// benches' behavior, saving the full SA budget on hopeless instances.
  /// The skip decision reads only deterministic fields, so thread-count
  /// invariance is preserved.
  bool anneal_unschedulable_starts = true;
};

/// Parses the `key = value` spec format (experiment.hpp's parse_spec) with
/// the campaign keys `strategies` (comma list of sf, os, or, sas, sar, in
/// run order) and `anneal_unschedulable_starts`; see examples/tiny.campaign.
/// Unknown keys and out-of-range values throw std::invalid_argument with
/// the line number ("campaign spec line N: ...").
[[nodiscard]] CampaignSpec parse_campaign_spec(std::istream& in);
[[nodiscard]] CampaignSpec parse_campaign_spec_file(const std::string& path);

/// One strategy's outcome on one instance.  `seconds` is wall clock and is
/// the only field excluded from the determinism signature.
struct StrategyOutcome {
  Strategy strategy = Strategy::Sf;
  bool schedulable = false;
  /// True when the strategy did not run (annealing on an unschedulable
  /// start with anneal_unschedulable_starts = false); all other fields
  /// are zero then.
  bool skipped = false;
  core::Schedulability delta;
  std::int64_t s_total = 0;
  /// OR only: the buffer need after its internal OS step (the paper's
  /// Figure 9b/9c "OS" series without paying for a second OS run).
  std::int64_t s_total_before = 0;
  int evaluations = 0;
  double seconds = 0.0;
};

/// One instance: the generated system plus every strategy outcome.
struct JobResult : JobRow {
  std::size_t inter_cluster_messages = 0;
  std::vector<StrategyOutcome> outcomes;
  /// How the job runtime settled this job (DESIGN.md §6): `done` rows
  /// carry outcomes; `timeout`/`failed`/`shed`/`pending` rows are ordinary
  /// report rows with `error` explaining why — they never abort the
  /// campaign or discard other jobs.
  RunState state = RunState::Done;

  [[nodiscard]] bool failed() const { return state == RunState::Failed; }

  /// FNV-1a over every deterministic field (wall-clock times excluded).
  [[nodiscard]] std::uint64_t signature() const;
};

struct CampaignResult {
  CampaignSpec spec;
  std::vector<JobResult> jobs;  ///< indexed by job_index (= suite order)
  std::size_t workers = 1;      ///< resolved thread count actually used
  /// A shutdown request drained the run before every job settled;
  /// `pending` rows mark the jobs a --resume will pick up.
  bool interrupted = false;
  std::size_t resumed_jobs = 0;  ///< jobs recovered from the journal
  double wall_seconds = 0.0;

  /// Combined determinism digest: equal across runs with any `spec.jobs`.
  [[nodiscard]] std::uint64_t signature() const;

  /// Per-dimension summary table: instances, and per strategy the
  /// schedulable count, average delta and s_total over schedulable
  /// instances, and average % deviation of delta (or s_total for
  /// OR/SAR-style buffer campaigns) from the last annealing strategy.
  [[nodiscard]] util::Table summary_table() const;
};

/// Execution-time knobs that do NOT affect which results a finished
/// campaign contains — shutdown and fault injection (RunControl), journaling
/// and resume.  None of them enter the spec digest or the result signature.
struct CampaignRunOptions : RunControl {
  /// Append each settled JobResult to this crash-safe journal (empty =
  /// no journaling).  See journal.hpp for the format.
  std::string journal_path;
  /// Resume from `journal_path`: journaled jobs are NOT re-run, their
  /// recovered rows merge with freshly computed ones, and the combined
  /// signature equals an uninterrupted run's.  The journal's spec digest
  /// must match `spec` (JournalError otherwise).
  bool resume = false;
};

/// Runs the campaign on `spec.jobs` worker threads.  Results are
/// bit-identical (per JobResult::signature) for any thread count.
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec);
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec,
                                          const CampaignRunOptions& options);

/// Digest of every spec field that determines which results a campaign
/// produces (suite, seeds, strategies, budgets, resilience knobs — NOT
/// `name` or `jobs`).  Stamped into journal headers so --resume refuses
/// a journal written under a different spec.
[[nodiscard]] std::uint64_t campaign_spec_digest(const CampaignSpec& spec);

/// Journal payload codec for one JobResult (exposed for tests and
/// tooling; decode throws JournalError on malformed payloads).
[[nodiscard]] std::string encode_job_result(const JobResult& job);
[[nodiscard]] JobResult decode_job_result(const std::string& payload);

/// Machine-readable reports next to the summary table.
void write_json(const CampaignResult& result, std::ostream& out);
void write_csv(const CampaignResult& result, std::ostream& out);

/// The seed the campaign hands a stochastic strategy in a given job —
/// FNV-1a(campaign_seed, job_index, strategy_index).  Exposed so tests
/// can assert stream independence.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t campaign_seed,
                                        std::size_t job_index,
                                        std::size_t strategy_index);

}  // namespace mcs::exp
