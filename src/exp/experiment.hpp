// The experiment core shared by the campaign (campaign.hpp) and validation
// (validation.hpp) harnesses and by mcs_synth's single-system path.
//
// Each decision those three drivers have in common lives here once:
//
//   * the spec keys both file formats share, their bounds, and the
//     conservative/paper_ttp → core::McsOptions mapping (ExperimentSpec,
//     parse_spec);
//   * the SF/OS/OR synthesis dispatch (synthesize);
//   * the job loop: the job-runtime wiring, stamping settled rows and
//     filling the rows a shutdown drain left pending (run_suite);
//   * the report helpers (json_escape, csv_escape, hex_digest,
//     hash_string, seconds_since).
//
// Concurrency & determinism contract (DESIGN.md §4): each job builds its
// OWN core::MoveContext — and therefore its own AnalysisWorkspace and
// EvaluationCache — on the worker thread that runs it, and never shares
// it; every RNG seed in a job is a pure function of the spec and the job
// index; jobs write into preassigned result slots.  So every field except
// wall-clock times is bit-identical for any `jobs` value.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "mcs/core/moves.hpp"
#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/core/optimize_resources.hpp"
#include "mcs/exp/job_runtime.hpp"
#include "mcs/gen/suites.hpp"
#include "mcs/util/hash.hpp"
#include "mcs/util/kv_parse.hpp"

namespace mcs::exp {

/// The synthesis strategies of the paper's §6 evaluation.  SAS/SAR anneal
/// from the best candidate an earlier OS/OR strategy produced, mirroring
/// the benchmark setup.
enum class Strategy { Sf, Os, Or, Sas, Sar };

[[nodiscard]] std::string to_string(Strategy strategy);
/// Parses "sf" | "os" | "or" | "sas" | "sar" (throws std::invalid_argument).
[[nodiscard]] Strategy parse_strategy(const std::string& name);

/// Upper bounds of the job-runtime knobs, enforced alike on spec-file keys
/// and on mcs_synth's flags.  The week-long deadline keeps the watchdog's
/// `now + timeout` arithmetic far from overflow; the worker bound keeps a
/// spec from asking for thousands of threads.
inline constexpr std::uint64_t kMaxJobs = 4096;
inline constexpr std::uint64_t kMaxJobTimeoutMs = 604'800'000;
inline constexpr std::uint64_t kMaxRetries = 100;
inline constexpr std::uint64_t kMaxQueueLimit = 1'000'000'000;

/// Search budgets (the defaults match bench_common.hpp's laptop profile).
struct CampaignBudgets {
  int sa_max_evaluations = 250;
  int hopa_iterations = 3;
  std::size_t or_max_seed_starts = 3;
  int or_max_climb_iterations = 10;
  std::size_t or_neighbors_per_step = 16;
};

/// The spec fields every experiment format shares.  The suite defaults
/// differ per format, so CampaignSpec and ValidationSpec set them.
struct ExperimentSpec {
  std::string name;
  std::string suite;  ///< gen::suite_by_name
  std::size_t seeds_per_dim = 0;
  std::uint64_t suite_base_seed = 0;  ///< generator seed grid origin
  std::uint64_t campaign_seed = 1;    ///< root of the per-job RNG streams
  bool conservative = false;  ///< disable offset/precedence pruning
  bool paper_ttp = false;     ///< closed-form OutTTP model
  CampaignBudgets budgets;
  std::size_t jobs = 1;  ///< worker threads (0 = one per hardware core)
  /// Resilience knobs, forwarded to the job runtime (see job_runtime.hpp).
  std::int64_t job_timeout_ms = 0;  ///< per-attempt watchdog (0 = off)
  int max_retries = 0;              ///< transient-failure retries per job
  std::size_t queue_limit = 0;      ///< admission control (0 = unlimited)

  /// mcs_options_for(conservative, paper_ttp).
  [[nodiscard]] core::McsOptions mcs_options() const;
};

/// The analysis options the `conservative` and `paper_ttp` switches select
/// (the spec keys and mcs_synth's --conservative/--paper-ttp flags).
[[nodiscard]] core::McsOptions mcs_options_for(bool conservative, bool paper_ttp);

/// Parses a line-based `key = value` spec ('#' starts a comment) into
/// `spec`.  Each entry is first matched against the shared keys (name,
/// suite, seeds_per_dim, suite_base_seed, campaign_seed, conservative,
/// paper_ttp, jobs, job_timeout_ms, max_retries, queue_limit and the
/// CampaignBudgets keys), then handed to `own_key`, which returns false for
/// a key it does not know.  Errors throw std::invalid_argument as
/// `<context> line N: <what>`.
void parse_spec(std::istream& in, const std::string& context, ExperimentSpec& spec,
                const std::function<bool(const util::KvEntry&)>& own_key);
/// Opens a spec file for parse_spec (throws std::invalid_argument
/// "cannot open <context>: <path>").
[[nodiscard]] std::ifstream open_spec_file(const std::string& path,
                                           const std::string& context);

/// What one SF/OS/OR synthesis run produced.
struct Synthesis {
  core::Candidate candidate;
  core::Evaluation evaluation;
  int evaluations = 0;
  /// OR only: the buffer need after its internal OS step.
  std::int64_t s_total_before = 0;

  /// The configuration a simulation replays: the candidate with the
  /// process offsets the analysis settled on.
  [[nodiscard]] core::SystemConfig config(const model::Application& app) const;
};

/// The optimizer options a spec's budgets select; the OS step (and OR's
/// inner OS step) poll `cancel`.
[[nodiscard]] core::OptimizeResourcesOptions optimizer_options(
    const CampaignBudgets& budgets, const util::CancelToken& cancel);

/// Runs SF, OS (with `options.schedule`) or OR (with `options`).  The
/// annealing strategies need a start candidate and throw
/// std::invalid_argument.
[[nodiscard]] Synthesis synthesize(const core::MoveContext& ctx, Strategy strategy,
                                   const core::OptimizeResourcesOptions& options);

/// The report-row fields both harnesses share: suite coordinates, how the
/// job runtime settled the job, and its engine counters.
struct JobRow {
  std::size_t job_index = 0;
  std::size_t dimension = 0;  ///< suite dimension (processes or gw messages)
  std::size_t replica = 0;
  std::uint64_t system_seed = 0;
  std::size_t processes = 0;
  std::size_t messages = 0;
  /// Attempts the runtime started (> 1 means transient retries happened).
  int attempts = 1;
  /// Why the job did not complete; for a completed row after retries, the
  /// transient error that was overcome.
  std::string error;
  double seconds = 0.0;  ///< wall clock, outside the signature
  /// Per-job engine metrics (DESIGN.md §7).  All four are pure functions
  /// of the job's inputs — the workspace and cache are job-local — so they
  /// are part of the signature.
  std::uint64_t evals = 0;            ///< total strategy evaluations
  std::uint64_t cache_hits = 0;       ///< evaluation-cache hits
  std::uint64_t cache_lookups = 0;    ///< evaluation-cache lookups (hits+misses)
  std::uint64_t delta_fallbacks = 0;  ///< delta runs that fell back to cold

  /// Cache hit rate in [0,1] (0 when the job never consulted the cache).
  [[nodiscard]] double cache_hit_rate() const {
    return cache_lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) / static_cast<double>(cache_lookups);
  }
};

/// Stamps a row with its suite coordinates.
void identify(JobRow& row, const gen::SuitePoint& point, std::size_t job_index);

/// Copies a job's final engine counters into its row and publishes them to
/// the metrics registry.
void record_engine_metrics(JobRow& row, const core::MoveContext& ctx);

/// Execution-time knobs that never change a finished run's deterministic
/// fields.
struct RunControl {
  /// Graceful shutdown flag (signal handlers set it).  Not owned.
  const std::atomic<bool>* stop = nullptr;
  /// Test-only fault injection, forwarded to the runtime.
  std::vector<RuntimeFault> faults;
};

/// The job-runtime options a spec and a run's controls select.
[[nodiscard]] RuntimeOptions runtime_options(const ExperimentSpec& spec,
                                             const RunControl& control);

/// The job loop both harnesses share: runs `run_job(result.spec, point,
/// index, cancel)` for every suite point under the job runtime and settles
/// `result.jobs` (sized to the suite by the caller).  A completed job keeps
/// its row, stamped with the attempts the runtime started and the transient
/// error it overcame.  A timed-out, failed or shed job — and, after the run,
/// a job a shutdown drain left unfinished — gets a degraded row: its suite
/// coordinates, `set_state(row, state)`, the attempts and the reason.
/// `on_settled(row)` runs on the worker thread for every row but the
/// pending ones (the campaign journals there; --resume re-runs exactly the
/// pending jobs).  Jobs flagged in `already_done` neither run nor settle.
template <class Result, class RunJob, class SetState, class OnSettled>
void run_suite(Result& result, const std::vector<gen::SuitePoint>& suite,
               const RunControl& control, const std::vector<char>* already_done,
               RunJob run_job,
               SetState set_state, OnSettled on_settled) {
  const auto degraded = [&](std::size_t i, const JobDisposition& disposition) {
    auto& row = result.jobs[i];
    row = {};
    identify(row, suite[i], i);
    set_state(row, disposition.state);
    row.attempts = disposition.attempts;
    row.error = disposition.error;
  };
  RuntimeReport report;
  const std::vector<JobDisposition> dispositions = run_jobs(
      runtime_options(result.spec, control), suite.size(),
      [&](std::size_t i, const util::CancelToken& cancel) {
        // Only a completed run_job assigns the slot, so a retried attempt
        // leaves no partial state behind.
        result.jobs[i] = run_job(result.spec, suite[i], i, cancel);
      },
      already_done,
      [&](std::size_t i, const JobDisposition& disposition) {
        if (disposition.state == RunState::Done) {
          result.jobs[i].attempts = disposition.attempts;
          // A done-after-retry row keeps the transient reason it overcame.
          result.jobs[i].error = disposition.error;
        } else {
          degraded(i, disposition);
        }
        on_settled(result.jobs[i]);
      },
      &report);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    if (dispositions[i].state != RunState::Pending) continue;
    JobDisposition pending = dispositions[i];
    pending.error = "pending: shutdown requested before the job finished";
    degraded(i, pending);
  }
  result.workers = report.workers;
  result.interrupted = report.interrupted;
}

// ---- report helpers ----------------------------------------------------

/// Minimal JSON string escaping for the user-controlled report fields.
[[nodiscard]] std::string json_escape(const std::string& s);
/// RFC-4180 quoting for the free-text CSV columns.
[[nodiscard]] std::string csv_escape(const std::string& s);
/// Stream adaptors for the JSON fields every report row shares:
/// `"job": …, "dimension": …, …, "messages": …` and `"metrics": {…}`.
struct JsonRowHead {
  const JobRow& row;
};
struct JsonMetrics {
  const JobRow& row;
};
std::ostream& operator<<(std::ostream& out, JsonRowHead head);
std::ostream& operator<<(std::ostream& out, JsonMetrics metrics);
/// A digest as 16 lowercase hex digits.
[[nodiscard]] std::string hex_digest(std::uint64_t digest);
/// Length-prefixed string input to a determinism signature.
void hash_string(util::Fnv1a& h, const std::string& s);
[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point start);

}  // namespace mcs::exp
