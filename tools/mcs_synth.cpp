// mcs_synth — command-line synthesis driver.  Three modes, one per run:
//
//   mcs_synth <system.mcs> [--strategy sf|os|or] [--simulate] ...
//       synthesize one system (grammar: src/gen/textio.hpp, sample:
//       examples/paper_example.mcs) and print the schedulability verdict,
//       per-graph response times and worst-case buffer needs;
//   mcs_synth --campaign <spec> [--jobs N] [--journal F | --resume F] ...
//       run a parallel multi-seed sweep (src/exp/campaign.hpp, DESIGN.md §4);
//   mcs_synth --validate <spec> [--faults F] [--jobs N] ...
//       run a soundness-fuzzing and fault sweep (src/exp/validation.hpp,
//       DESIGN.md §5); exit status 1 on any fault-free bound violation.
//
// usage() below lists every flag and exit code; README.md ("mcs_synth
// CLI") explains each one.  --trace/--metrics work in every mode and
// cannot change any result (tests/obs/zero_interference_test.cpp).
// SIGINT/SIGTERM drain a campaign or validation run gracefully: in-flight
// jobs are cancelled, settled rows are journaled, a partial report is
// written and the exit code is 4; a second signal kills immediately.
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "mcs/exp/campaign.hpp"
#include "mcs/exp/journal.hpp"
#include "mcs/exp/validation.hpp"
#include "mcs/gen/textio.hpp"
#include "mcs/model/validation.hpp"
#include "mcs/obs/metrics.hpp"
#include "mcs/obs/trace.hpp"
#include "mcs/sim/simulator.hpp"
#include "mcs/util/log.hpp"
#include "mcs/util/table.hpp"

using namespace mcs;

namespace {

constexpr const char* kVersion = "0.11.0";

/// Graceful-shutdown flag the signal handler raises; the job runtime
/// polls it and drains (std::atomic<bool> is lock-free on every target we
/// build for, so the store below is async-signal-safe).
std::atomic<bool> g_stop{false};

extern "C" void handle_shutdown_signal(int) { g_stop.store(true); }

void install_signal_handlers() {
  struct sigaction action{};
  action.sa_handler = handle_shutdown_signal;
  sigemptyset(&action.sa_mask);
  // One signal drains gracefully; a second one falls back to the default
  // disposition and kills the process (the journal survives either way).
  action.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

struct Options {
  std::string path;
  exp::Strategy strategy = exp::Strategy::Or;
  bool conservative = false;
  bool paper_ttp = false;
  bool simulate = false;
  bool sim_trace = false;
  bool dump_config = false;
  bool stats = false;
  std::string trace_json;    ///< span-trace output path (arms the tracer)
  std::string metrics_json;  ///< metrics-snapshot output path (arms metrics)
  std::optional<util::LogLevel> log_level;
  std::string campaign;  ///< spec path; non-empty selects campaign mode
  std::string validate;  ///< spec path; non-empty selects validation mode
  std::string faults;    ///< fault-spec path (single-system or validation)
  std::string report_json;
  std::string report_csv;
  std::string journal;  ///< campaign checkpoint journal to write
  std::string resume;   ///< campaign journal to resume from (implies journal)
  /// Job-runtime overrides of the spec's keys, each within its bound.
  std::optional<std::uint64_t> jobs;
  std::optional<std::uint64_t> job_timeout_ms;
  std::optional<std::uint64_t> max_retries;
  std::optional<std::uint64_t> queue_limit;
};

void usage() {
  std::fprintf(stderr,
               "usage: mcs_synth <system.mcs> [--strategy sf|os|or] "
               "[--conservative] [--paper-ttp] [--simulate] "
               "[--faults <spec>] [--sim-trace] [--dump-config] [--stats]\n"
               "       any mode: [--trace <file>] [--metrics <file>] "
               "[--log-level debug|info|warn|error|off]\n"
               "       mcs_synth --campaign <spec> [--jobs N] "
               "[--report-json <file>] [--report-csv <file>]\n"
               "                 [--journal <file> | --resume <file>] "
               "[--job-timeout-ms N] [--max-retries N] [--queue-limit N]\n"
               "       mcs_synth --validate <spec> [--faults <spec>] "
               "[--jobs N] [--job-timeout-ms N] [--max-retries N]\n"
               "                 [--queue-limit N] [--report-json <file>] "
               "[--report-csv <file>]\n"
               "       mcs_synth --version\n"
               "exit codes: 0 ok/schedulable, 1 unschedulable or bound "
               "violations or runtime error, 2 usage,\n"
               "            3 invalid flag value, 4 interrupted (partial "
               "report written; resumable), 5 journal mismatch/corruption\n");
}

/// Validates an unsigned integer flag value; prints a one-line error and
/// returns false on garbage, negatives, overflow or out-of-range counts.
bool parse_count_flag(const char* flag, const char* text,
                      unsigned long long max, unsigned long long& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-' || errno == ERANGE ||
      value > max) {
    std::fprintf(stderr, "error: %s expects a count in 0..%llu, got '%s'\n",
                 flag, max, text);
    return false;
  }
  out = value;
  return true;
}

/// Flags that take a file path.
constexpr std::pair<const char*, std::string Options::*> kPathFlags[] = {
    {"--campaign", &Options::campaign},     {"--validate", &Options::validate},
    {"--faults", &Options::faults},         {"--journal", &Options::journal},
    {"--resume", &Options::resume},         {"--report-json", &Options::report_json},
    {"--report-csv", &Options::report_csv}, {"--trace", &Options::trace_json},
    {"--metrics", &Options::metrics_json}};

/// Flags that take a bounded count: the job-runtime overrides.  Garbage,
/// negatives and absurd counts are rejected instead of silently wrapping
/// ("-1") or defaulting to all cores ("abc" -> 0).
struct CountFlag {
  const char* flag;
  std::optional<std::uint64_t> Options::*slot;
  std::uint64_t max;
};
constexpr CountFlag kCountFlags[] = {
    {"--jobs", &Options::jobs, exp::kMaxJobs},
    {"--job-timeout-ms", &Options::job_timeout_ms, exp::kMaxJobTimeoutMs},
    {"--max-retries", &Options::max_retries, exp::kMaxRetries},
    {"--queue-limit", &Options::queue_limit, exp::kMaxQueueLimit}};

/// Returns 0 when parsing succeeded, or the process exit code to use:
/// 2 for a usage error (unknown flag / wrong mode combination; caller
/// prints usage), 3 for a malformed flag value (one-line error already
/// printed, no usage spam).
int parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto path_flag = std::find_if(std::begin(kPathFlags), std::end(kPathFlags),
                                        [&arg](const auto& f) { return arg == f.first; });
    const auto count_flag =
        std::find_if(std::begin(kCountFlags), std::end(kCountFlags),
                     [&arg](const CountFlag& f) { return arg == f.flag; });
    if (arg == "--version") {
      // The default kernel request; per system it runs on Reference when
      // a period is not magic-encodable (see --stats).
      std::printf("mcs_synth %s (analysis kernel: %s)\n", kVersion,
                  core::kernel_name(core::AnalysisOptions{}.kernel));
      std::exit(0);
    } else if (path_flag != std::end(kPathFlags)) {
      if (++i >= argc) return 2;
      options.*(path_flag->second) = argv[i];
    } else if (count_flag != std::end(kCountFlags)) {
      if (++i >= argc) return 2;
      unsigned long long value = 0;
      if (!parse_count_flag(count_flag->flag, argv[i], count_flag->max, value)) return 3;
      options.*(count_flag->slot) = value;
    } else if (arg == "--strategy") {
      if (++i >= argc) return 2;
      const std::string name = argv[i];
      if (name != "sf" && name != "os" && name != "or") {
        std::fprintf(stderr, "error: --strategy expects sf, os or or, got '%s'\n",
                     argv[i]);
        return 3;
      }
      options.strategy = exp::parse_strategy(name);
    } else if (arg == "--conservative") {
      options.conservative = true;
    } else if (arg == "--paper-ttp") {
      options.paper_ttp = true;
    } else if (arg == "--simulate") {
      options.simulate = true;
    } else if (arg == "--sim-trace") {
      options.simulate = true;
      options.sim_trace = true;
    } else if (arg == "--log-level") {
      if (++i >= argc) return 2;
      try {
        options.log_level = util::parse_log_level(argv[i]);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: --log-level: %s\n", e.what());
        return 3;
      }
    } else if (arg == "--dump-config") {
      options.dump_config = true;
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return 2;
    } else if (options.path.empty()) {
      options.path = arg;
    } else {
      return 2;
    }
  }
  // Exactly one mode: a system file, a campaign spec or a validation spec.
  const int modes = (!options.path.empty() ? 1 : 0) +
                    (!options.campaign.empty() ? 1 : 0) +
                    (!options.validate.empty() ? 1 : 0);
  if (modes != 1) return 2;
  if (!options.journal.empty() && !options.resume.empty()) {
    std::fprintf(stderr,
                 "error: --journal and --resume are mutually exclusive "
                 "(--resume keeps appending to the journal it resumes)\n");
    return 3;
  }
  if ((!options.journal.empty() || !options.resume.empty()) &&
      options.campaign.empty()) {
    std::fprintf(stderr,
                 "error: --journal/--resume require --campaign mode\n");
    return 3;
  }
  return 0;
}

/// The job-runtime flags override the spec file's keys.
void apply_overrides(const Options& options, exp::ExperimentSpec& spec) {
  if (options.jobs) spec.jobs = static_cast<std::size_t>(*options.jobs);
  if (options.job_timeout_ms) {
    spec.job_timeout_ms = static_cast<std::int64_t>(*options.job_timeout_ms);
  }
  if (options.max_retries) spec.max_retries = static_cast<int>(*options.max_retries);
  if (options.queue_limit) {
    spec.queue_limit = static_cast<std::size_t>(*options.queue_limit);
  }
}

/// Writes the --report-json/--report-csv files; false when one cannot be
/// opened (the error is printed).
template <class Result>
bool write_reports(const Options& options, const Result& result) {
  const auto write = [&result](const std::string& path, bool json) {
    if (path.empty()) return true;
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    if (json) {
      exp::write_json(result, out);
    } else {
      exp::write_csv(result, out);
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  };
  return write(options.report_json, true) && write(options.report_csv, false);
}

int run_campaign_mode(const Options& options) {
  exp::CampaignSpec spec = exp::parse_campaign_spec_file(options.campaign);
  apply_overrides(options, spec);

  exp::CampaignRunOptions run;
  run.journal_path = options.resume.empty() ? options.journal : options.resume;
  run.resume = !options.resume.empty();
  run.stop = &g_stop;

  const exp::CampaignResult result = exp::run_campaign(spec, run);

  std::printf("campaign %s: suite %s, %zu jobs on %zu worker(s), %.2f s\n\n",
              spec.name.c_str(), spec.suite.c_str(), result.jobs.size(),
              result.workers, result.wall_seconds);
  result.summary_table().print(std::cout);
  if (result.resumed_jobs > 0) {
    std::printf("\nresumed %zu journaled job(s) from %s\n", result.resumed_jobs,
                run.journal_path.c_str());
  }
  std::printf("\nsignature: %016llx (thread-count invariant)\n",
              static_cast<unsigned long long>(result.signature()));

  if (!write_reports(options, result)) return 1;
  if (result.interrupted) {
    std::printf("interrupted: drained in-flight jobs, %s; "
                "re-run with --resume to finish\n",
                run.journal_path.empty() ? "partial report only (no --journal)"
                                         : "journal is consistent");
    return 4;
  }
  return 0;
}

int run_validation_mode(const Options& options) {
  exp::ValidationSpec spec = exp::parse_validation_spec_file(options.validate);
  if (!options.faults.empty()) {
    spec.scenarios.push_back(sim::parse_fault_spec_file(options.faults));
  }
  apply_overrides(options, spec);

  exp::ValidationRunOptions run;
  run.stop = &g_stop;
  const exp::ValidationResult result = exp::run_validation(spec, run);

  std::printf(
      "validation %s: suite %s, strategy %s, %zu jobs on %zu worker(s), "
      "%zu scenario(s), %.2f s\n\n",
      spec.name.c_str(), spec.suite.c_str(),
      exp::to_string(spec.strategy).c_str(), result.jobs.size(),
      result.workers, spec.scenarios.size(), result.wall_seconds);
  result.summary_table().print(std::cout);
  std::printf("\nsignature: %016llx (thread-count invariant)\n",
              static_cast<unsigned long long>(result.signature()));

  // Every fault-free bound violation is a soundness bug; print the
  // replayable coordinates so the instance can be regenerated exactly.
  for (const exp::ValidationJob& job : result.jobs) {
    for (const sim::BoundViolation& v : job.violations) {
      std::printf(
          "BOUND VIOLATION: %s simulated %lld > bound %lld "
          "(suite %s, system_seed %llu, strategy %s) \n",
          v.activity.c_str(), static_cast<long long>(v.simulated),
          static_cast<long long>(v.bound), spec.suite.c_str(),
          static_cast<unsigned long long>(job.system_seed),
          exp::to_string(spec.strategy).c_str());
    }
    if (job.status == exp::JobStatus::Failed) {
      std::printf("job %zu (system_seed %llu) failed: %s\n", job.job_index,
                  static_cast<unsigned long long>(job.system_seed),
                  job.error.c_str());
    }
  }

  if (!write_reports(options, result)) return 1;
  if (result.interrupted) {
    std::printf("interrupted: drained in-flight jobs, partial report only\n");
    return 4;
  }
  return result.total_violations() == 0 ? 0 : 1;
}

void report(const gen::ParsedSystem& sys, const exp::Synthesis& synthesis,
            const Options& options) {
  const core::Candidate& candidate = synthesis.candidate;
  const core::Evaluation& eval = synthesis.evaluation;
  const auto& analysis = eval.mcs.analysis;
  std::printf("verdict: %s\n", eval.schedulable ? "SCHEDULABLE" : "NOT schedulable");

  util::Table graphs({"graph", "period", "deadline", "response", "slack"});
  for (std::size_t gi = 0; gi < sys.app.num_graphs(); ++gi) {
    const auto& graph = sys.app.graphs()[gi];
    graphs.add_row({graph.name, util::Table::fmt(graph.period),
                    util::Table::fmt(graph.deadline),
                    util::Table::fmt(analysis.graph_response[gi]),
                    util::Table::fmt(graph.deadline - analysis.graph_response[gi])});
  }
  graphs.print(std::cout);

  std::printf("buffers: OutCAN=%lld B, OutTTP=%lld B",
              static_cast<long long>(analysis.buffers.out_can),
              static_cast<long long>(analysis.buffers.out_ttp));
  for (const auto& [node, bytes] : analysis.buffers.out_node) {
    std::printf(", Out%s=%lld B", sys.platform.node(node).name.c_str(),
                static_cast<long long>(bytes));
  }
  std::printf(" -> s_total=%lld B\n",
              static_cast<long long>(analysis.buffers.total()));

  if (options.dump_config) {
    std::printf("\nTDMA round: %s\n", candidate.tdma.to_string().c_str());
    util::Table sched({"process", "node", "cluster", "offset", "priority",
                       "worst completion"});
    for (std::size_t pi = 0; pi < sys.app.num_processes(); ++pi) {
      const auto& process = sys.app.processes()[pi];
      const bool tt = sys.platform.is_tt(process.node);
      sched.add_row({process.name, sys.platform.node(process.node).name,
                     tt ? "TT" : "ET",
                     util::Table::fmt(analysis.process_offsets[pi]),
                     tt ? "-" : util::Table::fmt(static_cast<std::int64_t>(
                                    candidate.process_priorities[pi])),
                     util::Table::fmt(analysis.process_offsets[pi] +
                                      analysis.process_response[pi])});
    }
    sched.print(std::cout);

    util::Table msgs({"message", "route", "priority", "delivered by"});
    for (std::size_t mi = 0; mi < sys.app.num_messages(); ++mi) {
      const util::MessageId m(static_cast<util::MessageId::underlying_type>(mi));
      const auto route = core::classify_route(sys.app, sys.platform, m);
      const bool on_can = route != core::MessageRoute::Local &&
                          route != core::MessageRoute::TtToTt;
      msgs.add_row({sys.app.messages()[mi].name, core::to_string(route),
                    on_can ? util::Table::fmt(static_cast<std::int64_t>(
                                 candidate.message_priorities[mi]))
                           : "-",
                    util::Table::fmt(analysis.message_delivery[mi])});
    }
    msgs.print(std::cout);
  }

  if (options.simulate) {
    const core::SystemConfig cfg = synthesis.config(sys.app);
    sim::SimOptions sim_options;
    sim_options.record_trace = options.sim_trace;
    const auto sim = sim::simulate(sys.app, sys.platform, cfg,
                                   eval.mcs.schedule, sim_options);
    std::printf("\nsimulation: %s, %zu violation(s)\n",
                sim.completed ? "completed" : "did not complete",
                sim.violations.size());
    for (const auto& v : sim.violations) std::printf("  violation: %s\n", v.c_str());
    util::Table check({"graph", "simulated response", "analysis bound"});
    for (std::size_t gi = 0; gi < sys.app.num_graphs(); ++gi) {
      check.add_row({sys.app.graphs()[gi].name,
                     util::Table::fmt(sim.graph_response[gi]),
                     util::Table::fmt(analysis.graph_response[gi])});
    }
    check.print(std::cout);
    if (options.sim_trace) std::printf("\n%s", sim.trace.to_string().c_str());

    if (!options.faults.empty()) {
      const sim::FaultSpec faults = sim::parse_fault_spec_file(options.faults);
      const auto faulted = sim::simulate(sys.app, sys.platform, cfg,
                                         eval.mcs.schedule, sim_options, faults);
      std::printf(
          "\nfault scenario %s (seed %llu): %s, %lld fault(s) injected, "
          "%zu deadline miss(es), %zu message(s) lost, %zu violation(s)\n",
          faults.name.c_str(), static_cast<unsigned long long>(faults.seed),
          sim::to_string(faulted.status), static_cast<long long>(faulted.faults.total()),
          faulted.deadline_misses.size(), faulted.lost_messages.size(),
          faulted.violations.size());
      for (const auto& m : faulted.lost_messages) {
        std::printf("  lost: %s\n", m.c_str());
      }
      util::Table degraded({"graph", "fault-free response", "faulted response",
                            "deadline"});
      for (std::size_t gi = 0; gi < sys.app.num_graphs(); ++gi) {
        degraded.add_row({sys.app.graphs()[gi].name,
                          util::Table::fmt(sim.graph_response[gi]),
                          util::Table::fmt(faulted.graph_response[gi]),
                          util::Table::fmt(sys.app.graphs()[gi].deadline)});
      }
      degraded.print(std::cout);
      if (options.sim_trace) {
        std::printf("\n%s", faulted.trace.to_string().c_str());
      }
    }
  }
}

// Evaluation-engine counters for the single-system synthesis run: which
// kernel actually ran (a Fast request runs on Reference for a system
// whose periods are not magic-encodable), how often a run was eligible for
// the schedule memo vs fell back, and what the reuse layers (schedule
// memo, iteration elision, candidate-list cache, evaluation cache,
// intra-run skips) delivered.
void print_stats(const core::MoveContext& ctx,
                 const core::McsOptions& mcs_options) {
  const core::AnalysisWorkspace& ws = ctx.workspace();
  const core::DeltaStats& d = ws.delta_stats();
  const auto pct = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                  static_cast<double>(whole);
  };
  std::printf("\nevaluation engine stats:\n");
  std::printf("  analysis kernel        %s (requested: %s)\n",
              ws.active_kernel_name(mcs_options.analysis.kernel),
              core::kernel_name(mcs_options.analysis.kernel));
  std::printf("  mcs runs               %llu full, %llu memo-eligible, "
              "%llu fallbacks\n",
              static_cast<unsigned long long>(d.full_runs),
              static_cast<unsigned long long>(d.delta_runs),
              static_cast<unsigned long long>(d.fallbacks));
  std::printf("  delta checks           %llu checked, %llu mismatches\n",
              static_cast<unsigned long long>(d.checked),
              static_cast<unsigned long long>(d.mismatches));
  std::printf("  schedule memo hits     %llu\n",
              static_cast<unsigned long long>(d.schedule_memo_hits));
  std::printf("  elided mcs iterations  %llu\n",
              static_cast<unsigned long long>(d.elided_iterations));
  std::printf("  candidate-list cache   %llu hits, %llu rebuilds "
              "(%.1f%% hit rate)\n",
              static_cast<unsigned long long>(d.cand_cache_hits),
              static_cast<unsigned long long>(d.cand_cache_rebuilds),
              pct(d.cand_cache_hits, d.cand_cache_hits + d.cand_cache_rebuilds));
  std::printf("  fixed-point skips      %llu members\n",
              static_cast<unsigned long long>(d.intra_skips));
  const std::uint64_t hits = ctx.evaluation_cache().hits();
  const std::uint64_t lookups = hits + ctx.evaluation_cache().misses();
  std::printf("  evaluation cache       %llu/%llu hits (%.1f%% hit rate)\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(lookups), pct(hits, lookups));
  std::printf("  scratch footprint      %zu bytes (stable per workspace)\n",
              ws.scratch_footprint_bytes());
}

/// Dispatches to the selected mode and returns the process exit code.
/// Split out of main() so the observability epilogue (trace / metrics
/// file writes) runs on every exit path short of a signal kill.  Takes a
/// copy: the fault-sweep shortcut below flips `simulate` locally.
int run(Options options) {
  try {
    if (!options.campaign.empty() || !options.validate.empty()) {
      install_signal_handlers();
    }
    if (!options.campaign.empty()) return run_campaign_mode(options);
    if (!options.validate.empty()) return run_validation_mode(options);

    // A fault sweep only makes sense against a simulated run.
    if (!options.faults.empty()) options.simulate = true;

    const gen::ParsedSystem sys = gen::parse_system_file(options.path);
    const auto validation = model::validate(sys.app, sys.platform);
    if (!validation.ok()) {
      std::fprintf(stderr, "invalid system:\n%s", validation.to_string().c_str());
      return 1;
    }
    if (!validation.issues.empty()) {
      std::fprintf(stderr, "%s", validation.to_string().c_str());
    }

    const core::McsOptions mcs_options =
        exp::mcs_options_for(options.conservative, options.paper_ttp);
    const core::MoveContext ctx(sys.app, sys.platform, mcs_options);
    // The optimizers' own default budgets, not a spec's.
    const exp::Synthesis synthesis =
        exp::synthesize(ctx, options.strategy, core::OptimizeResourcesOptions{});
    report(sys, synthesis, options);
    if (options.stats) print_stats(ctx, mcs_options);
    return synthesis.evaluation.schedulable ? 0 : 1;
  } catch (const exp::JournalError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 5;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

/// Writes the span trace and metrics snapshot armed by --trace/--metrics.
/// A failed write turns an otherwise-clean exit into code 1, but never
/// masks a real failure code from the run itself.
int finalize_observability(const Options& options, int code) {
  const auto write = [&code](const std::string& path, const char* what, auto writer) {
    if (path.empty()) return;
    std::ofstream out(path, std::ios::binary);
    if (out) writer(out);
    if (!out || !out.flush()) {
      std::fprintf(stderr, "error: failed to write %s to '%s'\n", what, path.c_str());
      if (code == 0) code = 1;
    }
  };
  if (!options.trace_json.empty()) obs::stop_tracing();
  write(options.trace_json, "trace",
        [](std::ostream& out) { obs::write_chrome_trace(out); });
  write(options.metrics_json, "metrics", [](std::ostream& out) {
    obs::write_metrics_json(obs::snapshot_metrics(), out);
  });
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (const int status = parse_args(argc, argv, options); status != 0) {
    if (status == 2) usage();  // malformed values (3) already explained
    return status;
  }
  if (options.log_level) util::set_log_level(*options.log_level);
  // Arm observability before any analysis runs.  Neither switch may change
  // a deterministic result byte (tests/obs/zero_interference_test.cpp).
  if (!options.metrics_json.empty()) obs::set_metrics_enabled(true);
  if (!options.trace_json.empty()) obs::start_tracing();
  const int code = run(options);
  return finalize_observability(options, code);
}
