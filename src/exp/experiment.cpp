#include "mcs/exp/experiment.hpp"

#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "mcs/core/straightforward.hpp"
#include "mcs/obs/export.hpp"
#include "mcs/util/thread_pool.hpp"

namespace mcs::exp {

std::uint64_t kv_count(const util::KvEntry& e, const std::string& context,
                       std::uint64_t max) {
  const std::uint64_t value = util::kv_u64(e, context);
  if (value > max) {
    util::kv_fail(context, e.line,
                  e.key + " expects a count in 0.." + std::to_string(max) +
                      ", got '" + e.value + "'");
  }
  return value;
}

namespace {

/// Applies `e` when it names a shared key; false for any other key.
[[nodiscard]] bool parse_shared_key(ExperimentSpec& spec, const util::KvEntry& e,
                                    const std::string& context) {
  if (e.key == "name") {
    spec.name = e.value;
  } else if (e.key == "suite") {
    spec.suite = e.value;
  } else if (e.key == "seeds_per_dim") {
    spec.seeds_per_dim = static_cast<std::size_t>(kv_count(e, context, kMaxSeedsPerDim));
  } else if (e.key == "suite_base_seed") {
    spec.suite_base_seed = util::kv_u64(e, context);
  } else if (e.key == "campaign_seed") {
    spec.campaign_seed = util::kv_u64(e, context);
  } else if (e.key == "conservative") {
    spec.conservative = util::kv_bool(e, context);
  } else if (e.key == "paper_ttp") {
    spec.paper_ttp = util::kv_bool(e, context);
  } else if (e.key == "jobs") {
    spec.jobs = static_cast<std::size_t>(kv_count(e, context, kMaxJobs));
  } else if (e.key == "job_timeout_ms") {
    spec.job_timeout_ms =
        static_cast<std::int64_t>(kv_count(e, context, kMaxJobTimeoutMs));
  } else if (e.key == "max_retries") {
    spec.max_retries = static_cast<int>(kv_count(e, context, kMaxRetries));
  } else if (e.key == "queue_limit") {
    spec.queue_limit = static_cast<std::size_t>(kv_count(e, context, kMaxQueueLimit));
  } else if (e.key == "sa_max_evaluations") {
    spec.budgets.sa_max_evaluations = util::kv_int(e, context);
  } else if (e.key == "hopa_iterations") {
    spec.budgets.hopa_iterations = util::kv_int(e, context);
  } else if (e.key == "or_max_seed_starts") {
    spec.budgets.or_max_seed_starts = static_cast<std::size_t>(util::kv_u64(e, context));
  } else if (e.key == "or_max_climb_iterations") {
    spec.budgets.or_max_climb_iterations = util::kv_int(e, context);
  } else if (e.key == "or_neighbors_per_step") {
    spec.budgets.or_neighbors_per_step =
        static_cast<std::size_t>(util::kv_u64(e, context));
  } else {
    return false;
  }
  return true;
}

}  // namespace

std::string to_string(Strategy strategy) {
  switch (strategy) {
    case Strategy::Sf: return "sf";
    case Strategy::Os: return "os";
    case Strategy::Or: return "or";
    case Strategy::Sas: return "sas";
    case Strategy::Sar: return "sar";
  }
  return "?";
}

Strategy parse_strategy(const std::string& name) {
  if (name == "sf") return Strategy::Sf;
  if (name == "os") return Strategy::Os;
  if (name == "or") return Strategy::Or;
  if (name == "sas") return Strategy::Sas;
  if (name == "sar") return Strategy::Sar;
  throw std::invalid_argument("unknown strategy '" + name +
                              "' (expected sf, os, or, sas or sar)");
}

core::McsOptions mcs_options_for(bool conservative, bool paper_ttp) {
  core::McsOptions options;
  options.analysis.offset_pruning = !conservative;
  options.analysis.ttp_queue_model =
      paper_ttp ? core::TtpQueueModel::PaperFormula : core::TtpQueueModel::Exact;
  return options;
}

core::McsOptions ExperimentSpec::mcs_options() const {
  return mcs_options_for(conservative, paper_ttp);
}

void parse_spec(std::istream& in, const std::string& context, ExperimentSpec& spec,
                const std::function<bool(const util::KvEntry&)>& own_key) {
  for (const util::KvEntry& e : util::parse_kv(in, context)) {
    if (!parse_shared_key(spec, e, context) && !own_key(e)) {
      util::kv_fail(context, e.line, "unknown key '" + e.key + "'");
    }
  }
}

std::ifstream open_spec_file(const std::string& path, const std::string& context) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open " + context + ": " + path);
  return in;
}

core::OptimizeResourcesOptions optimizer_options(const CampaignBudgets& budgets,
                                                 const util::CancelToken& cancel) {
  core::OptimizeResourcesOptions options;
  options.schedule.hopa.max_iterations = budgets.hopa_iterations;
  options.schedule.cancel = &cancel;
  options.max_seed_starts = budgets.or_max_seed_starts;
  options.max_climb_iterations = budgets.or_max_climb_iterations;
  options.neighbors_per_step = budgets.or_neighbors_per_step;
  return options;
}

Synthesis synthesize(const core::MoveContext& ctx, Strategy strategy,
                     const core::OptimizeResourcesOptions& options) {
  switch (strategy) {
    case Strategy::Sf: {
      auto sf = core::straightforward(ctx);
      return {std::move(sf.candidate), std::move(sf.evaluation), 1, 0};
    }
    case Strategy::Os: {
      auto os = core::optimize_schedule(ctx, options.schedule);
      return {std::move(os.best), std::move(os.best_eval), os.evaluations, 0};
    }
    case Strategy::Or: {
      auto orr = core::optimize_resources(ctx, options);
      return {std::move(orr.best), std::move(orr.best_eval), orr.evaluations,
              orr.s_total_before};
    }
    case Strategy::Sas:
    case Strategy::Sar:
      break;
  }
  throw std::invalid_argument("synthesize: " + to_string(strategy) +
                              " needs a start candidate (use sf, os or or)");
}

core::SystemConfig Synthesis::config(const model::Application& app) const {
  core::SystemConfig cfg = candidate.to_config(app);
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    cfg.set_process_offset(
        util::ProcessId(static_cast<util::ProcessId::underlying_type>(pi)),
        evaluation.mcs.analysis.process_offsets[pi]);
  }
  return cfg;
}

void identify(JobRow& row, const gen::SuitePoint& point, std::size_t job_index) {
  row.job_index = job_index;
  row.dimension = point.dimension;
  row.replica = point.replica;
  row.system_seed = point.params.seed;
}

void record_engine_metrics(JobRow& row, const core::MoveContext& ctx) {
  row.cache_hits = ctx.evaluation_cache().hits();
  row.cache_lookups = row.cache_hits + ctx.evaluation_cache().misses();
  row.delta_fallbacks = ctx.workspace().delta_stats().fallbacks;
  obs::publish_workspace(ctx.workspace(), ctx.evaluation_cache().hits(),
                         ctx.evaluation_cache().misses(),
                         ctx.workspace().active_kernel_name(
                             ctx.mcs_options().analysis.kernel));
}

RuntimeOptions runtime_options(const ExperimentSpec& spec, const RunControl& control) {
  RuntimeOptions runtime;
  runtime.workers = spec.jobs == 0 ? util::ThreadPool::default_workers() : spec.jobs;
  runtime.job_timeout_ms = spec.job_timeout_ms;
  runtime.max_retries = spec.max_retries;
  runtime.queue_limit = spec.queue_limit;
  runtime.retry_seed = spec.campaign_seed;
  runtime.stop = control.stop;
  runtime.faults = control.faults;
  return runtime;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::ostream& operator<<(std::ostream& out, JsonRowHead head) {
  const JobRow& row = head.row;
  return out << "\"job\": " << row.job_index << ", \"dimension\": " << row.dimension
             << ", \"replica\": " << row.replica << ", \"system_seed\": "
             << row.system_seed << ", \"processes\": " << row.processes
             << ", \"messages\": " << row.messages;
}

std::ostream& operator<<(std::ostream& out, JsonMetrics metrics) {
  const JobRow& row = metrics.row;
  return out << "\"metrics\": {\"evals\": " << row.evals << ", \"cache_hits\": "
             << row.cache_hits << ", \"cache_lookups\": " << row.cache_lookups
             << ", \"cache_hit_rate\": " << row.cache_hit_rate()
             << ", \"delta_fallbacks\": " << row.delta_fallbacks << "}";
}

std::string hex_digest(std::uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

void hash_string(util::Fnv1a& h, const std::string& s) {
  h.update(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) h.update_byte(static_cast<std::uint8_t>(c));
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace mcs::exp
