// The shared experiment core: one spec-key parser behind both file
// formats, the job-runtime bounds, and the SF/OS/OR synthesis dispatch.
#include "mcs/exp/experiment.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "mcs/core/optimize_resources.hpp"
#include "mcs/core/straightforward.hpp"
#include "mcs/exp/campaign.hpp"
#include "mcs/exp/validation.hpp"
#include "mcs/gen/paper_example.hpp"

namespace mcs::exp {
namespace {

/// Parses `text` with both spec parsers.
CampaignSpec as_campaign(const std::string& text) {
  std::istringstream in(text);
  return parse_campaign_spec(in);
}
ValidationSpec as_validation(const std::string& text) {
  std::istringstream in(text);
  return parse_validation_spec(in);
}

/// The message each parser raises for `text`, or "" when it accepts it.
std::string campaign_error(const std::string& text) {
  try {
    static_cast<void>(as_campaign(text));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}
std::string validation_error(const std::string& text) {
  try {
    static_cast<void>(as_validation(text));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// One shared key: a good value, a reader for the field it sets (as a
/// string, so one table covers every field type), the value it must read
/// back, and a value the key must reject.
struct SharedKey {
  std::string key;
  std::string good;
  std::function<std::string(const ExperimentSpec&)> read;
  std::string expected;
  std::string bad;
};

std::vector<SharedKey> shared_keys() {
  const auto num = [](auto value) { return std::to_string(value); };
  return {
      {"name", "sweep-7", [](const ExperimentSpec& s) { return s.name; }, "sweep-7",
       ""},
      {"suite", "fig9c", [](const ExperimentSpec& s) { return s.suite; }, "fig9c", ""},
      {"seeds_per_dim", "13",
       [num](const ExperimentSpec& s) { return num(s.seeds_per_dim); }, "13", "-1"},
      {"suite_base_seed", "4242",
       [num](const ExperimentSpec& s) { return num(s.suite_base_seed); }, "4242",
       "12x"},
      {"campaign_seed", "99",
       [num](const ExperimentSpec& s) { return num(s.campaign_seed); }, "99", "abc"},
      {"conservative", "true",
       [num](const ExperimentSpec& s) { return num(s.conservative); }, "1", "yes"},
      {"paper_ttp", "1", [num](const ExperimentSpec& s) { return num(s.paper_ttp); },
       "1", "2"},
      {"jobs", "4096", [num](const ExperimentSpec& s) { return num(s.jobs); }, "4096",
       "4097"},
      {"job_timeout_ms", "604800000",
       [num](const ExperimentSpec& s) { return num(s.job_timeout_ms); }, "604800000",
       "604800001"},
      {"max_retries", "100",
       [num](const ExperimentSpec& s) { return num(s.max_retries); }, "100", "101"},
      {"queue_limit", "1000000000",
       [num](const ExperimentSpec& s) { return num(s.queue_limit); }, "1000000000",
       "1000000001"},
      {"sa_max_evaluations", "77",
       [num](const ExperimentSpec& s) { return num(s.budgets.sa_max_evaluations); },
       "77", "3000000000"},
      {"hopa_iterations", "5",
       [num](const ExperimentSpec& s) { return num(s.budgets.hopa_iterations); }, "5",
       "-5"},
      {"or_max_seed_starts", "2",
       [num](const ExperimentSpec& s) { return num(s.budgets.or_max_seed_starts); },
       "2", "two"},
      {"or_max_climb_iterations", "11",
       [num](const ExperimentSpec& s) {
         return num(s.budgets.or_max_climb_iterations);
       },
       "11", "1.5"},
      {"or_neighbors_per_step", "9",
       [num](const ExperimentSpec& s) { return num(s.budgets.or_neighbors_per_step); },
       "9", "99999999999999999999"},
  };
}

// Every shared key reads back the same value through both formats, and a
// bad value fails in both with the format's context and the line number.
TEST(ExperimentSpec, SharedKeysParseIdenticallyInBothFormats) {
  for (const SharedKey& k : shared_keys()) {
    SCOPED_TRACE(k.key);
    const std::string text = "# header\n\n" + k.key + " = " + k.good + "\n";
    EXPECT_EQ(k.read(as_campaign(text)), k.expected);
    EXPECT_EQ(k.read(as_validation(text)), k.expected);
    if (k.bad.empty()) continue;  // free-text keys accept any value
    const std::string bad = "# header\n\n" + k.key + " = " + k.bad + "\n";
    const std::string c = campaign_error(bad);
    const std::string v = validation_error(bad);
    EXPECT_EQ(c.rfind("campaign spec line 3: ", 0), 0u) << c;
    EXPECT_EQ(v.rfind("validation spec line 3: ", 0), 0u) << v;
    // Same diagnosis, different context.
    EXPECT_EQ(c.substr(c.find(": ")), v.substr(v.find(": ")));
  }
}

// The job-runtime keys carry the CLI flags' bounds: values that would
// overflow the watchdog's deadline arithmetic, wrap negative through the
// signed field, or ask for thousands of worker threads are rejected at
// parse time (no campaign runs here).
TEST(ExperimentSpec, ResilienceKeysAreBoundedLikeTheirFlags) {
  const std::string cases[] = {
      "jobs = 5000",
      "job_timeout_ms = 604800001",
      "job_timeout_ms = 9223372036854775807",
      "job_timeout_ms = 18446744073709551615",
      "max_retries = 101",
      "max_retries = 4294967296",
      "queue_limit = 1000000001",
  };
  for (const std::string& line : cases) {
    SCOPED_TRACE(line);
    const std::string text = "name = x\n" + line + "\n";
    const std::string c = campaign_error(text);
    const std::string v = validation_error(text);
    EXPECT_EQ(c.rfind("campaign spec line 2: ", 0), 0u) << c;
    EXPECT_EQ(v.rfind("validation spec line 2: ", 0), 0u) << v;
    EXPECT_NE(c.find("expects a count in 0.."), std::string::npos) << c;
  }
  EXPECT_EQ(as_campaign("jobs = 0\n").jobs, 0u);  // 0 = one per core
  EXPECT_EQ(kMaxJobs, 4096u);
  EXPECT_EQ(kMaxJobTimeoutMs, 604'800'000u);
  EXPECT_EQ(kMaxRetries, 100u);
  EXPECT_EQ(kMaxQueueLimit, 1'000'000'000u);
}

// seeds_per_dim is bounded in both formats: the suite generators push
// that many points per dimension before any job runs, so a huge value
// would allocate until it ran out of memory.  Only the parsers run here;
// no suite is generated from a bounded-out value.
TEST(ExperimentSpec, SeedsPerDimIsBounded) {
  const std::string max = std::to_string(kMaxSeedsPerDim);
  EXPECT_EQ(as_campaign("seeds_per_dim = " + max + "\n").seeds_per_dim, kMaxSeedsPerDim);
  EXPECT_EQ(as_validation("seeds_per_dim = " + max + "\n").seeds_per_dim,
            kMaxSeedsPerDim);
  for (const std::string& value :
       {std::to_string(kMaxSeedsPerDim + 1), std::string("18446744073709551615")}) {
    SCOPED_TRACE(value);
    const std::string text = "name = x\nseeds_per_dim = " + value + "\n";
    const std::string expected =
        " line 2: seeds_per_dim expects a count in 0.." + max + ", got '" + value + "'";
    EXPECT_EQ(campaign_error(text), "campaign spec" + expected);
    EXPECT_EQ(validation_error(text), "validation spec" + expected);
  }
}

TEST(ExperimentSpec, FormatsKeepTheirOwnDefaultsAndKeys) {
  const CampaignSpec c;
  EXPECT_EQ(c.name, "campaign");
  EXPECT_EQ(c.suite, "tiny");
  EXPECT_EQ(c.seeds_per_dim, 2u);
  EXPECT_EQ(c.suite_base_seed, 1000u);
  const ValidationSpec v;
  EXPECT_EQ(v.name, "validation");
  EXPECT_EQ(v.suite, "validation");
  EXPECT_EQ(v.seeds_per_dim, 25u);
  EXPECT_EQ(v.suite_base_seed, 7000u);

  // Each format's own keys stay unknown to the other.
  EXPECT_NE(campaign_error("strategy = os\n").find("unknown key 'strategy'"),
            std::string::npos);
  EXPECT_NE(campaign_error("scenarios = drop\n").find("unknown key"), std::string::npos);
  EXPECT_NE(validation_error("strategies = sf\n").find("unknown key 'strategies'"),
            std::string::npos);
  EXPECT_NE(validation_error("anneal_unschedulable_starts = false\n").find("unknown key"),
            std::string::npos);
}

// A journal written by an earlier binary must still resume: the digest of
// the shipped sample spec is pinned.
TEST(ExperimentSpec, TinyCampaignDigestIsStable) {
  const CampaignSpec spec = parse_campaign_spec_file(std::string(MCS_TEST_DATA_DIR) +
                                                     "/../../examples/tiny.campaign");
  EXPECT_EQ(campaign_spec_digest(spec), 0xd7b41446234c0627ULL);
}

TEST(ExperimentSpec, SwitchesMapToAnalysisOptions) {
  for (const bool conservative : {false, true}) {
    for (const bool paper_ttp : {false, true}) {
      ValidationSpec spec;
      spec.conservative = conservative;
      spec.paper_ttp = paper_ttp;
      const core::McsOptions options = spec.mcs_options();
      EXPECT_EQ(options.analysis.offset_pruning, !conservative);
      EXPECT_EQ(options.analysis.ttp_queue_model,
                paper_ttp ? core::TtpQueueModel::PaperFormula
                          : core::TtpQueueModel::Exact);
      EXPECT_EQ(mcs_options_for(conservative, paper_ttp).analysis.offset_pruning,
                options.analysis.offset_pruning);
    }
  }
}

// The dispatch returns exactly what the strategy it names returns.
TEST(Synthesize, MatchesTheStrategyItDispatchesTo) {
  const gen::PaperExample ex = gen::make_paper_example();
  const core::MoveContext ctx(ex.app, ex.platform, core::McsOptions{});
  const core::OptimizeResourcesOptions options;

  const Synthesis sf = synthesize(ctx, Strategy::Sf, options);
  const auto sf_ref = core::straightforward(ctx);
  EXPECT_EQ(sf.evaluations, 1);
  EXPECT_EQ(sf.evaluation.delta.delta(), sf_ref.evaluation.delta.delta());
  EXPECT_EQ(sf.s_total_before, 0);

  const Synthesis os = synthesize(ctx, Strategy::Os, options);
  const auto os_ref = core::optimize_schedule(ctx, options.schedule);
  EXPECT_EQ(os.evaluations, os_ref.evaluations);
  EXPECT_EQ(os.evaluation.delta.delta(), os_ref.best_eval.delta.delta());
  EXPECT_EQ(os.evaluation.s_total, os_ref.best_eval.s_total);

  const Synthesis orr = synthesize(ctx, Strategy::Or, options);
  const auto or_ref = core::optimize_resources(ctx, options);
  EXPECT_EQ(orr.evaluations, or_ref.evaluations);
  EXPECT_EQ(orr.evaluation.s_total, or_ref.best_eval.s_total);
  EXPECT_EQ(orr.s_total_before, or_ref.s_total_before);
  EXPECT_EQ(orr.candidate.process_priorities, or_ref.best.process_priorities);

  EXPECT_THROW(static_cast<void>(synthesize(ctx, Strategy::Sas, options)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(synthesize(ctx, Strategy::Sar, options)),
               std::invalid_argument);
}

TEST(ReportHelpers, EscapeAndDigestFormats) {
  EXPECT_EQ(json_escape("a\"b\\c\nd\te\x01"), "a\\\"b\\\\c\\nd\\te\\u0001");
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,\"b\""), "\"a,\"\"b\"\"\"");
  EXPECT_EQ(hex_digest(0xd7b41446234c0627ULL), "d7b41446234c0627");
  EXPECT_EQ(hex_digest(1), "0000000000000001");
}

}  // namespace
}  // namespace mcs::exp
