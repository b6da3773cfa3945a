// E16 — adaptive cost feedback: how far do the cost model's cardinality
// estimates move toward the truth after the feedback loop has watched a few
// runs?
//
// The workload is the paper's recursive Influencer pattern with selections
// of varying strictness over the fixpoint's output (`gen >= k`): exactly
// the estimates derived statistics get wrong, because recursion depth and
// the selectivity of a predicate over a recursively-built relation are
// invisible to per-extent statistics. For every query we measure the
// q-error of the *output cardinality* estimate, max(est/measured,
// measured/est), in two worlds:
//
//   cold — a feedback-off session: the raw cost model, no corrections;
//   warm — a feedback-on session after kWarmupRuns harvested executions.
//
// Reported figures (all deterministic — seeded data, seeded optimizer, no
// timing anywhere, so the CI gate can be strict):
//
//   QErrorMedianCold / QErrorMedianWarm — median over the corpus;
//   QErrorImprovement — cold/warm ratio; the acceptance bar is >= 2x and
//                       the binary exits non-zero below it;
//   CorrectionScopes  — learned correction factors after warm-up;
//   DriftDemotions    — cached-plan demotions when a hair-trigger drift
//                       threshold watches the same workload.
//
// Output is Google-Benchmark-shaped JSON (values in real_time, the field
// scripts/check_bench.py compares) written to --out, like rodin_load.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "api/session.h"
#include "common/string_util.h"
#include "cost/feedback.h"
#include "datagen/music_gen.h"
#include "optimizer/baseline.h"

using namespace rodin;

namespace {

constexpr int kWarmupRuns = 6;

std::string InfluencerQuery(int min_gen) {
  return StrFormat(R"(
relation Influencer includes
  (select [master: x.master, disciple: x, gen: 1] from x in Composer)
  union
  (select [master: i.master, disciple: x, gen: i.gen + 1]
   from i in Influencer, x in Composer where i.disciple = x.master)

select [dname: j.disciple.name] from j in Influencer
where j.master.works.instruments.iname = "harpsichord" and j.gen >= %d
)",
                   min_gen);
}

/// Output-cardinality q-error of an executed explain: the root node's
/// estimate against what actually came out.
double RootQError(const ExplainResult& ex) {
  const std::vector<PlanNodeStats>& nodes = ex.node_stats();
  if (nodes.empty() || !nodes[0].executed || nodes[0].est_rows < 0) return -1;
  const double est = nodes[0].est_rows + 1;
  const double measured = static_cast<double>(nodes[0].measured_rows) + 1;
  return std::max(est / measured, measured / est);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

struct BenchRow {
  std::string name;
  double value;
  const char* unit;
};

void WriteBenchJson(const std::string& path,
                    const std::vector<BenchRow>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\n  \"context\": {\n    \"executable\": \"bench_feedback\"\n  },\n"
      << "  \"benchmarks\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& row = rows[i];
    out << "    {\n"
        << "      \"name\": \"" << row.name << "\",\n"
        << "      \"run_type\": \"iteration\",\n"
        << "      \"iterations\": 1,\n"
        << "      \"real_time\": " << row.value << ",\n"
        << "      \"cpu_time\": " << row.value << ",\n"
        << "      \"time_unit\": \"" << row.unit << "\"\n"
        << "    }" << (i + 1 == rows.size() ? "\n" : ",\n");
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_feedback.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--out=";
    if (arg.rfind(prefix, 0) == 0) out_path = arg.substr(prefix.size());
  }

  MusicConfig config;
  config.num_composers = 72;
  config.lineage_depth = 12;
  config.seed = 1234;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());

  // Selections of varying strictness over the recursion's output: the
  // deeper the gen cutoff, the further the static selectivity estimate is
  // from the (linearly thinning, eventually vanishing) truth — recursion
  // depth and generation counts are invisible to per-extent statistics.
  std::vector<std::string> corpus;
  for (int min_gen = 5; min_gen <= 11; ++min_gen) {
    corpus.push_back(InfluencerQuery(min_gen));
  }

  QueryOptions off;
  off.cold = true;
  off.bypass_plan_cache = true;  // every Explain re-optimizes from scratch
  off.feedback.enabled = false;
  QueryOptions on = off;
  on.feedback.enabled = true;

  Session cold_session(g.db.get(), CostBasedOptions(42));
  Session warm_session(g.db.get(), CostBasedOptions(42));

  std::vector<double> cold_errs;
  std::vector<double> warm_errs;
  for (const std::string& query : corpus) {
    const ExplainResult cold = cold_session.Explain(query, off);
    if (!cold.ok() || RootQError(cold) < 0) {
      std::fprintf(stderr, "cold explain failed: %s\n",
                   cold.status.ToString().c_str());
      return 1;
    }
    cold_errs.push_back(RootQError(cold));

    for (int r = 0; r < kWarmupRuns; ++r) {
      const QueryRun run = warm_session.Run(query, on);
      if (!run.ok()) {
        std::fprintf(stderr, "warm-up run failed: %s\n", run.error().c_str());
        return 1;
      }
    }
    const ExplainResult warm = warm_session.Explain(query, on);
    if (!warm.ok() || RootQError(warm) < 0) {
      std::fprintf(stderr, "warm explain failed: %s\n",
                   warm.status.ToString().c_str());
      return 1;
    }
    warm_errs.push_back(RootQError(warm));
    std::fprintf(stderr, "gen>=%d: q-error cold %.2f -> warm %.2f\n",
                 5 + static_cast<int>(cold_errs.size()) - 1,
                 cold_errs.back(), warm_errs.back());
    if (std::getenv("BENCH_FEEDBACK_DUMP") != nullptr) {
      for (const PlanNodeStats& n : warm.node_stats()) {
        std::fprintf(stderr, "  WARM %-44s est=%8.1f meas=%8llu inv=%llu\n",
                     n.scope.c_str(), n.est_rows,
                     static_cast<unsigned long long>(n.measured_rows),
                     static_cast<unsigned long long>(n.invocations));
      }
      for (uint64_t v = 0; v < 3; ++v) {
        const FeedbackCorrections snap =
            warm_session.feedback_registry().Snapshot(v);
        for (const auto& [scope, factor] : snap.factors()) {
          std::fprintf(stderr, "  FACTOR %-42s %.3f\n", scope.c_str(), factor);
        }
      }
    }
  }

  const double median_cold = Median(cold_errs);
  const double median_warm = Median(warm_errs);
  const double improvement = median_warm > 0 ? median_cold / median_warm : 0;
  const double scopes =
      static_cast<double>(warm_session.feedback_registry().size());

  // Drift demotion, exercised end to end: a hair-trigger threshold watches
  // a cached plan whose estimate is (per the numbers above) well off, so
  // the second run demotes it and the third re-optimizes.
  Session drift_session(g.db.get(), CostBasedOptions(42));
  QueryOptions trigger;
  trigger.cold = true;
  trigger.feedback.enabled = true;
  trigger.feedback.drift_threshold = 1.0001;
  for (int r = 0; r < 3; ++r) {
    const QueryRun run = drift_session.Run(corpus.back(), trigger);
    if (!run.ok()) {
      std::fprintf(stderr, "drift run failed: %s\n", run.error().c_str());
      return 1;
    }
  }
  const double demotions =
      static_cast<double>(drift_session.feedback_registry().stats().demotions);

  WriteBenchJson(out_path, {
                               {"QErrorMedianCold", median_cold, "qerr"},
                               {"QErrorMedianWarm", median_warm, "qerr"},
                               {"QErrorImprovement", improvement, "x"},
                               {"CorrectionScopes", scopes, "scopes"},
                               {"DriftDemotions", demotions, "count"},
                           });
  std::fprintf(stderr,
               "median q-error: cold %.3f warm %.3f (%.2fx better), "
               "%zu correction scopes, %.0f demotions -> %s\n",
               median_cold, median_warm, improvement,
               static_cast<size_t>(scopes), demotions, out_path.c_str());

  if (improvement < 2.0) {
    std::fprintf(stderr,
                 "FAIL: warm-up improved the median q-error only %.2fx "
                 "(acceptance bar: >= 2x)\n",
                 improvement);
    return 1;
  }
  return 0;
}
