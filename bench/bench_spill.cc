// E17 — graceful degradation under memory pressure: the spill-to-disk scale
// sweep. Figure 3's recursive Influencer query runs at growing database
// scales under a 1-page memory budget (every multi-page working set forced
// to disk) and must stay *observably identical* to an unlimited execution
// of the plan it chose — same rows, same measured cost — because the budget
// bounds only the temp-page ledger and never touches the buffer pool's
// accounting. The budget also enters costing, so the identity is checked
// against the budgeted run's own plan.
//
// Reported figures (all deterministic — seeded data, seeded optimizer,
// page/byte counts rather than timings — so the CI gate can be strict):
//
//   ForcedScalesCompleted — scales that finished under the forced budget;
//                           the acceptance bar is all of them;
//   IdentityViolations    — forced runs whose rows or measured cost
//                           diverged from the unlimited execution of their
//                           plan (bar: 0);
//   SpillSpillsAtMaxScale / SpillPartitionsAtMaxScale /
//   SpillMBAtMaxScale / SpillPassesAtMaxScale
//                         — spill volume at the largest scale, from the
//                           rodin.spill.* counters.
//
// Output is Google-Benchmark-shaped JSON (values in real_time, the field
// scripts/check_bench.py compares) written to --out, like rodin_load.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "api/session.h"
#include "datagen/music_gen.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "optimizer/baseline.h"

using namespace rodin;

namespace {

const char kFig3Text[] = R"(
relation Influencer includes
  (select [master: x.master, disciple: x, gen: 1] from x in Composer)
  union
  (select [master: i.master, disciple: x, gen: i.gen + 1]
   from i in Influencer, x in Composer where i.disciple = x.master)

select [dname: j.disciple.name] from j in Influencer
where j.master.works.instruments.iname = "harpsichord" and j.gen >= 6
)";

std::vector<std::string> Keys(const Table& t) {
  std::vector<std::string> out;
  for (const Row& row : t.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    out.push_back(std::move(key));
  }
  return out;
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
  out << "{\n  \"context\": {\n    \"executable\": \"bench_spill\"\n  },\n"
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

uint64_t SpillCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_spill.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--out=";
    if (arg.rfind(prefix, 0) == 0) out_path = arg.substr(prefix.size());
  }

  const uint32_t kScales[] = {60, 120, 240, 400};
  double completed = 0;
  double identity_violations = 0;
  double spills_at_max = 0, partitions_at_max = 0, mb_at_max = 0,
         passes_at_max = 0;

  for (const uint32_t scale : kScales) {
    MusicConfig config;
    config.num_composers = scale;
    config.lineage_depth = 10;
    config.seed = 1234;
    GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
    Session session(g.db.get(), CostBasedOptions(42));

    QueryOptions forced;
    forced.cold = true;
    forced.query.memory_budget_pages = 1;
    const uint64_t spills0 = SpillCounter("rodin.spill.spills");
    const uint64_t parts0 = SpillCounter("rodin.spill.partitions");
    const uint64_t bytes0 = SpillCounter("rodin.spill.bytes");
    const uint64_t passes0 = SpillCounter("rodin.spill.passes");
    const QueryRun spilled = session.Run(kFig3Text, forced);
    if (!spilled.ok()) {
      std::fprintf(stderr, "forced-spill run failed at scale %u: %s\n", scale,
                   spilled.error().c_str());
      continue;  // counted as a missing completion below
    }
    completed += 1;
    // The unlimited execution of the same plan, cold like the forced run.
    Executor exec(g.db.get());
    exec.ResetMeasurement(/*clear_buffer=*/true);
    Table base;
    const Status base_status =
        exec.ExecuteInto(*spilled.optimized.plan, ExecOptions{}, &base);
    if (!base_status.ok()) {
      std::fprintf(stderr, "unlimited run failed at scale %u: %s\n", scale,
                   base_status.ToString().c_str());
      return 1;
    }
    const bool identical = Keys(spilled.answer) == Keys(base) &&
                           spilled.measured_cost == exec.MeasuredCost();
    if (!identical) identity_violations += 1;

    spills_at_max = static_cast<double>(SpillCounter("rodin.spill.spills") -
                                        spills0);
    partitions_at_max = static_cast<double>(
        SpillCounter("rodin.spill.partitions") - parts0);
    mb_at_max = static_cast<double>(SpillCounter("rodin.spill.bytes") -
                                    bytes0) /
                1e6;
    passes_at_max = static_cast<double>(SpillCounter("rodin.spill.passes") -
                                        passes0);
    std::fprintf(stderr,
                 "scale %3u: %zu rows, %s, spills=%.0f partitions=%.0f "
                 "%.3f MB passes=%.0f\n",
                 scale, spilled.answer.rows.size(),
                 identical ? "bit-identical" : "DIVERGED", spills_at_max,
                 partitions_at_max, mb_at_max, passes_at_max);
  }

  WriteBenchJson(out_path,
                 {
                     {"ForcedScalesCompleted", completed, "count"},
                     {"IdentityViolations", identity_violations, "count"},
                     {"SpillSpillsAtMaxScale", spills_at_max, "count"},
                     {"SpillPartitionsAtMaxScale", partitions_at_max, "count"},
                     {"SpillMBAtMaxScale", mb_at_max, "MB"},
                     {"SpillPassesAtMaxScale", passes_at_max, "count"},
                 });
  std::fprintf(stderr,
               "%.0f/4 scales completed forced, %.0f identity violations "
               "-> %s\n",
               completed, identity_violations, out_path.c_str());

  if (completed < 4 || identity_violations > 0) {
    std::fprintf(stderr,
                 "FAIL: spill acceptance bar (all scales complete, zero "
                 "divergence) not met\n");
    return 1;
  }
  return 0;
}
