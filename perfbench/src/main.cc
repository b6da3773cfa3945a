// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--commit ID]
//
// Workloads: fig3_recursive, adhoc_optimize, serve_rw (see README.md).
// --trace 0 measures the end-to-end metrics untraced; --trace 1 is the
// separate traced run that reports the per-layer metrics and writes its
// spans to --trace-out as Chrome trace_event JSON. The last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the line before it a "report" object with every figure the run took.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

// Switches that select another program than the one the benchmark pins.
constexpr const char* kPinnedEnv[] = {"RODIN_COMPILED_EVAL", "RODIN_PLAN_CACHE",
                                      "RODIN_FAULTS",        "RODIN_FEEDBACK",
                                      "RODIN_SPILL",         "RODIN_SPILL_BUDGET"};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig3_recursive|adhoc_optimize|serve_rw --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--commit ID]\n",
               why);
  std::exit(2);
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::map<std::string, perfbench::Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += Quoted(name) + ": {\"value\": " + Number(metric.value) +
           ", \"unit\": " + Quoted(metric.unit) + "}";
  }
  return out + "}";
}

uint64_t ParseUnsigned(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s == '\0' || *end != '\0') Usage(flag);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = ParseUnsigned(value, "--seed expects an integer");
    } else if (flag == "--seconds") {
      options.seconds =
          static_cast<double>(ParseUnsigned(value, "--seconds expects an integer"));
    } else if (flag == "--trace") {
      options.trace = ParseUnsigned(value, "--trace expects 0 or 1") != 0;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0) Usage("--seconds must be positive");
  for (const char* name : kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; the benchmark "
                   "measures the default program\n",
                   name);
      return 2;
    }
  }

  perfbench::Outcome out;
  if (options.workload == "fig3_recursive") {
    out = perfbench::RunFig3Recursive(options);
  } else if (options.workload == "adhoc_optimize") {
    out = perfbench::RunAdhocOptimize(options);
  } else if (options.workload == "serve_rw") {
    out = perfbench::RunServeRw(options);
  } else {
    Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  out.Note("fail_ratio",
           out.attempted == 0 ? 0.0
                              : static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted),
           "failed/attempted");
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "perfbench: failure: %s\n", e.c_str());
  }

  std::printf(
      "{\"meta\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"build_type\": %s, \"nproc\": %u, \"commit\": %s}}\n",
      Quoted(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      Number(options.seconds).c_str(), options.trace ? 1 : 0,
      Quoted(PERFBENCH_BUILD_TYPE).c_str(), std::thread::hardware_concurrency(),
      Quoted(commit).c_str());
  std::printf("{\"report\": %s}\n", MetricsJson(out.report).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      out.correct && out.attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed),
      MetricsJson(out.metrics).c_str());
  return 0;
}
