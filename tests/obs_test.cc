// Observability primitives: sharded counters under concurrency, the
// registry, span tracer structure and exports, and the Status type.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/decision.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rodin {
namespace {

TEST(StatusTest, OkAndError) {
  const Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "ok");

  const Status err =
      Status::Error(Status::Code::kParse, "bad token", 3, 14);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.line, 3u);
  EXPECT_EQ(err.col, 14u);
  EXPECT_NE(err.ToString().find("[parse]"), std::string::npos);
  EXPECT_NE(err.ToString().find("bad token"), std::string::npos);

  // The taxonomy's budget/fault codes and their CLI exit-code mapping.
  EXPECT_TRUE(Status::Error(Status::Code::kFault, "f").retryable());
  EXPECT_FALSE(Status::Error(Status::Code::kExec, "e").retryable());
  EXPECT_EQ(ExitCodeForStatus(Status::Ok()), 0);
  EXPECT_EQ(ExitCodeForStatus(err), 3);
  EXPECT_EQ(
      ExitCodeForStatus(Status::Error(Status::Code::kCancelled, "c")), 7);
  EXPECT_EQ(ExitCodeForStatus(
                Status::Error(Status::Code::kDeadlineExceeded, "d")),
            8);
  EXPECT_EQ(ExitCodeForStatus(
                Status::Error(Status::Code::kResourceExhausted, "r")),
            9);
  EXPECT_EQ(ExitCodeForStatus(Status::Error(Status::Code::kFault, "f")), 10);
  EXPECT_EQ(
      ExitCodeForStatus(Status::Error(Status::Code::kInternal, "i")), 11);
}

TEST(MetricsTest, CounterAddsAcrossThreads) {
  obs::Counter c("test.counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  if (obs::kObsEnabled) {
    EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
  } else {
    EXPECT_EQ(c.value(), 0u);
  }
}

TEST(MetricsTest, RegistryReturnsStablePointersAndSamples) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* a = reg.GetCounter("rodin.test.registry_counter");
  obs::Counter* b = reg.GetCounter("rodin.test.registry_counter");
  EXPECT_EQ(a, b);
  a->Add(3);

  bool found_counter = false;
  for (const obs::MetricsRegistry::Sample& s : reg.Samples()) {
    if (s.name == "rodin.test.registry_counter") {
      found_counter = true;
      if (obs::kObsEnabled) {
        EXPECT_GE(s.value, 3u);
      }
    }
  }
  EXPECT_TRUE(found_counter);
  EXPECT_FALSE(reg.ToString().empty());
}

#if RODIN_OBS_ENABLED

TEST(TracerTest, SpansNestAndExport) {
  obs::Tracer tracer;
  const uint64_t outer = tracer.Begin("optimize", "optimizer");
  const uint64_t inner = tracer.Begin("rewrite", "optimizer");
  tracer.AddArg(inner, "views", std::string("2"));
  tracer.End(inner);
  tracer.Instant("push-sel", "transformPT", {{"before_cost", "10"}});
  tracer.End(outer);
  const std::shared_ptr<obs::Trace> trace = tracer.Finish();

  ASSERT_EQ(trace->events().size(), 3u);
  EXPECT_TRUE(trace->HasSpan("optimize"));
  EXPECT_TRUE(trace->HasSpan("rewrite"));
  EXPECT_FALSE(trace->HasSpan("nonexistent"));

  // Chrome trace_event export: one complete event per span, instants as
  // "i", valid-ish JSON shape.
  const std::string json = trace->ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rewrite\""), std::string::npos);
  EXPECT_NE(json.find("\"views\":\"2\""), std::string::npos);

  const std::string tree = trace->ToTreeString();
  EXPECT_NE(tree.find("optimize"), std::string::npos);
  EXPECT_NE(tree.find("  rewrite"), std::string::npos);  // indented child
}

TEST(TracerTest, DurationsAreMonotone) {
  obs::Tracer tracer;
  const uint64_t id = tracer.Begin("work", "test");
  tracer.End(id);
  const auto trace = tracer.Finish();
  ASSERT_EQ(trace->events().size(), 1u);
  EXPECT_GE(trace->events()[0].dur_us, 0.0);
  EXPECT_GE(trace->events()[0].ts_us, 0.0);
}

TEST(TracerTest, JsonEscapesControlAndQuoteCharacters) {
  obs::Tracer tracer;
  const uint64_t id = tracer.Begin("weird \"name\"\n", "test");
  tracer.End(id);
  const std::string json = tracer.Finish()->ToChromeJson();
  EXPECT_NE(json.find("\\\"name\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
}

TEST(TracerTest, CapsEventsInsteadOfGrowingUnbounded) {
  obs::Tracer tracer;
  for (size_t i = 0; i < obs::Tracer::kMaxEvents + 10; ++i) {
    tracer.Instant("e", "test");
  }
  const auto trace = tracer.Finish();
  EXPECT_EQ(trace->events().size(), obs::Tracer::kMaxEvents);
  EXPECT_EQ(trace->dropped(), 10u);
}

#else  // !RODIN_OBS_ENABLED

TEST(TracerTest, CompiledOutTracerIsInert) {
  obs::Tracer tracer;
  const uint64_t id = tracer.Begin("anything", "test");
  tracer.End(id);
  tracer.Instant("e", "test");
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_TRUE(tracer.Finish()->events().empty());
}

#endif  // RODIN_OBS_ENABLED

TEST(DecisionLogTest, AggregatesAndFormats) {
  DecisionLog log;
  log.moves.push_back(MoveDecision{"swap-ej", 100, 90, true, 0});
  log.moves.push_back(MoveDecision{"sel-down", 90, 95, false, 1});
  PushDecision final_push;
  final_push.kind = "push-vs-unpushed";
  final_push.pushed_cost = 40;
  final_push.unpushed_cost = 80;
  final_push.chose_push = true;
  log.pushes.push_back(final_push);

  EXPECT_EQ(log.moves_accepted(), 1u);
  const std::string s = log.ToString();
  EXPECT_NE(s.find("push-vs-unpushed"), std::string::npos);
  EXPECT_NE(s.find("moves: 2 tried, 1 accepted"), std::string::npos);
  EXPECT_NE(s.find("pushed=40.0"), std::string::npos);
  EXPECT_NE(s.find("unpushed=80.0"), std::string::npos);
}

}  // namespace
}  // namespace rodin
