// rodin_serve integration tests: wire-codec round-trips, the live server
// end to end over real sockets (in-process, ephemeral port), concurrent
// clients multiplexing one engine, admission-control shedding, and the
// disconnect => cancellation guarantee — asserted via the server's plain
// atomic Stats (deliberately not obs metrics, so the assertions hold under
// RODIN_OBS=OFF builds too). The concurrency tests run under TSan in CI.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/faults.h"
#include "server/client.h"
#include "server/governor.h"
#include "server/server.h"
#include "server/wire.h"

namespace rodin::server {
namespace {

constexpr const char* kSimpleQuery =
    R"(select [n: x.name] from x in Composer where x.name = "Bach")";
constexpr const char* kScanQuery = "select [n: x.name] from x in Composer";
constexpr const char* kRecursiveQuery = R"(
relation Influencer includes
  (select [master: x.master, disciple: x, gen: 1] from x in Composer)
  union
  (select [master: i.master, disciple: x, gen: i.gen + 1]
   from i in Influencer, x in Composer where i.disciple = x.master)

select [n: j.disciple.name] from j in Influencer where j.gen >= 1
)";
// A 90,000-row answer at size 300 (40,000 at 200), far more than the socket
// buffers hold: a client that stops reading after a few rows leaves the
// worker mid-stream, and one that reads every row one frame at a time keeps
// its request in flight for a long, load-independent window.
constexpr const char* kLongAnswerQuery =
    "select [a: x.name, b: y.name] from x in Composer, y in Composer";

// ---------------------------------------------------------------- codec --

TEST(WireCodecTest, FrameHeaderRoundTrip) {
  const std::string frame = EncodeFrame(FrameType::kQuery, 42, "payload");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 7);
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &header));
  EXPECT_EQ(header.payload_length, 7u);
  EXPECT_EQ(header.type, FrameType::kQuery);
  EXPECT_EQ(header.request_id, 42u);
  EXPECT_EQ(frame.substr(kFrameHeaderBytes), "payload");
}

TEST(WireCodecTest, OversizedFrameRejected) {
  std::string frame = EncodeFrame(FrameType::kQuery, 1, "");
  // Forge a length prefix beyond the cap.
  const uint32_t huge = kMaxFramePayloadBytes + 1;
  frame[0] = static_cast<char>(huge & 0xff);
  frame[1] = static_cast<char>((huge >> 8) & 0xff);
  frame[2] = static_cast<char>((huge >> 16) & 0xff);
  frame[3] = static_cast<char>((huge >> 24) & 0xff);
  FrameHeader header;
  EXPECT_FALSE(DecodeFrameHeader(frame.data(), &header));
}

TEST(WireCodecTest, PayloadPrimitivesRoundTripAndBoundsCheck) {
  PayloadWriter w;
  w.U8(7);
  w.U32(0xdeadbeef);
  w.U64(1ull << 60);
  w.F64(-1.5);
  w.Str("hello");
  const std::string payload = w.data();

  PayloadReader r(payload.data(), payload.size());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  double f64;
  std::string s;
  ASSERT_TRUE(r.U8(&u8));
  ASSERT_TRUE(r.U32(&u32));
  ASSERT_TRUE(r.U64(&u64));
  ASSERT_TRUE(r.F64(&f64));
  ASSERT_TRUE(r.Str(&s));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 1ull << 60);
  EXPECT_EQ(f64, -1.5);
  EXPECT_EQ(s, "hello");

  // Truncation poisons the reader instead of over-reading.
  PayloadReader bad(payload.data(), 3);
  ASSERT_TRUE(bad.U8(&u8));
  EXPECT_FALSE(bad.U32(&u32));
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(bad.U64(&u64));  // stays poisoned
}

TEST(WireCodecTest, RetiredCompiledEvalFlagBitsAreIgnored) {
  // Flag bits 1 and 2 once carried a compiled-eval override. A payload that
  // still sets them decodes as if they were clear.
  QueryOptions options;
  options.bypass_plan_cache = true;
  PayloadWriter w;
  WireQueryOptions::FromQueryOptions(options).Encode(&w);
  std::string payload = w.data();
  const size_t flags_at = 8 + 8 + 4 + 4;  // deadline, budget, threads, batch
  ASSERT_GT(payload.size(), flags_at);
  payload[flags_at] = static_cast<char>(payload[flags_at] | 0x06);
  PayloadReader r(payload.data(), payload.size());
  WireQueryOptions wire;
  ASSERT_TRUE(wire.Decode(&r));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(wire.ToQueryOptions().bypass_plan_cache);
}

TEST(WireCodecTest, QueryOptionsRoundTripPreservesInheritRule) {
  QueryOptions original;
  original.query.deadline_ms = 250;
  original.query.memory_budget_pages = 1000;
  original.exec_threads = 4;
  original.bypass_plan_cache = true;
  // batch_rows stays nullopt: must survive as "inherit", not become 0.

  PayloadWriter w;
  WireQueryOptions::FromQueryOptions(original).Encode(&w);
  const std::string payload = w.data();
  PayloadReader r(payload.data(), payload.size());
  WireQueryOptions wire;
  ASSERT_TRUE(wire.Decode(&r));
  EXPECT_TRUE(r.AtEnd());

  const QueryOptions decoded = wire.ToQueryOptions();
  EXPECT_EQ(decoded.query.deadline_ms, 250u);
  EXPECT_EQ(decoded.query.memory_budget_pages, 1000u);
  ASSERT_TRUE(decoded.exec_threads.has_value());
  EXPECT_EQ(*decoded.exec_threads, 4u);
  EXPECT_FALSE(decoded.batch_rows.has_value());
  EXPECT_TRUE(decoded.bypass_plan_cache);

  QueryOptions defaults;
  PayloadWriter w2;
  WireQueryOptions::FromQueryOptions(defaults).Encode(&w2);
  const std::string payload2 = w2.data();
  PayloadReader r2(payload2.data(), payload2.size());
  WireQueryOptions wire2;
  ASSERT_TRUE(wire2.Decode(&r2));
  const QueryOptions decoded2 = wire2.ToQueryOptions();
  EXPECT_FALSE(decoded2.exec_threads.has_value());
  EXPECT_FALSE(decoded2.batch_rows.has_value());
  EXPECT_FALSE(decoded2.feedback.enabled.has_value());
  EXPECT_EQ(decoded2.feedback.drift_threshold, 0.0);
  EXPECT_EQ(decoded2.feedback.ewma_alpha, 0.0);
  EXPECT_FALSE(decoded2.query.spill.has_value());
  EXPECT_EQ(decoded2.query.spill_budget_pages, 0u);
}

TEST(WireCodecTest, EveryQueryOptionRoundTrips) {
  QueryOptions original;
  original.query.deadline_ms = 250;
  original.query.memory_budget_pages = 1000;
  original.exec_threads = 4;
  original.batch_rows = 7;
  original.bypass_plan_cache = true;
  original.feedback.enabled = true;
  original.feedback.drift_threshold = 2.5;
  original.feedback.ewma_alpha = 0.25;
  original.query.spill = true;
  original.query.spill_budget_pages = 4096;

  auto round_trip = [](const QueryOptions& options) {
    PayloadWriter w;
    WireQueryOptions::FromQueryOptions(options).Encode(&w);
    const std::string payload = w.data();
    PayloadReader r(payload.data(), payload.size());
    WireQueryOptions wire;
    EXPECT_TRUE(wire.Decode(&r));
    EXPECT_TRUE(r.AtEnd());
    return wire.ToQueryOptions();
  };

  const QueryOptions decoded = round_trip(original);
  EXPECT_EQ(decoded.query.deadline_ms, 250u);
  EXPECT_EQ(decoded.query.memory_budget_pages, 1000u);
  EXPECT_EQ(decoded.exec_threads, std::optional<size_t>(4));
  EXPECT_EQ(decoded.batch_rows, std::optional<size_t>(7));
  EXPECT_TRUE(decoded.bypass_plan_cache);
  EXPECT_EQ(decoded.feedback.enabled, std::optional<bool>(true));
  EXPECT_EQ(decoded.feedback.drift_threshold, 2.5);
  EXPECT_EQ(decoded.feedback.ewma_alpha, 0.25);
  EXPECT_EQ(decoded.query.spill, std::optional<bool>(true));
  EXPECT_EQ(decoded.query.spill_budget_pages, 4096u);

  // An explicit "off" is distinct from "inherit" for both tri-states, and a
  // budget-only spill block keeps the spill tri-state as inherit.
  QueryOptions off;
  off.feedback.enabled = false;
  off.query.spill = false;
  const QueryOptions decoded_off = round_trip(off);
  EXPECT_EQ(decoded_off.feedback.enabled, std::optional<bool>(false));
  EXPECT_EQ(decoded_off.query.spill, std::optional<bool>(false));
  EXPECT_EQ(decoded_off.query.spill_budget_pages, 0u);

  QueryOptions budget_only;
  budget_only.query.spill_budget_pages = 7;
  const QueryOptions decoded_budget = round_trip(budget_only);
  EXPECT_FALSE(decoded_budget.query.spill.has_value());
  EXPECT_EQ(decoded_budget.query.spill_budget_pages, 7u);
}

TEST(WireCodecTest, ValuesRoundTrip) {
  PayloadWriter w;
  EncodeValue(Value::Null(), &w);
  EncodeValue(Value::Bool(true), &w);
  EncodeValue(Value::Int(-12345), &w);
  EncodeValue(Value::Real(2.75), &w);
  EncodeValue(Value::Str("Bach"), &w);
  EncodeValue(Value::Ref(Oid{3, 9}), &w);  // renders as a string

  const std::string payload = w.data();
  PayloadReader r(payload.data(), payload.size());
  Value v;
  ASSERT_TRUE(DecodeValue(&r, &v));
  EXPECT_TRUE(v.is_null());
  ASSERT_TRUE(DecodeValue(&r, &v));
  EXPECT_TRUE(v.is_bool());
  EXPECT_TRUE(v.AsBool());
  ASSERT_TRUE(DecodeValue(&r, &v));
  EXPECT_EQ(v.AsInt(), -12345);
  ASSERT_TRUE(DecodeValue(&r, &v));
  EXPECT_EQ(v.AsReal(), 2.75);
  ASSERT_TRUE(DecodeValue(&r, &v));
  EXPECT_EQ(v.AsString(), "Bach");
  ASSERT_TRUE(DecodeValue(&r, &v));
  EXPECT_TRUE(v.is_string());  // rendered ref decodes as a string
  EXPECT_EQ(v.AsString(), Value::Ref(Oid{3, 9}).ToString());
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireCodecTest, MutationValueNestingDepthCapped) {
  auto nested = [](int depth) {
    Value v = Value::Int(1);
    for (int i = 0; i < depth; ++i) {
      std::vector<Value> elems;
      elems.push_back(std::move(v));
      v = Value::MakeSet(std::move(elems));
    }
    return v;
  };
  auto decodes = [](const MutationBatch& batch) {
    PayloadWriter w;
    EncodeMutationBatch(batch, &w);
    const std::string payload = w.data();
    PayloadReader r(payload.data(), payload.size());
    MutationBatch out;
    return DecodeMutationBatch(&r, &out) && r.AtEnd();
  };
  MutationBatch shallow;
  shallow.Insert("Composer", {{"x", nested(8)}});
  EXPECT_TRUE(decodes(shallow));
  // A hostile frame of nothing but set headers is ~5 bytes per level, so
  // the 16 MiB payload cap still allows millions of levels: the decoder
  // must refuse past its depth cap instead of recursing off the stack.
  MutationBatch hostile;
  hostile.Insert("Composer", {{"x", nested(64)}});
  EXPECT_FALSE(decodes(hostile));
}

TEST(WireCodecTest, StatusPayloadRoundTripKeepsDetailAndRetryable) {
  Status overloaded =
      Status::Error(Status::Code::kOverloaded, "server overloaded");
  overloaded.detail = 64;
  const std::string payload = EncodeStatusPayload(overloaded, 0, -1);
  PayloadReader r(payload.data(), payload.size());
  Status decoded;
  uint64_t rows;
  double cost;
  ASSERT_TRUE(DecodeStatusPayload(&r, &decoded, &rows, &cost));
  EXPECT_EQ(decoded.code, Status::Code::kOverloaded);
  EXPECT_EQ(decoded.detail, 64u);
  EXPECT_TRUE(decoded.retryable());
  EXPECT_EQ(decoded.message, "server overloaded");
  EXPECT_EQ(cost, -1.0);
}

// The wire codes are protocol constants shared with every client ever
// shipped: renumbering the table in common/status.h is a breaking change
// this test is meant to catch.
TEST(WireCodecTest, WireCodeTableIsStable) {
  auto wire = [](Status::Code code) {
    return WireCodeForStatus(Status::Error(code, ""));
  };
  EXPECT_EQ(WireCodeForStatus(Status::Ok()), 0);
  EXPECT_EQ(wire(Status::Code::kParse), 1);
  EXPECT_EQ(wire(Status::Code::kSemantic), 2);
  EXPECT_EQ(wire(Status::Code::kOptimize), 3);
  EXPECT_EQ(wire(Status::Code::kExec), 4);
  EXPECT_EQ(wire(Status::Code::kCancelled), 5);
  EXPECT_EQ(wire(Status::Code::kDeadlineExceeded), 6);
  EXPECT_EQ(wire(Status::Code::kResourceExhausted), 7);
  EXPECT_EQ(wire(Status::Code::kFault), 8);
  EXPECT_EQ(wire(Status::Code::kInternal), 9);
  EXPECT_EQ(wire(Status::Code::kInvalidArgument), 10);
  EXPECT_EQ(wire(Status::Code::kOverloaded), 11);

  bool known = true;
  EXPECT_EQ(StatusCodeFromWire(200, &known), Status::Code::kInternal);
  EXPECT_FALSE(known);
  for (uint8_t code = 0; code <= 11; ++code) {
    known = false;
    StatusCodeFromWire(code, &known);
    EXPECT_TRUE(known) << static_cast<int>(code);
  }
}

// ------------------------------------------------------------- governor --

TEST(GovernorTest, ShedsBeyondCapacityWithTypedStatus) {
  Governor governor(2);
  EXPECT_TRUE(governor.Admit().ok());
  EXPECT_TRUE(governor.Admit().ok());
  const Status shed = governor.Admit();
  EXPECT_EQ(shed.code, Status::Code::kOverloaded);
  EXPECT_TRUE(shed.retryable());
  EXPECT_EQ(shed.detail, 2u);  // in-flight count rides in detail
  governor.Release();
  EXPECT_TRUE(governor.Admit().ok());

  const Governor::Snapshot snapshot = governor.snapshot();
  EXPECT_EQ(snapshot.admitted, 3u);
  EXPECT_EQ(snapshot.shed, 1u);
  EXPECT_EQ(snapshot.in_flight, 2u);
  EXPECT_EQ(snapshot.peak_in_flight, 2u);
}

// --------------------------------------------------------------- server --

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(uint32_t size, size_t workers, size_t max_in_flight) {
    EngineOptions engine_options;
    engine_options.size = size;
    Status status;
    engine_ = EngineHandle::Create(engine_options, &status);
    ASSERT_NE(engine_, nullptr) << status.ToString();

    ServerOptions server_options;
    server_options.port = 0;  // ephemeral
    server_options.workers = workers;
    server_options.max_in_flight = max_in_flight;
    server_ = Server::Start(engine_.get(), server_options, &status);
    ASSERT_NE(server_, nullptr) << status.ToString();
  }

  Client Connected() {
    Client client;
    const Status s = client.Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(s.ok()) << s.ToString();
    return client;
  }

  /// Polls `pred` against the server stats until true or the wall-clock
  /// deadline passes. The cap is deliberately huge: on a single-core,
  /// oversubscribed runner a cancelled query can need tens of seconds of
  /// wall clock just to reach its next poll point and retire. A passing
  /// test returns on the first true poll and never waits it out.
  bool EventuallyTrue(const std::function<bool(const Server::Stats&)>& pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(90);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred(server_->stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred(server_->stats());
  }

  std::unique_ptr<EngineHandle> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, HelloHandshakeAssignsConnectionIds) {
  StartServer(/*size=*/40, /*workers=*/2, /*max_in_flight=*/4);
  Client a = Connected();
  Client b = Connected();
  EXPECT_NE(a.connection_id(), 0u);
  EXPECT_NE(b.connection_id(), 0u);
  EXPECT_NE(a.connection_id(), b.connection_id());
  EXPECT_EQ(server_->stats().connections_accepted, 2u);
  a.Goodbye();
  b.Goodbye();
  EXPECT_TRUE(EventuallyTrue(
      [](const Server::Stats& s) { return s.connections_active == 0; }));
}

TEST_F(ServerTest, QueryRoundTripMatchesEmbeddedSession) {
  StartServer(40, 2, 4);
  Client client = Connected();
  const ClientResult result = client.Query(kSimpleQuery);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  ASSERT_EQ(result.columns, std::vector<std::string>{"n"});
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsString(), "Bach");
  EXPECT_EQ(result.rows_produced, 1u);
  EXPECT_EQ(result.rows_streamed, 1u);
  EXPECT_GE(result.measured_cost, 0);

  // The same engine answers identically through the embedding API.
  std::unique_ptr<Session> session = engine_->NewSession();
  const QueryRun run = session->Run(kSimpleQuery);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run.answer.rows.size(), result.rows.size());
  EXPECT_EQ(run.answer.rows[0][0].Compare(result.rows[0][0]), 0);

  const Server::Stats stats = server_->stats();
  EXPECT_EQ(stats.queries_ok, 1u);
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_EQ(stats.rows_streamed, 1u);
}

TEST_F(ServerTest, RecursiveQueryStreamsAllRows) {
  StartServer(60, 2, 4);
  Client client = Connected();
  const ClientResult result = client.Query(kRecursiveQuery);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_GT(result.rows.size(), 50u);
  EXPECT_EQ(result.rows_streamed, result.rows_produced);

  std::unique_ptr<Session> session = engine_->NewSession();
  const QueryRun run = session->Run(kRecursiveQuery);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run.answer.rows.size(), result.rows.size());
  for (size_t i = 0; i < run.answer.rows.size(); ++i) {
    EXPECT_EQ(run.answer.rows[i][0].Compare(result.rows[i][0]), 0) << i;
  }
}

TEST_F(ServerTest, PrepareExecuteHitsSharedPlanCache) {
  StartServer(40, 2, 4);
  Client client = Connected();
  uint64_t statement_id = 0;
  ASSERT_TRUE(client.Prepare(kSimpleQuery, &statement_id).ok());
  EXPECT_NE(statement_id, 0u);

  const ClientResult first = client.Execute(statement_id);
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  const ClientResult second = client.Execute(statement_id);
  ASSERT_TRUE(second.ok()) << second.status.ToString();
  ASSERT_EQ(first.rows.size(), second.rows.size());
  EXPECT_EQ(first.rows[0][0].Compare(second.rows[0][0]), 0);

  // The server's sessions share the engine's plan cache, so the repeat
  // execution is a cache hit — unless caching is disabled process-wide or
  // bypassed because the fault injector is live (RODIN_FAULTS).
  if (PlanCacheEnabledByEnv() && !FaultInjector::Global().enabled()) {
    EXPECT_GE(engine_->plan_cache()->stats().hits, 1u);
  }
}

TEST_F(ServerTest, ErrorTaxonomyTravelsTheWire) {
  StartServer(40, 2, 4);
  Client client = Connected();

  const ClientResult parse = client.Query("select [n x.name] from Composer");
  EXPECT_EQ(parse.status.code, Status::Code::kParse);
  EXPECT_FALSE(parse.status.message.empty());

  const ClientResult unknown = client.Execute(/*statement_id=*/999);
  EXPECT_EQ(unknown.status.code, Status::Code::kInvalidArgument);

  // The connection survives request-level errors.
  const ClientResult ok = client.Query(kSimpleQuery);
  EXPECT_TRUE(ok.ok()) << ok.status.ToString();
}

TEST_F(ServerTest, DeadlineTravelsTheWire) {
  StartServer(120, 2, 4);
  Client client = Connected();
  QueryOptions options;
  options.query.deadline_ms = 1;
  const ClientResult result = client.Query(kRecursiveQuery, options);
  // Either the deadline tripped server-side or the tiny engine beat the
  // clock; both are legal — anything else is a failure.
  if (!result.ok()) {
    EXPECT_EQ(result.status.code, Status::Code::kDeadlineExceeded)
        << result.status.ToString();
  }
}

TEST_F(ServerTest, ShedUnderLoadReturnsTypedOverloaded) {
  StartServer(200, /*workers=*/2, /*max_in_flight=*/1);

  // Occupy the single admission slot with a long-streaming query...
  std::thread occupant([&] {
    Client slow = Connected();
    QueryOptions options;
    options.batch_rows = 1;
    const ClientResult r = slow.Query(kLongAnswerQuery, options);
    EXPECT_TRUE(r.ok()) << r.status.ToString();
    slow.Goodbye();
  });
  ASSERT_TRUE(EventuallyTrue(
      [](const Server::Stats& s) { return s.admission.in_flight >= 1; }));

  // ...then get shed, typed and retryable, with the in-flight count in
  // detail — never a queue, never a hang.
  Client shed_client = Connected();
  const ClientResult shed = shed_client.Query(kSimpleQuery);
  occupant.join();
  ASSERT_EQ(shed.status.code, Status::Code::kOverloaded)
      << shed.status.ToString();
  EXPECT_TRUE(shed.status.retryable());
  EXPECT_EQ(shed.status.detail, 1u);
  EXPECT_GE(server_->stats().admission.shed, 1u);

  // After the occupant drains, the slot frees up and the same connection
  // can retry successfully — the shed was non-destructive.
  ASSERT_TRUE(EventuallyTrue(
      [](const Server::Stats& s) { return s.admission.in_flight == 0; }));
  const ClientResult retry = shed_client.Query(kSimpleQuery);
  EXPECT_TRUE(retry.ok()) << retry.status.ToString();
}

TEST_F(ServerTest, DisconnectMidStreamCancelsTheQuery) {
  StartServer(300, 2, 4);
  Client client = Connected();
  QueryOptions options;
  options.batch_rows = 1;  // one row per ROWS frame: a long streaming window
  // Abruptly close the socket after two rows of a 90,000-row answer. The
  // I/O thread must observe the hangup and trip the query's CancelToken
  // while the worker is still streaming. (The recursive query's few hundred
  // rows fit in the socket buffers, so a fast worker could retire it before
  // the client even closes.)
  const ClientResult result =
      client.Query(kLongAnswerQuery, options, /*stop_after_rows=*/2);
  EXPECT_EQ(result.status.code, Status::Code::kCancelled);
  EXPECT_EQ(result.rows_streamed, 2u);

  // The worker retires the orphaned request in one ordered burst: the
  // admission slot is released, then `disconnect_cancels` and
  // `queries_failed` (the run is accounted kCancelled, never ok) are
  // counted — so a single poll can wait for all three at once.
  EXPECT_TRUE(EventuallyTrue([](const Server::Stats& s) {
    return s.disconnect_cancels >= 1 && s.queries_failed >= 1 &&
           s.admission.in_flight == 0;
  })) << "disconnect did not cancel the in-flight query";
}

TEST_F(ServerTest, CancelFrameStopsARunningQuery) {
  StartServer(300, 2, 4);
  Client client = Connected();
  QueryOptions options;
  options.batch_rows = 1;

  std::atomic<bool> done{false};
  std::thread canceller([&] {
    // Wait until the query is in flight, then cancel it over the wire.
    for (int i = 0; i < 500 && !done.load(); ++i) {
      if (server_->stats().admission.in_flight >= 1) {
        client.CancelActive();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  const ClientResult result = client.Query(kRecursiveQuery, options);
  done.store(true);
  canceller.join();
  // Either the CANCEL landed mid-run (kCancelled) or the query beat it.
  if (!result.ok()) {
    EXPECT_EQ(result.status.code, Status::Code::kCancelled)
        << result.status.ToString();
    EXPECT_GE(server_->stats().cancel_frames, 1u);
  }
}

// The TSan stress: many client threads hammering a small session pool with
// a mix of ad-hoc queries and prepared statements, retrying sheds. Verifies
// thread-safety of the whole stack (epoll loop, governor, session pool,
// shared plan cache, per-connection write paths) plus result correctness.
TEST_F(ServerTest, ConcurrentClientsStressBitIdenticalAnswers) {
  StartServer(40, /*workers=*/4, /*max_in_flight=*/4);

  // The expected answer, from the embedding API.
  std::unique_ptr<Session> session = engine_->NewSession();
  const QueryRun expected = session->Run(kScanQuery);
  ASSERT_TRUE(expected.ok());
  const size_t expected_rows = expected.answer.rows.size();
  ASSERT_GT(expected_rows, 0u);

  constexpr size_t kThreads = 8;
  constexpr size_t kRequests = 10;
  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> mismatch{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
      uint64_t statement_id = 0;
      if (t % 2 == 1) {
        Status s = client.Prepare(kScanQuery, &statement_id);
        if (!s.ok()) return;
      }
      for (size_t i = 0; i < kRequests; ++i) {
        ClientResult result;
        for (int attempt = 0; attempt < 300; ++attempt) {
          result = statement_id != 0 ? client.Execute(statement_id)
                                     : client.Query(kScanQuery);
          if (!result.status.retryable()) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (!result.ok()) continue;
        ++ok_count;
        if (result.rows.size() != expected_rows) {
          ++mismatch;
          continue;
        }
        for (size_t row = 0; row < expected_rows; ++row) {
          if (expected.answer.rows[row][0].Compare(result.rows[row][0]) !=
              0) {
            ++mismatch;
            break;
          }
        }
      }
      client.Goodbye();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatch.load(), 0u);
  EXPECT_EQ(ok_count.load(), kThreads * kRequests)
      << "some requests exhausted their retries";
  const Server::Stats stats = server_->stats();
  EXPECT_EQ(stats.queries_ok, ok_count.load());
  EXPECT_EQ(stats.admission.in_flight, 0u);
  EXPECT_LE(stats.admission.peak_in_flight, 4u);
}

TEST_F(ServerTest, StopWhileQueriesInFlightDoesNotHang) {
  StartServer(300, 2, 4);
  Client client = Connected();
  QueryOptions options;
  options.batch_rows = 1;
  std::thread runner([&] {
    // The reply is either a clean answer (server raced ahead) or an error /
    // closed connection — the only hard requirement is no hang.
    client.Query(kLongAnswerQuery, options);
  });
  ASSERT_TRUE(EventuallyTrue(
      [](const Server::Stats& s) { return s.admission.in_flight >= 1; }));
  server_->Stop();
  runner.join();
}

// --------------------------------------------------- raw-socket protocol --

/// Minimal raw client for out-of-spec behaviour the Client class refuses
/// to produce.
class RawConnection {
 public:
  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  ~RawConnection() {
    if (fd_ >= 0) close(fd_);
  }

  bool Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = send(fd_, bytes.data() + off, bytes.size() - off, 0);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one frame; false on EOF/error.
  bool ReadFrame(FrameHeader* header, std::string* payload) {
    char head[kFrameHeaderBytes];
    if (!ReadExact(head, sizeof(head))) return false;
    if (!DecodeFrameHeader(head, header)) return false;
    payload->resize(header->payload_length);
    return payload->empty() || ReadExact(payload->data(), payload->size());
  }

 private:
  bool ReadExact(char* out, size_t n) {
    size_t off = 0;
    while (off < n) {
      const ssize_t r = recv(fd_, out + off, n - off, 0);
      if (r <= 0) return false;
      off += static_cast<size_t>(r);
    }
    return true;
  }

  int fd_ = -1;
};

TEST_F(ServerTest, RawProtocolRejectsQueryBeforeHello) {
  StartServer(40, 2, 4);
  RawConnection raw;
  ASSERT_TRUE(raw.Connect(server_->port()));
  PayloadWriter w;
  w.Str(kSimpleQuery);
  WireQueryOptions().Encode(&w);
  ASSERT_TRUE(raw.Send(EncodeFrame(FrameType::kQuery, 1, w.Take())));

  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(raw.ReadFrame(&header, &payload));
  EXPECT_EQ(header.type, FrameType::kStatus);
  PayloadReader r(payload.data(), payload.size());
  Status status;
  uint64_t rows;
  double cost;
  ASSERT_TRUE(DecodeStatusPayload(&r, &status, &rows, &cost));
  EXPECT_EQ(status.code, Status::Code::kInvalidArgument);
  // The server then drops the connection.
  EXPECT_FALSE(raw.ReadFrame(&header, &payload));
  EXPECT_TRUE(EventuallyTrue(
      [](const Server::Stats& s) { return s.protocol_errors >= 1; }));
}

TEST_F(ServerTest, RawProtocolRefusesPipelinedSecondRequest) {
  StartServer(200, 2, 4);
  RawConnection raw;
  ASSERT_TRUE(raw.Connect(server_->port()));
  PayloadWriter hello;
  hello.U32(kProtocolVersion);
  ASSERT_TRUE(raw.Send(EncodeFrame(FrameType::kHello, 1, hello.Take())));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(raw.ReadFrame(&header, &payload));
  ASSERT_EQ(header.type, FrameType::kHelloOk);

  // Two QUERY frames back-to-back without waiting: the second must be
  // refused with invalid_argument while the first still answers.
  PayloadWriter q1;
  q1.Str(kRecursiveQuery);
  WireQueryOptions wire;
  wire.batch_rows = 1;
  wire.Encode(&q1);
  PayloadWriter q2;
  q2.Str(kSimpleQuery);
  WireQueryOptions().Encode(&q2);
  ASSERT_TRUE(raw.Send(EncodeFrame(FrameType::kQuery, 10, q1.Take()) +
                       EncodeFrame(FrameType::kQuery, 11, q2.Take())));

  bool saw_refusal = false;
  bool saw_first_terminal = false;
  while ((!saw_refusal || !saw_first_terminal) &&
         raw.ReadFrame(&header, &payload)) {
    if (header.type != FrameType::kStatus) continue;
    PayloadReader r(payload.data(), payload.size());
    Status status;
    uint64_t rows;
    double cost;
    ASSERT_TRUE(DecodeStatusPayload(&r, &status, &rows, &cost));
    if (header.request_id == 11) {
      EXPECT_EQ(status.code, Status::Code::kInvalidArgument);
      saw_refusal = true;
    } else if (header.request_id == 10) {
      EXPECT_TRUE(status.ok()) << status.ToString();
      saw_first_terminal = true;
    }
  }
  EXPECT_TRUE(saw_refusal);
  EXPECT_TRUE(saw_first_terminal);
}

// MUTATE obeys the same one-request-in-flight rule: pipelined behind a
// busy request it is refused instead of staged — a MUTATE racing a COMMIT
// worker could otherwise land in the very transaction being committed.
TEST_F(ServerTest, RawProtocolRefusesPipelinedMutateWhileBusy) {
  StartServer(200, 2, 4);
  RawConnection raw;
  ASSERT_TRUE(raw.Connect(server_->port()));
  PayloadWriter hello;
  hello.U32(kProtocolVersion);
  ASSERT_TRUE(raw.Send(EncodeFrame(FrameType::kHello, 1, hello.Take())));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(raw.ReadFrame(&header, &payload));
  ASSERT_EQ(header.type, FrameType::kHelloOk);

  PayloadWriter q;
  q.Str(kRecursiveQuery);
  WireQueryOptions wire;
  wire.batch_rows = 1;
  wire.Encode(&q);
  MutationBatch batch;
  batch.Insert("Composer", {{"name", Value::Str("pipelined_mutate")},
                            {"master", Value::Null()}});
  PayloadWriter m;
  EncodeMutationBatch(batch, &m);
  ASSERT_TRUE(raw.Send(EncodeFrame(FrameType::kQuery, 20, q.Take()) +
                       EncodeFrame(FrameType::kMutate, 21, m.Take())));

  bool mutate_refused = false;
  bool query_ok = false;
  while ((!mutate_refused || !query_ok) && raw.ReadFrame(&header, &payload)) {
    if (header.type != FrameType::kStatus) continue;
    PayloadReader r(payload.data(), payload.size());
    Status status;
    uint64_t rows;
    double cost;
    ASSERT_TRUE(DecodeStatusPayload(&r, &status, &rows, &cost));
    if (header.request_id == 21) {
      EXPECT_EQ(status.code, Status::Code::kInvalidArgument);
      mutate_refused = true;
    } else if (header.request_id == 20) {
      EXPECT_TRUE(status.ok()) << status.ToString();
      query_ok = true;
    }
  }
  EXPECT_TRUE(mutate_refused);
  EXPECT_TRUE(query_ok);
  EXPECT_EQ(server_->stats().mutates_staged, 0u);
}

// ---------------------------------------------------------- wire writes --

TEST_F(ServerTest, MutateCommitRoundTripAndVisibility) {
  StartServer(200, 2, 4);
  Client client = Connected();

  // One batch: a fresh composer plus a slot-only rename of Composer@0 (the
  // client never learns server-side class ids — class_id 0xFFFFFFFF means
  // "slot N of this op's extent", resolved in Server::HandleMutate).
  MutationBatch batch;
  batch.Insert("Composer", {{"name", Value::Str("wire_composer")},
                            {"master", Value::Null()}});
  batch.Update("Composer", Oid{UINT32_MAX, 0},
               {{"name", Value::Str("wire_renamed_0")}});
  uint64_t staged = 0;
  Status s = client.Mutate(batch, &staged);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(staged, 2u);

  uint64_t applied = 0, stats_version = 0;
  s = client.Commit(&applied, &stats_version);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(applied, 2u);
  EXPECT_GE(stats_version, 2u);

  // Both effects are visible to a plain QUERY on the same engine.
  ClientResult inserted = client.Query(
      R"(select [n: x.name] from x in Composer where x.name = "wire_composer")");
  ASSERT_TRUE(inserted.ok()) << inserted.status.ToString();
  EXPECT_EQ(inserted.rows.size(), 1u);
  ClientResult renamed = client.Query(
      R"(select [n: x.name] from x in Composer where x.name = "wire_renamed_0")");
  ASSERT_TRUE(renamed.ok()) << renamed.status.ToString();
  EXPECT_EQ(renamed.rows.size(), 1u);

  EXPECT_EQ(server_->stats().mutates_staged, 1u);
  EXPECT_EQ(server_->stats().commits_ok, 1u);
  EXPECT_EQ(server_->stats().commits_failed, 0u);
  client.Goodbye();
}

TEST_F(ServerTest, MutateConflictAcrossConnectionsIsRetryable) {
  StartServer(200, 2, 4);
  Client writer = Connected();
  Client rival = Connected();

  MutationBatch batch;
  batch.Insert("Composer", {{"name", Value::Str("first_writer")},
                            {"master", Value::Null()}});
  ASSERT_TRUE(writer.Mutate(batch).ok());

  // The single write slot is held by `writer`'s open transaction: the
  // rival's MUTATE is refused with a retryable conflict, not a failure.
  MutationBatch rival_batch;
  rival_batch.Insert("Composer", {{"name", Value::Str("second_writer")},
                                  {"master", Value::Null()}});
  const Status refused = rival.Mutate(rival_batch);
  EXPECT_EQ(refused.code, Status::Code::kConflict);
  EXPECT_TRUE(refused.retryable());

  // Once the holder commits, the retry goes through.
  ASSERT_TRUE(writer.Commit().ok());
  ASSERT_TRUE(rival.Mutate(rival_batch).ok());
  ASSERT_TRUE(rival.Commit().ok());

  ClientResult both = writer.Query(
      R"(select [n: x.name] from x in Composer
         where x.name = "first_writer" or x.name = "second_writer")");
  ASSERT_TRUE(both.ok()) << both.status.ToString();
  EXPECT_EQ(both.rows.size(), 2u);
  writer.Goodbye();
  rival.Goodbye();
}

// The server speaks exactly kProtocolVersion: an older or newer HELLO is
// refused with a typed STATUS and the connection is closed.
TEST_F(ServerTest, RawProtocolRefusesOtherHelloVersions) {
  StartServer(200, 2, 4);
  for (const uint32_t version : {kProtocolVersion - 1, kProtocolVersion + 1}) {
    SCOPED_TRACE("HELLO " + std::to_string(version));
    RawConnection raw;
    ASSERT_TRUE(raw.Connect(server_->port()));
    PayloadWriter hello;
    hello.U32(version);
    ASSERT_TRUE(raw.Send(EncodeFrame(FrameType::kHello, 1, hello.Take())));
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(raw.ReadFrame(&header, &payload));
    ASSERT_EQ(header.type, FrameType::kStatus);
    PayloadReader r(payload.data(), payload.size());
    Status status;
    uint64_t rows;
    double cost;
    ASSERT_TRUE(DecodeStatusPayload(&r, &status, &rows, &cost));
    EXPECT_EQ(status.code, Status::Code::kInvalidArgument);
    EXPECT_NE(status.message.find("unsupported protocol version"),
              std::string::npos)
        << status.message;
    EXPECT_FALSE(raw.ReadFrame(&header, &payload));
  }
  EXPECT_TRUE(EventuallyTrue(
      [](const Server::Stats& s) { return s.protocol_errors >= 2; }));
}

TEST_F(ServerTest, DisconnectRollsBackStagedTransaction) {
  StartServer(200, 2, 4);
  {
    Client doomed = Connected();
    MutationBatch batch;
    batch.Insert("Composer", {{"name", Value::Str("never_committed")},
                              {"master", Value::Null()}});
    ASSERT_TRUE(doomed.Mutate(batch).ok());
    doomed.Close();  // vanishes with the write slot held
  }
  ASSERT_TRUE(EventuallyTrue(
      [](const Server::Stats& s) { return s.connections_active == 0; }));

  // The disconnect rolled the staged transaction back: the write slot is
  // free for the next connection, and nothing leaked into the data.
  Client next = Connected();
  MutationBatch batch;
  batch.Insert("Composer", {{"name", Value::Str("after_crash")},
                            {"master", Value::Null()}});
  ASSERT_TRUE(next.Mutate(batch).ok());
  ASSERT_TRUE(next.Commit().ok());
  ClientResult ghost = next.Query(
      R"(select [n: x.name] from x in Composer
         where x.name = "never_committed")");
  ASSERT_TRUE(ghost.ok());
  EXPECT_TRUE(ghost.rows.empty());
  ClientResult landed = next.Query(
      R"(select [n: x.name] from x in Composer where x.name = "after_crash")");
  ASSERT_TRUE(landed.ok());
  EXPECT_EQ(landed.rows.size(), 1u);
  next.Goodbye();
}

}  // namespace
}  // namespace rodin::server
