// Observability layer: tracing must never change results (byte-identity
// differential across every route and thread width), aborted queries must
// still export well-formed trace JSON, EXPLAIN ANALYZE must annotate
// executed plans with wall time, and abort causes must surface in .stats
// and the metrics registry.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault_injection.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "query/parser.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

// Minimal structural JSON check: balanced braces/brackets outside strings,
// valid escape handling, non-empty, object at top level. Catches the
// realistic failure modes of hand-emitted JSON (truncated output, an
// unescaped quote in a span detail, a trailing comma is NOT caught — the CI
// job runs python3 -m json.tool for full validation).
bool LooksLikeWellFormedJson(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty() && !s.empty() && s.front() == '{';
}

const char* kDatalogTc =
    "path(x, y) :- E(x, y).\n"
    "path(x, y) :- path(x, z), E(z, y).\n"
    "@goal path.\n";

// One query per engine route (acyclic Yannakakis, cyclic/WCOJ, Theorem 2
// color coding, UCQ expansion, Datalog fixpoint, active-domain algebra).
struct RouteCase {
  const char* label;
  const char* text;
};

const RouteCase kRoutes[] = {
    {"acyclic", "ans(x, y) :- E(x, z), E(z, y)."},
    {"cyclic", "ans(x, y) :- E(x, y), E(y, z), E(z, x)."},
    {"theorem2", "ans(x) :- E(x, y), E(y, z), x != z."},
    {"ucq", "ans(x) := exists y . (E(x, y) or E(y, x))."},
    {"datalog", kDatalogTc},
    {"fo", "ans(x) := forall y . (E(x, y) or not E(y, x))."},
};

TEST(TracingDifferentialTest, ResultsByteIdenticalWithTracingOnAndOff) {
  Database db = GraphDatabase(GnpRandom(14, 0.3, 23));
  for (const RouteCase& rc : kRoutes) {
    SCOPED_TRACE(rc.label);
    EngineOptions base;
    Engine reference_engine(db, base);
    auto reference = reference_engine.RunText(rc.text, &db.dict());
    ASSERT_TRUE(reference.ok()) << reference.status();
    for (size_t threads : {size_t{1}, size_t{4}}) {
      EngineOptions options;
      options.threads = threads;
      options.trace = true;
      Engine engine(db, options);
      auto traced = engine.RunText(rc.text, &db.dict());
      ASSERT_TRUE(traced.ok()) << traced.status();
      // Answers are sorted + deduplicated: byte identity, not set equality.
      ASSERT_EQ(traced.value().size(), reference.value().size());
      EXPECT_TRUE(traced.value().data() == reference.value().data())
          << "threads=" << threads;
      ASSERT_NE(engine.tracer(), nullptr);
      EXPECT_GT(engine.tracer()->event_count(), 0u);
      EXPECT_TRUE(LooksLikeWellFormedJson(engine.tracer()->ChromeTraceJson()));
    }
  }
}

TEST(TracingDifferentialTest, DatalogFixpointTraceHasHierarchySpans) {
  Database db = GraphDatabase(GnpRandom(40, 0.12, 5));
  EngineOptions options;
  options.threads = 4;
  options.trace = true;
  Engine engine(db, options);
  auto result = engine.RunText(kDatalogTc, &db.dict());
  ASSERT_TRUE(result.ok()) << result.status();
  std::string json = engine.tracer()->ChromeTraceJson();
  EXPECT_TRUE(LooksLikeWellFormedJson(json));
  EXPECT_NE(json.find("\"round\""), std::string::npos);
  EXPECT_NE(json.find("\"firing\""), std::string::npos);
  EXPECT_NE(json.find("\"route.datalog\""), std::string::npos);
  EXPECT_NE(json.find("\"query\""), std::string::npos);
  std::string profile = engine.tracer()->TextProfile();
  EXPECT_NE(profile.find("round"), std::string::npos);
  EXPECT_NE(profile.find("firing"), std::string::npos);
}

TEST(TracingAbortTest, DeadlineAbortStillExportsWellFormedTrace) {
  // Big enough that the fixpoint cannot finish in a millisecond.
  Database db = GraphDatabase(GnpRandom(400, 0.05, 7));
  EngineOptions options;
  options.threads = 4;
  options.trace = true;
  options.limits.max_wall_ms = 1;
  Engine engine(db, options);
  auto result = engine.RunText(kDatalogTc, &db.dict());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(LooksLikeWellFormedJson(engine.tracer()->ChromeTraceJson()));
  EXPECT_EQ(engine.last_stats().abort_reason, "deadline_exceeded");
  EXPECT_GE(engine.metrics().counter("pq_aborts_deadline_total").value(), 1u);
  // The engine stays usable and the next trace is fresh.
  engine.options().limits.max_wall_ms = 0;
  auto ok = engine.RunText(kDatalogTc, &db.dict());
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(engine.last_stats().abort_reason.empty());
  EXPECT_TRUE(LooksLikeWellFormedJson(engine.tracer()->ChromeTraceJson()));
}

TEST(TracingAbortTest, CancelledQueryStillExportsWellFormedTrace) {
  Database db = GraphDatabase(GnpRandom(20, 0.25, 9));
  QueryContext qc;
  qc.Cancel();
  EngineOptions options;
  options.trace = true;
  options.query_ctx = &qc;
  Engine engine(db, options);
  auto result = engine.RunText(kDatalogTc, &db.dict());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(LooksLikeWellFormedJson(engine.tracer()->ChromeTraceJson()));
  EXPECT_EQ(engine.last_stats().abort_reason, "cancelled");
  EXPECT_GE(engine.metrics().counter("pq_aborts_cancelled_total").value(),
            1u);
}

TEST(TracingAbortTest, InjectedFaultStillExportsWellFormedTrace) {
  Database db = GraphDatabase(GnpRandom(20, 0.25, 13));
  EngineOptions options;
  options.threads = 4;
  options.trace = true;
  Engine engine(db, options);
  FaultInjector::ArmPoint("datalog.round", 1);
  auto result = engine.RunText(kDatalogTc, &db.dict());
  bool fired = FaultInjector::fired();
  FaultInjector::Disarm();
  ASSERT_TRUE(fired);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(LooksLikeWellFormedJson(engine.tracer()->ChromeTraceJson()));
  // Mid-fixpoint abort: the trace keeps whatever spans closed before the
  // unwind, and recovery works.
  auto ok = engine.RunText(kDatalogTc, &db.dict());
  ASSERT_TRUE(ok.ok()) << ok.status();
}

TEST(EngineWallClockTest, EveryRouteRecordsEndToEndWallTime) {
  Database db = GraphDatabase(GnpRandom(14, 0.3, 31));
  for (const RouteCase& rc : kRoutes) {
    SCOPED_TRACE(rc.label);
    Engine engine(db, EngineOptions{});
    auto result = engine.RunText(rc.text, &db.dict());
    ASSERT_TRUE(result.ok()) << result.status();
    // Engine-level wall covers parse-to-answer on every route — including
    // the active-domain algebra and plan-cache hits, which the per-plan
    // PlanStats timer does not see.
    EXPECT_GT(engine.last_stats().wall_seconds, 0.0);
    EXPECT_NE(engine.last_stats().ToString().find("wall_ms="),
              std::string::npos);
  }
}

TEST(AnalyzeTest, CyclicQueryShowsPerNodeTimeOnTheMultiwayBag) {
  Database db = GraphDatabase(GnpRandom(14, 0.3, 17));
  Engine engine(db, EngineOptions{});
  auto report =
      engine.AnalyzeText("ans(x, y) :- E(x, y), E(y, z), E(z, x).",
                         &db.dict());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_NE(report.value().find("MultiwayJoin"), std::string::npos);
  EXPECT_NE(report.value().find("time="), std::string::npos);
  EXPECT_NE(report.value().find("self="), std::string::npos);
  EXPECT_NE(report.value().find("actual="), std::string::npos);
  EXPECT_NE(report.value().find("rows="), std::string::npos);
}

// Theorem 2 at width 4 runs each coloring on a private copy of the plan;
// EXPLAIN ANALYZE still files them all under the one compiled plan.
TEST(AnalyzeTest, ParallelColoringsReportOnePlanPerColoring) {
  Database db = GraphDatabase(GnpRandom(14, 0.3, 31));
  EngineOptions options;
  options.threads = 4;
  Engine engine(db, options);
  auto report = engine.AnalyzeText(
      "ans(a, d) :- E(a, b), E(b, c), E(c, d), a != c, b != d, a != d.",
      &db.dict());
  ASSERT_TRUE(report.ok()) << report.status();
  const size_t colorings = engine.last_stats().ineq.trials;
  EXPECT_GT(colorings, 1u);
  EXPECT_EQ(engine.last_stats().ineq.family_size, colorings);
  const std::string& text = report.value();
  EXPECT_NE(text.find("-- plan 1 (executions=" + std::to_string(colorings) +
                      ")"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("-- plan 2"), std::string::npos) << text;
}

TEST(AnalyzeTest, DatalogReportsRulePlansWithExecutionCounts) {
  Database db = GraphDatabase(GnpRandom(20, 0.2, 19));
  Engine engine(db, EngineOptions{});
  auto report = engine.AnalyzeText(kDatalogTc, &db.dict());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_NE(report.value().find("executions="), std::string::npos);
  EXPECT_NE(report.value().find("-- plan"), std::string::npos);
  // Analyze is one-shot: a plain run afterwards captures nothing new and
  // the engine keeps working.
  auto again = engine.RunText(kDatalogTc, &db.dict());
  EXPECT_TRUE(again.ok()) << again.status();
}

TEST(MetricsTest, RegistryCountsQueriesAndExposesBothFormats) {
  Database db = GraphDatabase(GnpRandom(14, 0.3, 29));
  Engine engine(db, EngineOptions{});
  ASSERT_TRUE(
      engine.RunText("ans(x, y) :- E(x, z), E(z, y).", &db.dict()).ok());
  ASSERT_TRUE(engine.RunText(kDatalogTc, &db.dict()).ok());
  EXPECT_EQ(engine.metrics().counter("pq_queries_total").value(), 2u);
  EXPECT_GT(engine.metrics().histogram("pq_query_latency_us").count(), 0u);
  EXPECT_GT(engine.metrics().histogram("pq_operator_rows").count(), 0u);
  std::string prom = engine.metrics().PrometheusText();
  EXPECT_NE(prom.find("# TYPE pq_queries_total counter"), std::string::npos);
  EXPECT_NE(prom.find("pq_query_latency_us_bucket"), std::string::npos);
  std::string json = engine.metrics().JsonDump();
  EXPECT_TRUE(LooksLikeWellFormedJson(json));
  EXPECT_NE(json.find("pq_queries_total"), std::string::npos);
}

}  // namespace
}  // namespace paraquery
