// Self-tests of the benchmark harness: the percentile rule, window
// statistics, generator determinism, the Zipf sampler, self time on a span
// tree, the engine trace import and answer fingerprints.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/trace.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(SupportedPercentile(19), 0);
  EXPECT_EQ(SupportedPercentile(20), 50);
  EXPECT_EQ(SupportedPercentile(99), 50);  // 9 samples beyond p90
  EXPECT_EQ(SupportedPercentile(100), 90);
  EXPECT_EQ(SupportedPercentile(999), 90);
  EXPECT_EQ(SupportedPercentile(1000), 99);
  EXPECT_EQ(SupportedPercentile(10000), 99.9);
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(10000, 99.9), 10u);
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 90), 90);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({7.0}, 90), 7.0);
}

TEST(Windows, ReportTheLeastDisturbedQuarter) {
  // 20 windows of 100 queries; every fourth window runs twice as slow.
  std::vector<double> lat;
  for (int w = 0; w < 20; ++w) {
    for (int i = 1; i <= 100; ++i) lat.push_back((w % 4 == 3 ? 2.0 : 1.0) * i);
  }
  const WindowStats win = SummarizeWindows(lat, lat, /*round=*/5);
  EXPECT_EQ(win.windows, 20u);
  EXPECT_EQ(win.window_queries, 100u);
  EXPECT_EQ(win.p50_ms, 50);
  EXPECT_EQ(win.p90_ms, 90);
  EXPECT_NEAR(win.qps, 100 / (5050 / 1e3), 1e-9);
}

TEST(Windows, WholeTemplateRoundsAndSmallRuns) {
  std::vector<double> lat(1000, 1.0);
  EXPECT_EQ(SummarizeWindows(lat, lat, /*round=*/7).window_queries, 105u);
  // Fewer than four windows' worth: the whole phase is one window.
  std::vector<double> few(399, 1.0);
  const WindowStats one = SummarizeWindows(few, few, /*round=*/1);
  EXPECT_EQ(one.windows, 1u);
  EXPECT_EQ(one.window_queries, 399u);
}

std::string Ops(const WorkloadSpec& spec, uint64_t seed, int n) {
  OpStream ops(spec, seed);
  std::string out;
  for (int i = 0; i < n; ++i) out += OpKey(spec, ops.Next()) + "\n";
  return out;
}

std::string Rows(const paraquery::Database& db) {
  std::string out;
  for (paraquery::RelId id = 0;
       id < static_cast<paraquery::RelId>(db.relation_count()); ++id) {
    const paraquery::Relation& rel = db.relation(id);
    out += db.relation_name(id) + ":";
    for (size_t r = 0; r < rel.size(); ++r) {
      for (size_t c = 0; c < rel.arity(); ++c) {
        out += " " + std::to_string(rel.At(r, c));
      }
    }
    out += "\n";
  }
  return out;
}

TEST(Generator, SameSeedSameOperationsOtherSeedOthers) {
  for (const std::string& name : WorkloadNames()) {
    const WorkloadSpec& spec = *FindWorkload(name);
    const std::string a = Ops(spec, 1, 2000);
    EXPECT_EQ(a, Ops(spec, 1, 2000)) << name;
    if (spec.constants != 0 || spec.write_every != 0) {
      EXPECT_NE(a, Ops(spec, 2, 2000)) << name;
    }
  }
}

TEST(Generator, SameSeedSameDatabaseOtherSeedOther) {
  for (const std::string& name : {"point", "theorem2"}) {
    const WorkloadSpec& spec = *FindWorkload(name);
    const std::string a = Rows(*BuildDatabase(spec, 1));
    EXPECT_EQ(a, Rows(*BuildDatabase(spec, 1))) << name;
    EXPECT_NE(a, Rows(*BuildDatabase(spec, 2))) << name;
  }
}

TEST(Generator, EveryRoundRunsEveryTemplateOnce) {
  const WorkloadSpec& spec = *FindWorkload("analytic");
  OpStream ops(spec, 3);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> seen(spec.templates.size(), 0);
    for (size_t i = 0; i < spec.templates.size(); ++i) ++seen[ops.Next().tmpl];
    for (int count : seen) EXPECT_EQ(count, 1);
  }
}

TEST(Generator, ChurnWritesEveryNthOperation) {
  const WorkloadSpec& spec = *FindWorkload("churn");
  OpStream ops(spec, 5);
  for (size_t i = 1; i <= 10 * spec.write_every; ++i) {
    const Op op = ops.Next();
    EXPECT_EQ(op.write, i % spec.write_every == 0) << i;
    if (op.write) EXPECT_EQ(op.rows.size(), 2 * spec.write_batch);
  }
}

TEST(Zipf, MatchesTargetDistribution) {
  const size_t n = 50;
  const Zipf zipf(n, 1.0);
  double total = 0;
  for (size_t r = 0; r < n; ++r) total += zipf.Pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(zipf.Pmf(0) / zipf.Pmf(1), 2.0, 1e-9);
  EXPECT_NEAR(zipf.Pmf(0) / zipf.Pmf(9), 10.0, 1e-9);

  Rng rng(42);
  const size_t samples = 200000;
  std::vector<double> count(n, 0);
  for (size_t i = 0; i < samples; ++i) count[zipf.Sample(rng)] += 1;
  double chi2 = 0;
  for (size_t r = 0; r < n; ++r) {
    const double expected = zipf.Pmf(r) * samples;
    chi2 += (count[r] - expected) * (count[r] - expected) / expected;
    // Every rank within five standard deviations of its expectation.
    EXPECT_NEAR(count[r], expected, 5 * std::sqrt(expected)) << r;
  }
  // 49 degrees of freedom: P(chi2 > 85) < 0.001.
  EXPECT_LT(chi2, 85.0);
}

Span At(const char* name, uint32_t track, uint64_t start, uint64_t end) {
  return Span{name, track, start, end, 1};
}

TEST(SelfTime, SpanMinusChildren) {
  std::vector<Span> spans = {
      At("grandchild", 0, 15, 20), At("a", 0, 10, 40), At("b", 0, 50, 80),
      At("root", 0, 0, 100),       At("worker", 1, 5, 95),
      At("worker_child", 1, 10, 30),
  };
  LinkParents(spans);
  EXPECT_EQ(spans[0].parent, 1);
  EXPECT_EQ(spans[1].parent, 3);
  EXPECT_EQ(spans[2].parent, 3);
  EXPECT_EQ(spans[3].parent, -1);
  EXPECT_EQ(spans[4].parent, -1);  // other track: never a child of root
  EXPECT_EQ(spans[5].parent, 4);
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 5u);
  EXPECT_EQ(self[1], 25u);
  EXPECT_EQ(self[2], 30u);
  EXPECT_EQ(self[3], 40u);
  EXPECT_EQ(self[4], 70u);
  EXPECT_EQ(self[5], 20u);
}

TEST(SelfTime, IdenticalIntervalsNestInRecordingOrder) {
  // Spans are recorded when they close, so of two spans with the same
  // interval the later one encloses the earlier.
  std::vector<Span> spans = {At("inner", 0, 10, 20), At("outer", 0, 10, 20)};
  LinkParents(spans);
  EXPECT_EQ(spans[0].parent, 1);
  EXPECT_EQ(spans[1].parent, -1);
  EXPECT_EQ(SelfTimes(spans)[1], 0u);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  EXPECT_EQ(CoveredNs({{0, 10}, {5, 15}, {20, 30}}), 25u);
  EXPECT_EQ(CoveredNs({}), 0u);
}

TEST(EngineTrace, ImportsSpansOnTheBenchmarkClock) {
  paraquery::Tracer tracer;
  tracer.Clear();
  tracer.Record("HashJoin", 2000, 5000);
  tracer.Record("query", 1000, 9000);
  const std::vector<Span> spans =
      ParseEngineTrace(tracer.ChromeTraceJson(), /*query_end_ns=*/50000, 7);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "HashJoin");
  EXPECT_EQ(spans[0].start_ns, 43000u);
  EXPECT_EQ(spans[0].end_ns, 46000u);
  EXPECT_EQ(spans[1].name, "query");
  EXPECT_EQ(spans[1].end_ns, 50000u);
  EXPECT_EQ(spans[1].qid, 7u);
}

TEST(Fingerprint, SetEquality) {
  paraquery::Relation a(2), b(2);
  a.Add({1, 2});
  a.Add({3, 4});
  b.Add({3, 4});
  b.Add({1, 2});
  EXPECT_EQ(FingerprintOf(a), FingerprintOf(b));
  b.Add({1, 2});
  EXPECT_FALSE(FingerprintOf(a) == FingerprintOf(b));
  EXPECT_EQ(FingerprintOf(a), SetFingerprintOf(b));
}

}  // namespace
}  // namespace perfbench
