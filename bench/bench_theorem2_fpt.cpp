// E3 — Theorem 2: acyclic conjunctive queries with ≠ are fixed-parameter
// tractable.
//
// The paper's bound is O(g(k) · q · n log n) for the decision problem and
// output-sensitive for evaluation, with g(k) = 2^{O(k log k)}. Series:
//   * NScalingFixedK: time vs n at k fixed — near-linear slope (the
//     parameter is NOT in the exponent of n);
//   * KScalingFixedN: time vs k at n fixed — the exponential lives entirely
//     in the f(k) factor (number of colorings tried);
//   * CrossoverVsNaive: naive backtracking loses quickly as n grows;
//   * OutputSensitiveEvaluation: full answer computation;
//   * EvalLowered: the plan-lowered per-coloring execution (the only path
//     since the hand-rolled oracle's removal; the recorded-answer
//     differential lives in tests/theorem2_recorded.inc);
//   * EmployeeProjectFptThreads: the employee-project evaluation at width 1
//     and 4 (colorings as scheduler tasks), asserting identical answers.
// Workload: simple-path queries (the paper's Monien / color-coding special
// case) on sparse random graphs, plus the employee-project query.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "eval/inequality.hpp"
#include "eval/naive.hpp"
#include "graph/generators.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

IneqOptions McOptions(double c = 2.0) {
  IneqOptions o;
  o.driver = IneqOptions::Driver::kMonteCarlo;
  o.mc_error_exponent = c;
  o.seed = 1234;
  return o;
}

void BM_NScalingFixedK(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  // Sparse graph with no simple 4-path guaranteed? We want the WORST case
  // (all colorings tried): use a star forest, which has no simple 3-edge
  // path, so every trial runs to completion.
  Graph g(n);
  for (int i = 1; i < n; ++i) g.AddEdge(i, (i / 50) * 50);  // stars of 50
  Database db = GraphDatabase(g);
  ConjunctiveQuery q = SimplePathQuery(3);
  IneqStats stats;
  for (auto _ : state) {
    auto r = IneqNonempty(db, q, McOptions(), &stats);
    benchmark::DoNotOptimize(r);
    if (!r.ok() || r.value()) state.SkipWithError("unexpected witness");
  }
  state.counters["n"] = n;
  state.counters["k"] = stats.k;
  state.counters["trials"] = static_cast<double>(stats.family_size);
  state.SetComplexityN(n);
}
BENCHMARK(BM_NScalingFixedK)
    ->RangeMultiplier(2)
    ->Range(1000, 16000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_KScalingFixedN(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  Graph g(1500);
  for (int i = 1; i < 1500; ++i) g.AddEdge(i, (i / 30) * 30);  // stars of 30
  Database db = GraphDatabase(g);
  ConjunctiveQuery q = SimplePathQuery(k);
  IneqStats stats;
  for (auto _ : state) {
    auto r = IneqNonempty(db, q, McOptions(), &stats);
    benchmark::DoNotOptimize(r);
  }
  state.counters["k"] = stats.k;
  state.counters["colorings"] = static_cast<double>(stats.family_size);
}
BENCHMARK(BM_KScalingFixedN)
    ->DenseRange(2, 6)
    ->Unit(benchmark::kMillisecond);

void BM_NaiveSimplePath(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Graph g(n);
  for (int i = 1; i < n; ++i) g.AddEdge(i, (i / 50) * 50);
  Database db = GraphDatabase(g);
  ConjunctiveQuery q = SimplePathQuery(3);
  for (auto _ : state) {
    auto r = NaiveCqNonempty(db, q);
    benchmark::DoNotOptimize(r);
  }
  state.counters["n"] = n;
  state.SetComplexityN(n);
}
BENCHMARK(BM_NaiveSimplePath)
    ->RangeMultiplier(2)
    ->Range(1000, 4096)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

// The paper's reference point: the trivial algorithm tries all (k+1)-tuples
// of vertices — Θ(n^{k+1}) regardless of structure ("despite considerable
// effort, no algorithm ... without k appearing in the exponent" for the
// general parametric problems; for simple paths, color coding removes the
// exponent and this baseline is what it beats).
void BM_TrivialEnumerationSimplePath(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Graph g(n);
  for (int i = 1; i < n; ++i) g.AddEdge(i, (i / 50) * 50);
  const int k = 3;  // edges; k+1 vertices
  for (auto _ : state) {
    bool found = false;
    std::vector<int> tuple(k + 1);
    // Odometer over ordered (k+1)-tuples.
    std::fill(tuple.begin(), tuple.end(), 0);
    for (;;) {
      bool ok = true;
      for (int i = 0; ok && i <= k; ++i) {
        for (int j = i + 1; ok && j <= k; ++j) {
          if (tuple[i] == tuple[j]) ok = false;
        }
      }
      for (int i = 0; ok && i < k; ++i) {
        if (!g.HasEdge(tuple[i], tuple[i + 1])) ok = false;
      }
      if (ok) {
        found = true;
        break;
      }
      int pos = k;
      while (pos >= 0 && ++tuple[pos] == n) tuple[pos--] = 0;
      if (pos < 0) break;
    }
    benchmark::DoNotOptimize(found);
    if (found) state.SkipWithError("unexpected witness");
  }
  state.counters["n"] = n;
  state.SetComplexityN(n);
}
BENCHMARK(BM_TrivialEnumerationSimplePath)
    ->Arg(40)
    ->Arg(80)
    ->Arg(160)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_EmployeeProjectFpt(benchmark::State& state) {
  int employees = static_cast<int>(state.range(0));
  Database db = EmployeeProjects(employees, employees / 10, 1, 4, /*seed=*/7);
  ConjunctiveQuery q = MultiProjectQuery();
  for (auto _ : state) {
    auto r = IneqEvaluate(db, q, McOptions(6.0));
    benchmark::DoNotOptimize(r);
  }
  state.counters["employees"] = employees;
  state.SetComplexityN(employees);
}
BENCHMARK(BM_EmployeeProjectFpt)
    ->RangeMultiplier(4)
    ->Range(1000, 64000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

// The same evaluation at engine width 1 and 4: with a parallel runtime each
// coloring is a scheduler task. The answer at every width must equal the
// width-1 answer byte for byte; a mismatch aborts the binary.
void BM_EmployeeProjectFptThreads(benchmark::State& state) {
  int employees = static_cast<int>(state.range(0));
  size_t threads = static_cast<size_t>(state.range(1));
  Database db = EmployeeProjects(employees, employees / 10, 1, 4, /*seed=*/7);
  ConjunctiveQuery q = MultiProjectQuery();
  const Relation expected = IneqEvaluate(db, q, McOptions(6.0)).ValueOrDie();
  TaskScheduler scheduler(threads);
  IneqOptions options = McOptions(6.0);
  options.runtime.scheduler = &scheduler;
  IneqStats stats;
  for (auto _ : state) {
    auto r = IneqEvaluate(db, q, options, &stats);
    if (!r.ok() || r.value().data() != expected.data() ||
        r.value().size() != expected.size()) {
      std::fprintf(stderr,
                   "FATAL: threads=%zu answer differs from threads=1\n",
                   threads);
      std::exit(1);
    }
    benchmark::DoNotOptimize(r);
  }
  state.counters["employees"] = employees;
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["colorings"] = static_cast<double>(stats.family_size);
}
BENCHMARK(BM_EmployeeProjectFptThreads)
    ->ArgsProduct({{4000, 16000}, {1, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_EmployeeProjectNaive(benchmark::State& state) {
  int employees = static_cast<int>(state.range(0));
  Database db = EmployeeProjects(employees, employees / 10, 1, 4, /*seed=*/7);
  ConjunctiveQuery q = MultiProjectQuery();
  for (auto _ : state) {
    auto r = NaiveEvaluateCq(db, q);
    benchmark::DoNotOptimize(r);
  }
  state.counters["employees"] = employees;
  state.SetComplexityN(employees);
}
BENCHMARK(BM_EmployeeProjectNaive)
    ->RangeMultiplier(4)
    ->Range(1000, 16000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_Theorem2EvalLowered(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Database db = GraphDatabase(GnpRandom(n, 3.0 / n, /*seed=*/21));
  ConjunctiveQuery q = SimplePathQuery(3);
  q.head = {Term::Var(0), Term::Var(3)};
  for (auto _ : state) {
    auto r = IneqEvaluate(db, q, McOptions());
    if (!r.ok()) state.SkipWithError("evaluation failed");
    benchmark::DoNotOptimize(r);
  }
  state.counters["n"] = n;
}
BENCHMARK(BM_Theorem2EvalLowered)
    ->RangeMultiplier(2)
    ->Range(500, 2000)
    ->Unit(benchmark::kMillisecond);

void BM_OutputSensitiveEvaluation(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  // Path-rich graph: many simple paths; output grows with n.
  Database db = GraphDatabase(GnpRandom(n, 3.0 / n, /*seed=*/21));
  ConjunctiveQuery q = SimplePathQuery(3);
  // Return endpoints: ans(x1, x4).
  q.head = {Term::Var(0), Term::Var(3)};
  size_t answers = 0;
  for (auto _ : state) {
    auto r = IneqEvaluate(db, q, McOptions());
    if (!r.ok()) state.SkipWithError("evaluation failed");
    answers = r.value().size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["n"] = n;
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_OutputSensitiveEvaluation)
    ->RangeMultiplier(2)
    ->Range(500, 4000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace paraquery
