// Tests for the physical plan subsystem: golden plan renders, schedule
// parity with the pre-plan Yannakakis implementation (kept inline here as
// the reference), randomized differential testing of the plan executor
// against the backtracking oracle, resource-limit plumbing, UCQ disjunct
// handling, and the engine/EXPLAIN surface.
#include <gtest/gtest.h>

#include <memory>

#include "common/query_context.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/explain.hpp"
#include "eval/acyclic.hpp"
#include "eval/common.hpp"
#include "eval/datalog_eval.hpp"
#include "eval/naive.hpp"
#include "eval/ucq.hpp"
#include "graph/generators.hpp"
#include "hypergraph/join_tree.hpp"
#include "plan/executor.hpp"
#include "plan/planner.hpp"
#include "query/parser.hpp"
#include "relational/ops.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

Database GraphDb(const Graph& g) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  for (int u = 0; u < g.num_vertices(); ++u) {
    for (int v : g.Neighbors(u)) db.relation(e).Add({u, v});
  }
  return db;
}

// The fixed four-edge database the golden renders are pinned to.
Database GoldenDb() {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  db.relation(e).Add({1, 2});
  db.relation(e).Add({2, 3});
  db.relation(e).Add({3, 1});
  db.relation(e).Add({3, 4});
  return db;
}

// ---------------------------------------------------------------------------
// Reference implementation: the pre-plan Yannakakis evaluator (the seed's
// eval/acyclic.cpp), kept verbatim so schedule parity is checked against the
// real historical algorithm rather than a re-derivation.
// ---------------------------------------------------------------------------

struct LegacyStats {
  size_t semijoins = 0;
  size_t joins = 0;
};

Result<Relation> LegacyYannakakis(const Database& db,
                                  const ConjunctiveQuery& q,
                                  LegacyStats* stats) {
  std::vector<NamedRelation> rels;
  for (const Atom& a : q.body) {
    PQ_ASSIGN_OR_RETURN(RelId id, db.FindRelation(a.relation));
    PQ_ASSIGN_OR_RETURN(NamedRelation rel, AtomToRelation(db.relation(id), a));
    rels.push_back(std::move(rel));
  }
  Hypergraph h = q.BuildHypergraph();
  PQ_ASSIGN_OR_RETURN(JoinTree tree, BuildJoinTree(h));
  Relation empty(q.head.size());
  for (const NamedRelation& rel : rels) {
    if (rel.empty()) return empty;
  }
  for (int j : tree.bottom_up) {  // upward semijoins
    int u = tree.parent[j];
    if (u < 0) continue;
    rels[u] = Semijoin(rels[u], rels[j]);
    ++stats->semijoins;
    if (rels[u].empty()) return empty;
  }
  for (int j : tree.top_down) {  // downward semijoins
    int u = tree.parent[j];
    if (u < 0) continue;
    rels[j] = Semijoin(rels[j], rels[u]);
    ++stats->semijoins;
  }
  std::vector<VarId> head_vars = q.HeadVariables();
  auto is_head = [&head_vars](AttrId a) {
    return std::find(head_vars.begin(), head_vars.end(), a) !=
           head_vars.end();
  };
  size_t m = tree.size();
  std::vector<std::vector<AttrId>> subtree_head(m);
  for (int j : tree.bottom_up) {
    std::vector<AttrId> acc;
    for (AttrId a : rels[j].attrs()) {
      if (is_head(a)) acc.push_back(a);
    }
    for (int c : tree.children[j]) {
      for (AttrId a : subtree_head[c]) acc.push_back(a);
    }
    std::sort(acc.begin(), acc.end());
    acc.erase(std::unique(acc.begin(), acc.end()), acc.end());
    subtree_head[j] = std::move(acc);
  }
  for (int j : tree.bottom_up) {  // upward join-and-project pass
    int u = tree.parent[j];
    if (u < 0) continue;
    std::vector<AttrId> zj;
    for (AttrId a : rels[j].attrs()) {
      if (rels[u].HasAttr(a)) zj.push_back(a);
    }
    for (AttrId a : subtree_head[j]) {
      if (std::find(zj.begin(), zj.end(), a) == zj.end()) zj.push_back(a);
    }
    PQ_ASSIGN_OR_RETURN(rels[u],
                        NaturalJoin(rels[u], Project(rels[j], zj)));
    ++stats->joins;
    if (rels[u].empty()) return empty;
  }
  return BindingsToAnswers(Project(rels[tree.root], head_vars), q.head);
}

// ---------------------------------------------------------------------------
// Golden plan renders.
// ---------------------------------------------------------------------------

TEST(PlanGoldenTest, AcyclicPathQuery) {
  Database db = GoldenDb();
  auto q = ParseConjunctive("ans(a, d) :- E(a,b), E(b,c), E(c,d).")
               .ValueOrDie();
  auto plan = PlanAcyclicCq(db, q).ValueOrDie();
  EXPECT_EQ(plan.Render(),
            "Project(a, d) est=1\n"
            "  HashJoin(b, c, d, a) est=1\n"
            "    HashJoin(b, c, d) est=1\n"
            "      Semijoin(b, c) est=1 as #1\n"
            "        Semijoin(b, c) est=2\n"
            "          Scan(b, c) E(b, c) rows=4\n"
            "          Scan(c, d) E(c, d) rows=4 as #2\n"
            "        Scan(a, b) E(a, b) rows=4 as #3\n"
            "      Project(c, d) est=2\n"
            "        Semijoin(c, d) est=2\n"
            "          Scan(c, d) E(c, d) see #2\n"
            "          Semijoin(b, c) see #1\n"
            "    Project(b, a) est=2\n"
            "      Semijoin(a, b) est=2\n"
            "        Scan(a, b) E(a, b) see #3\n"
            "        Semijoin(b, c) see #1\n");
}

TEST(PlanGoldenTest, CyclicTriangleWithInequality) {
  Database db = GoldenDb();
  auto q = ParseConjunctive("ans(x) :- E(x,y), E(y,z), E(z,x), x != y.")
               .ValueOrDie();
  auto plan = PlanCyclicCq(db, q).ValueOrDie();
  // Join selectivities come from the real per-column distinct counts
  // (Relation::DistinctCount) — for GoldenDb's E, V(col0)=3 and V(col1)=4.
  EXPECT_EQ(plan.Render(),
            "Dedup(x) est=1\n"
            "  Materialize(x) est=1\n"
            "    Project(x) [vec] est=1\n"
            "      HashJoin(x, y, z) [vec] est=1\n"
            "        HashJoin(x, y, z) [vec] est=4\n"
            "          Select(x, y) [vec] $0!=$1 est=4\n"
            "            Scan(x, y) [vec] E(x, y) rows=4\n"
            "          Scan(y, z) E(y, z) rows=4\n"
            "        Scan(z, x) E(z, x) rows=4\n");
}

TEST(PlanGoldenTest, DatalogTransitiveClosure) {
  Database db = GoldenDb();
  auto tc = TransitiveClosureProgram();
  EXPECT_EQ(RenderDatalogPlan(db, tc).ValueOrDie(),
            "Fixpoint(tc) [semi-naive, 2 rules; delta-substituted variants "
            "are planned at first firing]\n"
            "  rule 0: tc(x,y) :- E(x,y).\n"
            "    Materialize(x, y) est=4\n"
            "      Project(x, y) [vec] est=4\n"
            "        Scan(x, y) [vec] E(x, y) rows=4\n"
            "  rule 1: tc(x,y) :- E(x,z), tc(z,y).\n"
            "    Materialize(x, y) est=?\n"
            "      Project(x, y) [vec] est=?\n"
            "        HashJoin(z, y, x) [vec] est=?\n"
            "          Scan(z, y) [vec] tc(z, y) rows=?\n"
            "          Scan(x, z) E(x, z) rows=4\n");
}

// ---------------------------------------------------------------------------
// Schedule parity with the legacy Yannakakis implementation.
// ---------------------------------------------------------------------------

TEST(PlanParityTest, YannakakisScheduleCountsAndAnswers) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Database db = RandomBinaryDatabase(3, 80, 25, seed);
    ConjunctiveQuery q = RandomAcyclicNeqQuery(3, 5, 0, seed);
    LegacyStats legacy;
    auto reference = LegacyYannakakis(db, q, &legacy).ValueOrDie();
    AcyclicStats stats;
    PlanStats plan_stats;
    auto planned = AcyclicEvaluate(db, q, {}, &stats, &plan_stats).ValueOrDie();
    EXPECT_TRUE(planned.EqualsAsSet(reference)) << "seed=" << seed;
    if (!reference.empty()) {
      // Nonempty runs execute the full schedule: counts must be identical
      // (2(m-1) semijoins, m-1 joins for m atoms).
      EXPECT_EQ(plan_stats.semijoins, legacy.semijoins) << "seed=" << seed;
      EXPECT_EQ(plan_stats.joins, legacy.joins) << "seed=" << seed;
      EXPECT_EQ(plan_stats.semijoins, 2 * (q.body.size() - 1));
      EXPECT_EQ(plan_stats.joins, q.body.size() - 1);
      // The deprecated AcyclicStats mirror agrees with PlanStats.
      EXPECT_EQ(stats.semijoins, plan_stats.semijoins);
      EXPECT_EQ(stats.joins, plan_stats.joins);
    }
  }
}

TEST(PlanParityTest, EvalTestQueriesKeepTheirCounts) {
  // The acyclic queries the pre-plan eval tests pinned their stats on.
  Database db = GraphDb(GnpRandom(10, 0.3, 3));
  auto q = ParseConjunctive("ans(a, d) :- E(a,b), E(b,c), E(c,d).")
               .ValueOrDie();
  LegacyStats legacy;
  auto reference = LegacyYannakakis(db, q, &legacy).ValueOrDie();
  ASSERT_FALSE(reference.empty());
  PlanStats plan_stats;
  auto planned =
      AcyclicEvaluate(db, q, {}, nullptr, &plan_stats).ValueOrDie();
  EXPECT_TRUE(planned.EqualsAsSet(reference));
  EXPECT_EQ(plan_stats.semijoins, legacy.semijoins);
  EXPECT_EQ(plan_stats.joins, legacy.joins);
}

TEST(PlanParityTest, FullReducerAblationMatches) {
  Database db = GraphDb(GnpRandom(10, 0.4, 5));
  auto q = ParseConjunctive("ans(a, c) :- E(a,b), E(b,c), E(c,d).")
               .ValueOrDie();
  AcyclicOptions no_reducer;
  no_reducer.full_reducer = false;
  PlanStats ps;
  auto out = AcyclicEvaluate(db, q, no_reducer, nullptr, &ps).ValueOrDie();
  EXPECT_EQ(ps.semijoins, 0u);  // the reducer passes are gone from the plan
  EXPECT_EQ(ps.joins, q.body.size() - 1);
  auto reduced = AcyclicEvaluate(db, q).ValueOrDie();
  EXPECT_TRUE(out.EqualsAsSet(reduced));
}

// ---------------------------------------------------------------------------
// Randomized differential: plan executor vs the backtracking oracle.
// ---------------------------------------------------------------------------

class PlanDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanDifferentialTest, MatchesBacktrackingOnGeneratedWorkloads) {
  uint64_t seed = GetParam();
  Database db = RandomBinaryDatabase(3, 60, 20, seed);
  for (int neq = 0; neq <= 3; ++neq) {
    ConjunctiveQuery q = RandomAcyclicNeqQuery(3, 4, neq, seed * 7 + neq);
    auto planned = NaiveEvaluateCq(db, q).ValueOrDie();
    auto oracle = BacktrackEvaluateCq(db, q).ValueOrDie();
    EXPECT_TRUE(planned.EqualsAsSet(oracle))
        << "seed=" << seed << " neq=" << neq;
    if (neq == 0) {
      auto yannakakis = AcyclicEvaluate(db, q).ValueOrDie();
      EXPECT_TRUE(yannakakis.EqualsAsSet(oracle)) << "seed=" << seed;
    }
  }
}

TEST_P(PlanDifferentialTest, MatchesBacktrackingOnCyclicQueries) {
  uint64_t seed = GetParam();
  Database db = GraphDb(GnpRandom(9, 0.35, seed));
  const char* queries[] = {
      "ans(x) :- E(x,y), E(y,z), E(z,x).",
      "ans(x, w) :- E(x,y), E(y,z), E(z,w), E(w,x), x != z.",
      "p() :- E(x,y), E(y,z), E(z,x), x != y, y != z, x != z.",
      "ans(a) :- E(a, b), E(b, a), E(a, c), E(c, a), E(b, c).",
  };
  for (const char* text : queries) {
    auto q = ParseConjunctive(text).ValueOrDie();
    auto planned = NaiveEvaluateCq(db, q).ValueOrDie();
    auto oracle = BacktrackEvaluateCq(db, q).ValueOrDie();
    EXPECT_TRUE(planned.EqualsAsSet(oracle))
        << "seed=" << seed << " q=" << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlanDifferentialTest,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Executor mechanics.
// ---------------------------------------------------------------------------

TEST(PlanExecutorTest, UnionAndActualRows) {
  NamedRelation a({0});
  a.rel().Add({1});
  a.rel().Add({2});
  NamedRelation b({0});
  b.rel().Add({2});
  b.rel().Add({3});
  auto u = MakeUnion({MakeScan(0, {0}, "A", 2), MakeScan(1, {0}, "B", 2)},
                     {0});
  std::vector<const NamedRelation*> inputs = {&a, &b};
  PlanStats stats;
  ExecContext ctx{inputs, {}, &stats};
  auto out = ExecutePlan(*u, ctx).ValueOrDie();
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(stats.unions, 1u);
  EXPECT_EQ(u->actual_rows, 3u);
  EXPECT_NE(RenderPlan(*u).find("actual=3"), std::string::npos);
}

TEST(PlanExecutorTest, FixpointNodesAreRejected) {
  auto fp = MakeFixpoint({MakeScan(0, {0}, "A", 1)}, "semi-naive");
  NamedRelation a({0});
  std::vector<const NamedRelation*> inputs = {&a};
  ExecContext ctx{inputs, {}, nullptr};
  EXPECT_EQ(ExecutePlan(*fp, ctx).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PlanExecutorTest, ExecutedPlanRenderShowsActuals) {
  Database db = GoldenDb();
  auto q = ParseConjunctive("ans(a, d) :- E(a,b), E(b,c), E(c,d).")
               .ValueOrDie();
  auto plan = PlanConjunctive(db, q).ValueOrDie();
  PlanStats stats;
  auto bindings = ExecutePhysicalPlan(plan, {}, &stats).ValueOrDie();
  EXPECT_FALSE(bindings.empty());
  std::string render = plan.Render();
  EXPECT_NE(render.find("actual="), std::string::npos);
  EXPECT_EQ(stats.scans, 3u);
}

// Memo release: the executor drops a node's result once the consumers
// counted at build time (PlanNode::consumers) have read it.
TEST(PlanExecutorTest, ConsumerCountsFollowParentEdges) {
  auto scan = MakeScan(0, {0, 1}, "R", 4);
  auto left = MakeProject(scan, {0}, /*dedup=*/true);
  auto right = MakeProject(scan, {1}, /*dedup=*/true);
  auto join = MakeHashJoin(left, right);
  EXPECT_EQ(scan->consumers, 2u);
  EXPECT_EQ(left->consumers, 1u);
  EXPECT_EQ(join->consumers, 0u);
  // A clone counts the edges of the cloned DAG, shared nodes once each.
  auto clone = ClonePlan(*join);
  ASSERT_EQ(clone->children[0]->children[0], clone->children[1]->children[0]);
  EXPECT_EQ(clone->children[0]->children[0]->consumers, 2u);
  EXPECT_EQ(clone->consumers, 0u);
  // Cloning several roots together keeps what they share shared.
  auto both = ClonePlans({left.get(), right.get()});
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0]->children[0], both[1]->children[0]);
  EXPECT_EQ(both[0]->children[0]->consumers, 2u);
  EXPECT_NE(both[0]->children[0], scan);
}

NamedRelation PairRows(Value n) {
  NamedRelation r({0, 1});
  for (Value i = 0; i < n; ++i) r.rel().Add({i, i + 1});
  return r;
}

TEST(PlanExecutorTest, ReleasedIntermediatesLowerPeakMemory) {
  const NamedRelation r = PairRows(20000);
  // A chain of column swaps: every level copies its input once.
  PlanNodePtr node = MakeScan(0, {0, 1}, "R", 20000);
  for (int level = 0; level < 6; ++level) {
    node = MakeProject(node,
                       level % 2 == 0 ? std::vector<AttrId>{1, 0}
                                      : std::vector<AttrId>{0, 1},
                       /*dedup=*/false);
  }
  std::vector<const NamedRelation*> inputs = {&r};
  ExecContext ctx;
  ctx.inputs = inputs;
  auto peak_bytes = [&](bool session) {
    auto accountant = std::make_shared<MemoryAccountant>();
    ScopedMemoryAccounting scope(accountant);
    Result<NamedRelation> out = NamedRelation{};
    if (session) {
      ExecSession s(ctx);  // keeps every result until the session ends
      out = s.Run(*node);
    } else {
      out = ExecutePlan(*node, ctx);
    }
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.value().size(), 20000u);
    return accountant->peak();
  };
  const uint64_t released = peak_bytes(false);
  const uint64_t kept = peak_bytes(true);
  EXPECT_GT(released, 0u);
  EXPECT_LT(2 * released, kept);
}

TEST(PlanExecutorTest, ReleaseHandlesSharedAndShortCircuitedConsumers) {
  const NamedRelation r = PairRows(50);
  const NamedRelation empty({1, 0});
  std::vector<const NamedRelation*> inputs = {&r, &empty};
  TaskScheduler scheduler(4);
  for (TaskScheduler* sched : {static_cast<TaskScheduler*>(nullptr),
                               &scheduler}) {
    // `shared` has two consumers; the join's short-circuit (empty left
    // side) may skip its read, so the union's read must still see it.
    auto shared = MakeProject(MakeScan(0, {0, 1}, "R", 50), {1, 0},
                              /*dedup=*/false);
    auto root = MakeUnion(
        {MakeHashJoin(MakeScan(1, {1, 0}, "Empty", 0), shared), shared},
        {1, 0});
    ASSERT_EQ(shared->consumers, 2u);
    RuntimeOptions runtime;
    runtime.scheduler = sched;
    PlanStats stats;
    ExecContext ctx{inputs, {}, &stats, runtime};
    auto out = ExecutePlan(*root, ctx).ValueOrDie();
    EXPECT_EQ(out.size(), 50u);
    EXPECT_EQ(stats.projections, 1u);  // computed once
    // The same DAG executed again (fresh memo) reproduces the answer.
    auto again = ExecutePlan(*root, ctx).ValueOrDie();
    EXPECT_TRUE(again.rel().EqualsAsSet(out.rel()));
  }
}

TEST(PlanExecutorTest, UnforeseenReadRecomputesReleasedNode) {
  const NamedRelation r = PairRows(30);
  std::vector<const NamedRelation*> inputs = {&r};
  auto shared = MakeProject(MakeScan(0, {0, 1}, "R", 30), {1, 0},
                            /*dedup=*/false);
  Predicate all;
  all.Add(Constraint::NeqConst(0, -1));
  auto root = MakeUnion({MakeSelect(shared, all), shared}, {1, 0});
  shared->consumers = 1;  // undercount: the second read finds it released
  PlanStats stats;
  ExecContext ctx;
  ctx.inputs = inputs;
  ctx.stats = &stats;
  auto out = ExecutePlan(*root, ctx).ValueOrDie();
  EXPECT_EQ(out.size(), 30u);
  EXPECT_EQ(stats.projections, 2u);  // recomputed for the late read
}

// ---------------------------------------------------------------------------
// Unified resource limits.
// ---------------------------------------------------------------------------

TEST(ResourceLimitsTest, StepLimitThroughNaiveOptions) {
  Database db = GraphDb(CompleteGraph(20));
  auto q = ParseConjunctive("ans(a, d) :- E(a,b), E(b,c), E(c,d).")
               .ValueOrDie();
  NaiveOptions limited;
  limited.limits.max_steps = 50;
  EXPECT_EQ(NaiveEvaluateCq(db, q, limited).status().code(),
            StatusCode::kResourceExhausted);
  // The deprecated alias still works when the unified field is unset.
  NaiveOptions legacy;
  legacy.max_steps = 50;
  EXPECT_EQ(NaiveEvaluateCq(db, q, legacy).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ResourceLimitsTest, RowLimitThroughAcyclicOptions) {
  Database db = GraphDb(CompleteGraph(30));
  auto q = ParseConjunctive("ans(a, c) :- E(a, b), E(b, c).").ValueOrDie();
  AcyclicOptions tight;
  tight.limits.max_rows = 100;
  EXPECT_EQ(AcyclicEvaluate(db, q, tight).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ResourceLimitsTest, EngineLimitsOverrideEvaluatorOptions) {
  Database db = GraphDb(CompleteGraph(20));
  EngineOptions options;
  options.limits.max_steps = 10;
  Engine engine(db, options);
  // Cyclic query: routed to the plan-based naive evaluator.
  auto q = ParseConjunctive("ans(x) :- E(x,y), E(y,z), E(z,x).").ValueOrDie();
  EXPECT_EQ(engine.Run(q).status().code(), StatusCode::kResourceExhausted);
  // Datalog: the engine-level row cap bounds total derived tuples.
  EngineOptions dl_options;
  dl_options.limits.max_rows = 5;
  Engine dl_engine(db, dl_options);
  auto result = dl_engine.RunText(
      "tc(x, y) :- E(x, y).\n"
      "tc(x, y) :- E(x, z), tc(z, y).\n");
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// UCQ: option threading, stats aggregation, disjunct dedup.
// ---------------------------------------------------------------------------

TEST(UcqPlanTest, DuplicateDisjunctsAreDeduped) {
  Database db;
  RelId a = db.AddRelation("A", 1).ValueOrDie();
  db.relation(a).Add({1});
  db.relation(a).Add({2});
  auto q = ParsePositive("ans(x) := A(x) or A(x).").ValueOrDie();
  UcqStats stats;
  auto out = EvaluatePositive(db, q, {}, &stats).ValueOrDie();
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.disjuncts_expanded, 2u);
  EXPECT_EQ(stats.disjuncts_deduped, 1u);
  EXPECT_EQ(stats.disjuncts_evaluated, 1u);
}

// EngineOptions::wcoj reaches cyclic UCQ disjuncts: with it off their
// executed plans use binary joins only, and the answers do not change.
TEST(UcqPlanTest, WcojOptionReachesCyclicDisjuncts) {
  Database db = GraphDb(GnpRandom(14, 0.3, 23));
  const std::string text =
      "ans(x) := exists y, z . ((E(x, y) and E(y, z) and E(z, x)) or "
      "E(x, x)).";
  EngineOptions on;
  EngineOptions off;
  off.wcoj = false;
  Engine with(db, on);
  Engine without(db, off);
  auto with_report = with.AnalyzeText(text, &db.dict());
  auto without_report = without.AnalyzeText(text, &db.dict());
  ASSERT_TRUE(with_report.ok()) << with_report.status();
  ASSERT_TRUE(without_report.ok()) << without_report.status();
  EXPECT_NE(with_report.value().find("MultiwayJoin"), std::string::npos);
  EXPECT_EQ(without_report.value().find("MultiwayJoin"), std::string::npos);
  EXPECT_NE(without_report.value().find("HashJoin"), std::string::npos);
  auto a = with.RunText(text).ValueOrDie();
  auto b = without.RunText(text).ValueOrDie();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(a.size(), b.size());
}

TEST(UcqPlanTest, LimitsReachAcyclicDisjuncts) {
  // Before the unification the acyclic path dropped UcqOptions entirely; a
  // row guard must now abort the oversized disjunct.
  Database db;
  RelId a = db.AddRelation("A", 1).ValueOrDie();
  for (Value v = 0; v < 200; ++v) db.relation(a).Add({v});
  auto q = ParsePositive("ans(x) := A(x) or A(x).").ValueOrDie();
  UcqOptions options;
  options.limits.max_rows = 10;
  EXPECT_EQ(EvaluatePositive(db, q, options).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(UcqPlanTest, StatsAggregateAcrossDisjuncts) {
  Database db = GraphDb(CycleGraph(4));
  auto q = ParsePositive("ans(x) := exists y . (E(x, y) or E(y, x)).")
               .ValueOrDie();
  UcqStats stats;
  auto out = EvaluatePositive(db, q, {}, &stats).ValueOrDie();
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(stats.disjuncts_evaluated, 2u);
  EXPECT_EQ(stats.acyclic_disjuncts, 2u);
  EXPECT_GE(stats.plan.scans, 2u);
  EXPECT_GE(stats.plan.projections, 2u);
}

// ---------------------------------------------------------------------------
// Datalog: per-rule plan reuse.
// ---------------------------------------------------------------------------

TEST(DatalogPlanTest, RulePlansAreReusedAcrossIterations) {
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  for (Value v = 0; v < 30; ++v) db.relation(e).Add({v, v + 1});
  DatalogStats stats;
  auto out =
      EvaluateDatalog(db, TransitiveClosureProgram(), {}, &stats).ValueOrDie();
  EXPECT_EQ(out.size(), 30u * 31u / 2u);
  // Three variants ever fire: the EDB-only rule at round 0, the recursive
  // rule at round 0 (the base rule's tuples are already in the IDB by then),
  // and the recursive rule's single delta variant; every later firing
  // reuses a cached plan — except when the observed delta size drifts >10x
  // from the size the variant was planned at, which on this chain happens
  // exactly once (the delta shrinks from 30 rows toward 1).
  EXPECT_EQ(stats.plans_built, 3u);
  EXPECT_GT(stats.plan_reuses, 10u);
  EXPECT_EQ(stats.replans, 1u);
  EXPECT_EQ(stats.rule_firings,
            stats.plans_built + stats.plan_reuses + stats.replans);
  // The shared executor's counters surface through DatalogStats::plan.
  EXPECT_EQ(stats.edb_index_builds, stats.plan.index_builds);
  EXPECT_GT(stats.plan.joins, 10u);
}

// ---------------------------------------------------------------------------
// Engine and EXPLAIN surface.
// ---------------------------------------------------------------------------

TEST(EnginePlanTest, ExplainTextRendersPlansForAllLanguages) {
  Database db = GraphDb(CycleGraph(4));
  Engine engine(db);
  auto cq = engine.ExplainText("ans(a, c) :- E(a, b), E(b, c).").ValueOrDie();
  EXPECT_NE(cq.find("physical plan:"), std::string::npos);
  EXPECT_NE(cq.find("HashJoin"), std::string::npos);
  EXPECT_NE(cq.find("Semijoin"), std::string::npos);
  auto ucq = engine.ExplainText("ans(x) := exists y . (E(x, y) or E(y, x)).")
                 .ValueOrDie();
  EXPECT_NE(ucq.find("physical plan:"), std::string::npos);
  EXPECT_NE(ucq.find("Union [2 disjuncts]"), std::string::npos);
  auto dl = engine.ExplainText(
                   "tc(x, y) :- E(x, y).\n"
                   "tc(x, y) :- E(x, z), tc(z, y).\n")
                .ValueOrDie();
  EXPECT_NE(dl.find("physical plan:"), std::string::npos);
  EXPECT_NE(dl.find("Fixpoint(tc)"), std::string::npos);
}

TEST(EnginePlanTest, PlanTextDoesNotExecute) {
  Database db = GraphDb(CycleGraph(4));
  Engine engine(db);
  auto plan = engine.PlanText("ans(a, c) :- E(a, b), E(b, c).").ValueOrDie();
  EXPECT_NE(plan.find("route: Yannakakis"), std::string::npos);
  // Estimates only — nothing ran, so no actual row counts.
  EXPECT_EQ(plan.find("actual="), std::string::npos);
  EXPECT_FALSE(engine.PlanText("p() := not (exists x . E(x, x)).").ok());
}

TEST(EnginePlanTest, LastStatsCarryPlanCounters) {
  Database db = GraphDb(CycleGraph(4));
  Engine engine(db);
  ASSERT_TRUE(engine.RunText("ans(a, c) :- E(a, b), E(b, c).").ok());
  EXPECT_EQ(engine.last_stats().plan.joins, 1u);
  EXPECT_EQ(engine.last_stats().plan.semijoins, 2u);
  EXPECT_EQ(engine.last_stats().acyclic.joins, 1u);  // legacy mirror
  ASSERT_TRUE(engine
                  .RunText(
                      "tc(x, y) :- E(x, y).\n"
                      "tc(x, y) :- E(x, z), tc(z, y).\n")
                  .ok());
  EXPECT_GT(engine.last_stats().plan.joins, 0u);
  EXPECT_GT(engine.last_stats().datalog.plans_built, 0u);
  ASSERT_TRUE(
      engine.RunText("ans(x) := exists y . (E(x, y) or E(y, x)).").ok());
  EXPECT_EQ(engine.last_stats().ucq.disjuncts_evaluated, 2u);
  EXPECT_GT(engine.last_stats().plan.scans, 0u);
  EXPECT_FALSE(engine.last_stats().ToString().empty());
}

}  // namespace
}  // namespace paraquery
