// Tests for the Theorem 2 engine: acyclic conjunctive queries with ≠.
#include <gtest/gtest.h>

#include <string>

#include "common/query_context.hpp"
#include "common/rng.hpp"
#include "eval/inequality.hpp"
#include "eval/naive.hpp"
#include "graph/generators.hpp"
#include "hashing/coloring.hpp"
#include "query/ineq_formula.hpp"
#include "query/parser.hpp"

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

IneqOptions Certified() {
  IneqOptions o;
  o.driver = IneqOptions::Driver::kCertified;
  return o;
}

TEST(IneqTest, PaperEmployeeProjectExample) {
  // G(e) :- EP(e,p), EP(e,p'), p != p' — employees on more than one project.
  Database db;
  RelId ep = db.AddRelation("EP", 2).ValueOrDie();
  db.relation(ep).Add({1, 100});
  db.relation(ep).Add({1, 101});
  db.relation(ep).Add({2, 100});
  db.relation(ep).Add({3, 102});
  db.relation(ep).Add({3, 102});  // duplicate row: still one project
  auto q = ParseConjunctive("g(e) :- EP(e, p), EP(e, q), p != q.")
               .ValueOrDie();
  IneqStats stats;
  auto out = IneqEvaluate(db, q, Certified(), &stats).ValueOrDie();
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains(std::vector<Value>{1}));
  EXPECT_TRUE(stats.certified);
  // p, q do not co-occur in one atom: the inequality is in I1, k = 2.
  EXPECT_EQ(stats.k, 2);
  EXPECT_EQ(stats.i1_atoms, 1u);
}

TEST(IneqTest, PaperStudentCourseExample) {
  // G(s) :- SD(s,d), SC(s,c), CD(c,d'), d != d' — students taking a course
  // outside their department.
  Database db;
  RelId sd = db.AddRelation("SD", 2).ValueOrDie();
  RelId sc = db.AddRelation("SC", 2).ValueOrDie();
  RelId cd = db.AddRelation("CD", 2).ValueOrDie();
  // Student 1 in dept 10 takes course 20 (dept 11): outside.
  // Student 2 in dept 11 takes course 21 (dept 11): inside.
  db.relation(sd).Add({1, 10});
  db.relation(sd).Add({2, 11});
  db.relation(sc).Add({1, 20});
  db.relation(sc).Add({2, 21});
  db.relation(cd).Add({20, 11});
  db.relation(cd).Add({21, 11});
  auto q = ParseConjunctive(
               "g(s) :- SD(s, d), SC(s, c), CD(c, e), d != e.")
               .ValueOrDie();
  auto out = IneqEvaluate(db, q, Certified()).ValueOrDie();
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains(std::vector<Value>{1}));
}

TEST(IneqTest, CoOccurringInequalityGoesToI2) {
  Database db = GraphDb(CycleGraph(4));
  auto q = ParseConjunctive("ans(x, y) :- E(x, y), x != y.").ValueOrDie();
  IneqStats stats;
  auto out = IneqEvaluate(db, q, Certified(), &stats).ValueOrDie();
  EXPECT_EQ(stats.k, 0);  // handled entirely by selections
  EXPECT_EQ(stats.i2_atoms, 1u);
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(out.EqualsAsSet(naive));
}

TEST(IneqTest, VarConstInequalitiesPushed) {
  Database db = GraphDb(PathGraph(5));
  auto q = ParseConjunctive("ans(x) :- E(x, y), x != 0, y != 3.")
               .ValueOrDie();
  IneqStats stats;
  auto out = IneqEvaluate(db, q, Certified(), &stats).ValueOrDie();
  EXPECT_EQ(stats.k, 0);
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(out.EqualsAsSet(naive));
}

TEST(IneqTest, PureAcyclicDegeneratesToYannakakis) {
  Database db = GraphDb(GnpRandom(10, 0.3, 7));
  auto q = ParseConjunctive("ans(a, c) :- E(a,b), E(b,c).").ValueOrDie();
  IneqStats stats;
  auto out = IneqEvaluate(db, q, Certified(), &stats).ValueOrDie();
  EXPECT_EQ(stats.k, 0);
  EXPECT_EQ(stats.family_size, 1u);
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(out.EqualsAsSet(naive));
}

TEST(IneqTest, RejectsOrderComparisonsAndCyclicQueries) {
  Database db = GraphDb(PathGraph(3));
  auto lt = ParseConjunctive("p() :- E(x, y), x < y.").ValueOrDie();
  EXPECT_FALSE(IneqNonempty(db, lt).ok());
  auto cyc =
      ParseConjunctive("p() :- E(x,y), E(y,z), E(z,x), x != y.").ValueOrDie();
  EXPECT_FALSE(IneqNonempty(db, cyc).ok());
}

TEST(IneqTest, TriviallyFalseComparisons) {
  Database db = GraphDb(PathGraph(3));
  auto q = ParseConjunctive("p() :- E(x, y), x != x.").ValueOrDie();
  EXPECT_FALSE(IneqNonempty(db, q, Certified()).ValueOrDie());
  auto q2 = ParseConjunctive("p() :- E(x, y), 3 != 3.").ValueOrDie();
  EXPECT_FALSE(IneqNonempty(db, q2, Certified()).ValueOrDie());
  auto q3 = ParseConjunctive("p() :- E(x, y), 3 != 4.").ValueOrDie();
  EXPECT_TRUE(IneqNonempty(db, q3, Certified()).ValueOrDie());
}

TEST(IneqTest, SimplePathsOfLengthK) {
  // Simple paths via all-pairs ≠: the color-coding special case the paper
  // cites (Monien / Alon-Yuster-Zwick). Path graph has simple 3-paths;
  // star graph does not.
  const char* text =
      "p() :- E(a,b), E(b,c), E(c,d), a != b, a != c, a != d, b != c, "
      "b != d, c != d.";
  auto q = ParseConjunctive(text).ValueOrDie();

  Database path = GraphDb(PathGraph(5));
  EXPECT_TRUE(IneqNonempty(path, q, Certified()).ValueOrDie());

  Graph star(6);
  for (int i = 1; i < 6; ++i) star.AddEdge(0, i);
  Database stardb = GraphDb(star);
  EXPECT_FALSE(IneqNonempty(stardb, q, Certified()).ValueOrDie());
}

TEST(IneqTest, DisconnectedQueryComponentsWithCrossInequality) {
  // A(x), B(y), x != y across components of the query hypergraph.
  Database db;
  RelId a = db.AddRelation("A", 1).ValueOrDie();
  RelId b = db.AddRelation("B", 1).ValueOrDie();
  db.relation(a).Add({1});
  db.relation(b).Add({1});
  auto q = ParseConjunctive("p() :- A(x), B(y), x != y.").ValueOrDie();
  EXPECT_FALSE(IneqNonempty(db, q, Certified()).ValueOrDie());
  db.relation(b).Add({2});
  EXPECT_TRUE(IneqNonempty(db, q, Certified()).ValueOrDie());
  auto out = IneqEvaluate(db, q, Certified()).ValueOrDie();
  EXPECT_EQ(out.size(), 1u);
}

TEST(IneqTest, ContainsDecision) {
  Database db = GraphDb(PathGraph(4));
  auto q = ParseConjunctive("ans(x, z) :- E(x, y), E(y, z), x != z.")
               .ValueOrDie();
  EXPECT_TRUE(IneqContains(db, q, {0, 2}, Certified()).ValueOrDie());
  EXPECT_FALSE(IneqContains(db, q, {0, 0}, Certified()).ValueOrDie());
}

TEST(IneqTest, MonteCarloIsSoundAndUsuallyComplete) {
  // Monte Carlo: positives always sound; with c = 6 the failure rate is
  // ~e^-6, so these fixed seeds must find the witness.
  Database db = GraphDb(PathGraph(6));
  auto q = ParseConjunctive(
               "p() :- E(a,b), E(b,c), a != c, a != b, b != c.")
               .ValueOrDie();
  IneqOptions mc;
  mc.driver = IneqOptions::Driver::kMonteCarlo;
  mc.mc_error_exponent = 6.0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    mc.seed = seed;
    EXPECT_TRUE(IneqNonempty(db, q, mc).ValueOrDie()) << "seed=" << seed;
  }
}

TEST(IneqTest, StatsReportFamilyAndTrials) {
  Database db = GraphDb(PathGraph(6));
  auto q = ParseConjunctive("p() :- E(a,b), E(c,d), a != c.").ValueOrDie();
  IneqStats stats;
  ASSERT_TRUE(IneqNonempty(db, q, Certified(), &stats).ValueOrDie());
  EXPECT_EQ(stats.k, 2);
  EXPECT_GE(stats.family_size, 1u);
  EXPECT_GE(stats.trials, 1u);
  EXPECT_LE(stats.trials, stats.family_size);
}

// The main property: on random acyclic ≠-queries the certified engine
// matches naive backtracking exactly.
class IneqPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IneqPropertyTest, MatchesNaiveOnRandomAcyclicNeqQueries) {
  Rng rng(GetParam());
  Database db;
  const char* names[] = {"R0", "R1"};
  for (const char* name : names) {
    RelId id = db.AddRelation(name, 2).ValueOrDie();
    int rows = 8 + static_cast<int>(rng.Below(18));
    for (int i = 0; i < rows; ++i) {
      db.relation(id).Add({rng.Range(0, 6), rng.Range(0, 6)});
    }
  }
  // Random acyclic query as a random tree of binary atoms.
  ConjunctiveQuery q;
  int num_atoms = 2 + static_cast<int>(rng.Below(4));
  std::vector<VarId> pool = {q.vars.Intern("v0")};
  for (int i = 0; i < num_atoms; ++i) {
    VarId shared = pool[rng.Below(pool.size())];
    std::string fresh_name = std::string("v") + std::to_string(i + 1);
    VarId fresh = q.vars.Intern(fresh_name);
    Atom a{names[rng.Below(2)], {Term::Var(shared), Term::Var(fresh)}};
    if (rng.Chance(0.5)) std::swap(a.terms[0], a.terms[1]);
    q.body.push_back(a);
    pool.push_back(fresh);
  }
  // Random ≠ atoms over the variable pool (some co-occur -> I2, some not
  // -> I1), plus occasionally a var != const atom.
  int num_neq = 1 + static_cast<int>(rng.Below(4));
  for (int i = 0; i < num_neq; ++i) {
    VarId x = pool[rng.Below(pool.size())];
    if (rng.Chance(0.2)) {
      q.comparisons.push_back(
          {CompareOp::kNeq, Term::Var(x), Term::Const(rng.Range(0, 6))});
    } else {
      VarId y = pool[rng.Below(pool.size())];
      if (x == y) continue;
      q.comparisons.push_back({CompareOp::kNeq, Term::Var(x), Term::Var(y)});
    }
  }
  q.head = {Term::Var(pool[0]), Term::Var(pool[pool.size() / 2])};
  ASSERT_TRUE(q.IsAcyclic());

  IneqStats stats;
  auto fpt = IneqEvaluate(db, q, Certified(), &stats).ValueOrDie();
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(fpt.EqualsAsSet(naive))
      << q.ToString() << "\nk=" << stats.k << " i1=" << stats.i1_atoms;
  EXPECT_EQ(IneqNonempty(db, q, Certified()).ValueOrDie(), !naive.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IneqPropertyTest,
                         ::testing::Range<uint64_t>(1, 61));

// ---------------------------------------------------------------------------
// Plan lowering vs the recorded oracle: the historical hand-rolled
// per-coloring relational-algebra code (the *Oracle entry points) was
// deleted after soaking; before its removal, its answers over this exact
// generator family were recorded into tests/theorem2_recorded.inc (arity,
// row count, FNV-1a hash of the sorted+deduped row bytes, and the
// nonemptiness decision). Same options + same seed = same coloring family,
// so the lowered path must keep reproducing every recorded entry
// byte-for-byte.
// ---------------------------------------------------------------------------

// Mirrors the layout of the entries in tests/theorem2_recorded.inc.
struct RecordedIneqAnswer {
  uint64_t seed;
  int driver;  // 0 = kCertified, 1 = kMonteCarlo
  size_t arity;
  size_t rows;
  uint64_t hash;
  bool nonempty;
};

#include "theorem2_recorded.inc"

// FNV-1a over the 8 LE bytes of arity, size, then every value — the exact
// procedure the fixture generator used.
uint64_t FnvRelation(const Relation& r) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(static_cast<uint64_t>(r.arity()));
  mix(static_cast<uint64_t>(r.size()));
  for (Value v : r.data()) mix(static_cast<uint64_t>(v));
  return h;
}

void ExpectMatchesRecorded(const Relation& out, const RecordedIneqAnswer& rec,
                           const std::string& context) {
  ASSERT_EQ(out.arity(), rec.arity) << context;
  ASSERT_EQ(out.size(), rec.rows) << context;
  EXPECT_EQ(FnvRelation(out), rec.hash) << context;
}

const RecordedIneqAnswer& FindRecorded(uint64_t seed, int driver) {
  for (const RecordedIneqAnswer& rec : kRecordedIneqAnswers) {
    if (rec.seed == seed && rec.driver == driver) return rec;
  }
  ADD_FAILURE() << "no recorded answer for seed " << seed;
  static RecordedIneqAnswer missing{};
  return missing;
}

class IneqLoweringDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IneqLoweringDifferentialTest, PlanMatchesRecordedOracleByteForByte) {
  Rng rng(GetParam() * 7919 + 13);
  Database db;
  const char* names[] = {"R0", "R1"};
  for (const char* name : names) {
    RelId id = db.AddRelation(name, 2).ValueOrDie();
    int rows = 8 + static_cast<int>(rng.Below(20));
    for (int i = 0; i < rows; ++i) {
      db.relation(id).Add({rng.Range(0, 6), rng.Range(0, 6)});
    }
  }
  // Random acyclic tree query with a random mix of I1/I2/var-const ≠ atoms
  // (same generator family as the MatchesNaive suite).
  ConjunctiveQuery q;
  int num_atoms = 2 + static_cast<int>(rng.Below(4));
  std::vector<VarId> pool = {q.vars.Intern("v0")};
  for (int i = 0; i < num_atoms; ++i) {
    VarId shared = pool[rng.Below(pool.size())];
    VarId fresh = q.vars.Intern(std::string("v") + std::to_string(i + 1));
    Atom a{names[rng.Below(2)], {Term::Var(shared), Term::Var(fresh)}};
    if (rng.Chance(0.5)) std::swap(a.terms[0], a.terms[1]);
    q.body.push_back(a);
    pool.push_back(fresh);
  }
  int num_neq = 1 + static_cast<int>(rng.Below(4));
  for (int i = 0; i < num_neq; ++i) {
    VarId x = pool[rng.Below(pool.size())];
    if (rng.Chance(0.2)) {
      q.comparisons.push_back(
          {CompareOp::kNeq, Term::Var(x), Term::Const(rng.Range(0, 6))});
    } else {
      VarId y = pool[rng.Below(pool.size())];
      if (x == y) continue;
      q.comparisons.push_back({CompareOp::kNeq, Term::Var(x), Term::Var(y)});
    }
  }
  q.head = {Term::Var(pool[0]), Term::Var(pool[pool.size() / 2])};
  ASSERT_TRUE(q.IsAcyclic());

  // Width 4 runs the colorings as scheduler tasks: same bytes as width 1.
  TaskScheduler scheduler(4);
  for (TaskScheduler* sched : {static_cast<TaskScheduler*>(nullptr),
                               &scheduler}) {
    for (auto driver :
         {IneqOptions::Driver::kCertified, IneqOptions::Driver::kMonteCarlo}) {
      IneqOptions options;
      options.driver = driver;
      options.mc_error_exponent = 2.0;
      options.seed = GetParam();
      options.runtime.scheduler = sched;
      const std::string context =
          q.ToString() + (sched != nullptr ? " (threads=4)" : "");
      const RecordedIneqAnswer& rec = FindRecorded(
          GetParam(), driver == IneqOptions::Driver::kCertified ? 0 : 1);
      auto planned = IneqEvaluate(db, q, options);
      ASSERT_TRUE(planned.ok()) << planned.status();
      ExpectMatchesRecorded(planned.value(), rec, context);
      EXPECT_EQ(IneqNonempty(db, q, options).ValueOrDie(), rec.nonempty);
      // A warm plan cache (and its cached family) must not change a single
      // byte either.
      PlanCache cache;
      options.plan_cache = &cache;
      for (int round = 0; round < 2; ++round) {
        auto cached = IneqEvaluate(db, q, options);
        ASSERT_TRUE(cached.ok()) << cached.status();
        ExpectMatchesRecorded(cached.value(), rec, context + " (cached)");
        EXPECT_EQ(IneqNonempty(db, q, options).ValueOrDie(), rec.nonempty);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IneqLoweringDifferentialTest,
                         ::testing::Range<uint64_t>(1, 41));

TEST(IneqTest, FormulaModePlanMatchesRecordedOracle) {
  Rng rng(4242);
  Database db;
  RelId r = db.AddRelation("R", 2).ValueOrDie();
  for (int i = 0; i < 40; ++i) {
    db.relation(r).Add({rng.Range(0, 5), rng.Range(0, 5)});
  }
  // Acyclic chain body, ∧/∨ formula over its variables + one constant.
  auto q = ParseConjunctive("ans(a, c) :- R(a, b), R(b, c), R(c, d).")
               .ValueOrDie();
  IneqFormula phi;
  int ab = phi.AddAtom({CompareOp::kNeq, Term::Var(0), Term::Var(1)});
  int cd = phi.AddAtom({CompareOp::kNeq, Term::Var(2), Term::Var(3)});
  int ac3 = phi.AddAtom({CompareOp::kNeq, Term::Var(0), Term::Const(3)});
  phi.root = phi.AddAnd({phi.AddOr({ab, cd}), phi.AddOr({cd, ac3})});
  TaskScheduler scheduler(4);
  for (TaskScheduler* sched : {static_cast<TaskScheduler*>(nullptr),
                               &scheduler}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      IneqOptions options;
      options.seed = seed;
      options.runtime.scheduler = sched;
      const std::string context =
          sched != nullptr ? "formula mode threads=4" : "formula mode";
      const RecordedIneqAnswer& rec = kRecordedFormulaAnswers[seed - 1];
      ASSERT_EQ(rec.seed, seed);
      auto planned = IneqFormulaEvaluate(db, q, phi, options);
      ASSERT_TRUE(planned.ok()) << planned.status();
      ExpectMatchesRecorded(planned.value(), rec, context);
      EXPECT_EQ(IneqFormulaNonempty(db, q, phi, options).ValueOrDie(),
                rec.nonempty);
      // Cached formula compilation: same bytes again.
      PlanCache cache;
      options.plan_cache = &cache;
      auto cached = IneqFormulaEvaluate(db, q, phi, options);
      ASSERT_TRUE(cached.ok()) << cached.status();
      ExpectMatchesRecorded(cached.value(), rec, context + " cached");
    }
  }
}

// Decision mode resolves the parallel colorings in coloring order: the
// witness index, hence `trials`, is the one the sequential loop reports,
// and so are the answer, the family statistics and the operator counts.
TEST(IneqTest, ParallelDecisionReportsSequentialTrials) {
  TaskScheduler scheduler(4);
  const char* queries[] = {
      "p() :- E(a, b), E(b, c), E(c, d), a != c, b != d, a != d.",
      "p() :- E(a, b), E(b, c), E(c, d), E(d, e), a != c, a != d, a != e, "
      "b != d, b != e, c != e.",
      "p() :- E(a, b), E(c, d), a != c, b != d.",
  };
  size_t late_witnesses = 0;  // witness past the first coloring
  size_t no_witness = 0;
  for (uint64_t graph_seed = 1; graph_seed <= 12; ++graph_seed) {
    Database db =
        GraphDb(GnpRandom(10, 0.08 + 0.02 * (graph_seed % 4), graph_seed));
    for (const char* text : queries) {
      SCOPED_TRACE(std::string(text) + " graph " + std::to_string(graph_seed));
      auto q = ParseConjunctive(text).ValueOrDie();
      for (auto driver : {IneqOptions::Driver::kCertified,
                          IneqOptions::Driver::kMonteCarlo}) {
        IneqOptions options;
        options.driver = driver;
        IneqStats seq_stats, par_stats;
        PlanStats seq_plan, par_plan;
        bool seq = IneqNonempty(db, q, options, &seq_stats, &seq_plan)
                       .ValueOrDie();
        options.runtime.scheduler = &scheduler;
        bool par = IneqNonempty(db, q, options, &par_stats, &par_plan)
                       .ValueOrDie();
        EXPECT_EQ(seq, par);
        EXPECT_EQ(seq_stats.trials, par_stats.trials);
        EXPECT_EQ(seq_stats.family_size, par_stats.family_size);
        // A one-member family keeps the executor's own parallelism, whose
        // speculative work shows in the operator counts.
        if (seq_stats.family_size == 1) continue;
        EXPECT_EQ(seq_stats.peak_rows, par_stats.peak_rows);
        EXPECT_EQ(seq_plan.joins, par_plan.joins);
        EXPECT_EQ(seq_plan.rows_produced, par_plan.rows_produced);
        if (seq && seq_stats.trials > 1) ++late_witnesses;
        if (!seq) ++no_witness;
      }
    }
  }
  EXPECT_GT(late_witnesses, 0u);
  EXPECT_GT(no_witness, 0u);
}

// Per-coloring limits and interrupts hold under parallel colorings: the
// first failing coloring in coloring order decides the error.
TEST(IneqTest, ParallelColoringsHonorLimitsAndCancellation) {
  TaskScheduler scheduler(4);
  Database db = GraphDb(CompleteGraph(14));
  auto q = ParseConjunctive(
               "ans(a, d) :- E(a, b), E(b, c), E(c, d), a != d, b != d.")
               .ValueOrDie();
  IneqOptions options;
  options.runtime.scheduler = &scheduler;
  options.limits.max_rows = 10;
  EXPECT_EQ(IneqEvaluate(db, q, options).status().code(),
            StatusCode::kResourceExhausted);
  options.limits.max_rows = 0;
  QueryContext ctx;
  ctx.Cancel();
  options.runtime.query_ctx = &ctx;
  EXPECT_EQ(IneqEvaluate(db, q, options).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(IneqNonempty(db, q, options).status().code(),
            StatusCode::kCancelled);
  options.runtime.query_ctx = nullptr;
  IneqStats stats;
  auto out = IneqEvaluate(db, q, options, &stats);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(stats.trials, stats.family_size);
  EXPECT_TRUE(out.value().EqualsAsSet(NaiveEvaluateCq(db, q).ValueOrDie()));
}

// The family is built once per compiled entry and reused across queries,
// while IneqStats still reports it on every call; different family options
// rebuild it.
TEST(IneqTest, CachedFamilyReportsStatsOnEveryCall) {
  Database db = GraphDb(GnpRandom(12, 0.3, 5));
  auto q = ParseConjunctive("ans(a) :- E(a, b), E(b, c), a != c.")
               .ValueOrDie();
  PlanCache cache;
  IneqOptions options = Certified();
  options.plan_cache = &cache;
  IneqStats first, second;
  auto a = IneqEvaluate(db, q, options, &first).ValueOrDie();
  auto b = IneqEvaluate(db, q, options, &second).ValueOrDie();
  EXPECT_TRUE(a.EqualsAsSet(b));
  EXPECT_EQ(first.k, 2);
  EXPECT_EQ(second.k, 2);
  EXPECT_TRUE(second.certified);
  EXPECT_EQ(first.family_size, second.family_size);
  EXPECT_EQ(first.trials, second.trials);
  options.driver = IneqOptions::Driver::kMonteCarlo;
  options.mc_error_exponent = 3.0;
  IneqStats mc;
  ASSERT_TRUE(IneqEvaluate(db, q, options, &mc).ok());
  EXPECT_FALSE(mc.certified);
  EXPECT_EQ(mc.family_size, ColoringFamily::MonteCarlo(2, 3.0, options.seed)
                                .size());
}

TEST(IneqTest, LoweredPathReportsPlanStats) {
  Database db = GraphDb(GnpRandom(20, 0.3, 3));
  auto q = ParseConjunctive("ans(a) :- E(a, b), E(b, c), a != c.")
               .ValueOrDie();
  IneqStats stats;
  PlanStats plan;
  auto out = IneqEvaluate(db, q, Certified(), &stats, &plan).ValueOrDie();
  EXPECT_GT(plan.joins + plan.semijoins, 0u);  // went through the executor
  EXPECT_GT(plan.scans, 0u);
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(out.EqualsAsSet(naive));
}

TEST(IneqTest, LoweredPathHonorsResourceLimits) {
  // A tight per-operator row cap must abort the plan execution, exactly as
  // the engine-level unified limits promise.
  Database db = GraphDb(CompleteGraph(14));
  auto q = ParseConjunctive(
               "ans(a, d) :- E(a, b), E(b, c), E(c, d), a != d.")
               .ValueOrDie();
  IneqOptions options;
  options.limits.max_rows = 10;
  EXPECT_EQ(IneqEvaluate(db, q, options).status().code(),
            StatusCode::kResourceExhausted);
  options.limits.max_rows = 0;
  options.limits.max_steps = 20;
  EXPECT_EQ(IneqEvaluate(db, q, options).status().code(),
            StatusCode::kResourceExhausted);
  options.limits.max_steps = 0;
  EXPECT_TRUE(IneqEvaluate(db, q, options).ok());
}

TEST(IneqTest, PlanTextRendersLoweredDag) {
  Database db = GraphDb(PathGraph(5));
  auto q = ParseConjunctive("g(e) :- E(e, p), E(e, q), p != q.").ValueOrDie();
  std::string text = IneqPlanText(db, q).ValueOrDie();
  EXPECT_NE(text.find("Theorem 2 color coding"), std::string::npos);
  EXPECT_NE(text.find("HashJoin"), std::string::npos);
  EXPECT_NE(text.find("p'"), std::string::npos);  // primed hash column
  EXPECT_NE(text.find("!="), std::string::npos);  // the I1 select
  // p and q are read by no other atom and no head term: S'_j carries only
  // their colors next to the join column.
  EXPECT_NE(text.find("Scan(e, p') S'(E(e, p))"), std::string::npos) << text;
  EXPECT_NE(text.find("Scan(e, q') S'(E(e, q))"), std::string::npos) << text;
}

// Deeper trees with several I1 inequalities crossing subtrees.
TEST(IneqTest, DeepTreeCrossSubtreeInequalities) {
  Rng rng(99);
  Database db;
  RelId r = db.AddRelation("R", 2).ValueOrDie();
  for (int i = 0; i < 60; ++i) {
    db.relation(r).Add({rng.Range(0, 9), rng.Range(0, 9)});
  }
  // Star of paths: center v0 with three 2-edge arms; inequalities between
  // the arm tips (never co-occurring).
  auto q = ParseConjunctive(
               "ans(c) :- R(c, a1), R(a1, a2), R(c, b1), R(b1, b2), "
               "R(c, d1), R(d1, d2), a2 != b2, b2 != d2, a2 != d2.")
               .ValueOrDie();
  ASSERT_TRUE(q.IsAcyclic());
  IneqStats stats;
  auto fpt = IneqEvaluate(db, q, Certified(), &stats).ValueOrDie();
  EXPECT_EQ(stats.k, 3);
  auto naive = NaiveEvaluateCq(db, q).ValueOrDie();
  EXPECT_TRUE(fpt.EqualsAsSet(naive));
}

}  // namespace
}  // namespace paraquery
