#include "layers.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "core/classifier.hpp"
#include "eval/acyclic.hpp"
#include "eval/counting.hpp"
#include "eval/datalog_eval.hpp"
#include "eval/fo.hpp"
#include "eval/inequality.hpp"
#include "eval/naive.hpp"
#include "eval/ucq.hpp"
#include "hashing/coloring.hpp"
#include "hypergraph/hypertree.hpp"
#include "hypergraph/join_tree.hpp"
#include "plan/executor.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"
#include "query/comparison_closure.hpp"
#include "query/parser.hpp"
#include "relational/row_index.hpp"

namespace perfbench {

using namespace paraquery;

namespace {

// Operators whose executor spans get a self-time metric.
constexpr const char* kOperators[] = {
    "HashJoin",  "Semijoin",  "Select",        "Project",    "Dedup",
    "MultiwayJoin", "Aggregate", "SemijoinCount", "Materialize"};

// Every executor operator span (the ones above plus the rest of PlanOp),
// for the share of query time spent inside operators.
bool IsOperatorSpan(const std::string& name) {
  for (const char* op : kOperators) {
    if (name == op) return true;
  }
  return name == "Union" || name == "Fixpoint";
}

// Spans kept for the Chrome trace of one run.
constexpr size_t kKeptSpanBudget = 200000;

// The engine's syntax dispatch (Engine::RunText).
enum class TextKind { kRule, kDatalogProgram, kFormula };

TextKind SniffKind(const std::string& text) {
  if (text.find(":=") != std::string::npos) return TextKind::kFormula;
  size_t arrows = 0;
  for (size_t pos = 0; (pos = text.find(":-", pos)) != std::string::npos;
       pos += 2) {
    ++arrows;
  }
  if (arrows >= 2 || text.find("@goal") != std::string::npos) {
    return TextKind::kDatalogProgram;
  }
  return TextKind::kRule;
}

// V1 of the Theorem 2 engine: the variables of ≠ atoms whose endpoints
// share no relational atom.
std::vector<VarId> ColorCodedVariables(const ConjunctiveQuery& q) {
  const Hypergraph h = q.BuildHypergraph();
  std::set<VarId> v1;
  for (const CompareAtom& c : q.comparisons) {
    if (c.op != CompareOp::kNeq || !c.lhs.is_var() || !c.rhs.is_var()) {
      continue;
    }
    if (!h.CoOccur(c.lhs.var(), c.rhs.var())) {
      v1.insert(c.lhs.var());
      v1.insert(c.rhs.var());
    }
  }
  return {v1.begin(), v1.end()};
}

// The values V1 can take: the V1 columns of every atom's rows that pass the
// atom's own selections (constants, repeated variables, ≠ atoms local to
// the atom) — the ground set a certified family must cover.
std::vector<Value> ColoringGroundSet(const Database& db,
                                     const ConjunctiveQuery& q,
                                     const std::vector<VarId>& v1) {
  std::set<Value> ground;
  for (const Atom& atom : q.body) {
    auto id = db.FindRelation(atom.relation);
    if (!id.ok()) continue;
    const Relation& rel = db.relation(id.value());
    const auto position = [&](VarId v) {
      for (size_t i = 0; i < atom.terms.size(); ++i) {
        if (atom.terms[i].is_var() && atom.terms[i].var() == v) {
          return static_cast<int>(i);
        }
      }
      return -1;
    };
    for (size_t r = 0; r < rel.size(); ++r) {
      bool pass = true;
      for (size_t i = 0; i < atom.terms.size() && pass; ++i) {
        const Term& t = atom.terms[i];
        if (t.is_const()) {
          pass = rel.At(r, i) == t.value();
        } else {
          const int first = position(t.var());
          pass = rel.At(r, first) == rel.At(r, i);
        }
      }
      for (const CompareAtom& c : q.comparisons) {
        if (!pass) break;
        if (c.op != CompareOp::kNeq) continue;
        const int a = c.lhs.is_var() ? position(c.lhs.var()) : -2;
        const int b = c.rhs.is_var() ? position(c.rhs.var()) : -2;
        if (a == -1 || b == -1 || (a == -2 && b == -2)) continue;
        const Value x = a >= 0 ? rel.At(r, a) : c.lhs.value();
        const Value y = b >= 0 ? rel.At(r, b) : c.rhs.value();
        pass = x != y;
      }
      if (!pass) continue;
      for (VarId v : v1) {
        const int p = position(v);
        if (p >= 0) ground.insert(rel.At(r, p));
      }
    }
  }
  return {ground.begin(), ground.end()};
}

Relation FreshCopy(const Relation& rel) {
  std::vector<Value> data;
  data.reserve(rel.size() * rel.arity());
  for (size_t r = 0; r < rel.size(); ++r) {
    for (size_t c = 0; c < rel.arity(); ++c) data.push_back(rel.At(r, c));
  }
  return Relation(rel.arity(), std::move(data));
}

uint64_t Scraped(Engine& engine, const char* counter) {
  return engine.metrics().counter(counter).value();
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> metrics = [] {
    std::vector<LayerMetric> m = {
        {"query.parse_us", "us", "lower"},
        {"query.closure_us", "us", "lower"},
        {"core.classify_us", "us", "lower"},
        {"core.query_us", "us", "lower"},
        {"core.engine_overhead_us", "us", "lower"},
        {"plan.canonicalize_us", "us", "lower"},
        {"plan.cache_hit_ratio", "ratio", "higher"},
        {"plan.cache_evictions", "count", "lower"},
        {"plan.cache_stale_per_write", "count", "lower"},
        {"plan.plan_us", "us", "lower"},
        {"plan.execute_us", "us", "lower"},
        {"plan.operator_share", "ratio", "higher"},
        {"plan.rows_examined_per_answer", "ratio", "lower"},
        {"plan.peak_intermediate_rows", "rows", "lower"},
        {"plan.index_hit_ratio", "ratio", "higher"},
    };
    for (const char* op : kOperators) {
      m.push_back({std::string("plan.op.") + op + ".self_ms", "ms", "lower"});
    }
    const std::vector<LayerMetric> rest = {
        {"eval.acyclic_us", "us", "lower"},
        {"eval.cyclic_us", "us", "lower"},
        {"eval.theorem2_us", "us", "lower"},
        {"eval.counting_us", "us", "lower"},
        {"eval.ucq_us", "us", "lower"},
        {"eval.datalog_us", "us", "lower"},
        {"eval.fo_us", "us", "lower"},
        {"eval.route_share", "ratio", "lower"},
        {"eval.theorem2.colorings", "count", "lower"},
        {"eval.theorem2.us_per_coloring", "us", "lower"},
        {"eval.datalog.iterations", "count", "lower"},
        {"eval.datalog.plan_reuse_ratio", "ratio", "higher"},
        {"hypergraph.join_tree_us", "us", "lower"},
        {"hypergraph.ghd_us", "us", "lower"},
        {"hashing.family_size", "count", "lower"},
        {"hashing.family_build_us", "us", "lower"},
        {"relational.row_index_build_us", "us", "lower"},
        {"relational.trie_build_us", "us", "lower"},
        {"relational.columnar_build_us", "us", "lower"},
        {"relational.trie_hit_ratio", "ratio", "higher"},
        {"relational.columnar_hit_ratio", "ratio", "higher"},
        {"relational.leapfrog_self_ms", "ms", "lower"},
        {"runtime.tasks_per_query", "count", "lower"},
        {"runtime.steals_per_query", "count", "lower"},
        {"runtime.idle_sleeps_per_query", "count", "lower"},
        {"runtime.morsels_per_query", "count", "lower"},
        {"runtime.vec_batches_per_query", "count", "lower"},
        {"runtime.busy_frac", "ratio", "higher"},
        {"obs.trace_overhead_frac", "ratio", "lower"},
        {"obs.spans_per_query", "count", "lower"},
        {"obs.dropped_spans", "count", "lower"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return metrics;
}

LayerProbe::LayerProbe(const WorkloadSpec& spec, const Database& db,
                       Engine& engine)
    : spec_(spec), db_(db), engine_(engine) {
  // Direct evaluator calls run at the engine's width on a pool of their
  // own; its workers are parked whenever the engine runs.
  if (spec.threads > 1) {
    scheduler_ = std::make_unique<TaskScheduler>(spec.threads);
    runtime_.scheduler = scheduler_.get();
  }
  cache_start_ = engine.plan_cache().stats();
  tasks_start_ = Scraped(engine, "pq_scheduler_tasks_total");
  steals_start_ = Scraped(engine, "pq_scheduler_steals_total");
  sleeps_start_ = Scraped(engine, "pq_scheduler_idle_sleeps_total");
}

template <typename F>
auto LayerProbe::Timed(const char* name, double* us, F&& f) {
  const uint64_t a = NowNs();
  auto result = f();
  const uint64_t b = NowNs();
  spans_.push_back(Span{name, 0, a, b, qid_});
  *us = static_cast<double>(b - a) / 1e3;
  return result;
}

void LayerProbe::BeforeQuery() {
  const StorageCacheStats& sc = GlobalStorageCacheStats();
  trie_hits_before_ = sc.trie_hits.load();
  trie_builds_before_ = sc.trie_builds.load();
  col_hits_before_ = sc.columnar_hits.load();
  col_builds_before_ = sc.columnar_builds.load();
}

void LayerProbe::OnWrite(uint64_t t0, uint64_t t1) {
  ++writes_;
  ++qid_;
  if (kept_.size() < kKeptSpanBudget) {
    kept_.push_back(Span{"workload.write", 0, t0, t1, qid_});
  }
}

void LayerProbe::AfterQuery(const Op& op, const std::string& text,
                            const Result<Relation>& result, uint64_t t0,
                            uint64_t t1) {
  const StorageCacheStats& sc = GlobalStorageCacheStats();
  trie_hits_ += sc.trie_hits.load() - trie_hits_before_;
  trie_builds_ += sc.trie_builds.load() - trie_builds_before_;
  col_hits_ += sc.columnar_hits.load() - col_hits_before_;
  col_builds_ += sc.columnar_builds.load() - col_builds_before_;

  ++queries_;
  ++qid_;
  const EngineStats stats = engine_.last_stats();
  const double wall_us = static_cast<double>(t1 - t0) / 1e3;
  traced_ms_.push_back(wall_us / 1e3);
  runtext_total_us_ += wall_us;
  means_["core.query_us"].Add(wall_us);
  if (result.ok()) answer_rows_ += result.value().size();
  rows_produced_ += stats.plan.rows_produced;
  index_hits_ += stats.plan.index_hits;
  index_builds_ += stats.plan.index_builds;
  means_["plan.peak_intermediate_rows"].Add(
      static_cast<double>(stats.plan.peak_intermediate_rows));
  means_["runtime.morsels_per_query"].Add(
      static_cast<double>(stats.plan.morsels));
  means_["runtime.vec_batches_per_query"].Add(
      static_cast<double>(stats.plan.vec_batches));
  if (stats.ineq.family_size > 0) {
    means_["hashing.family_size"].Add(
        static_cast<double>(stats.ineq.family_size));
    means_["eval.theorem2.colorings"].Add(
        static_cast<double>(stats.ineq.trials));
  }
  if (stats.datalog.iterations > 0) {
    means_["eval.datalog.iterations"].Add(
        static_cast<double>(stats.datalog.iterations));
    datalog_built_ += stats.datalog.plans_built;
    datalog_reused_ += stats.datalog.plan_reuses;
  }

  spans_.clear();
  if (const Tracer* tracer = engine_.tracer(); tracer != nullptr) {
    spans_ = ParseEngineTrace(tracer->ChromeTraceJson(), t1, qid_);
    span_count_ += tracer->event_count();
    dropped_ += tracer->dropped();
  }
  engine_spans_ = spans_.size();
  spans_.push_back(Span{"engine.RunText", 0, t0, t1, qid_});
  parse_us_ = closure_us_ = route_us_ = 0;
  family_size_ = stats.ineq.family_size;
  RunComponents(op, text);
  spans_.push_back(Span{"op", 0, t0, NowNs(), qid_});
  AttributeSpans(t0, t1);
  if (kept_.size() + spans_.size() <= kKeptSpanBudget) {
    kept_.insert(kept_.end(), spans_.begin(), spans_.end());
  }
}

void LayerProbe::RunComponents(const Op& op, const std::string& text) {
  double us = 0;
  const auto eval_done = [&](const char* route, double eval_us) {
    means_[std::string("eval.") + route + "_us"].Add(eval_us);
    route_total_us_ += eval_us;
  };
  const auto plan_and_execute = [&](auto planner,
                                    const ConjunctiveQuery& canonical) {
    auto plan = Timed("plan.plan", &us,
                      [&] { return planner(db_, canonical, PlannerOptions{}); });
    means_["plan.plan_us"].Add(us);
    if (!plan.ok()) {
      Warn("planner failed: " + plan.status().ToString());
      return;
    }
    PhysicalPlan physical = std::move(plan).value();
    auto rows = Timed("plan.execute", &us, [&] {
      return ExecutePhysicalPlan(physical, ResourceLimits{}, nullptr,
                                 runtime_);
    });
    means_["plan.execute_us"].Add(us);
    if (!rows.ok()) Warn("executor failed: " + rows.status().ToString());
  };

  switch (SniffKind(text)) {
    case TextKind::kRule: {
      auto parsed = Timed("query.parse", &parse_us_,
                          [&] { return ParseConjunctive(text); });
      means_["query.parse_us"].Add(parse_us_);
      if (!parsed.ok()) return Warn("parse failed: " + text);
      const ConjunctiveQuery q = std::move(parsed).value();
      Timed("core.classify", &us, [&] { return ClassifyConjunctive(q); });
      means_["core.classify_us"].Add(us);
      ConjunctiveQuery effective = q;
      if (q.HasComparisons() && !q.HasOnlyInequalities()) {
        auto closure = Timed("query.closure", &closure_us_,
                             [&] { return CollapseComparisons(q); });
        means_["query.closure_us"].Add(closure_us_);
        if (!closure.ok() || !closure.value().consistent) break;
        effective = closure.value().rewritten;
        if (q.answer.counting() && !effective.Validate().ok()) effective = q;
      }
      if (effective.body.empty()) break;
      const CanonicalCq canonical = Timed(
          "plan.canonicalize", &us, [&] { return CanonicalizeCq(effective); });
      means_["plan.canonicalize_us"].Add(us);
      const bool acyclic = effective.IsAcyclic();
      if (acyclic) {
        Timed("hypergraph.join_tree", &us, [&] {
          return BuildJoinTree(effective.BuildHypergraph()).ok();
        });
        means_["hypergraph.join_tree_us"].Add(us);
      } else {
        Timed("hypergraph.ghd", &us, [&] {
          return BuildHypertreeDecomposition(effective.BuildHypergraph()).ok();
        });
        means_["hypergraph.ghd_us"].Add(us);
      }
      if (q.answer.counting()) {
        plan_and_execute(PlanCountingCq, canonical.query);
        CountingOptions options;
        options.runtime = runtime_;
        Timed("eval.counting", &route_us_, [&] {
          return CountingEvaluate(db_, effective, options).ok();
        });
        eval_done("counting", route_us_);
      } else if (acyclic && !effective.HasComparisons()) {
        plan_and_execute(PlanAcyclicCq, canonical.query);
        AcyclicOptions options;
        options.runtime = runtime_;
        Timed("eval.acyclic", &route_us_, [&] {
          return AcyclicEvaluate(db_, effective, options).ok();
        });
        eval_done("acyclic", route_us_);
      } else if (acyclic && effective.HasOnlyInequalities()) {
        const std::vector<VarId> v1 = ColorCodedVariables(effective);
        const std::vector<Value> ground =
            ColoringGroundSet(db_, effective, v1);
        const IneqOptions defaults;
        const int k = static_cast<int>(v1.size());
        const size_t size = Timed("hashing.family", &us, [&]() -> size_t {
          if (k <= 1) return 1;
          auto certified = ColoringFamily::Certified(
              ground, k, defaults.seed, defaults.certified_max_subsets,
              defaults.certified_max_members);
          if (certified.ok()) return certified.value().size();
          return ColoringFamily::MonteCarlo(k, defaults.mc_error_exponent,
                                            defaults.seed)
              .size();
        });
        means_["hashing.family_build_us"].Add(us);
        if (size != family_size_) {
          Warn("coloring family of " + text + ": rebuilt " +
               std::to_string(size) + " members, engine used " +
               std::to_string(family_size_));
        }
        IneqOptions options;
        options.runtime = runtime_;
        IneqStats ineq;
        Timed("eval.theorem2", &route_us_, [&] {
          return IneqEvaluate(db_, effective, options, &ineq).ok();
        });
        eval_done("theorem2", route_us_);
        theorem2_us_ += route_us_;
        coloring_trials_ += ineq.trials;
      } else {
        plan_and_execute(PlanCyclicCq, canonical.query);
        NaiveOptions options;
        options.runtime = runtime_;
        Timed("eval.cyclic", &route_us_, [&] {
          return NaiveEvaluateCq(db_, effective, options).ok();
        });
        eval_done("cyclic", route_us_);
      }
      break;
    }
    case TextKind::kFormula: {
      auto parsed = Timed("query.parse", &parse_us_,
                          [&] { return ParseFirstOrder(text); });
      means_["query.parse_us"].Add(parse_us_);
      if (!parsed.ok()) return Warn("parse failed: " + text);
      const FirstOrderQuery q = std::move(parsed).value();
      Timed("core.classify", &us, [&] { return ClassifyFirstOrder(q); });
      means_["core.classify_us"].Add(us);
      if (q.IsPositive()) {
        auto positive = PositiveQuery::FromFirstOrder(q);
        if (positive.ok()) {
          UcqOptions options;
          options.runtime = runtime_;
          const PositiveQuery& pq = positive.value();
          Timed("eval.ucq", &route_us_, [&] {
            return (q.answer.counting()
                        ? EvaluatePositiveCount(db_, pq, options)
                        : EvaluatePositive(db_, pq, options))
                .ok();
          });
          eval_done("ucq", route_us_);
          break;
        }
      }
      FoOptions options;
      options.runtime = runtime_;
      Timed("eval.fo", &route_us_,
            [&] { return EvaluateFirstOrder(db_, q, options).ok(); });
      eval_done("fo", route_us_);
      break;
    }
    case TextKind::kDatalogProgram: {
      auto parsed = Timed("query.parse", &parse_us_,
                          [&] { return ParseDatalog(text); });
      means_["query.parse_us"].Add(parse_us_);
      if (!parsed.ok()) return Warn("parse failed: " + text);
      const DatalogProgram p = std::move(parsed).value();
      Timed("core.classify", &us, [&] { return ClassifyDatalog(p); });
      means_["core.classify_us"].Add(us);
      DatalogOptions options;
      options.runtime = runtime_;
      Timed("eval.datalog", &route_us_,
            [&] { return EvaluateDatalog(db_, p, options).ok(); });
      eval_done("datalog", route_us_);
      break;
    }
  }

  // Storage kernels over the relations the template reads: a hash index on
  // the first column, and cold tries / columnar mirrors on fresh copies.
  double index_us = 0, trie_us = 0, columnar_us = 0;
  for (const std::string& name : spec_.templates[op.tmpl].reads) {
    const Relation& rel = db_.relation(db_.FindRelation(name).value());
    Timed("relational.row_index", &us,
          [&] { return RowIndex(rel, {0}).distinct_keys(); });
    index_us += us;
    std::vector<int> cols(rel.arity());
    for (size_t c = 0; c < cols.size(); ++c) cols[c] = static_cast<int>(c);
    const Relation trie_copy = FreshCopy(rel);
    Timed("relational.trie_build", &us,
          [&] { return trie_copy.TrieView(cols) != nullptr; });
    trie_us += us;
    const Relation columnar_copy = FreshCopy(rel);
    Timed("relational.columnar_build", &us,
          [&] { return columnar_copy.ColumnarView() != nullptr; });
    columnar_us += us;
  }
  means_["relational.row_index_build_us"].Add(index_us);
  means_["relational.trie_build_us"].Add(trie_us);
  means_["relational.columnar_build_us"].Add(columnar_us);
}

void LayerProbe::AttributeSpans(uint64_t t0, uint64_t t1) {
  LinkParents(spans_);
  const std::vector<uint64_t> self = SelfTimes(spans_);
  std::map<std::string, uint64_t> op_self;
  uint64_t leapfrog_self = 0;
  std::vector<std::pair<uint64_t, uint64_t>> operator_intervals;
  std::map<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>> busy;
  int32_t query = -1;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name == "leapfrog" || s.name == "leapfrog.chunk") {
      leapfrog_self += self[i];
    }
    if (i < engine_spans_ && IsOperatorSpan(s.name)) {
      op_self[s.name] += self[i];
      if (s.track == 0) operator_intervals.push_back({s.start_ns, s.end_ns});
    }
    if (i < engine_spans_) busy[s.track].push_back({s.start_ns, s.end_ns});
    if (s.track == 0 && s.name == "query" &&
        (query < 0 || s.duration() > spans_[query].duration())) {
      query = static_cast<int32_t>(i);
    }
  }
  for (const char* op : kOperators) {
    means_[std::string("plan.op.") + op + ".self_ms"].Add(
        static_cast<double>(op_self[op]) / 1e6);
  }
  means_["relational.leapfrog_self_ms"].Add(
      static_cast<double>(leapfrog_self) / 1e6);
  operator_ns_ += CoveredNs(std::move(operator_intervals));
  for (auto& [track, intervals] : busy) busy_ns_ += CoveredNs(intervals);
  capacity_ns_ += spec_.threads * (t1 - t0);

  // Engine overhead: RunText minus parse, closure and the route span (the
  // engine's "route.*" child of its "query" span, or the query span itself
  // on routes without one).
  if (query >= 0) {
    uint64_t route_ns = spans_[query].duration();
    uint64_t best = 0;
    for (const Span& s : spans_) {
      if (s.parent == query && s.name.rfind("route.", 0) == 0 &&
          s.duration() > best) {
        best = s.duration();
      }
    }
    if (best > 0) route_ns = best;
    means_["core.engine_overhead_us"].Add(
        static_cast<double>(t1 - t0 - std::min(t1 - t0, route_ns)) / 1e3 -
        parse_us_ - closure_us_);
  }
}

void LayerProbe::Warn(const std::string& message) {
  if (warnings_.size() < 20) warnings_.push_back(message);
}

std::map<std::string, double> LayerProbe::Finish(double untraced_p50_ms) {
  std::map<std::string, double> out;
  for (const LayerMetric& m : LayerMetrics()) out[m.name] = 0;
  for (const auto& [name, mean] : means_) {
    if (out.count(name) != 0) out[name] = mean.value();
  }
  const PlanCacheStats cache = engine_.plan_cache().stats();
  const double hits = static_cast<double>(cache.hits - cache_start_.hits);
  const double misses =
      static_cast<double>(cache.misses - cache_start_.misses);
  out["plan.cache_hit_ratio"] = Ratio(hits, hits + misses);
  out["plan.cache_evictions"] =
      static_cast<double>(cache.evictions - cache_start_.evictions);
  out["plan.cache_stale_per_write"] = Ratio(
      static_cast<double>(cache.stale_entries - cache_start_.stale_entries),
      static_cast<double>(writes_));
  out["plan.rows_examined_per_answer"] =
      Ratio(static_cast<double>(rows_produced_),
            static_cast<double>(answer_rows_));
  out["plan.index_hit_ratio"] =
      Ratio(static_cast<double>(index_hits_),
            static_cast<double>(index_hits_ + index_builds_));
  out["plan.operator_share"] = Ratio(static_cast<double>(operator_ns_),
                                     runtext_total_us_ * 1e3);
  out["eval.route_share"] = Ratio(route_total_us_, runtext_total_us_);
  out["eval.theorem2.us_per_coloring"] =
      Ratio(theorem2_us_, static_cast<double>(coloring_trials_));
  out["eval.datalog.plan_reuse_ratio"] =
      Ratio(static_cast<double>(datalog_reused_),
            static_cast<double>(datalog_built_ + datalog_reused_));
  out["relational.trie_hit_ratio"] =
      Ratio(static_cast<double>(trie_hits_),
            static_cast<double>(trie_hits_ + trie_builds_));
  out["relational.columnar_hit_ratio"] =
      Ratio(static_cast<double>(col_hits_),
            static_cast<double>(col_hits_ + col_builds_));
  const double q = static_cast<double>(queries_);
  out["runtime.tasks_per_query"] = Ratio(
      static_cast<double>(Scraped(engine_, "pq_scheduler_tasks_total") -
                          tasks_start_),
      q);
  out["runtime.steals_per_query"] = Ratio(
      static_cast<double>(Scraped(engine_, "pq_scheduler_steals_total") -
                          steals_start_),
      q);
  out["runtime.idle_sleeps_per_query"] = Ratio(
      static_cast<double>(Scraped(engine_, "pq_scheduler_idle_sleeps_total") -
                          sleeps_start_),
      q);
  out["runtime.busy_frac"] = Ratio(static_cast<double>(busy_ns_),
                                   static_cast<double>(capacity_ns_));
  std::vector<double> traced = traced_ms_;
  std::sort(traced.begin(), traced.end());
  out["obs.trace_overhead_frac"] =
      traced.empty() ? 0
                     : Ratio(Percentile(traced, 50) - untraced_p50_ms,
                             untraced_p50_ms);
  out["obs.spans_per_query"] = Ratio(static_cast<double>(span_count_), q);
  out["obs.dropped_spans"] = static_cast<double>(dropped_);
  return out;
}

}  // namespace perfbench
