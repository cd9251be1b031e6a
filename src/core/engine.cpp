#include "core/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/timer.hpp"
#include "core/explain.hpp"
#include "eval/acyclic.hpp"
#include "eval/counting.hpp"
#include "query/comparison_closure.hpp"
#include "query/parser.hpp"
#include "relational/storage_cache_stats.hpp"

namespace paraquery {

namespace {

// Heuristic syntax dispatch for RunText/ExplainText.
enum class TextKind { kRule, kDatalogProgram, kFormula };

TextKind SniffKind(const std::string& text) {
  if (text.find(":=") != std::string::npos) return TextKind::kFormula;
  // Count rule arrows outside comments: two or more (or a @goal directive)
  // means a Datalog program.
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

// Engine-level limits override the per-evaluator options (whose own legacy
// aliases apply only where the engine sets nothing).
ResourceLimits Overlay(const ResourceLimits& engine,
                       const ResourceLimits& evaluator) {
  return engine.MergedWith(evaluator.max_rows, evaluator.max_steps);
}

// The empty answer in the query's answer shape: no rows for tuple and
// grouped-count queries (arity = group keys + count), the single [0] row
// for a scalar COUNT(*).
Relation EmptyAnswer(const ConjunctiveQuery& q) {
  switch (q.answer.kind) {
    case AnswerSpec::Kind::kCount: {
      Relation out(1);
      out.Add(std::vector<Value>{0});
      return out;
    }
    case AnswerSpec::Kind::kGroupedCount:
      return Relation(q.head.size() + 1);
    case AnswerSpec::Kind::kTuples:
      break;
  }
  return Relation(q.head.size());
}

}  // namespace

std::string EngineStats::ToString() const {
  std::ostringstream oss;
  char wall[64];
  std::snprintf(wall, sizeof(wall), "%.3f", wall_seconds * 1e3);
  oss << "query: wall_ms=" << wall;
  if (!abort_reason.empty()) oss << " abort=" << abort_reason;
  oss << "\n";
  oss << "plan: " << plan.ToString() << "\n";
  oss << "plan_cache: " << plan_cache.ToString() << "\n";
  if (ineq.family_size > 0) {
    oss << "ineq: k=" << ineq.k << " i1_atoms=" << ineq.i1_atoms
        << " i2_atoms=" << ineq.i2_atoms
        << " family_size=" << ineq.family_size << " trials=" << ineq.trials
        << " certified=" << (ineq.certified ? "yes" : "no")
        << " peak_rows=" << ineq.peak_rows << "\n";
  }
  if (datalog.iterations > 0) {
    oss << "datalog: iterations=" << datalog.iterations
        << " derived_tuples=" << datalog.derived_tuples
        << " rule_firings=" << datalog.rule_firings
        << " skipped_firings=" << datalog.skipped_firings
        << "\n  edb_materializations=" << datalog.edb_materializations
        << " edb_cache_hits=" << datalog.edb_cache_hits
        << " edb_index_builds=" << datalog.edb_index_builds
        << " edb_index_hits=" << datalog.edb_index_hits
        << "\n  plans_built=" << datalog.plans_built
        << " plan_reuses=" << datalog.plan_reuses
        << " replans=" << datalog.replans << "\n";
  }
  if (ucq.disjuncts_expanded > 0) {
    oss << "ucq: disjuncts_expanded=" << ucq.disjuncts_expanded
        << " deduped=" << ucq.disjuncts_deduped
        << " evaluated=" << ucq.disjuncts_evaluated
        << " acyclic=" << ucq.acyclic_disjuncts
        << " naive=" << ucq.naive_disjuncts;
    if (ucq.ie_subsets > 0) {
      oss << " ie_subsets=" << ucq.ie_subsets
          << " ie_pruned=" << ucq.ie_pruned;
    }
    oss << "\n";
  }
  return oss.str();
}

Engine::Engine(const Database& db, EngineOptions options)
    : db_(&db), options_(std::move(options)) {
  m_.queries = &metrics_.counter("pq_queries_total", "queries run");
  m_.counting_queries = &metrics_.counter(
      "pq_counting_queries_total", "counting (COUNT head) queries run");
  m_.count_groups = &metrics_.histogram(
      "pq_counting_groups", "groups returned per grouped counting query");
  m_.latency_us = &metrics_.histogram("pq_query_latency_us",
                                      "end-to-end query wall time (us)");
  m_.peak_bytes = &metrics_.histogram(
      "pq_query_peak_bytes", "peak accounted bytes per hardened query");
  m_.aborts_cancelled =
      &metrics_.counter("pq_aborts_cancelled_total", "queries cancelled");
  m_.aborts_deadline = &metrics_.counter("pq_aborts_deadline_total",
                                         "queries past their deadline");
  m_.aborts_resource = &metrics_.counter(
      "pq_aborts_resource_exhausted_total",
      "queries over a row/step/memory budget");
  m_.rows_produced = &metrics_.counter("pq_operator_rows_total",
                                       "rows produced by plan operators");
  m_.morsels = &metrics_.counter("pq_morsels_total",
                                 "morsels processed by parallel operators");
  m_.vec_batches = &metrics_.counter(
      "pq_vec_batches_total", "column batches through vectorized stages");
  m_.plan_cache_hits =
      &metrics_.counter("pq_plan_cache_hits_total", "plan cache hits");
  m_.plan_cache_misses =
      &metrics_.counter("pq_plan_cache_misses_total", "plan cache misses");
  m_.plan_cache_stale = &metrics_.counter(
      "pq_plan_cache_stale_total", "plan cache entries dropped as stale");
  m_.plan_cache_evictions = &metrics_.counter("pq_plan_cache_evictions_total",
                                              "plan cache LRU evictions");
  m_.plan_cache_entries =
      &metrics_.gauge("pq_plan_cache_entries", "live plan cache entries");
  m_.sched_tasks =
      &metrics_.counter("pq_scheduler_tasks_total", "scheduler tasks run");
  m_.sched_steals =
      &metrics_.counter("pq_scheduler_steals_total", "work-stealing pops");
  m_.sched_idle_sleeps = &metrics_.counter("pq_scheduler_idle_sleeps_total",
                                           "worker parks on an empty pool");
  m_.sched_queue_depth = &metrics_.gauge("pq_scheduler_queue_depth",
                                         "tasks queued at last scrape");
  m_.trie_hits =
      &metrics_.counter("pq_trie_cache_hits_total", "trie view cache hits");
  m_.trie_builds =
      &metrics_.counter("pq_trie_cache_builds_total", "trie view builds");
  m_.columnar_hits = &metrics_.counter("pq_columnar_cache_hits_total",
                                       "columnar mirror cache hits");
  m_.columnar_builds = &metrics_.counter("pq_columnar_cache_builds_total",
                                         "columnar mirror builds");
  query_metrics_.operator_rows = &metrics_.histogram(
      "pq_operator_rows", "rows produced per executed plan operator");
}

RuntimeOptions Engine::Runtime() const {
  size_t want = options_.threads == 0 ? TaskScheduler::HardwareConcurrency()
                                      : options_.threads;
  // Sanity bound: an absurd width would die spawning real threads.
  want = std::min<size_t>(want, 1024);
  plan_cache_.set_capacity(options_.plan_cache_capacity);
  RuntimeOptions runtime;
  runtime.morsel_rows = options_.morsel_rows;
  runtime.vec_min_source_rows = options_.vec_min_source_rows;
  runtime.metrics = &query_metrics_;
  runtime.analyze = analyze_;
  if (options_.trace) {
    if (tracer_ == nullptr) tracer_ = std::make_unique<Tracer>();
    runtime.tracer = tracer_.get();
  }
  if (want <= 1) {
    scheduler_.reset();  // back to sequential: drop the idle pool
    return runtime;
  }
  if (scheduler_ == nullptr || scheduler_->threads() != want) {
    scheduler_ = std::make_unique<TaskScheduler>(want);
  }
  runtime.scheduler = scheduler_.get();
  return runtime;
}

Result<Relation> Engine::Run(const ConjunctiveQuery& q) const {
  stats_ = EngineStats{};
  TraceSpan query_span(PrepareTracer(), "query", "cq");
  Timer timer;
  // Hardening: arm the query context (deadline / memory budget /
  // cancellation token) and account every RowBlock allocated on this thread
  // — worker threads inherit the accountant through TaskGroup::Spawn.
  QueryContext* qc = ArmQueryContext();
  ScopedMemoryAccounting accounting(qc != nullptr ? qc->memory() : nullptr);
  // Every exit refreshes the cumulative cache counters, error and
  // early-return paths included — .stats must never show stale zeros for a
  // cache that still holds entries.
  auto finish = [&](Result<Relation> r) {
    stats_.plan_cache = plan_cache_.stats();
    FinishQuery(timer.Seconds(), r.status(), qc);
    return r;
  };
  if (Status s = q.Validate(); !s.ok()) return finish(std::move(s));
  const ConjunctiveQuery* effective = &q;
  ComparisonClosure closure;
  if (q.HasComparisons() && !q.HasOnlyInequalities()) {
    auto collapsed = CollapseComparisons(q);
    if (!collapsed.ok()) return finish(collapsed.status());
    closure = std::move(collapsed).value();
    if (!closure.consistent) return finish(EmptyAnswer(q));
    effective = &closure.rewritten;
    // The collapse is count-preserving (merging equal variables bijects the
    // satisfying assignments), but it can merge or constant-fold a GROUP
    // key, leaving an invalid counting head; count over the original query
    // then — the enumeration route applies the comparisons directly.
    if (q.answer.counting() && !effective->Validate().ok()) effective = &q;
  }
  if (q.answer.counting()) {
    m_.counting_queries->Increment();
    CountingOptions cnt;
    cnt.limits = Overlay(options_.limits, options_.acyclic.EffectiveLimits());
    cnt.runtime = Runtime();
    cnt.runtime.query_ctx = qc;
    cnt.plan_cache = options_.use_plan_cache ? &plan_cache_ : nullptr;
    cnt.full_reducer = options_.acyclic.full_reducer;
    cnt.vectorize = options_.vectorize;
    cnt.wcoj = options_.wcoj;
    auto result = CountingEvaluate(*db_, *effective, cnt, &stats_.plan);
    if (result.ok() && q.answer.kind == AnswerSpec::Kind::kGroupedCount) {
      m_.count_groups->Observe(result.value().size());
    }
    return finish(std::move(result));
  }
  if (effective->body.empty()) {
    // No relational atoms: the head must be constant-only (safety).
    Relation out(effective->head.size());
    ValueVec row;
    for (const Term& t : effective->head) row.push_back(t.value());
    out.Add(row);
    return finish(std::move(out));
  }
  if (effective->IsAcyclic()) {
    if (!effective->HasComparisons()) {
      AcyclicOptions eff = options_.acyclic;
      eff.limits = Overlay(options_.limits, eff.EffectiveLimits());
      eff.max_rows = 0;
      eff.runtime = Runtime();
      eff.runtime.query_ctx = qc;
      eff.plan_cache = options_.use_plan_cache ? &plan_cache_ : nullptr;
      return finish(AcyclicEvaluate(*db_, *effective, eff, &stats_.acyclic,
                                    &stats_.plan));
    }
    if (effective->HasOnlyInequalities()) {
      // Theorem 2 route: since the plan lowering, this is plan-routed too —
      // it inherits the unified limits, the parallel runtime, and the plan
      // cache (one residual plan per query, re-executed per coloring).
      IneqOptions ineq = options_.inequality;
      ineq.limits = Overlay(options_.limits, ineq.EffectiveLimits());
      ineq.max_rows = 0;
      ineq.runtime = Runtime();
      ineq.runtime.query_ctx = qc;
      ineq.plan_cache = options_.use_plan_cache ? &plan_cache_ : nullptr;
      return finish(
          IneqEvaluate(*db_, *effective, ineq, &stats_.ineq, &stats_.plan));
    }
  }
  NaiveOptions eff = options_.naive;
  eff.limits = Overlay(options_.limits, eff.EffectiveLimits());
  eff.max_steps = 0;
  eff.runtime = Runtime();
  eff.runtime.query_ctx = qc;
  eff.plan_cache = options_.use_plan_cache ? &plan_cache_ : nullptr;
  eff.vectorize = options_.vectorize;
  eff.wcoj = options_.wcoj;
  return finish(NaiveEvaluateCq(*db_, *effective, eff, &stats_.plan));
}

Result<Relation> Engine::Run(const PositiveQuery& q) const {
  stats_ = EngineStats{};
  TraceSpan query_span(PrepareTracer(), "query", "ucq");
  Timer timer;
  QueryContext* qc = ArmQueryContext();
  ScopedMemoryAccounting accounting(qc != nullptr ? qc->memory() : nullptr);
  UcqOptions eff = options_.ucq;
  eff.limits = Overlay(options_.limits, eff.EffectiveLimits());
  eff.naive_max_steps = 0;
  eff.runtime = Runtime();
  eff.runtime.query_ctx = qc;
  eff.plan_cache = options_.use_plan_cache ? &plan_cache_ : nullptr;
  eff.vectorize = options_.vectorize;
  eff.wcoj = options_.wcoj;
  const bool counting = q.fo().answer.counting();
  if (counting) m_.counting_queries->Increment();
  auto result = counting ? EvaluatePositiveCount(*db_, q, eff, &stats_.ucq)
                         : EvaluatePositive(*db_, q, eff, &stats_.ucq);
  if (counting && result.ok() &&
      q.fo().answer.kind == AnswerSpec::Kind::kGroupedCount) {
    m_.count_groups->Observe(result.value().size());
  }
  stats_.plan = stats_.ucq.plan;
  stats_.plan_cache = plan_cache_.stats();
  FinishQuery(timer.Seconds(), result.status(), qc);
  return result;
}

Result<Relation> Engine::Run(const FirstOrderQuery& q) const {
  stats_ = EngineStats{};
  if (q.IsPositive()) {
    auto positive = PositiveQuery::FromFirstOrder(q);
    if (positive.ok()) return Run(positive.value());
  }
  // The non-positive path runs on the active-domain algebra. It is hardened
  // like the plan-routed engines: the armed QueryContext carries deadlines,
  // cancellation, and the memory budget (polled inside FoEval), and every
  // RowBlock allocated during evaluation is charged to the accountant.
  TraceSpan query_span(PrepareTracer(), "query", "fo");
  Timer timer;
  QueryContext* qc = ArmQueryContext();
  ScopedMemoryAccounting accounting(qc != nullptr ? qc->memory() : nullptr);
  FoOptions fo = options_.fo;
  if (options_.limits.max_rows != 0) fo.max_rows = options_.limits.max_rows;
  fo.runtime = Runtime();
  fo.runtime.query_ctx = qc;
  auto finish = [&](Result<Relation> r) {
    stats_.plan_cache = plan_cache_.stats();
    FinishQuery(timer.Seconds(), r.status(), qc);
    return r;
  };
  if (q.answer.counting()) {
    // Active-domain counting: evaluate the formula once over the FULL
    // free-variable head (the distinct satisfying assignments), then group
    // by the head's group keys in memory — the algebra itself needs no
    // counting operators.
    if (Status s = q.Validate(); !s.ok()) return finish(std::move(s));
    m_.counting_queries->Increment();
    const std::vector<VarId> free_vars = q.FreeVariables();
    FirstOrderQuery enum_q = q;
    enum_q.answer = AnswerSpec::Tuples();
    enum_q.head.clear();
    for (VarId v : free_vars) enum_q.head.push_back(Term::Var(v));
    auto rows = EvaluateFirstOrder(*db_, enum_q, fo);
    if (!rows.ok()) return finish(rows.status());
    std::vector<int> gcols;
    for (const Term& t : q.head) {
      auto it = std::find(free_vars.begin(), free_vars.end(), t.var());
      gcols.push_back(static_cast<int>(it - free_vars.begin()));
    }
    Relation counts = GroupCountRows(rows.value(), gcols);
    if (q.answer.kind == AnswerSpec::Kind::kGroupedCount) {
      m_.count_groups->Observe(counts.size());
    }
    return finish(std::move(counts));
  }
  return finish(EvaluateFirstOrder(*db_, q, fo));
}

Result<Relation> Engine::Run(const DatalogProgram& p) const {
  stats_ = EngineStats{};
  TraceSpan query_span(PrepareTracer(), "query", "datalog");
  Timer timer;
  QueryContext* qc = ArmQueryContext();
  ScopedMemoryAccounting accounting(qc != nullptr ? qc->memory() : nullptr);
  DatalogOptions eff = options_.datalog;
  eff.limits = Overlay(options_.limits, eff.EffectiveLimits());
  eff.max_rows = 0;
  eff.runtime = Runtime();
  eff.runtime.query_ctx = qc;
  eff.plan_cache = options_.use_plan_cache ? &plan_cache_ : nullptr;
  eff.vectorize = options_.vectorize;
  auto result = EvaluateDatalog(*db_, p, eff, &stats_.datalog);
  stats_.plan = stats_.datalog.plan;
  stats_.plan_cache = plan_cache_.stats();
  FinishQuery(timer.Seconds(), result.status(), qc);
  return result;
}

Result<Relation> Engine::RunText(const std::string& text, Dictionary* dict) {
  switch (SniffKind(text)) {
    case TextKind::kFormula: {
      PQ_ASSIGN_OR_RETURN(FirstOrderQuery q, ParseFirstOrder(text, dict));
      return Run(q);
    }
    case TextKind::kDatalogProgram: {
      PQ_ASSIGN_OR_RETURN(DatalogProgram p, ParseDatalog(text, dict));
      return Run(p);
    }
    case TextKind::kRule: {
      PQ_ASSIGN_OR_RETURN(ConjunctiveQuery q, ParseConjunctive(text, dict));
      return Run(q);
    }
  }
  return Status::Internal("unreachable");
}

Tracer* Engine::PrepareTracer() const {
  if (!options_.trace) return nullptr;
  if (tracer_ == nullptr) tracer_ = std::make_unique<Tracer>();
  tracer_->Clear();
  return tracer_.get();
}

void Engine::FinishQuery(double seconds, const Status& status,
                         const QueryContext* qc) const {
  stats_.wall_seconds = seconds;
  m_.queries->Increment();
  m_.latency_us->Observe(static_cast<uint64_t>(seconds * 1e6));
  switch (status.code()) {
    case StatusCode::kCancelled:
      stats_.abort_reason = "cancelled";
      m_.aborts_cancelled->Increment();
      break;
    case StatusCode::kDeadlineExceeded:
      stats_.abort_reason = "deadline_exceeded";
      m_.aborts_deadline->Increment();
      break;
    case StatusCode::kResourceExhausted:
      stats_.abort_reason = "resource_exhausted";
      m_.aborts_resource->Increment();
      break;
    default:
      break;
  }
  // memory() is null unless a byte budget was armed.
  if (qc != nullptr && qc->memory() != nullptr) {
    m_.peak_bytes->Observe(qc->memory()->peak());
  }
  m_.rows_produced->Add(stats_.plan.rows_produced);
  m_.morsels->Add(stats_.plan.morsels);
  m_.vec_batches->Add(stats_.plan.vec_batches);
  // Scrapes of external monotonic sources (Counter::Set, not Add): the
  // plan cache, the scheduler, and the process-wide storage caches all
  // keep their own cumulative counters.
  const PlanCacheStats pc = plan_cache_.stats();
  m_.plan_cache_hits->Set(pc.hits);
  m_.plan_cache_misses->Set(pc.misses);
  m_.plan_cache_stale->Set(pc.stale_entries);
  m_.plan_cache_evictions->Set(pc.evictions);
  m_.plan_cache_entries->Set(static_cast<int64_t>(pc.entries));
  if (scheduler_ != nullptr) {
    const TaskScheduler::Counters& c = scheduler_->counters();
    m_.sched_tasks->Set(c.tasks_run.load(std::memory_order_relaxed));
    m_.sched_steals->Set(c.steals.load(std::memory_order_relaxed));
    m_.sched_idle_sleeps->Set(c.idle_sleeps.load(std::memory_order_relaxed));
    m_.sched_queue_depth->Set(
        static_cast<int64_t>(scheduler_->QueuedTokens()));
  }
  const StorageCacheStats& sc = GlobalStorageCacheStats();
  m_.trie_hits->Set(sc.trie_hits.load(std::memory_order_relaxed));
  m_.trie_builds->Set(sc.trie_builds.load(std::memory_order_relaxed));
  m_.columnar_hits->Set(sc.columnar_hits.load(std::memory_order_relaxed));
  m_.columnar_builds->Set(sc.columnar_builds.load(std::memory_order_relaxed));
}

QueryContext* Engine::ArmQueryContext() const {
  const uint64_t wall = options_.limits.max_wall_ms;
  const uint64_t bytes = options_.limits.max_bytes;
  if (options_.query_ctx != nullptr) {
    QueryContext* qc = options_.query_ctx;
    if (wall != 0) qc->ArmDeadline(wall);
    if (bytes != 0) qc->ArmMemory(bytes);
    return qc;  // caller controls cancellation; sticky until caller Reset()s
  }
  if (wall == 0 && bytes == 0) return nullptr;
  if (run_ctx_ == nullptr) run_ctx_ = std::make_unique<QueryContext>();
  run_ctx_->Reset();
  if (wall != 0) run_ctx_->ArmDeadline(wall);
  if (bytes != 0) run_ctx_->ArmMemory(bytes);
  return run_ctx_.get();
}

Result<std::string> Engine::ExplainText(const std::string& text) {
  switch (SniffKind(text)) {
    case TextKind::kFormula: {
      PQ_ASSIGN_OR_RETURN(FirstOrderQuery q, ParseFirstOrder(text, nullptr));
      return ExplainFirstOrder(q, db_);
    }
    case TextKind::kDatalogProgram: {
      PQ_ASSIGN_OR_RETURN(DatalogProgram p, ParseDatalog(text, nullptr));
      return ExplainDatalog(p, db_);
    }
    case TextKind::kRule: {
      PQ_ASSIGN_OR_RETURN(ConjunctiveQuery q, ParseConjunctive(text, nullptr));
      return ExplainConjunctive(q, db_);
    }
  }
  return Status::Internal("unreachable");
}

Result<std::string> Engine::AnalyzeText(const std::string& text,
                                        Dictionary* dict) {
  PlanCapture capture;
  analyze_ = &capture;
  auto result = RunText(text, dict);
  analyze_ = nullptr;
  if (!result.ok()) return result.status();
  std::ostringstream oss;
  char wall[64];
  std::snprintf(wall, sizeof(wall), "%.3f", stats_.wall_seconds * 1e3);
  oss << "rows=" << result.value().size() << " wall_ms=" << wall << "\n";
  if (capture.plan_count() == 0) {
    oss << "(no plan-routed execution: the query ran on the active-domain "
           "algebra, or produced its answer without executing a plan)\n";
  } else {
    oss << capture.Report();
  }
  return oss.str();
}

Result<std::string> Engine::PlanText(const std::string& text,
                                     Dictionary* dict) {
  switch (SniffKind(text)) {
    case TextKind::kFormula: {
      PQ_ASSIGN_OR_RETURN(FirstOrderQuery q, ParseFirstOrder(text, dict));
      if (!q.IsPositive()) {
        return Status::InvalidArgument(
            "no physical plan: non-positive first-order queries run on the "
            "active-domain algebra");
      }
      PQ_ASSIGN_OR_RETURN(PositiveQuery pq,
                          PositiveQuery::FromFirstOrder(std::move(q)));
      return RenderPositivePlan(*db_, pq);
    }
    case TextKind::kDatalogProgram: {
      PQ_ASSIGN_OR_RETURN(DatalogProgram p, ParseDatalog(text, dict));
      return RenderDatalogPlan(*db_, p);
    }
    case TextKind::kRule: {
      PQ_ASSIGN_OR_RETURN(ConjunctiveQuery q, ParseConjunctive(text, dict));
      return RenderConjunctivePlan(*db_, q);
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace paraquery
