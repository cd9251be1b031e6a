#include "eval/ucq.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/fault_injection.hpp"
#include "eval/acyclic.hpp"
#include "eval/counting.hpp"
#include "obs/trace.hpp"
#include "eval/naive.hpp"
#include "relational/ops.hpp"

namespace paraquery {

// CanonicalCqSignature lives in plan/plan_cache.{hpp,cpp} now: the UCQ
// dedup and the program-wide plan cache share one notion of query identity.

Result<std::vector<ConjunctiveQuery>> ExpandDedupedDisjuncts(
    const PositiveQuery& q, uint64_t max_disjuncts, UcqStats* stats) {
  PQ_ASSIGN_OR_RETURN(auto cqs, q.ToUnionOfCqs(max_disjuncts));
  if (stats != nullptr) stats->disjuncts_expanded = cqs.size();
  std::unordered_set<std::string> seen;
  std::vector<ConjunctiveQuery> unique;
  unique.reserve(cqs.size());
  for (ConjunctiveQuery& cq : cqs) {
    if (seen.insert(CanonicalCqSignature(cq)).second) {
      unique.push_back(std::move(cq));
    } else if (stats != nullptr) {
      ++stats->disjuncts_deduped;
    }
  }
  return unique;
}

namespace {

bool RouteAcyclic(const ConjunctiveQuery& cq, const UcqOptions& options) {
  return options.use_acyclic_evaluator && !cq.body.empty() &&
         !cq.HasComparisons() && cq.IsAcyclic();
}

Result<Relation> EvaluateDisjunct(const Database& db,
                                  const ConjunctiveQuery& cq,
                                  const UcqOptions& options, UcqStats* stats) {
  PQ_RETURN_NOT_OK(options.runtime.CheckInterrupt());
  PQ_FAULT_POINT("ucq.disjunct");
  TraceSpan span(options.runtime.tracer, "disjunct");
  PlanStats* plan = stats != nullptr ? &stats->plan : nullptr;
  if (stats != nullptr) ++stats->disjuncts_evaluated;
  if (RouteAcyclic(cq, options)) {
    if (stats != nullptr) ++stats->acyclic_disjuncts;
    AcyclicOptions acyclic;
    acyclic.limits = options.EffectiveLimits();
    acyclic.runtime = options.runtime;
    acyclic.plan_cache = options.plan_cache;
    return AcyclicEvaluate(db, cq, acyclic, /*stats=*/nullptr, plan);
  }
  if (stats != nullptr) ++stats->naive_disjuncts;
  NaiveOptions naive;
  naive.limits = options.EffectiveLimits();
  naive.runtime = options.runtime;
  naive.plan_cache = options.plan_cache;
  naive.vectorize = options.vectorize;
  naive.wcoj = options.wcoj;
  return NaiveEvaluateCq(db, cq, naive, plan);
}

Result<bool> DisjunctNonempty(const Database& db, const ConjunctiveQuery& cq,
                              const UcqOptions& options, UcqStats* stats) {
  PQ_RETURN_NOT_OK(options.runtime.CheckInterrupt());
  PQ_FAULT_POINT("ucq.disjunct");
  TraceSpan span(options.runtime.tracer, "disjunct");
  PlanStats* plan = stats != nullptr ? &stats->plan : nullptr;
  if (stats != nullptr) ++stats->disjuncts_evaluated;
  if (RouteAcyclic(cq, options)) {
    if (stats != nullptr) ++stats->acyclic_disjuncts;
    AcyclicOptions acyclic;
    acyclic.limits = options.EffectiveLimits();
    acyclic.runtime = options.runtime;
    acyclic.plan_cache = options.plan_cache;
    return AcyclicNonempty(db, cq, acyclic, /*stats=*/nullptr, plan);
  }
  if (stats != nullptr) ++stats->naive_disjuncts;
  // The backtracking decision search is inherently sequential; the runtime
  // binding is threaded for its abort polling (query_ctx), not for
  // parallelism — the runtime only parallelizes across disjuncts here.
  NaiveOptions naive;
  naive.limits = options.EffectiveLimits();
  naive.runtime = options.runtime;
  return NaiveCqNonempty(db, cq, naive);
}

// Folds per-task disjunct stats (in disjunct order) into `stats` after a
// parallel fan-out of `tasks` disjuncts.
void MergeDisjunctStats(UcqStats* stats, const std::vector<UcqStats>& parts,
                        size_t tasks) {
  if (stats == nullptr) return;
  stats->plan.parallel_tasks += tasks;
  for (const UcqStats& ps : parts) {
    stats->disjuncts_evaluated += ps.disjuncts_evaluated;
    stats->acyclic_disjuncts += ps.acyclic_disjuncts;
    stats->naive_disjuncts += ps.naive_disjuncts;
    stats->plan.Merge(ps.plan);
  }
}

// Evaluates every disjunct and returns the per-disjunct answer relations in
// disjunct order — one task per disjunct when a scheduler is bound (per-task
// stats merge and parts land in disjunct order after the barrier, so both
// the results and the counters match the sequential evaluation; the first
// error in disjunct order wins and cancels the remaining tasks).
Result<std::vector<Relation>> EvaluateAllDisjuncts(
    const Database& db, const std::vector<ConjunctiveQuery>& cqs,
    const UcqOptions& options, UcqStats* stats) {
  std::vector<Relation> out;
  out.reserve(cqs.size());
  if (options.runtime.parallel() && cqs.size() > 1) {
    std::vector<std::optional<Result<Relation>>> parts(cqs.size());
    std::vector<UcqStats> part_stats(cqs.size());
    TaskGroup group(options.runtime.scheduler);
    for (size_t i = 0; i < cqs.size(); ++i) {
      group.Spawn([&, i] {
        parts[i].emplace(EvaluateDisjunct(
            db, cqs[i], options, stats != nullptr ? &part_stats[i] : nullptr));
        if (!parts[i]->ok()) group.Cancel();
      });
    }
    group.Wait();
    MergeDisjunctStats(stats, part_stats, cqs.size());
    for (const std::optional<Result<Relation>>& part : parts) {
      if (part.has_value()) PQ_RETURN_NOT_OK(part->status());
    }
    for (std::optional<Result<Relation>>& part : parts) {
      out.push_back(std::move(*part).value());
    }
    return out;
  }
  for (const ConjunctiveQuery& cq : cqs) {
    PQ_ASSIGN_OR_RETURN(Relation part, EvaluateDisjunct(db, cq, options, stats));
    out.push_back(std::move(part));
  }
  return out;
}

}  // namespace

Result<Relation> EvaluatePositive(const Database& db, const PositiveQuery& q,
                                  const UcqOptions& options, UcqStats* stats) {
  TraceSpan route_span(options.runtime.tracer, "route.ucq");
  PQ_ASSIGN_OR_RETURN(auto cqs,
                      ExpandDedupedDisjuncts(q, options.max_disjuncts, stats));
  PQ_ASSIGN_OR_RETURN(std::vector<Relation> parts,
                      EvaluateAllDisjuncts(db, cqs, options, stats));
  Relation answers(q.fo().head.size());
  for (const Relation& part : parts) {
    for (size_t r = 0; r < part.size(); ++r) answers.Add(part.Row(r));
  }
  answers.SortAndDedup();
  return answers;
}

Result<Relation> EvaluatePositiveCount(const Database& db,
                                       const PositiveQuery& q,
                                       const UcqOptions& options,
                                       UcqStats* stats) {
  TraceSpan route_span(options.runtime.tracer, "route.ucq_count");
  PQ_FAULT_POINT("ucq.count");
  const FirstOrderQuery& fo = q.fo();
  if (!fo.answer.counting()) {
    return Status::InvalidArgument(
        "EvaluatePositiveCount requires a counting query (AnswerSpec)");
  }
  // Enumeration form: the same formula answering the full free-variable
  // tuples, so every disjunct is evaluated exactly once, in tuples mode;
  // counting and grouping happen over the materialized answer sets.
  const std::vector<VarId> free_vars = fo.FreeVariables();
  FirstOrderQuery enum_fo = fo;
  enum_fo.answer = AnswerSpec::Tuples();
  enum_fo.head.clear();
  for (VarId v : free_vars) enum_fo.head.push_back(Term::Var(v));
  PQ_ASSIGN_OR_RETURN(PositiveQuery enum_q,
                      PositiveQuery::FromFirstOrder(std::move(enum_fo)));
  PQ_ASSIGN_OR_RETURN(
      auto cqs, ExpandDedupedDisjuncts(enum_q, options.max_disjuncts, stats));
  // Group-key positions within the free-variable tuple (Validate guarantees
  // every group key is free).
  std::vector<int> gcols;
  for (const Term& t : fo.head) {
    auto it = std::find(free_vars.begin(), free_vars.end(), t.var());
    if (it == free_vars.end()) {
      return Status::Internal("counting group key is not a free variable");
    }
    gcols.push_back(static_cast<int>(it - free_vars.begin()));
  }
  PQ_ASSIGN_OR_RETURN(std::vector<Relation> parts,
                      EvaluateAllDisjuncts(db, cqs, options, stats));
  const size_t n = parts.size();
  // Inclusion–exclusion over disjunct subsets: per group g,
  //   |∪ A_i restricted to g| = Σ_{∅≠S} (−1)^{|S|+1} |∩_{i∈S} A_i at g|.
  // Each A_i is a SET (per-disjunct answers are sorted + deduplicated), so
  // relational Intersect computes the subset terms exactly. Subsets run in
  // increasing popcount order and any superset of an empty intersection is
  // pruned unvisited. Past the subset budget (or with nothing to include-
  // exclude over) the materialized union is counted directly instead —
  // identical answers, linear in the parts.
  constexpr size_t kMaxIeDisjuncts = 10;
  if (n >= 2 && n <= kMaxIeDisjuncts && !free_vars.empty()) {
    std::vector<AttrId> attrs(free_vars.size());
    for (size_t i = 0; i < attrs.size(); ++i) attrs[i] = static_cast<AttrId>(i);
    std::vector<NamedRelation> sets;
    sets.reserve(n);
    for (Relation& p : parts) sets.emplace_back(attrs, std::move(p));
    std::vector<uint32_t> masks;
    masks.reserve((1u << n) - 1);
    for (uint32_t m = 1; m < (1u << n); ++m) masks.push_back(m);
    std::stable_sort(masks.begin(), masks.end(), [](uint32_t a, uint32_t b) {
      return std::popcount(a) < std::popcount(b);
    });
    std::vector<uint32_t> empty_masks;
    std::map<std::vector<Value>, Value> acc;
    std::vector<Value> key(gcols.size());
    for (uint32_t m : masks) {
      PQ_RETURN_NOT_OK(options.runtime.CheckInterrupt());
      bool pruned = false;
      for (uint32_t e : empty_masks) {
        if ((m & e) == e) {
          pruned = true;
          break;
        }
      }
      if (pruned) {
        if (stats != nullptr) ++stats->ie_pruned;
        continue;
      }
      NamedRelation inter;
      bool first = true;
      for (size_t i = 0; i < n; ++i) {
        if ((m >> i & 1u) == 0) continue;
        inter = first ? sets[i] : Intersect(inter, sets[i]);
        first = false;
        if (inter.empty()) break;
      }
      if (stats != nullptr) ++stats->ie_subsets;
      if (inter.empty()) {
        empty_masks.push_back(m);
        continue;
      }
      const Value sign = (std::popcount(m) % 2 == 1) ? 1 : -1;
      for (size_t r = 0; r < inter.size(); ++r) {
        for (size_t i = 0; i < gcols.size(); ++i) {
          key[i] = inter.rel().At(r, gcols[i]);
        }
        acc[key] += sign;
      }
    }
    if (gcols.empty()) {
      Relation out(1);
      out.Add(std::vector<Value>{acc.empty() ? 0 : acc.begin()->second});
      return out;
    }
    Relation out(gcols.size() + 1);
    std::vector<Value> row;
    for (const auto& [g, count] : acc) {
      if (count <= 0) continue;  // exact I-E never leaves a zero, but guard
      row.assign(g.begin(), g.end());
      row.push_back(count);
      out.Add(row);
    }
    return out;
  }
  Relation all(free_vars.size());
  for (const Relation& part : parts) {
    for (size_t r = 0; r < part.size(); ++r) all.Add(part.Row(r));
  }
  all.SortAndDedup();
  return GroupCountRows(all, gcols);
}

Result<bool> PositiveNonempty(const Database& db, const PositiveQuery& q,
                              const UcqOptions& options, UcqStats* stats) {
  TraceSpan route_span(options.runtime.tracer, "route.ucq");
  PQ_ASSIGN_OR_RETURN(auto cqs,
                      ExpandDedupedDisjuncts(q, options.max_disjuncts, stats));
  if (options.runtime.parallel() && cqs.size() > 1) {
    // Concurrent disjunct decisions, cancelling on the first witness (a
    // true answer decides the union regardless of the other disjuncts, so
    // dropping unstarted tasks is the parallel analogue of the sequential
    // short-circuit). Errors do NOT cancel: every started disjunct reports,
    // and the resolution scan below picks the earliest decisive disjunct in
    // index order — the outcome a sequential evaluation would reach, except
    // that a disjunct skipped by a witness's cancellation is treated as
    // false (sequentially it might have errored first).
    std::vector<std::optional<Result<bool>>> parts(cqs.size());
    std::vector<UcqStats> part_stats(cqs.size());
    TaskGroup group(options.runtime.scheduler);
    for (size_t i = 0; i < cqs.size(); ++i) {
      group.Spawn([&, i] {
        parts[i].emplace(DisjunctNonempty(
            db, cqs[i], options, stats != nullptr ? &part_stats[i] : nullptr));
        if (parts[i]->ok() && parts[i]->value()) group.Cancel();
      });
    }
    group.Wait();
    MergeDisjunctStats(stats, part_stats, cqs.size());
    for (const std::optional<Result<bool>>& part : parts) {
      if (!part.has_value()) continue;  // cancelled before it ran
      PQ_RETURN_NOT_OK(part->status());
      if (part->value()) return true;
    }
    return false;
  }
  for (const ConjunctiveQuery& cq : cqs) {
    PQ_ASSIGN_OR_RETURN(bool nonempty,
                        DisjunctNonempty(db, cq, options, stats));
    if (nonempty) return true;
  }
  return false;
}

}  // namespace paraquery
