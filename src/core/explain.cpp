#include "core/explain.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "eval/inequality.hpp"
#include "eval/ucq.hpp"
#include "plan/planner.hpp"
#include "query/comparison_closure.hpp"

namespace paraquery {

namespace {

// Appends a plan render (or the planner's failure) under a header line.
void AppendPlanSection(std::ostringstream* oss,
                       const Result<std::string>& render) {
  *oss << "physical plan:\n";
  if (render.ok()) {
    *oss << render.value();
  } else {
    *oss << "  unavailable: " << render.status().message() << "\n";
  }
}

// Indents every line of `text` by `spaces`.
std::string Indent(const std::string& text, int spaces) {
  std::string pad(spaces, ' ');
  std::ostringstream out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out << pad << line << "\n";
  return out.str();
}

// Marks scans whose build-time cardinality is unknown (IDB atoms and
// unresolvable EDB atoms in the static Datalog render) as est "?", and
// propagates the unknown upward: an operator over an unknown input has an
// unknown estimate too. Returns true if `node`'s estimate is unknown.
bool ClearScanEstimates(PlanNode* node,
                        const std::unordered_set<int>& unknown_slots) {
  bool unknown =
      node->op == PlanOp::kScan && unknown_slots.count(node->input_slot) > 0;
  for (const PlanNodePtr& c : node->children) {
    unknown |= ClearScanEstimates(c.get(), unknown_slots);
  }
  if (unknown) node->est_rows = -1.0;
  return unknown;
}

}  // namespace

Result<std::string> RenderConjunctivePlan(const Database& db,
                                          const ConjunctiveQuery& q) {
  PQ_RETURN_NOT_OK(q.Validate());
  const ConjunctiveQuery* effective = &q;
  ComparisonClosure closure;
  std::ostringstream oss;
  if (q.HasComparisons() && !q.HasOnlyInequalities()) {
    PQ_ASSIGN_OR_RETURN(closure, CollapseComparisons(q));
    if (!closure.consistent) {
      return std::string(
          "(empty plan: the comparison closure is inconsistent)\n");
    }
    effective = &closure.rewritten;
    oss << "-- after comparison closure: " << effective->ToString() << "\n";
  }
  if (q.answer.counting()) {
    // Mirror the engine: if the closure merged or constant-folded a group
    // key, the collapsed query is no longer a valid counting head, and the
    // engine evaluates the original query instead.
    if (!effective->Validate().ok()) effective = &q;
    if (effective->body.empty()) {
      return std::string(
          "(no plan: empty body, the count is answered directly)\n");
    }
    PQ_ASSIGN_OR_RETURN(PhysicalPlan plan, PlanConjunctive(db, *effective));
    std::string rendered = plan.Render();
    if (!effective->HasComparisons() && effective->IsAcyclic()) {
      oss << "-- route: counting Yannakakis (upward multiplicity folding; "
             "the join output is never materialized)\n";
    } else if (rendered.find("SemijoinCount") != std::string::npos) {
      oss << "-- route: counting over the hypertree decomposition "
             "(multiplicity folding across bags)\n";
    } else {
      oss << "-- route: enumerate distinct assignments, aggregate at the "
             "root\n";
    }
    oss << rendered;
    return oss.str();
  }
  bool acyclic_route =
      !effective->HasComparisons() && !effective->body.empty() &&
      effective->IsAcyclic();
  if (acyclic_route) {
    oss << "-- route: Yannakakis join-tree schedule (GYO order)\n";
  } else if (effective->IsAcyclic() && effective->HasOnlyInequalities() &&
             !effective->body.empty()) {
    // Theorem 2 route: show the real lowered residual plan (falling back to
    // the relational plan if the color-coding compiler rejects the query).
    oss << "-- route: Theorem 2 color coding\n";
    auto ineq = IneqPlanText(db, *effective);
    if (ineq.ok()) {
      oss << ineq.value();
      return oss.str();
    }
    oss << "-- (color-coding plan unavailable: " << ineq.status().message()
        << "; relational fallback shown)\n";
  } else {
    // Cyclic route: the planner picks multiway (WCOJ) or binary per bag, so
    // report what the rendered plan actually contains.
    PQ_ASSIGN_OR_RETURN(PhysicalPlan plan, PlanConjunctive(db, *effective));
    std::string rendered = plan.Render();
    if (rendered.find("MultiwayJoin") != std::string::npos) {
      oss << "-- route: worst-case-optimal multiway join "
             "(Yannakakis over a hypertree decomposition)\n";
    } else {
      oss << "-- route: greedy left-deep join order (smallest connected "
             "atom first)\n";
    }
    oss << rendered;
    return oss.str();
  }
  PQ_ASSIGN_OR_RETURN(PhysicalPlan plan, PlanConjunctive(db, *effective));
  oss << plan.Render();
  return oss.str();
}

Result<std::string> RenderPositivePlan(const Database& db,
                                       const PositiveQuery& q) {
  // Expand with the evaluator's own cap (so anything the engine can run,
  // this can report on), but keep the render readable by showing at most
  // kExplainRenderCap disjunct subplans and summarizing the rest.
  constexpr size_t kExplainRenderCap = 64;
  UcqStats stats;
  PQ_ASSIGN_OR_RETURN(
      auto cqs, ExpandDedupedDisjuncts(q, UcqOptions{}.max_disjuncts, &stats));
  std::ostringstream oss;
  oss << "Union [" << cqs.size() << " disjunct" << (cqs.size() == 1 ? "" : "s");
  if (stats.disjuncts_deduped > 0) {
    oss << ", " << stats.disjuncts_deduped
        << " syntactic duplicate(s) dropped";
  }
  oss << "]\n";
  size_t shown = std::min(cqs.size(), kExplainRenderCap);
  // Each disjunct carries its own variable table (ToUnionOfCqs standardizes
  // apart), so the subplans are rendered one at a time with their own names.
  for (size_t i = 0; i < shown; ++i) {
    oss << "  disjunct " << i + 1 << ": " << cqs[i].ToString() << "\n";
    auto plan = PlanConjunctive(db, cqs[i]);
    if (plan.ok()) {
      oss << Indent(plan.value().Render(), 4);
    } else {
      oss << "    unavailable: " << plan.status().message() << "\n";
    }
  }
  if (shown < cqs.size()) {
    oss << "  ... (" << cqs.size() - shown << " more disjunct plans omitted)\n";
  }
  return oss.str();
}

Result<std::string> RenderDatalogPlan(const Database& db,
                                      const DatalogProgram& p) {
  PQ_RETURN_NOT_OK(p.Validate());
  std::ostringstream oss;
  oss << "Fixpoint(" << p.goal << ") [semi-naive, " << p.rules.size()
      << " rule" << (p.rules.size() == 1 ? "" : "s")
      << "; delta-substituted variants are planned at first firing]\n";
  for (size_t ri = 0; ri < p.rules.size(); ++ri) {
    const DatalogRule& rule = p.rules[ri];
    oss << "  rule " << ri << ": " << rule.ToString() << "\n";
    if (rule.body.empty()) {
      oss << "    (constant head; fires once)\n";
      continue;
    }
    std::vector<std::vector<AttrId>> attrs;
    std::vector<size_t> sizes;
    std::vector<JoinIndexCache*> caches(rule.body.size(), nullptr);
    std::unordered_set<int> unknown_slots;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Atom& a = rule.body[i];
      attrs.push_back(a.Variables());
      if (p.IsIdb(a.relation)) {
        // IDB inputs start empty and grow with the fixpoint: size unknown.
        sizes.push_back(0);
        unknown_slots.insert(static_cast<int>(i));
      } else {
        auto found = db.FindRelation(a.relation);
        if (found.ok()) {
          sizes.push_back(db.relation(found.value()).size());
        } else {
          sizes.push_back(0);
          unknown_slots.insert(static_cast<int>(i));
        }
      }
    }
    auto plan = PlanRuleBody(rule, attrs, sizes, caches, /*delta_pos=*/-1);
    if (!plan.ok()) {
      oss << "    unavailable: " << plan.status().message() << "\n";
      continue;
    }
    ClearScanEstimates(plan.value().get(), unknown_slots);
    oss << Indent(RenderPlan(*plan.value(), &rule.vars), 4);
  }
  return oss.str();
}

std::string ExplainConjunctive(const ConjunctiveQuery& q, const Database* db) {
  std::ostringstream oss;
  oss << "query: " << q.ToString() << "\n";
  if (q.HasComparisons() && !q.HasOnlyInequalities()) {
    auto closure = CollapseComparisons(q);
    if (closure.ok() && !closure.value().consistent) {
      oss << "comparison closure: INCONSISTENT — the answer is empty on "
             "every database (Section 5 / Klug)\n";
      return oss.str();
    }
    if (closure.ok()) {
      oss << "comparison closure: collapsed to "
          << closure.value().rewritten.ToString() << "\n";
      oss << ClassifyConjunctive(closure.value().rewritten).ToString();
      if (db != nullptr) {
        AppendPlanSection(&oss, RenderConjunctivePlan(*db, q));
      }
      return oss.str();
    }
  }
  oss << ClassifyConjunctive(q).ToString();
  if (db != nullptr) AppendPlanSection(&oss, RenderConjunctivePlan(*db, q));
  return oss.str();
}

std::string ExplainFirstOrder(const FirstOrderQuery& q, const Database* db) {
  std::ostringstream oss;
  oss << "query: " << q.ToString() << "\n";
  oss << ClassifyFirstOrder(q).ToString();
  if (db != nullptr && q.IsPositive()) {
    auto positive = PositiveQuery::FromFirstOrder(q);
    if (positive.ok()) {
      AppendPlanSection(&oss, RenderPositivePlan(*db, positive.value()));
    }
  }
  return oss.str();
}

std::string ExplainDatalog(const DatalogProgram& p, const Database* db) {
  std::ostringstream oss;
  oss << "program:\n" << p.ToString();
  oss << ClassifyDatalog(p).ToString();
  if (db != nullptr) AppendPlanSection(&oss, RenderDatalogPlan(*db, p));
  return oss.str();
}

}  // namespace paraquery
