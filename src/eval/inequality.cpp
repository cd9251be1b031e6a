#include "eval/inequality.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>

#include "common/fault_injection.hpp"
#include "eval/common.hpp"
#include "hashing/coloring.hpp"
#include "hypergraph/join_tree.hpp"
#include "obs/analyze.hpp"
#include "obs/trace.hpp"
#include "plan/executor.hpp"
#include "query/ineq_formula.hpp"
#include "relational/ops.hpp"

namespace paraquery {

namespace {

// Primed attribute id for variable x (hash column): ids above the variable
// range are free.
AttrId Prime(const ConjunctiveQuery& q, VarId x) { return q.NumVariables() + x; }

struct Plan {
  const ConjunctiveQuery* q = nullptr;
  bool always_false = false;            // refuted during normalization
  std::vector<CompareAtom> i1;          // var != var, no co-occurrence
  std::vector<VarId> v1;                // sorted distinct vars of I1
  int k = 0;                            // |V1|
  int hash_range = 0;                   // colors: k, or #vars+#consts of φ
  std::vector<NamedRelation> base;      // S_j (I2 pushed into selections)
  JoinTree tree;
  std::vector<std::vector<AttrId>> y;   // Y_j per node (sorted)
  // partners[x] = I1 partners of x (VarIds).
  std::vector<std::vector<VarId>> partners;
  size_t i2_count = 0;
  // Formula mode (the Section 5 parameter-q extension): the ∧/∨ formula
  // over ≠ atoms, applied as a selection at the root; every φ-variable's
  // primed attribute is propagated all the way up.
  const IneqFormula* formula = nullptr;
  std::vector<Value> formula_constants;
};

bool IsV1(const Plan& p, VarId x) {
  return std::binary_search(p.v1.begin(), p.v1.end(), x);
}

void BuildYSets(Plan& p, const Hypergraph& h);

Result<Plan> BuildPlan(const Database& db, const ConjunctiveQuery& q) {
  PQ_RETURN_NOT_OK(q.Validate());
  if (q.body.empty()) {
    return Status::InvalidArgument("query has no relational atoms");
  }
  Plan p;
  p.q = &q;

  // Normalize comparisons; reject anything but ≠.
  std::vector<CompareAtom> var_var;     // both sides variables, distinct
  std::vector<CompareAtom> var_const;   // x != c
  for (const CompareAtom& c : q.comparisons) {
    if (c.op != CompareOp::kNeq) {
      return Status::InvalidArgument(
          "inequality evaluator accepts only != atoms; run the comparison "
          "closure / use another engine for <, <=, =");
    }
    if (c.lhs.is_const() && c.rhs.is_const()) {
      if (c.lhs.value() == c.rhs.value()) p.always_false = true;
      continue;  // trivially true otherwise
    }
    if (c.lhs.is_var() && c.rhs.is_var()) {
      if (c.lhs.var() == c.rhs.var()) {
        p.always_false = true;
        continue;
      }
      var_var.push_back(c);
    } else if (c.lhs.is_var()) {
      var_const.push_back(c);
    } else {
      var_const.push_back({CompareOp::kNeq, c.rhs, c.lhs});
    }
  }
  if (p.always_false) return p;

  // Split var/var inequalities by co-occurrence.
  Hypergraph h = q.BuildHypergraph();
  std::vector<CompareAtom> i2_var_var;
  for (const CompareAtom& c : var_var) {
    if (h.CoOccur(c.lhs.var(), c.rhs.var())) {
      i2_var_var.push_back(c);
    } else {
      p.i1.push_back(c);
    }
  }
  p.i2_count = i2_var_var.size() + var_const.size();
  for (const CompareAtom& c : p.i1) {
    p.v1.push_back(c.lhs.var());
    p.v1.push_back(c.rhs.var());
  }
  std::sort(p.v1.begin(), p.v1.end());
  p.v1.erase(std::unique(p.v1.begin(), p.v1.end()), p.v1.end());
  p.k = static_cast<int>(p.v1.size());
  p.hash_range = p.k;
  p.partners.assign(q.NumVariables(), {});
  for (const CompareAtom& c : p.i1) {
    p.partners[c.lhs.var()].push_back(c.rhs.var());
    p.partners[c.rhs.var()].push_back(c.lhs.var());
  }

  // Join tree.
  auto tree = BuildJoinTree(h);
  if (!tree.ok()) {
    return Status::InvalidArgument(internal::StrCat(
        "query is not acyclic: ", tree.status().message()));
  }
  p.tree = std::move(tree).value();

  // S_j with I2 pushed into the selections F_j.
  for (const Atom& a : q.body) {
    std::vector<VarId> uj = a.Variables();
    std::vector<CompareAtom> filters;
    for (const CompareAtom& c : var_const) {
      if (ComparisonWithin(c, uj)) filters.push_back(c);
    }
    for (const CompareAtom& c : i2_var_var) {
      if (ComparisonWithin(c, uj)) filters.push_back(c);
    }
    PQ_ASSIGN_OR_RETURN(NamedRelation s, AtomToRelation(db, a, filters));
    p.base.push_back(std::move(s));
  }

  BuildYSets(p, h);
  return p;
}

// Computes the present[][] matrix and the Y_j attribute sets for a plan
// whose v1 / partners / tree / base are already in place.
void BuildYSets(Plan& p, const Hypergraph& h) {
  const ConjunctiveQuery& q = *p.q;
  // present[j] = set of V1 vars occurring in subtree T[j] (as index into v1).
  size_t m = p.tree.size();
  std::vector<std::vector<bool>> present(m,
                                         std::vector<bool>(p.v1.size(), false));
  for (int j : p.tree.bottom_up) {
    for (size_t vi = 0; vi < p.v1.size(); ++vi) {
      const auto& edge = h.edge(j);
      if (std::binary_search(edge.begin(), edge.end(), p.v1[vi])) {
        present[j][vi] = true;
      }
    }
    for (int c : p.tree.children[j]) {
      for (size_t vi = 0; vi < p.v1.size(); ++vi) {
        if (present[c][vi]) present[j][vi] = true;
      }
    }
  }

  // Y_j = U_j ∪ U'_j ∪ W'_j.
  p.y.resize(m);
  for (size_t j = 0; j < m; ++j) {
    const auto& uj = h.edge(static_cast<int>(j));
    std::vector<AttrId> y(uj.begin(), uj.end());
    for (VarId x : uj) {
      if (IsV1(p, x)) y.push_back(Prime(q, x));
    }
    for (size_t vi = 0; vi < p.v1.size(); ++vi) {
      VarId x = p.v1[vi];
      if (std::binary_search(uj.begin(), uj.end(), x)) continue;  // x ∈ U_j
      if (!present[j][vi]) continue;  // x not in T[j]
      // x lives under exactly one child of j.
      int child = -1;
      for (int c : p.tree.children[j]) {
        if (present[c][vi]) {
          child = c;
          break;
        }
      }
      PQ_CHECK(child >= 0, "V1 variable present in subtree but not in a child");
      // x ∈ W_j iff some partner does not occur in that same child subtree.
      // In formula mode every φ-variable is propagated to the root (the
      // selection cannot be pushed below an ∨), so x is always separated.
      bool separated = (p.formula != nullptr);
      for (VarId l : p.partners[x]) {
        if (separated) break;
        auto li = std::lower_bound(p.v1.begin(), p.v1.end(), l) - p.v1.begin();
        if (!present[child][li]) separated = true;
      }
      if (separated) y.push_back(Prime(q, x));
    }
    std::sort(y.begin(), y.end());
    y.erase(std::unique(y.begin(), y.end()), y.end());
    p.y[j] = std::move(y);
  }
}

// Plan for the Section 5 parameter-q extension: a comparison-free acyclic
// body plus an arbitrary ∧/∨ formula over ≠ atoms, evaluated at the root.
Result<Plan> BuildFormulaPlan(const Database& db, const ConjunctiveQuery& q,
                              const IneqFormula& phi) {
  PQ_RETURN_NOT_OK(q.Validate());
  PQ_RETURN_NOT_OK(phi.Validate());
  // The paper's parameter-v refinement: conjunctive x != c atoms in the
  // body are allowed — they are pushed into the per-atom selections and do
  // not enter the hash range. Everything else must live in the formula.
  std::vector<CompareAtom> var_const;
  bool always_false = false;
  for (const CompareAtom& c : q.comparisons) {
    if (c.op != CompareOp::kNeq) {
      return Status::InvalidArgument(
          "formula mode accepts only != comparisons in the body");
    }
    if (c.lhs.is_const() && c.rhs.is_const()) {
      if (c.lhs.value() == c.rhs.value()) always_false = true;
      continue;
    }
    if (c.lhs.is_var() && c.rhs.is_var()) {
      return Status::InvalidArgument(
          "formula mode: move variable/variable != atoms into the formula");
    }
    var_const.push_back(c.lhs.is_var() ? c
                                       : CompareAtom{CompareOp::kNeq, c.rhs,
                                                     c.lhs});
  }
  if (q.body.empty()) {
    return Status::InvalidArgument("query has no relational atoms");
  }
  Plan p;
  p.q = &q;
  p.formula = &phi;
  p.always_false = always_false;
  p.i2_count = var_const.size();
  p.v1 = phi.Variables();
  std::vector<VarId> body_vars = q.BodyVariables();
  for (VarId x : p.v1) {
    if (x < 0 || x >= q.NumVariables() ||
        std::find(body_vars.begin(), body_vars.end(), x) == body_vars.end()) {
      std::string name = (x >= 0 && x < q.NumVariables())
                             ? q.vars.name(x)
                             : internal::StrCat("#", x);
      return Status::InvalidArgument(internal::StrCat(
          "formula variable '", name,
          "' does not occur in any relational atom"));
    }
  }
  p.formula_constants = phi.Constants();
  p.k = static_cast<int>(p.v1.size());
  p.hash_range = p.k + static_cast<int>(p.formula_constants.size());
  p.partners.assign(q.NumVariables(), {});

  Hypergraph h = q.BuildHypergraph();
  auto tree = BuildJoinTree(h);
  if (!tree.ok()) {
    return Status::InvalidArgument(internal::StrCat(
        "query is not acyclic: ", tree.status().message()));
  }
  p.tree = std::move(tree).value();
  for (const Atom& a : q.body) {
    std::vector<VarId> uj = a.Variables();
    std::vector<CompareAtom> filters;
    for (const CompareAtom& c : var_const) {
      if (ComparisonWithin(c, uj)) filters.push_back(c);
    }
    PQ_ASSIGN_OR_RETURN(NamedRelation s, AtomToRelation(db, a, filters));
    p.base.push_back(std::move(s));
  }
  BuildYSets(p, h);
  return p;
}

// Values the V1 variables can take (union over nodes of the S_j columns of
// V1 variables), plus the formula constants in formula mode. This is the
// ground set the certified family must cover.
std::vector<Value> GroundSet(const Plan& p) {
  std::set<Value> ground(p.formula_constants.begin(),
                         p.formula_constants.end());
  for (const NamedRelation& s : p.base) {
    for (size_t i = 0; i < s.attrs().size(); ++i) {
      if (!IsV1(p, s.attrs()[i])) continue;
      for (size_t r = 0; r < s.size(); ++r) {
        ground.insert(s.rel().At(r, i));
      }
    }
  }
  return std::vector<Value>(ground.begin(), ground.end());
}

Result<ColoringFamily> MakeFamily(const Plan& p, const IneqOptions& options) {
  ColoringFamily family = ColoringFamily::MonteCarlo(
      p.hash_range, options.mc_error_exponent, options.seed);
  if (p.hash_range > 1 && options.driver != IneqOptions::Driver::kMonteCarlo) {
    auto certified = ColoringFamily::Certified(
        GroundSet(p), p.hash_range, options.seed,
        options.certified_max_subsets, options.certified_max_members);
    if (certified.ok()) {
      family = std::move(certified).value();
    } else if (options.driver == IneqOptions::Driver::kCertified) {
      return certified.status();
    }
  }
  return family;
}

// Layout of one hash-extended input S'_j, fixed per compiled query.
struct HashedSlot {
  // S_j columns copied into S'_j, in S_j order. When S_j has V1 columns,
  // a column whose variable no other atom and no head term reads is left
  // out: the lowered DAGs only carry it along (its color stays).
  std::vector<int> keep_cols;
  // S_j columns of V1 variables; their colors follow the kept columns.
  std::vector<int> hash_cols;
  std::vector<AttrId> attrs;  // S'_j attributes: kept, then primed
  // An earlier slot over the same stored rows with the same columns: S'_j
  // is that slot's S' relabeled onto this atom's variables (-1: build it).
  int same_as = -1;
};

// Whether two S_j relations are views of the very same stored rows.
bool SameStoredRows(const Relation& a, const Relation& b) {
  if (a.arity() != b.arity() || a.size() != b.size()) return false;
  if (a.empty()) return true;
  return a.SharesStorageWith(b) && a.Row(0).data() == b.Row(0).data();
}

std::vector<HashedSlot> LayoutHashedSlots(const Plan& p) {
  const ConjunctiveQuery& q = *p.q;
  const std::vector<VarId> head = q.HeadVariables();
  std::vector<int> atoms_of(q.NumVariables(), 0);
  for (const NamedRelation& s : p.base) {
    for (AttrId a : s.attrs()) ++atoms_of[a];
  }
  std::vector<HashedSlot> slots(p.base.size());
  for (size_t j = 0; j < p.base.size(); ++j) {
    const NamedRelation& s = p.base[j];
    HashedSlot& slot = slots[j];
    for (size_t i = 0; i < s.arity(); ++i) {
      if (IsV1(p, s.attrs()[i])) slot.hash_cols.push_back(static_cast<int>(i));
    }
    for (size_t i = 0; i < s.arity(); ++i) {
      const AttrId a = s.attrs()[i];
      if (slot.hash_cols.empty() || atoms_of[a] > 1 ||
          std::find(head.begin(), head.end(), a) != head.end()) {
        slot.keep_cols.push_back(static_cast<int>(i));
        slot.attrs.push_back(a);
      }
    }
    for (int col : slot.hash_cols) {
      slot.attrs.push_back(Prime(q, s.attrs()[col]));
    }
    if (slot.hash_cols.empty()) continue;  // S'_j = S_j: shared already
    for (size_t i = 0; i < j; ++i) {
      if (slots[i].same_as < 0 && slots[i].keep_cols == slot.keep_cols &&
          slots[i].hash_cols == slot.hash_cols &&
          SameStoredRows(p.base[i].rel(), s.rel())) {
        slot.same_as = static_cast<int>(i);
        break;
      }
    }
  }
  return slots;
}

// S'_j for one coloring: the kept S_j columns followed by the colors
// x' = h(x) of its V1 columns.
NamedRelation ExtendHashed(const NamedRelation& s, const HashedSlot& slot,
                           const ColoringFamily& family, size_t member) {
  // No V1 column: S'_j = S_j for every coloring — share the rows instead of
  // copying them per coloring.
  if (slot.hash_cols.empty()) return s;
  std::vector<Value> data;
  data.reserve(s.size() * slot.attrs.size());
  for (size_t r = 0; r < s.size(); ++r) {
    for (int col : slot.keep_cols) data.push_back(s.rel().At(r, col));
    for (int col : slot.hash_cols) {
      data.push_back(family.Color(member, s.rel().At(r, col)));
    }
  }
  NamedRelation out{slot.attrs, Relation(slot.attrs.size(), std::move(data))};
  // Left-out columns can leave equal rows behind; the DAGs want a set.
  if (slot.keep_cols.size() < s.arity()) out.rel().HashDedup();
  return out;
}

// Whether (a, b) or (b, a) is an I1 pair.
bool IsI1Pair(const Plan& p, VarId a, VarId b) {
  for (VarId l : p.partners[a]) {
    if (l == b) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Plan lowering: the default path. The analysis (Plan) is computed once per
// query, Algorithms 1+2 compile into PlanNode DAGs over slot-bound hashed
// inputs S'_j, and every coloring re-executes those DAGs through the shared
// executor. The whole compilation is cacheable across queries (IneqCompiled
// owns its canonical query/formula copies, so the analysis pointers stay
// valid for the cache entry's lifetime).
// ---------------------------------------------------------------------------

// The IneqOptions fields a coloring family depends on.
struct FamilyKey {
  IneqOptions::Driver driver;
  uint64_t seed;
  double mc_error_exponent;
  uint64_t certified_max_subsets;
  size_t certified_max_members;

  explicit FamilyKey(const IneqOptions& o)
      : driver(o.driver),
        seed(o.seed),
        mc_error_exponent(o.mc_error_exponent),
        certified_max_subsets(o.certified_max_subsets),
        certified_max_members(o.certified_max_members) {}
  bool operator==(const FamilyKey&) const = default;
};

struct IneqCompiled {
  ConjunctiveQuery query;   // owned copy the analysis points into
  IneqFormula formula;      // owned copy (formula mode only)
  bool formula_mode = false;
  Plan analysis;            // q/formula point at the members above
  std::vector<HashedSlot> slots;  // S'_j layouts, one per body atom
  // The coloring family certified on the S_j above, built on first use and
  // kept for the entry's lifetime (a database change retires the entry).
  std::mutex family_mutex;
  std::optional<FamilyKey> family_key;
  std::shared_ptr<const ColoringFamily> family;
  // Lowered DAGs over scan slots 0..m-1 = S'_j (ExtendHashed order):
  // Algorithm 1 (upward joins + I1 selects) and the full evaluation
  // (+ downward semijoins + upward join-and-project + head projection).
  PlanNodePtr decision_root;
  PlanNodePtr eval_root;
  // Formula evaluation mode only: the φ-filtered root binds to this extra
  // input slot of eval_root (the upward pass cannot see φ, so the driver
  // filters between the passes).
  int phi_slot = -1;
};

std::string ScanLabel(const Plan& p, size_t j) {
  const ConjunctiveQuery& q = *p.q;
  const Atom& a = q.body[j];
  std::string out = "S'(" + a.relation + "(";
  for (size_t i = 0; i < a.terms.size(); ++i) {
    if (i > 0) out += ", ";
    const Term& t = a.terms[i];
    if (t.is_const()) {
      out += internal::StrCat(t.value());
    } else if (t.var() >= 0 && t.var() < q.vars.size()) {
      out += q.vars.name(t.var());
    } else {
      out += internal::StrCat("$", t.var());
    }
  }
  return out + "))";
}

// Lowers Algorithm 1 (decision) and Algorithms 1+2 (evaluation) to plan
// DAGs, reproducing the hand-rolled operator schedule: the I1 checks that
// were join post-filters become Select nodes right above the joins (same
// rows downstream).
Status LowerPlans(IneqCompiled* c) {
  const Plan& p = c->analysis;
  const ConjunctiveQuery& q = *p.q;
  const int nv = q.NumVariables();
  const size_t m = p.tree.size();

  std::vector<PlanNodePtr> cur(m);
  for (size_t j = 0; j < m; ++j) {
    cur[j] = MakeScan(static_cast<int>(j), c->slots[j].attrs, ScanLabel(p, j),
                      static_cast<double>(p.base[j].size()));
  }

  // Algorithm 1: P_u := σ_F(P_u ⋈ π_{Y_j ∩ Y_u}(P_j)), bottom-up.
  for (int j : p.tree.bottom_up) {
    int u = p.tree.parent[j];
    if (u < 0) continue;
    std::vector<AttrId> shared;
    std::set_intersection(p.y[j].begin(), p.y[j].end(), p.y[u].begin(),
                          p.y[u].end(), std::back_inserter(shared));
    const std::vector<AttrId> pu_attrs = cur[u]->attrs;  // before this child
    // The join's output attrs (left, then right-only), needed to index the
    // pushed filter before the node exists.
    std::vector<AttrId> out_attrs = pu_attrs;
    for (AttrId a : shared) {
      if (std::find(out_attrs.begin(), out_attrs.end(), a) ==
          out_attrs.end()) {
        out_attrs.push_back(a);
      }
    }
    Predicate pred;
    if (p.formula == nullptr) {
      // Primed pairs x'_i != x'_l with (x_i, x_l) ∈ I1, x'_i arriving from
      // j (∉ U'_u) and x'_l already in P_u but not in Y_j — the least
      // common ancestor of the endpoints' subtrees (Lemma 1). Pushed into
      // the join kernel (σ_F(P_u ⋈ ...) in one pass, like the oracle).
      auto col_of = [&out_attrs](AttrId a) {
        for (size_t i = 0; i < out_attrs.size(); ++i) {
          if (out_attrs[i] == a) return static_cast<int>(i);
        }
        return -1;
      };
      const std::vector<VarId> u_vars = q.body[u].Variables();
      for (AttrId aj : shared) {
        if (aj < nv) continue;  // only primed attrs carry I1 checks
        VarId xi = aj - nv;
        if (std::find(u_vars.begin(), u_vars.end(), xi) != u_vars.end()) {
          continue;  // x'_i ∈ U'_u: checked elsewhere
        }
        for (AttrId al : pu_attrs) {
          if (al < nv) continue;
          if (std::binary_search(p.y[j].begin(), p.y[j].end(), al)) continue;
          VarId xl = al - nv;
          if (!IsI1Pair(p, xi, xl)) continue;
          pred.Add(Constraint::NeqCols(col_of(al), col_of(aj)));
        }
      }
    }
    cur[u] = MakeHashJoin(cur[u], MakeProject(cur[j], shared, /*dedup=*/true),
                          std::move(pred));
  }
#ifndef NDEBUG
  // P_j carries Y_j minus the S_j columns left out of S'_j (Lemma 1).
  for (size_t j = 0; j < m; ++j) {
    std::vector<AttrId> sorted = cur[j]->attrs;
    std::sort(sorted.begin(), sorted.end());
    std::vector<AttrId> expected;
    for (AttrId a : p.y[j]) {
      const std::vector<AttrId>& base = p.base[j].attrs();
      const std::vector<AttrId>& kept = c->slots[j].attrs;
      if (std::find(base.begin(), base.end(), a) == base.end() ||
          std::find(kept.begin(), kept.end(), a) != kept.end()) {
        expected.push_back(a);
      }
    }
    PQ_DCHECK(sorted == expected,
              "lowered P_j attributes must equal Y_j (Lemma 1)");
  }
#endif
  c->decision_root = cur[p.tree.root];

  // Algorithm 2, step 1: downward semijoins from the (possibly φ-filtered)
  // root. In formula mode the filtered root arrives through an extra slot.
  std::vector<PlanNodePtr> red(m);
  if (c->formula_mode) {
    c->phi_slot = static_cast<int>(m);
    red[p.tree.root] = MakeScan(c->phi_slot, c->decision_root->attrs,
                                "sigma_phi(root)", /*est_rows=*/-1.0);
  } else {
    red[p.tree.root] = cur[p.tree.root];
  }
  for (int j : p.tree.top_down) {
    int u = p.tree.parent[j];
    if (u < 0) continue;
    red[j] = MakeSemijoin(cur[j], red[u]);
  }

  // Step 2: upward join-and-project with Z_j = (Y_j ∩ Y_u) ∪ (Z ∩ at(T[j])).
  std::vector<VarId> head_vars = q.HeadVariables();
  Hypergraph h = q.BuildHypergraph();
  std::vector<std::vector<AttrId>> subtree_head(m);
  for (int j : p.tree.bottom_up) {
    std::vector<AttrId> acc;
    for (VarId x : h.edge(j)) {
      if (std::find(head_vars.begin(), head_vars.end(), x) !=
          head_vars.end()) {
        acc.push_back(x);
      }
    }
    for (int ch : p.tree.children[j]) {
      acc.insert(acc.end(), subtree_head[ch].begin(), subtree_head[ch].end());
    }
    std::sort(acc.begin(), acc.end());
    acc.erase(std::unique(acc.begin(), acc.end()), acc.end());
    subtree_head[j] = std::move(acc);
  }
  for (int j : p.tree.bottom_up) {
    int u = p.tree.parent[j];
    if (u < 0) continue;
    std::vector<AttrId> zj;
    for (AttrId a : red[j]->attrs) {
      if (std::find(red[u]->attrs.begin(), red[u]->attrs.end(), a) !=
          red[u]->attrs.end()) {
        zj.push_back(a);
      }
    }
    for (AttrId a : subtree_head[j]) {
      if (std::find(zj.begin(), zj.end(), a) == zj.end()) zj.push_back(a);
    }
    red[u] = MakeHashJoin(red[u], MakeProject(red[j], zj, /*dedup=*/true));
  }
  // Step 3: project the root onto the head variables (the driver maps the
  // bindings through the head terms).
  c->eval_root = MakeProject(red[p.tree.root], head_vars, /*dedup=*/true);
  return Status::OK();
}

// Query variables plus primed names (x') for rendering the DAGs.
VarTable RenderVars(const ConjunctiveQuery& q) {
  VarTable vars;
  for (VarId v = 0; v < q.NumVariables(); ++v) vars.Intern(q.vars.name(v));
  for (VarId v = 0; v < q.NumVariables(); ++v) {
    std::string primed = q.vars.name(v) + "'";
    while (vars.Find(primed) >= 0) primed += "'";
    vars.Intern(primed);
  }
  return vars;
}

// Compiles a query (and optional formula) without consulting any cache.
Result<std::shared_ptr<IneqCompiled>> BuildCompiled(const Database& db,
                                                    const ConjunctiveQuery& q,
                                                    const IneqFormula* phi) {
  auto c = std::make_shared<IneqCompiled>();
  c->query = q;
  if (phi != nullptr) {
    c->formula = *phi;
    c->formula_mode = true;
  }
  PQ_ASSIGN_OR_RETURN(c->analysis,
                      c->formula_mode
                          ? BuildFormulaPlan(db, c->query, c->formula)
                          : BuildPlan(db, c->query));
  if (!c->analysis.always_false) {
    c->slots = LayoutHashedSlots(c->analysis);
    PQ_RETURN_NOT_OK(LowerPlans(c.get()));
  }
  return c;
}

// `phi` renamed onto canonical variable ids (out-of-range ids map to -1 and
// are rejected by the downstream validation, exactly like the original).
IneqFormula RemapFormula(const IneqFormula& phi,
                         const std::vector<AttrId>& inverse) {
  IneqFormula out = phi;
  auto remap = [&inverse](Term& t) {
    if (!t.is_var()) return;
    VarId v = t.var();
    t = Term::Var((v >= 0 && static_cast<size_t>(v) < inverse.size())
                      ? inverse[v]
                      : -1);
  };
  for (IneqFormula::Node& n : out.nodes) {
    if (n.kind == IneqFormula::NodeKind::kAtom) {
      remap(n.atom.lhs);
      remap(n.atom.rhs);
    }
  }
  return out;
}

// Structural signature of a canonical-renamed formula (cache key suffix).
std::string FormulaSignature(const IneqFormula& phi) {
  std::string s;
  auto term = [](const Term& t) {
    return t.is_var() ? internal::StrCat("v", t.var())
                      : internal::StrCat("c", t.value());
  };
  for (const IneqFormula::Node& n : phi.nodes) {
    switch (n.kind) {
      case IneqFormula::NodeKind::kAtom:
        s += "a" + term(n.atom.lhs) + ":" + term(n.atom.rhs) + ";";
        break;
      case IneqFormula::NodeKind::kAnd:
      case IneqFormula::NodeKind::kOr:
        s += n.kind == IneqFormula::NodeKind::kAnd ? "&" : "|";
        for (int ch : n.children) s += internal::StrCat(ch, ",");
        s += ";";
        break;
    }
  }
  return s + internal::StrCat("r", phi.root);
}

// Fetches (or compiles and caches) the compiled form. With a cache, the
// query is canonicalized first so renaming-equivalent queries share one
// compilation; without one, the query compiles as-is.
Result<std::shared_ptr<IneqCompiled>> GetCompiled(const Database& db,
                                                  const ConjunctiveQuery& q,
                                                  const IneqFormula* phi,
                                                  const IneqOptions& options) {
  PQ_FAULT_POINT("ineq.compile");
  if (options.plan_cache == nullptr) return BuildCompiled(db, q, phi);
  CanonicalCq canonical = CanonicalizeCq(q);
  std::string key = internal::StrCat("ineq:", canonical.signature);
  IneqFormula renamed;
  if (phi != nullptr) {
    std::vector<AttrId> inverse(std::max(1, q.NumVariables()), -1);
    for (size_t i = 0; i < canonical.order.size(); ++i) {
      if (canonical.order[i] >= 0 &&
          static_cast<size_t>(canonical.order[i]) < inverse.size()) {
        inverse[canonical.order[i]] = static_cast<AttrId>(i);
      }
    }
    renamed = RemapFormula(*phi, inverse);
    key += "|phi:" + FormulaSignature(renamed);
  }
  auto cached = options.plan_cache->Lookup<IneqCompiled>(key, db);
  if (cached != nullptr) return cached;
  PQ_ASSIGN_OR_RETURN(
      auto compiled,
      BuildCompiled(db, canonical.query, phi != nullptr ? &renamed : nullptr));
  options.plan_cache->Insert(key, db, canonical.query, compiled);
  return compiled;
}

// Hash-extended inputs S'_j for one coloring (slot order = body order).
std::vector<NamedRelation> HashedInputs(const IneqCompiled& c,
                                        const ColoringFamily& family,
                                        size_t member) {
  const Plan& p = c.analysis;
  std::vector<NamedRelation> inputs;
  inputs.reserve(p.base.size() + 1);  // + the formula mode's φ slot
  for (size_t j = 0; j < p.base.size(); ++j) {
    const HashedSlot& slot = c.slots[j];
    inputs.push_back(slot.same_as >= 0
                         ? inputs[slot.same_as].WithAttrs(slot.attrs)
                         : ExtendHashed(p.base[j], slot, family, member));
  }
  return inputs;
}

// φ applied at the root, on the primed (color) columns; constants take
// their color under the same member.
NamedRelation FilterByFormula(const Plan& p, const NamedRelation& root,
                              const ColoringFamily& family, size_t member) {
  std::vector<int> col_of_var(p.q->NumVariables(), -1);
  for (VarId x : p.v1) {
    col_of_var[x] = root.ColumnOf(Prime(*p.q, x));
    PQ_CHECK(col_of_var[x] >= 0,
             "formula variable's primed attribute missing at the root");
  }
  NamedRelation filtered{root.attrs()};
  for (size_t r = 0; r < root.size(); ++r) {
    auto row = root.rel().Row(r);
    auto value_of = [&](const Term& t) -> Value {
      return t.is_var() ? row[col_of_var[t.var()]]
                        : family.Color(member, t.value());
    };
    if (p.formula->Evaluate(value_of)) filtered.rel().Add(row);
  }
  return filtered;
}

// The compiled family for `options`, built on first use (IneqStats is
// filled on every call).
Result<std::shared_ptr<const ColoringFamily>> CachedFamily(
    IneqCompiled& c, const IneqOptions& options, IneqStats* stats) {
  std::shared_ptr<const ColoringFamily> family;
  {
    std::lock_guard<std::mutex> lock(c.family_mutex);
    const FamilyKey key(options);
    if (c.family == nullptr || c.family_key != key) {
      PQ_ASSIGN_OR_RETURN(ColoringFamily built,
                          MakeFamily(c.analysis, options));
      c.family = std::make_shared<const ColoringFamily>(std::move(built));
      c.family_key = key;
    }
    family = c.family;
  }
  if (stats != nullptr) {
    stats->k = c.analysis.hash_range;
    stats->i1_atoms = c.analysis.i1.size();
    stats->i2_atoms = c.analysis.i2_count;
    stats->family_size = family->size();
    stats->certified = family->certified();
  }
  return family;
}

enum class Goal { kDecide, kEvaluate };

// The DAGs one coloring executes: the compiled ones when colorings run one
// at a time, else a private clone per in-flight task (an execution writes
// the actuals of the nodes it runs).
struct ColoringDags {
  PlanNodePtr decision;
  PlanNodePtr eval;
};

ColoringDags CloneDags(const IneqCompiled& c, Goal goal) {
  if (goal == Goal::kDecide) return {ClonePlan(*c.decision_root), nullptr};
  if (!c.formula_mode) return {nullptr, ClonePlan(*c.eval_root)};
  // Formula evaluation runs both DAGs in one session; clone them together
  // so the nodes they share stay shared.
  std::vector<PlanNodePtr> roots =
      ClonePlans({c.decision_root.get(), c.eval_root.get()});
  return {roots[0], roots[1]};
}

// What one coloring contributed (its answers go to the AnswerUnion).
struct ColoringResult {
  bool ran = false;
  Status status;
  bool witness = false;      // decision: the coloring found a witness
  PlanStats stats;
  size_t filtered_rows = 0;  // formula mode: rows kept by φ at the root
};

// The union of the colorings' answers. Colorings add concurrently and in
// any order: Finish sorts and deduplicates, so the result does not depend
// on that order. The union is also deduplicated whenever it has doubled
// since the last pass, so answers found by many colorings are held about
// once rather than once per coloring.
class AnswerUnion {
 public:
  explicit AnswerUnion(size_t arity) : rows_(arity) {}

  void Add(const NamedRelation& bindings, const std::vector<Term>& head) {
    Relation found = BindingsToAnswers(bindings, head);
    if (found.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t r = 0; r < found.size(); ++r) rows_.Add(found.Row(r));
    if (rows_.size() > 2 * std::max<size_t>(deduped_rows_, 1024)) {
      rows_.HashDedup();
      deduped_rows_ = rows_.size();
    }
  }

  Relation Finish() {
    rows_.SortAndDedup();
    return std::move(rows_);
  }

 private:
  std::mutex mutex_;
  Relation rows_;
  size_t deduped_rows_ = 0;
};

// Runs coloring `m`: binds its S'_j, executes the DAGs in `dags`, and
// records what it found in `out` (evaluation: answers into `answers`).
Status RunColoring(const IneqCompiled& c, const ColoringFamily& family,
                   size_t m, const ColoringDags& dags,
                   const ResourceLimits& limits, const RuntimeOptions& runtime,
                   AnswerUnion* answers, ColoringResult* out) {
  const Goal goal = answers == nullptr ? Goal::kDecide : Goal::kEvaluate;
  // Per-coloring poll: Theorem 2's k^k loop is the longest-running site in
  // the engine, so deadline aborts must land between colorings.
  PQ_RETURN_NOT_OK(runtime.CheckInterrupt());
  PQ_FAULT_POINT("ineq.coloring");
  TraceSpan coloring_span(runtime.tracer, "coloring",
                          runtime.tracer != nullptr ? internal::StrCat("m=", m)
                                                    : std::string());
  const Plan& p = c.analysis;
  std::vector<NamedRelation> inputs = HashedInputs(c, family, m);
  if (c.formula_mode) inputs.emplace_back();  // φ slot, bound after the filter
  std::vector<const NamedRelation*> ptrs;
  ptrs.reserve(inputs.size());
  for (const NamedRelation& in : inputs) ptrs.push_back(&in);
  // EXPLAIN ANALYZE files every execution under the compiled DAG, whichever
  // copy ran it.
  RuntimeOptions exec_runtime = runtime;
  exec_runtime.analyze = nullptr;
  auto note = [&](const PlanNode& ran, const PlanNodePtr& compiled) {
    if (runtime.analyze != nullptr) {
      const VarTable vars = RenderVars(c.query);
      runtime.analyze->Note(ran, &vars, compiled.get());
    }
  };
  ExecContext ctx{ptrs, limits, &out->stats, exec_runtime};

  if (goal == Goal::kEvaluate && !c.formula_mode) {
    Result<NamedRelation> bindings = ExecutePlan(*dags.eval, ctx);
    note(*dags.eval, c.eval_root);
    PQ_RETURN_NOT_OK(bindings.status());
    answers->Add(bindings.value(), c.query.head);
    return Status::OK();
  }
  // The upward pass (Algorithm 1), then φ at the root in formula mode. In
  // formula evaluation one session serves both passes: the evaluation DAG
  // reuses every P_j the upward pass computed.
  std::optional<ExecSession> session;
  if (goal == Goal::kEvaluate) session.emplace(ctx);
  Result<NamedRelation> upward = session.has_value()
                                     ? session->Run(*dags.decision)
                                     : ExecutePlan(*dags.decision, ctx);
  note(*dags.decision, c.decision_root);
  PQ_ASSIGN_OR_RETURN(NamedRelation root, std::move(upward));
  if (c.formula_mode && !root.empty()) {
    root = FilterByFormula(p, root, family, m);
    out->filtered_rows = root.size();
  }
  if (goal == Goal::kDecide || root.empty()) {
    out->witness = !root.empty();
    return Status::OK();
  }
  inputs.back() = std::move(root);
  Result<NamedRelation> bindings = session->Run(*dags.eval);
  note(*dags.eval, c.eval_root);
  PQ_RETURN_NOT_OK(bindings.status());
  answers->Add(bindings.value(), c.query.head);
  return Status::OK();
}

// The one coloring runner behind all Theorem 2 entry points. Decision
// (`answers` null) stops at the first witness coloring; evaluation unions
// every coloring's answers into `answers`. With a parallel runtime and more
// than one coloring, each coloring is a scheduler task executing its own
// DAG clone sequentially inside; outcomes are resolved in coloring order,
// so answers, errors, `trials` and PlanStats match the one-at-a-time loop
// exactly. Returns whether a witness was found (decision).
Result<bool> DriveColorings(IneqCompiled& c, const IneqOptions& options,
                            IneqStats* stats, PlanStats* plan_stats,
                            AnswerUnion* answers) {
  if (c.analysis.always_false) return false;
  const Goal goal = answers == nullptr ? Goal::kDecide : Goal::kEvaluate;
  TraceSpan route_span(options.runtime.tracer, "route.theorem2");
  PQ_ASSIGN_OR_RETURN(std::shared_ptr<const ColoringFamily> family,
                      CachedFamily(c, options, stats));
  const ResourceLimits limits = options.EffectiveLimits();
  const size_t n = family->size();
  std::vector<ColoringResult> results(n);
  // A coloring past this index is not needed: an earlier one failed, or
  // (decision) found a witness.
  auto stops = [goal](const ColoringResult& r) {
    return !r.status.ok() || (goal == Goal::kDecide && r.witness);
  };
  if (!options.runtime.parallel() || n <= 1) {
    const ColoringDags dags{c.decision_root, c.eval_root};
    for (size_t m = 0; m < n; ++m) {
      ColoringResult& r = results[m];
      r.ran = true;
      r.status = RunColoring(c, *family, m, dags, limits, options.runtime,
                             answers, &r);
      if (stops(r)) break;
    }
  } else {
    std::atomic<size_t> stop_at{n};
    std::mutex pool_mutex;
    std::vector<ColoringDags> pool;  // idle clones, at most one per task
    RuntimeOptions inner = options.runtime;
    inner.scheduler = nullptr;
    TaskGroup group(options.runtime.scheduler);
    for (size_t m = 0; m < n; ++m) {
      group.Spawn([&, m] {
        if (m > stop_at.load()) return;
        ColoringDags dags;
        {
          std::lock_guard<std::mutex> lock(pool_mutex);
          if (!pool.empty()) {
            dags = std::move(pool.back());
            pool.pop_back();
          }
        }
        if (dags.decision == nullptr && dags.eval == nullptr) {
          dags = CloneDags(c, goal);
        }
        ColoringResult& r = results[m];
        r.ran = true;
        r.status =
            RunColoring(c, *family, m, dags, limits, inner, answers, &r);
        if (stops(r)) {
          size_t seen = stop_at.load();
          while (m < seen && !stop_at.compare_exchange_weak(seen, m)) {
          }
        }
        std::lock_guard<std::mutex> lock(pool_mutex);
        pool.push_back(std::move(dags));
      });
    }
    group.Wait();
  }

  // Resolve in coloring order: exactly the colorings the one-at-a-time
  // loop would have run, and its first error.
  PlanStats local;
  size_t trials = 0;
  bool found = false;
  for (size_t m = 0; m < n && !found; ++m) {
    const ColoringResult& r = results[m];
    if (!r.ran) break;
    PQ_RETURN_NOT_OK(r.status);
    trials = m + 1;
    local.Merge(r.stats);
    found = r.witness;
    if (stats != nullptr) {
      stats->peak_rows = std::max(stats->peak_rows, r.filtered_rows);
    }
  }
  // One compile, `trials` executions: every re-binding past the first is
  // the cache's per-coloring reuse.
  if (options.plan_cache != nullptr && trials > 1) {
    options.plan_cache->NoteReuse(trials - 1);
  }
  if (stats != nullptr) {
    stats->trials = trials;
    stats->peak_rows = std::max(stats->peak_rows, local.peak_intermediate_rows);
  }
  if (plan_stats != nullptr) plan_stats->Merge(local);
  return found;
}

Result<bool> PlanDriveNonempty(IneqCompiled& c, const IneqOptions& options,
                               IneqStats* stats, PlanStats* plan_stats) {
  return DriveColorings(c, options, stats, plan_stats, nullptr);
}

Result<Relation> PlanDriveEvaluate(IneqCompiled& c, const IneqOptions& options,
                                   IneqStats* stats, PlanStats* plan_stats) {
  AnswerUnion answers(c.query.head.size());
  PQ_RETURN_NOT_OK(
      DriveColorings(c, options, stats, plan_stats, &answers).status());
  return answers.Finish();
}

}  // namespace

Result<bool> IneqNonempty(const Database& db, const ConjunctiveQuery& q,
                          const IneqOptions& options, IneqStats* stats,
                          PlanStats* plan_stats) {
  PQ_ASSIGN_OR_RETURN(auto compiled, GetCompiled(db, q, nullptr, options));
  return PlanDriveNonempty(*compiled, options, stats, plan_stats);
}

Result<Relation> IneqEvaluate(const Database& db, const ConjunctiveQuery& q,
                              const IneqOptions& options, IneqStats* stats,
                              PlanStats* plan_stats) {
  PQ_ASSIGN_OR_RETURN(auto compiled, GetCompiled(db, q, nullptr, options));
  return PlanDriveEvaluate(*compiled, options, stats, plan_stats);
}

Result<bool> IneqFormulaNonempty(const Database& db, const ConjunctiveQuery& q,
                                 const IneqFormula& phi,
                                 const IneqOptions& options, IneqStats* stats,
                                 PlanStats* plan_stats) {
  PQ_ASSIGN_OR_RETURN(auto compiled, GetCompiled(db, q, &phi, options));
  return PlanDriveNonempty(*compiled, options, stats, plan_stats);
}

Result<Relation> IneqFormulaEvaluate(const Database& db,
                                     const ConjunctiveQuery& q,
                                     const IneqFormula& phi,
                                     const IneqOptions& options,
                                     IneqStats* stats,
                                     PlanStats* plan_stats) {
  PQ_ASSIGN_OR_RETURN(auto compiled, GetCompiled(db, q, &phi, options));
  return PlanDriveEvaluate(*compiled, options, stats, plan_stats);
}

Result<bool> IneqContains(const Database& db, const ConjunctiveQuery& q,
                          const std::vector<Value>& tuple,
                          const IneqOptions& options, IneqStats* stats) {
  if (tuple.size() != q.head.size()) {
    return Status::InvalidArgument("tuple arity does not match query head");
  }
  return IneqNonempty(db, q.BindHead(tuple), options, stats);
}

Result<std::string> IneqPlanText(const Database& db,
                                 const ConjunctiveQuery& q) {
  PQ_ASSIGN_OR_RETURN(auto compiled, BuildCompiled(db, q, nullptr));
  if (compiled->analysis.always_false) {
    return std::string(
        "(empty plan: a comparison atom is refuted on every database)\n");
  }
  std::ostringstream oss;
  oss << "-- Theorem 2 color coding: k=" << compiled->analysis.k
      << " (|V1|), I1=" << compiled->analysis.i1.size()
      << " hash-checked atom(s), I2=" << compiled->analysis.i2_count
      << " pushed into scans;\n"
      << "-- one residual plan compiled, re-executed per coloring on "
         "re-bound S' inputs (primed columns = colors)\n";
  const VarTable vars = RenderVars(compiled->query);
  oss << RenderPlan(*compiled->eval_root, &vars);
  return oss.str();
}

}  // namespace paraquery
