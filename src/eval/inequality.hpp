// Theorem 2: fixed-parameter tractable evaluation of acyclic conjunctive
// queries with inequality (≠) atoms.
//
// Pipeline (exactly the paper's construction, Section 5):
//   1. Split the inequality atoms into I2 (x ≠ c, and x ≠ y whose endpoints
//      co-occur in some relational atom) and I1 (the rest). I2 is folded into
//      the per-atom selections F_j; I1 — the inequalities that would destroy
//      acyclicity — is handled by color coding.
//   2. Let V1 = vars(I1), k = |V1|. For a coloring h : D -> {1..k}, extend
//      each S_j with primed attributes x' = h(x) for x ∈ U_j ∩ V1.
//   3. Compute the attribute sets Y_j = U_j ∪ U'_j ∪ W'_j, where W_j pulls
//      x' up the join tree until the inequality partners meet (Lemma 1: the
//      Y_j form an acyclic hypergraph with the same join tree).
//   4. Algorithm 1 (emptiness): bottom-up pass
//      P_u := σ_F(P_u ⋈ π_{Y_j ∩ Y_u}(P_j)); each I1 atom is checked by F at
//      the least common ancestor of its endpoints' subtrees.
//   5. Algorithm 2 (evaluation): downward semijoin pass, then upward
//      join-and-project computing π_Z without materializing the full join.
//   6. Drive over a family of colorings: Monte Carlo (c·e^k trials, the
//      paper's randomized analysis) or a family certified k-perfect on the
//      values V1 can take (deterministic, exact).
//
// Complexity: O(g(k) · q · n log n) per coloring for the decision problem,
// and output-sensitive for evaluation — the parameter never multiplies into
// the exponent of n.
//
// Since the plan-cache PR, steps 4–5 are LOWERED onto the physical plan IR:
// the residual query of a coloring compiles once into a PlanNode DAG
// (upward joins with the I1 checks as Select nodes, downward semijoins,
// upward join-and-project), and every coloring re-executes that one plan
// through the shared executor on re-bound hash-extended inputs S'_j — so
// the Theorem 2 engine inherits the parallel runtime, ResourceLimits,
// PlanStats, and .plan rendering, and the per-coloring re-execution is the
// plan cache's headline win (one plan compiled, k^k colorings executed).
// Under a parallel runtime the colorings themselves run as scheduler
// tasks; the family is cached with the compiled plan.
// The historical hand-rolled evaluation is gone; its recorded answers live
// on as the differential fixture tests/theorem2_recorded.inc.
#ifndef PARAQUERY_EVAL_INEQUALITY_H_
#define PARAQUERY_EVAL_INEQUALITY_H_

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "plan/plan.hpp"
#include "plan/plan_cache.hpp"
#include "query/conjunctive_query.hpp"
#include "relational/database.hpp"
#include "runtime/scheduler.hpp"

namespace paraquery {

/// Options for the Theorem 2 engine.
struct IneqOptions {
  enum class Driver {
    /// Certified family when feasible on the ground set, else Monte Carlo.
    kAuto,
    /// The paper's randomized algorithm: c·e^k random colorings.
    kMonteCarlo,
    /// Deterministic family certified k-perfect on the active values of V1;
    /// fails with ResourceExhausted when certification is infeasible.
    kCertified,
  };

  Driver driver = Driver::kAuto;
  /// Error exponent c for Monte Carlo: failure probability <= e^-c per
  /// witness.
  double mc_error_exponent = 4.0;
  uint64_t seed = 0xC0FFEE;
  /// Unified resource guard, enforced by the shared executor on EVERY
  /// per-coloring plan execution (each coloring gets a fresh max_steps
  /// budget: the bound is per residual query, not per family).
  ResourceLimits limits;
  /// Parallel runtime binding: with a parallel scheduler and more than one
  /// coloring, each coloring is a scheduler task executing its own copy of
  /// the plan sequentially; a one-member family runs its plan morsel/
  /// structurally parallel instead. Outcomes resolve in coloring order
  /// (decision cancels the colorings after the first witness), so answers
  /// and stats are identical at any width.
  RuntimeOptions runtime;
  /// Cross-query plan cache (optional, engine-owned): the compiled residual
  /// plan — S_j inputs, join tree, Y sets, lowered DAGs — is keyed by the
  /// canonical query signature (+ formula) and database generation. The
  /// entry also keeps the coloring family, built on first use for the
  /// family options above. Each additional coloring executed against the
  /// compiled plan is credited as a cache hit (PlanCache::NoteReuse).
  PlanCache* plan_cache = nullptr;
  /// DEPRECATED alias for limits.max_rows (the historical per-join guard).
  /// Used only when limits.max_rows == 0.
  uint64_t max_rows = 0;
  /// Certification budget: max number of k-subsets of the ground set.
  uint64_t certified_max_subsets = 2'000'000;
  size_t certified_max_members = 100'000;

  ResourceLimits EffectiveLimits() const {
    return limits.MergedWith(max_rows, /*legacy_max_steps=*/0);
  }
};

/// Instrumentation reported by the engine.
struct IneqStats {
  int k = 0;                  // |V1|
  size_t i1_atoms = 0;        // inequalities handled by color coding
  size_t i2_atoms = 0;        // inequalities pushed into selections
  size_t family_size = 0;     // colorings available
  size_t trials = 0;          // colorings up to the first witness (all
                              // of them for evaluation), at any width
  bool certified = false;     // family certified k-perfect (exact result)
  size_t peak_rows = 0;       // largest intermediate P_u
};

/// Decides Q(d) != {} for an acyclic conjunctive query with ≠ atoms.
/// With a certified family the answer is exact; with Monte Carlo a `false`
/// is wrong with probability <= e^-c (a `true` is always sound).
/// `plan_stats`, when given, receives the shared executor's counters
/// aggregated over every coloring executed.
Result<bool> IneqNonempty(const Database& db, const ConjunctiveQuery& q,
                          const IneqOptions& options = {},
                          IneqStats* stats = nullptr,
                          PlanStats* plan_stats = nullptr);

/// Computes Q(d). With a certified family the result is exact; with Monte
/// Carlo each answer tuple is missed with probability <= e^-c.
Result<Relation> IneqEvaluate(const Database& db, const ConjunctiveQuery& q,
                              const IneqOptions& options = {},
                              IneqStats* stats = nullptr,
                              PlanStats* plan_stats = nullptr);

/// Decides t ∈ Q(d).
Result<bool> IneqContains(const Database& db, const ConjunctiveQuery& q,
                          const std::vector<Value>& tuple,
                          const IneqOptions& options = {},
                          IneqStats* stats = nullptr);

/// Renders the lowered Theorem 2 evaluation plan (the coloring-independent
/// residual DAG: upward joins + I1 selects, downward semijoins, upward
/// join-and-project) without executing it. Primed hash columns render as
/// name' next to their base variable. Fails where the engine would (cyclic
/// body, non-≠ comparisons).
Result<std::string> IneqPlanText(const Database& db,
                                 const ConjunctiveQuery& q);

class IneqFormula;

/// The Section 5 parameter-q extension: an acyclic comparison-free body
/// plus an arbitrary ∧/∨ formula over ≠ atoms. The hash range grows to
/// k = #variables + #constants of the formula, every formula variable's
/// primed attribute is carried to the root, and φ is applied there as a
/// selection over colors (it cannot be pushed below an ∨). Soundness is
/// unconditional; completeness follows from a coloring injective on the
/// witness values and formula constants, exactly as in Theorem 2.
Result<bool> IneqFormulaNonempty(const Database& db, const ConjunctiveQuery& q,
                                 const IneqFormula& phi,
                                 const IneqOptions& options = {},
                                 IneqStats* stats = nullptr,
                                 PlanStats* plan_stats = nullptr);

/// Full evaluation under the formula extension. The relational passes run
/// through the shared executor; φ itself is applied at the root as a
/// per-coloring row filter (an ∧/∨ formula is not a conjunctive Predicate,
/// and its constants take per-coloring colors, so it cannot live inside the
/// cached coloring-independent plan).
Result<Relation> IneqFormulaEvaluate(const Database& db,
                                     const ConjunctiveQuery& q,
                                     const IneqFormula& phi,
                                     const IneqOptions& options = {},
                                     IneqStats* stats = nullptr,
                                     PlanStats* plan_stats = nullptr);

}  // namespace paraquery

#endif  // PARAQUERY_EVAL_INEQUALITY_H_
