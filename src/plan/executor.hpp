// The one plan executor shared by every evaluator: runs a PlanNode DAG on
// the RowBlock/RowIndex kernels (relational/ops.hpp), enforcing
// ResourceLimits and filling PlanStats plus per-node actual row counts.
//
// With a TaskScheduler bound through ExecContext::runtime the executor goes
// parallel on two axes, with results bit-identical to sequential runs:
//   * structural — the two inputs of a HashJoin/Semijoin and the branches
//     of a Union (independent subtrees of the DAG, e.g. Yannakakis sibling
//     semijoin subtrees) execute as concurrent tasks, with shared nodes
//     still computed exactly once;
//   * morsel — Select, Project, the hash-join probe, and the semijoin probe
//     split their input rows into morsels processed by scheduler tasks into
//     per-worker buffers merged in deterministic morsel order
//     (runtime/parallel_ops.hpp).
// ResourceLimits stay enforced through one atomic row budget shared by all
// tasks of the execution. Parallel execution is speculative about the
// sequential empty-input short-circuit — a subtree the sequential executor
// would skip (because its sibling came out empty) may still run — but its
// rows are charged to a TENTATIVE budget that is committed only when the
// subtree's result is actually consumed, so a query that passes its limits
// at threads=1 never fails them at threads=N; speculative work that is
// dropped by the short-circuit is never charged (its errors are discarded
// with it). PlanStats::rows_produced still records all performed work,
// speculative included.
#ifndef PARAQUERY_PLAN_EXECUTOR_H_
#define PARAQUERY_PLAN_EXECUTOR_H_

#include <memory>
#include <span>

#include "common/status.hpp"
#include "plan/plan.hpp"
#include "relational/named_relation.hpp"
#include "runtime/scheduler.hpp"

namespace paraquery {

/// Per-execution environment: the scan slot table, limits, stats sink, and
/// the (optional) parallel runtime.
struct ExecContext {
  /// Scan nodes read `*inputs[input_slot]`; relations must outlive the call.
  std::span<const NamedRelation* const> inputs;
  ResourceLimits limits;
  PlanStats* stats = nullptr;  // optional
  RuntimeOptions runtime;      // default: sequential execution
  /// Variable names for the EXPLAIN ANALYZE capture's renders (optional;
  /// ids render as $k without it). Only read when runtime.analyze is bound.
  const VarTable* vars = nullptr;
};

/// Executes `root` once (shared nodes are evaluated a single time) and
/// returns its result relation. A node's result is kept only until its
/// last consumer (PlanNode::consumers) has read it. Empty operator inputs
/// short-circuit: the dependent operator returns its (statically known)
/// empty output without running — and without counting — downstream
/// kernels, reproducing the early-exit behavior of the hand-rolled
/// evaluators this replaced (under a scheduler, concurrently started
/// sibling subtrees may already have run; see above). Fixpoint nodes are rejected (their iteration belongs to the
/// Datalog engine, which executes the per-rule child plans itself).
Result<NamedRelation> ExecutePlan(PlanNode& root, const ExecContext& ctx);

/// Multi-root execution over ONE node memoization: subplans shared between
/// roots run once across the whole session (ExecutePlan shares only within
/// a single call). Used by the Theorem 2 formula mode, whose φ filter runs
/// between the upward-pass root and the evaluation DAG — the second Run
/// reuses every P_j the first already computed instead of recomputing the
/// upward pass. `ctx` (and the relations behind its input slots) must
/// outlive the session; slots may be bound lazily as long as each is set
/// before the first Run whose plan scans it. Limits span the session: one
/// max_steps budget, actuals reset per session (not per Run). Node results
/// are kept until the session ends (a later Run may read any of them).
class ExecSession {
 public:
  explicit ExecSession(const ExecContext& ctx);
  ~ExecSession();

  Result<NamedRelation> Run(PlanNode& root);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace paraquery

#endif  // PARAQUERY_PLAN_EXECUTOR_H_
