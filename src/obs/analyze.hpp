// EXPLAIN ANALYZE capture: collects the analyzed renders (per-node actual
// rows + wall time) of every plan executed while armed.
//
// The executor resets a plan's actuals at the start of each execution, so a
// render taken after the query returns would only show the *last* execution
// of each cached plan. PlanCapture instead snapshots the render right after
// each execution (success or failure — an aborted plan still shows the rows
// and time it accrued) and keeps the latest render plus an execution count
// per distinct plan root. A Datalog query re-executes a handful of rule
// plans hundreds of times; the capture stays bounded by distinct roots, not
// executions.
#ifndef PARAQUERY_OBS_ANALYZE_H_
#define PARAQUERY_OBS_ANALYZE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace paraquery {

struct PlanNode;
class VarTable;

class PlanCapture {
 public:
  /// Snapshots the analyzed render of `root`. Thread-safe (parallel Datalog
  /// firings execute plans concurrently). `key`, when given, is the plan
  /// the execution counts toward instead of `root`: a private clone run in
  /// place of a shared plan (Theorem 2's concurrent colorings) files under
  /// the plan it was cloned from.
  void Note(const PlanNode& root, const VarTable* vars,
            const PlanNode* key = nullptr);

  void Clear();

  /// All captured plans in first-execution order:
  ///
  ///   -- plan 1 (executions=121)
  ///   HashJoin(x, y) est=40 actual=31 time=0.412ms self=0.210ms
  ///   ...
  std::string Report() const;

  size_t plan_count() const;

 private:
  /// Distinct-root cap: a pathological workload degrades to counting
  /// overflow instead of accumulating renders without bound.
  static constexpr size_t kMaxPlans = 24;

  struct Entry {
    const PlanNode* root;  // identity key only, never dereferenced later
    std::string render;
    uint64_t executions;
  };

  mutable std::mutex mutex_;
  std::vector<Entry> plans_;
  uint64_t overflow_ = 0;
};

}  // namespace paraquery

#endif  // PARAQUERY_OBS_ANALYZE_H_
