// Human-readable classification reports ("EXPLAIN" for parametrized
// complexity): what the paper says about this query, and what the engine
// will do about it. When a database is supplied, the report also renders the
// physical plan (plan/planner.hpp) the engine would execute, with per-node
// cardinality estimates; after execution the same tree carries actual rows.
#ifndef PARAQUERY_CORE_EXPLAIN_H_
#define PARAQUERY_CORE_EXPLAIN_H_

#include <string>

#include "common/status.hpp"
#include "core/classifier.hpp"
#include "relational/database.hpp"

namespace paraquery {

/// Renders a report for a conjunctive query (runs the comparison closure
/// first when order/equality atoms are present, and reports both views).
/// With `db`, appends the rendered physical plan.
std::string ExplainConjunctive(const ConjunctiveQuery& q,
                               const Database* db = nullptr);

std::string ExplainFirstOrder(const FirstOrderQuery& q,
                              const Database* db = nullptr);
std::string ExplainDatalog(const DatalogProgram& p,
                           const Database* db = nullptr);

/// Plan-only renders (the shell's `.plan` command): the physical plan the
/// engine would run, without executing it.
Result<std::string> RenderConjunctivePlan(const Database& db,
                                          const ConjunctiveQuery& q);
Result<std::string> RenderPositivePlan(const Database& db,
                                       const PositiveQuery& q);
Result<std::string> RenderDatalogPlan(const Database& db,
                                      const DatalogProgram& p);

}  // namespace paraquery

#endif  // PARAQUERY_CORE_EXPLAIN_H_
