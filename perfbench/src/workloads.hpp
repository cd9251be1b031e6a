// The benchmark's workloads: seeded databases, query templates and the
// deterministic operation streams a closed-loop client sends to Engine.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "relational/database.hpp"

namespace perfbench {

struct Template {
  std::string name;
  /// Query text; "$c" is replaced by the operation's constant.
  std::string text;
  /// Stored relations the query reads.
  std::vector<std::string> reads;
};

struct WorkloadSpec {
  std::string name;
  /// EngineOptions::threads (the calling thread counts).
  size_t threads = 1;
  std::vector<Template> templates;
  /// Constants are Zipf-distributed over this many domain values (0 = the
  /// templates take no constant).
  size_t constants = 0;
  double zipf_s = 0;
  /// Every write_every-th operation is a write of write_batch rows to
  /// hot_relation (0 = read-only workload).
  size_t write_every = 0;
  size_t write_batch = 0;
  std::string hot_relation;
};

/// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

struct Op {
  bool write = false;
  int tmpl = -1;
  paraquery::Value constant = 0;
  /// Write: the rows appended to the hot relation (row-major).
  std::vector<paraquery::Value> rows;
};

/// Builds the workload's database from `seed` (the same seed gives the same
/// database).
std::unique_ptr<paraquery::Database> BuildDatabase(const WorkloadSpec& spec,
                                                   uint64_t seed);

/// The deterministic operation sequence of a workload and seed. Query
/// templates arrive in shuffled rounds (each round runs every template
/// once), so every prefix holds each template within one of its fair share.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t seed);
  Op Next();

 private:
  const WorkloadSpec& spec_;
  Rng rng_;
  Zipf zipf_;
  /// rank -> constant: which domain values are hot depends on the seed.
  std::vector<paraquery::Value> rank_value_;
  std::vector<int> round_;
  size_t round_pos_ = 0;
  uint64_t index_ = 0;
};

/// The text of a query operation.
std::string OpText(const WorkloadSpec& spec, const Op& op);

/// Serialized form of an operation (generator determinism checks).
std::string OpKey(const WorkloadSpec& spec, const Op& op);

/// Applies a write: the batch is appended to the hot relation and the same
/// number of its oldest rows retire, so the relation keeps its size however
/// long the run is.
void ApplyWrite(paraquery::Database& db, const WorkloadSpec& spec,
                const Op& op);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
