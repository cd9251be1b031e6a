// Per-layer attribution for the traced run. After each engine call the
// probe re-runs the query through the library's public functions module by
// module (parse, closure, classify, canonicalize, plan, execute, the route's
// evaluator, hypergraph, hashing and storage builds), timing each call as a
// benchmark span, and merges the engine tracer's spans of the same query
// under one operation id. Nothing here reaches into src/ beyond its public
// headers.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "relational/storage_cache_stats.hpp"
#include "runtime/scheduler.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LayerMetric {
  std::string name;
  std::string unit;
  std::string better;
};

/// Every per-layer metric the traced run reports, in report order.
const std::vector<LayerMetric>& LayerMetrics();

class LayerProbe {
 public:
  LayerProbe(const WorkloadSpec& spec, const paraquery::Database& db,
             paraquery::Engine& engine);

  /// Brackets one traced engine call; `t0`/`t1` are the benchmark's clock
  /// readings around Engine::RunText.
  void BeforeQuery();
  void AfterQuery(const Op& op, const std::string& text,
                  const paraquery::Result<paraquery::Relation>& result,
                  uint64_t t0, uint64_t t1);
  void OnWrite(uint64_t t0, uint64_t t1);

  /// Per-layer values; `untraced_p50_ms` is the untraced median latency of
  /// the same run (for the tracing overhead).
  std::map<std::string, double> Finish(double untraced_p50_ms);

  /// Spans kept for the Chrome trace (the first operations of the traced
  /// phase, up to a span budget).
  const std::vector<Span>& kept_spans() const { return kept_; }
  /// Warnings about component calls whose results disagree with the
  /// engine's (they make the attribution, not the answers, suspect).
  const std::vector<std::string>& warnings() const { return warnings_; }

 private:
  struct Mean {
    double sum = 0;
    double n = 0;
    void Add(double v) {
      sum += v;
      n += 1;
    }
    double value() const { return n == 0 ? 0 : sum / n; }
  };

  /// Runs `f`, records it as a benchmark span named `name`, stores its
  /// wall time in microseconds in `*us` and returns f's result.
  template <typename F>
  auto Timed(const char* name, double* us, F&& f);

  void RunComponents(const Op& op, const std::string& text);
  void AttributeSpans(uint64_t t0, uint64_t t1);
  void Warn(const std::string& message);

  const WorkloadSpec& spec_;
  const paraquery::Database& db_;
  paraquery::Engine& engine_;
  std::unique_ptr<paraquery::TaskScheduler> scheduler_;
  paraquery::RuntimeOptions runtime_;

  std::map<std::string, Mean> means_;
  std::vector<double> traced_ms_;
  std::vector<Span> spans_;  // current operation
  size_t engine_spans_ = 0;  // spans_[0, engine_spans_) came from the engine
  std::vector<Span> kept_;
  std::vector<std::string> warnings_;
  uint64_t qid_ = 0;
  size_t queries_ = 0;
  size_t writes_ = 0;
  // Current query.
  double parse_us_ = 0;
  double closure_us_ = 0;
  double route_us_ = 0;  // the direct evaluator call
  size_t family_size_ = 0;  // the engine's coloring family
  // Traced phase totals.
  uint64_t operator_ns_ = 0;
  uint64_t busy_ns_ = 0;
  uint64_t capacity_ns_ = 0;
  double route_total_us_ = 0;
  double runtext_total_us_ = 0;
  uint64_t rows_produced_ = 0;
  uint64_t answer_rows_ = 0;
  uint64_t index_hits_ = 0;
  uint64_t index_builds_ = 0;
  uint64_t span_count_ = 0;
  uint64_t dropped_ = 0;
  uint64_t coloring_trials_ = 0;
  double theorem2_us_ = 0;
  uint64_t datalog_built_ = 0;
  uint64_t datalog_reused_ = 0;
  uint64_t trie_hits_ = 0, trie_builds_ = 0;
  uint64_t col_hits_ = 0, col_builds_ = 0;
  uint64_t trie_hits_before_ = 0, trie_builds_before_ = 0;
  uint64_t col_hits_before_ = 0, col_builds_before_ = 0;
  paraquery::PlanCacheStats cache_start_;
  uint64_t tasks_start_ = 0, steals_start_ = 0, sleeps_start_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
