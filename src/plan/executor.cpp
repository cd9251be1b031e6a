#include "plan/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.hpp"
#include "common/timer.hpp"
#include "obs/analyze.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/vec_pipeline.hpp"
#include "relational/leapfrog.hpp"
#include "relational/ops.hpp"
#include "relational/row_index.hpp"
#include "relational/trie_index.hpp"
#include "runtime/parallel_ops.hpp"
#include "runtime/vectorized_exec.hpp"

namespace paraquery {

namespace {

class Executor {
 public:
  // `release_results`: drop each memoized node result once its last
  // consumer (PlanNode::consumers) has read it. Off for ExecSession, whose
  // later Runs may read any node again.
  Executor(const ExecContext& ctx, bool release_results)
      : ctx_(ctx),
        pfor_(MakeParallelFor(ctx.runtime.scheduler)),
        release_results_(release_results) {}

  Result<NamedRelation> Run(PlanNode& root) { return Exec(root, nullptr); }

 private:
  struct NodeState {
    std::mutex mutex;
    std::condition_variable cv;
    bool started = false;
    std::optional<Result<NamedRelation>> result;
    // Reads left before the memoized result is dropped (release mode).
    uint32_t reads_left = 0;
  };

  // Where an operator's produced rows are charged against the max_steps
  // budget. A null Charge is the committed execution; a speculatively
  // executed subtree (the right child of a join/semijoin started before its
  // sibling's emptiness is known) charges a tentative accumulator instead,
  // which its spawner COMMITS into the parent charge only when the result is
  // actually consumed — the short-circuit that skips the subtree drops the
  // charge, so a query that passes its limits at threads=1 never fails them
  // at threads=N. Speculative executions still CHECK the budget (committed +
  // the tentative chain) so a runaway subtree aborts instead of exhausting
  // memory; such an error can only fire where the sequential total would
  // also exceed the budget. (Caveat: a node SHARED between a rolled-back
  // speculative subtree and a committed path keeps the first arrival's
  // charge and result — its rows may be attributed tentatively and dropped,
  // an under-count in the safe direction.)
  struct Charge {
    Charge* parent = nullptr;
    std::atomic<uint64_t> tentative{0};
  };

  void AddRows(Charge* charge, uint64_t n) {
    if (charge == nullptr) {
      rows_produced_.fetch_add(n);
    } else {
      charge->tentative.fetch_add(n);
    }
  }

  uint64_t TotalRows(const Charge* charge) const {
    uint64_t total = rows_produced_.load();
    for (; charge != nullptr; charge = charge->parent) {
      total += charge->tentative.load();
    }
    return total;
  }

  // Evaluates `n` at most once per execution, even when independent
  // parallel subtrees reach a shared node concurrently: the first arrival
  // computes, later arrivals block on the node's condition variable. The
  // wait graph follows plan edges, and the plan is a DAG, so these waits
  // cannot cycle.
  //
  // One exception to compute-once: a ResourceExhausted produced under a
  // TENTATIVE charge is not published — its budget check included sibling
  // rows the sequential executor might have skipped, so replaying it to a
  // committed consumer could fail a query that passes at threads=1. The
  // node is reset instead and the next arrival recomputes under its own
  // charge (a genuine overrun simply errors again there).
  //
  // Every call is one read by a consumer (a parent edge, or the caller for
  // the root). In release mode the memo is dropped at the node's last read,
  // so an intermediate lives only while a consumer still needs it. A read
  // the count did not foresee finds the node reset and recomputes it.
  Result<NamedRelation> Exec(PlanNode& n, Charge* charge) {
    NodeState* state;
    {
      std::lock_guard<std::mutex> lock(states_mutex_);
      std::unique_ptr<NodeState>& slot = states_[&n];
      if (slot == nullptr) {
        slot = std::make_unique<NodeState>();
        slot->reads_left = std::max<uint32_t>(n.consumers, 1);
      }
      state = slot.get();
    }
    std::unique_lock<std::mutex> lock(state->mutex);
    while (state->started && !state->result.has_value()) {
      state->cv.wait(lock, [state] {
        return state->result.has_value() || !state->started;
      });
    }
    if (state->result.has_value()) return Read(state);
    state->started = true;
    lock.unlock();
    Result<NamedRelation> result = ComputeTimed(n, charge);
    if (result.ok()) n.actual_rows = result.value().size();
    lock.lock();
    if (charge != nullptr && !result.ok() &&
        result.status().code() == StatusCode::kResourceExhausted) {
      state->started = false;  // speculative budget error: allow recompute
    } else {
      state->result = std::move(result);
      result = Read(state);
    }
    lock.unlock();
    state->cv.notify_all();
    return result;
  }

  // One consumer read of a published result (state->mutex held).
  Result<NamedRelation> Read(NodeState* state) {
    if (!release_results_ || state->reads_left == 0 ||
        --state->reads_left > 0) {
      return *state->result;
    }
    Result<NamedRelation> out = std::move(*state->result);
    state->result.reset();
    state->started = false;
    return out;
  }

  bool Parallel() const { return ctx_.runtime.parallel(); }

  // Compute wrapped with per-node wall timing (EXPLAIN ANALYZE) and an
  // operator span when the run is traced; clock-free otherwise, so the
  // default path is exactly the pre-observability executor. The compute
  // recursion runs through the children, so actual_ns is cumulative. Scans
  // are slot reads — timed (they bound a node's self time) but not worth a
  // span each.
  Result<NamedRelation> ComputeTimed(PlanNode& n, Charge* charge) {
    if (ctx_.runtime.tracer == nullptr && ctx_.runtime.analyze == nullptr) {
      return Compute(n, charge);
    }
    const uint64_t t0 = NowNanos();
    Result<NamedRelation> result = Compute(n, charge);
    const uint64_t t1 = NowNanos();
    n.actual_ns += t1 - t0;
    if (ctx_.runtime.tracer != nullptr && n.op != PlanOp::kScan) {
      ctx_.runtime.tracer->Record(PlanOpName(n.op), t0, t1);
    }
    return result;
  }

  // Tallies an executed operator's output against limits and stats. Stats
  // record all performed work (speculative included); the max_steps budget
  // is charged through `charge` so speculative rows stay tentative. The
  // row-count overload serves the vectorized pipeline stages, which tally
  // without a materialized NamedRelation.
  Status AccountRows(PlanNode& n, size_t PlanStats::* counter, uint64_t rows,
                     Charge* charge, size_t op_morsels = 0) {
    // Re-check the abort state AFTER the operator ran: morsel lambdas skip
    // their work when the query aborts mid-operator, so a result assembled
    // from skipped morsels must be discarded here, never returned truncated.
    PQ_RETURN_NOT_OK(ctx_.runtime.CheckInterrupt());
    n.actual_morsels = op_morsels;
    if (ctx_.stats != nullptr) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++(ctx_.stats->*counter);
      ctx_.stats->peak_intermediate_rows = std::max(
          ctx_.stats->peak_intermediate_rows, static_cast<size_t>(rows));
      ctx_.stats->rows_produced += rows;
      ctx_.stats->morsels += op_morsels;
    }
    if (ctx_.runtime.metrics != nullptr &&
        ctx_.runtime.metrics->operator_rows != nullptr) {
      ctx_.runtime.metrics->operator_rows->Observe(rows);
    }
    AddRows(charge, rows);
    if (ctx_.limits.max_steps != 0 && TotalRows(charge) > ctx_.limits.max_steps) {
      return Status::ResourceExhausted(
          "plan execution step limit (rows produced) exceeded");
    }
    if (ctx_.limits.max_rows != 0 && rows > ctx_.limits.max_rows) {
      return Status::ResourceExhausted(internal::StrCat(
          "operator output exceeds limit of ", ctx_.limits.max_rows, " rows"));
    }
    return Status::OK();
  }

  Status Account(PlanNode& n, size_t PlanStats::* counter,
                 const NamedRelation& out, Charge* charge,
                 size_t op_morsels = 0) {
    return AccountRows(n, counter, out.size(), charge, op_morsels);
  }

  // Evaluates a binary node's children, concurrently when a scheduler is
  // bound and the right side is not a plain scan (scans are slot reads —
  // not worth a task). Sequentially the right child is skipped when the
  // left comes out empty; in parallel it runs speculatively under a
  // tentative charge that is committed only when the left side is nonempty
  // (i.e. exactly when sequential execution would have run it).
  Status ExecChildren(PlanNode& n, Result<NamedRelation>* left,
                      Result<NamedRelation>* right, Charge* charge) {
    if (Parallel() && n.children[1]->op != PlanOp::kScan) {
      std::optional<Result<NamedRelation>> right_result;
      Charge speculative;
      speculative.parent = charge;
      {
        TaskGroup group(ctx_.runtime.scheduler);
        PlanNode* rchild = n.children[1].get();
        Charge* spec = &speculative;
        group.Spawn([this, rchild, spec, &right_result] {
          right_result.emplace(Exec(*rchild, spec));
        });
        if (ctx_.stats != nullptr) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++ctx_.stats->parallel_tasks;
        }
        *left = Exec(*n.children[0], charge);
      }  // group destructor waits
      // The group is never cancelled, so the spawned task always ran.
      PQ_DCHECK(right_result.has_value(), "right-child task did not run");
      *right = std::move(*right_result);
      if (left->ok() && !left->value().empty()) {
        // The sequential executor would have run the right subtree: commit
        // its speculative rows to the parent charge and re-check the budget.
        AddRows(charge, speculative.tentative.load());
        if (ctx_.limits.max_steps != 0 &&
            TotalRows(charge) > ctx_.limits.max_steps) {
          return Status::ResourceExhausted(
              "plan execution step limit (rows produced) exceeded");
        }
      }
      // Left empty (or failed): the tentative charge is dropped, matching
      // the sequential short-circuit; the consuming operator also discards
      // any speculative error below.
      return Status::OK();
    }
    *left = Exec(*n.children[0], charge);
    if (left->ok() && !left->value().empty()) {
      *right = Exec(*n.children[1], charge);
    }
    return Status::OK();
  }

  Result<NamedRelation> Compute(PlanNode& n, Charge* charge) {
    // One poll per operator: a deadline/cancel/budget abort stops the plan
    // within one operator (and, via the morsel-lambda early-outs, within
    // one morsel of an operator already running).
    PQ_RETURN_NOT_OK(ctx_.runtime.CheckInterrupt());
    switch (n.op) {
      case PlanOp::kScan: {
        PQ_FAULT_POINT("executor.scan");
        if (n.input_slot < 0 ||
            static_cast<size_t>(n.input_slot) >= ctx_.inputs.size()) {
          return Status::Internal("plan scan references an unbound slot");
        }
        if (ctx_.stats != nullptr) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++ctx_.stats->scans;
        }
        return *ctx_.inputs[n.input_slot];
      }
      case PlanOp::kSelect: {
        PQ_FAULT_POINT("executor.select");
        PQ_ASSIGN_OR_RETURN(NamedRelation in, Exec(*n.children[0], charge));
        size_t morsels = 0;
        NamedRelation out =
            (!n.predicate.empty() && in.arity() > 0 &&
             ctx_.runtime.ShouldMorsel(in.size()))
                ? ParallelSelect(in, n.predicate, ctx_.runtime, &morsels)
                : Select(in, n.predicate);
        PQ_RETURN_NOT_OK(Account(n, &PlanStats::selects, out, charge, morsels));
        return out;
      }
      case PlanOp::kProject: {
        PQ_FAULT_POINT("executor.project");
        PQ_ASSIGN_OR_RETURN(NamedRelation in, Exec(*n.children[0], charge));
        size_t morsels = 0;
        NamedRelation out =
            (!n.attrs.empty() && n.attrs != in.attrs() &&
             ctx_.runtime.ShouldMorsel(in.size()))
                ? ParallelProject(in, n.attrs, n.dedup, ctx_.runtime, &morsels)
                : Project(in, n.attrs, n.dedup);
        if (ctx_.stats != nullptr && out.rel().SharesStorageWith(in.rel())) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++ctx_.stats->zero_copy_projections;
        }
        PQ_RETURN_NOT_OK(
            Account(n, &PlanStats::projections, out, charge, morsels));
        return out;
      }
      case PlanOp::kHashJoin: {
        PQ_FAULT_POINT("executor.hashjoin");
        Result<NamedRelation> lres = NamedRelation{n.attrs};
        Result<NamedRelation> rres = NamedRelation{n.attrs};
        PQ_RETURN_NOT_OK(ExecChildren(n, &lres, &rres, charge));
        PQ_ASSIGN_OR_RETURN(NamedRelation left, std::move(lres));
        if (left.empty()) return NamedRelation{n.attrs};
        PQ_ASSIGN_OR_RETURN(NamedRelation right, std::move(rres));
        if (right.empty()) return NamedRelation{n.attrs};
        JoinOptions jo;
        jo.max_output_rows = ctx_.limits.max_rows;
        jo.post_filter = n.predicate;  // pushed σ_F (empty = plain join)
        JoinIndexCache* cache = n.children[1]->index_cache;
        bool cached_scan = n.children[1]->op == PlanOp::kScan && cache != nullptr;
        size_t morsels = 0;
        Result<NamedRelation> joined = [&]() -> Result<NamedRelation> {
          PQ_FAULT_POINT("executor.hashjoin.build");
          // Morsel-parallel probe: the fast path only (no row cap, no
          // pushed filter, nonzero output arity); the sequential kernel
          // keeps the filtered/limited cases.
          if (jo.max_output_rows == 0 && jo.post_filter.empty() &&
              !n.attrs.empty() && ctx_.runtime.ShouldMorsel(left.size())) {
            if (cached_scan) {
              const Relation& stable =
                  ctx_.inputs[n.children[1]->input_slot]->rel();
              const RowIndex& idx = cache->GetOrBuild(
                  stable, JoinKeyColumns(left, right), ctx_.stats, pfor_);
              return ParallelJoin(left, right, idx, ctx_.runtime, &morsels);
            }
            RowIndex idx(right.rel(), JoinKeyColumns(left, right), pfor_);
            return ParallelJoin(left, right, idx, ctx_.runtime, &morsels);
          }
          if (cached_scan) {
            // Build over the caller-owned slot relation, NOT the local
            // `right` copy: the cache (and the RowIndex's Relation pointer)
            // outlives this call, and the slot input is the one relation
            // guaranteed to outlive the cache.
            const Relation& stable =
                ctx_.inputs[n.children[1]->input_slot]->rel();
            const RowIndex& idx = cache->GetOrBuild(
                stable, JoinKeyColumns(left, right), ctx_.stats, pfor_);
            return NaturalJoin(left, right, idx, jo);
          }
          return NaturalJoin(left, right, jo);
        }();
        PQ_RETURN_NOT_OK(joined.status());
        PQ_RETURN_NOT_OK(
            Account(n, &PlanStats::joins, joined.value(), charge, morsels));
        return std::move(joined).value();
      }
      case PlanOp::kSemijoin: {
        PQ_FAULT_POINT("executor.semijoin");
        Result<NamedRelation> lres = NamedRelation{n.attrs};
        Result<NamedRelation> rres = NamedRelation{n.attrs};
        PQ_RETURN_NOT_OK(ExecChildren(n, &lres, &rres, charge));
        PQ_ASSIGN_OR_RETURN(NamedRelation left, std::move(lres));
        if (left.empty()) return NamedRelation{n.attrs};
        PQ_ASSIGN_OR_RETURN(NamedRelation right, std::move(rres));
        if (right.empty()) return NamedRelation{n.attrs};
        size_t morsels = 0;
        NamedRelation out =
            ctx_.runtime.ShouldMorsel(left.size())
                ? ParallelSemijoin(left, right, ctx_.runtime, &morsels)
                : Semijoin(left, right);
        PQ_RETURN_NOT_OK(
            Account(n, &PlanStats::semijoins, out, charge, morsels));
        return out;
      }
      case PlanOp::kUnion: {
        PQ_FAULT_POINT("executor.union");
        if (n.children.empty()) {
          return Status::Internal("union plan node has no children");
        }
        std::vector<Result<NamedRelation>> parts;
        if (Parallel() && n.children.size() > 1) {
          // Structural parallelism: every branch is an independent task;
          // the merge below runs in branch order, so the result matches
          // the sequential left-to-right union exactly. Branches are not
          // speculative w.r.t. limits — the sequential executor runs every
          // branch regardless of sibling emptiness — so they charge the
          // current context directly.
          parts.assign(n.children.size(), NamedRelation{});
          {
            TaskGroup group(ctx_.runtime.scheduler);
            for (size_t i = 1; i < n.children.size(); ++i) {
              PlanNode* child = n.children[i].get();
              Result<NamedRelation>* slot = &parts[i];
              group.Spawn(
                  [this, child, slot, charge] { *slot = Exec(*child, charge); });
            }
            if (ctx_.stats != nullptr) {
              std::lock_guard<std::mutex> lock(stats_mutex_);
              ctx_.stats->parallel_tasks += n.children.size() - 1;
            }
            parts[0] = Exec(*n.children[0], charge);
          }  // group destructor waits
        } else {
          for (const PlanNodePtr& c : n.children) {
            parts.push_back(Exec(*c, charge));
            if (!parts.back().ok()) break;  // sequential: stop at first error
          }
        }
        for (const Result<NamedRelation>& p : parts) {
          PQ_RETURN_NOT_OK(p.status());
        }
        NamedRelation acc = parts[0].value();
        for (size_t i = 1; i < parts.size(); ++i) {
          acc = UnionSet(acc, parts[i].value());
        }
        PQ_RETURN_NOT_OK(Account(n, &PlanStats::unions, acc, charge));
        return acc;
      }
      case PlanOp::kDedup: {
        PQ_FAULT_POINT("executor.dedup");
        PQ_ASSIGN_OR_RETURN(NamedRelation in, Exec(*n.children[0], charge));
        NamedRelation out = in;
        out.rel().HashDedup(pfor_);
        PQ_RETURN_NOT_OK(Account(n, &PlanStats::dedups, out, charge));
        return out;
      }
      case PlanOp::kFixpoint:
        return Status::InvalidArgument(
            "fixpoint plan nodes are driven by the Datalog engine, not the "
            "plan executor");
      case PlanOp::kMaterialize: {
        PQ_FAULT_POINT("executor.vec.materialize");
        if (n.children.size() != 1) {
          return Status::Internal("materialize plan node requires one child");
        }
        VecPipeline pipe;
        if (CompileVecPipeline(n, &pipe) && pipe.source->input_slot >= 0 &&
            static_cast<size_t>(pipe.source->input_slot) < ctx_.inputs.size() &&
            ctx_.inputs[pipe.source->input_slot]->size() >=
                ctx_.runtime.vec_min_source_rows) {
          Result<NamedRelation> out = ExecVectorized(n, pipe, charge);
          if (out.ok() && ctx_.stats != nullptr) {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ctx_.stats->vec_batches += n.actual_batches;
          }
          return out;
        }
        // Ineligible chain or tiny source: the chain nodes are ordinary row
        // operators, so just execute the child row-at-a-time.
        return Exec(*n.children[0], charge);
      }
      case PlanOp::kAggregate: {
        PQ_FAULT_POINT("executor.aggregate");
        if (n.children.size() != 1 || n.attrs.empty() ||
            n.attrs.back() != kCountAttr) {
          return Status::Internal(
              "aggregate plan node requires one child and a trailing count "
              "attribute");
        }
        PQ_ASSIGN_OR_RETURN(NamedRelation in, Exec(*n.children[0], charge));
        size_t morsels = 0;
        PQ_ASSIGN_OR_RETURN(NamedRelation out, AggregateCounts(n, in, &morsels));
        PQ_RETURN_NOT_OK(
            Account(n, &PlanStats::aggregates, out, charge, morsels));
        return out;
      }
      case PlanOp::kSemijoinCount: {
        PQ_FAULT_POINT("executor.semijoin_count");
        if (n.attrs.empty() || n.attrs.back() != kCountAttr) {
          return Status::Internal(
              "semijoin-count plan node requires a trailing count attribute");
        }
        Result<NamedRelation> lres = NamedRelation{n.attrs};
        Result<NamedRelation> rres = NamedRelation{n.attrs};
        PQ_RETURN_NOT_OK(ExecChildren(n, &lres, &rres, charge));
        PQ_ASSIGN_OR_RETURN(NamedRelation left, std::move(lres));
        if (left.empty()) return NamedRelation{n.attrs};
        PQ_ASSIGN_OR_RETURN(NamedRelation right, std::move(rres));
        if (right.empty()) return NamedRelation{n.attrs};
        size_t morsels = 0;
        PQ_ASSIGN_OR_RETURN(NamedRelation out,
                            SemijoinCounts(n, left, right, &morsels));
        PQ_RETURN_NOT_OK(
            Account(n, &PlanStats::semijoin_counts, out, charge, morsels));
        return out;
      }
      case PlanOp::kMultiwayJoin: {
        PQ_FAULT_POINT("executor.multiway");
        if (n.children.empty() || n.attrs.empty()) {
          return Status::Internal(
              "multiway join requires children and attributes");
        }
        // Children run sequentially left to right: any empty input empties
        // the whole intersection, matching the sequential short-circuit.
        std::vector<NamedRelation> ins;
        ins.reserve(n.children.size());
        for (const PlanNodePtr& c : n.children) {
          PQ_ASSIGN_OR_RETURN(NamedRelation in, Exec(*c, charge));
          if (in.empty()) {
            NamedRelation out{n.attrs};
            PQ_RETURN_NOT_OK(
                Account(n, &PlanStats::multiway_joins, out, charge));
            return out;
          }
          ins.push_back(std::move(in));
        }
        auto rank_of = [&n](AttrId a) -> int {
          auto it = std::find(n.attrs.begin(), n.attrs.end(), a);
          return it == n.attrs.end()
                     ? -1
                     : static_cast<int>(it - n.attrs.begin());
        };
        // Per-input sorted trie over its columns in ascending global rank.
        // TrieView caches on the shared RowBlock, so scans over stored
        // relations (and their zero-copy views) build each trie once and
        // reuse it across queries.
        std::vector<LeapfrogInput> inputs;
        inputs.reserve(ins.size());
        for (const NamedRelation& in : ins) {
          std::vector<std::pair<int, int>> by_rank;  // (global rank, column)
          for (size_t c = 0; c < in.attrs().size(); ++c) {
            int r = rank_of(in.attrs()[c]);
            if (r < 0) {
              return Status::Internal(
                  "multiway child attribute missing from the global order");
            }
            by_rank.emplace_back(r, static_cast<int>(c));
          }
          std::sort(by_rank.begin(), by_rank.end());
          LeapfrogInput li;
          std::vector<int> cols;
          for (const auto& [r, c] : by_rank) {
            cols.push_back(c);
            li.attr_of_level.push_back(r);
          }
          li.trie = in.rel().TrieView(cols, pfor_);
          inputs.push_back(std::move(li));
        }
        size_t morsels = 0;
        PQ_ASSIGN_OR_RETURN(
            Relation joined,
            LeapfrogJoin(inputs, n.attrs.size(), ctx_.runtime,
                         ctx_.limits.max_rows, &morsels));
        NamedRelation out{n.attrs, std::move(joined)};
        PQ_RETURN_NOT_OK(
            Account(n, &PlanStats::multiway_joins, out, charge, morsels));
        return out;
      }
    }
    return Status::Internal("unknown plan operator");
  }

  // Concatenates per-morsel value buffers in morsel order into one relation —
  // the same rows in the same order the sequential walk produces.
  static NamedRelation MergeCountMorsels(const std::vector<AttrId>& attrs,
                                         std::vector<std::vector<Value>> bufs) {
    size_t total = 0;
    for (const std::vector<Value>& b : bufs) total += b.size();
    std::vector<Value> out;
    out.reserve(total);
    for (const std::vector<Value>& b : bufs) {
      out.insert(out.end(), b.begin(), b.end());
    }
    return NamedRelation{attrs, Relation(attrs.size(), std::move(out))};
  }

  // Runs `emit(buf, r)` for every row of [0, nrows), morsel-parallel when the
  // input is large enough, merging per-morsel buffers in morsel order; the
  // output is byte-identical at any thread count because emit() decides
  // per-row (via the shared RowIndex, whose layout is width-independent)
  // whether row r contributes.
  template <typename EmitFn>
  NamedRelation RowWalk(const std::vector<AttrId>& attrs, size_t nrows,
                        size_t* morsels, const EmitFn& emit) {
    if (ctx_.runtime.ShouldMorsel(nrows)) {
      std::vector<std::vector<Value>> bufs(
          ChunkCount(nrows, ctx_.runtime.morsel_rows));
      size_t chunks = ParallelChunks(
          ctx_.runtime.scheduler, nrows, ctx_.runtime.morsel_rows,
          [&](size_t c, size_t begin, size_t end) {
            // Aborted query: skip the morsel; the executor re-checks the
            // abort in AccountRows, so a partial result never escapes.
            if (ctx_.runtime.Interrupted()) return;
            for (size_t r = begin; r < end; ++r) emit(bufs[c], r);
          });
      if (morsels != nullptr) *morsels += chunks;
      return MergeCountMorsels(attrs, std::move(bufs));
    }
    std::vector<Value> buf;
    for (size_t r = 0; r < nrows; ++r) emit(buf, r);
    return NamedRelation{attrs, Relation(attrs.size(), std::move(buf))};
  }

  // Multiplicity-aware hash aggregation: groups the child's rows on the
  // node's group attributes (attrs minus the trailing #count), summing the
  // child's #count column per group — or counting rows when the child has
  // none (every row carries multiplicity 1). Output rows appear in
  // first-occurrence group order: row r contributes iff the RowIndex chain
  // head for its key IS r, and chains enumerate a key's rows in increasing
  // row order at any build width. A scalar aggregate (no group attributes)
  // emits one [total] row — or NO row on empty input, so a downstream
  // SemijoinCount sees emptiness rather than a spurious 0-count group (the
  // eval layer supplies the 0 row for a genuinely empty scalar query).
  Result<NamedRelation> AggregateCounts(PlanNode& n, const NamedRelation& in,
                                        size_t* morsels) {
    const int mult_col = in.ColumnOf(kCountAttr);
    const size_t ngroup = n.attrs.size() - 1;
    if (ngroup == 0) {
      if (in.empty()) return NamedRelation{n.attrs};
      Value total = 0;
      if (mult_col < 0) {
        total = static_cast<Value>(in.size());
      } else {
        for (size_t r = 0; r < in.size(); ++r) {
          total += in.rel().At(r, mult_col);
        }
      }
      return NamedRelation{n.attrs, Relation(1, {total})};
    }
    std::vector<int> gcols(ngroup);
    for (size_t i = 0; i < ngroup; ++i) {
      gcols[i] = in.ColumnOf(n.attrs[i]);
      if (gcols[i] < 0) {
        return Status::Internal(
            "aggregate group attribute missing from its input");
      }
    }
    RowIndex idx(in.rel(), gcols, pfor_);
    std::span<const int> gspan(gcols);
    return RowWalk(
        n.attrs, in.size(), morsels,
        [&](std::vector<Value>& buf, size_t r) {
          uint32_t head = idx.Find(in.rel(), r, gspan);
          if (head != static_cast<uint32_t>(r)) return;  // not first occurrence
          Value total = 0;
          if (mult_col < 0) {
            total = static_cast<Value>(idx.MatchCount(head));
          } else {
            for (uint32_t row = head; row != RowIndex::kNone;
                 row = idx.Next(row)) {
              total += in.rel().At(row, mult_col);
            }
          }
          for (int c : gcols) buf.push_back(in.rel().At(r, c));
          buf.push_back(total);
        });
  }

  // Counting semijoin: per left row matching the right side on their shared
  // regular attributes, emits the left row's regular values extended by each
  // matching distinct right extension, with multiplicity left × right; a
  // non-matching left row is dropped (the semijoin filter). With no
  // right-only attributes the matches collapse to one output row whose
  // multiplicity sums the right side's. Left rows probe in row order
  // (morsel-parallel like ParallelJoin), so output order is deterministic.
  Result<NamedRelation> SemijoinCounts(PlanNode& n, const NamedRelation& left,
                                       const NamedRelation& right,
                                       size_t* morsels) {
    const int lmult = left.ColumnOf(kCountAttr);
    const int rmult = right.ColumnOf(kCountAttr);
    std::vector<int> lregular;  // left regular columns, in left attr order
    std::vector<int> lkey, rkey;  // shared regular columns (probe/build keys)
    for (size_t i = 0; i < left.attrs().size(); ++i) {
      AttrId a = left.attrs()[i];
      if (a == kCountAttr) continue;
      lregular.push_back(static_cast<int>(i));
      int rc = right.ColumnOf(a);
      if (rc >= 0) {
        lkey.push_back(static_cast<int>(i));
        rkey.push_back(rc);
      }
    }
    std::vector<int> rextra;  // right-only regular columns, in right order
    for (size_t i = 0; i < right.attrs().size(); ++i) {
      AttrId a = right.attrs()[i];
      if (a == kCountAttr || left.ColumnOf(a) >= 0) continue;
      rextra.push_back(static_cast<int>(i));
    }
    if (n.attrs.size() != lregular.size() + rextra.size() + 1) {
      return Status::Internal(
          "semijoin-count output attributes do not match its inputs");
    }
    RowIndex idx(right.rel(), rkey, pfor_);
    std::span<const int> lkey_span(lkey);
    return RowWalk(
        n.attrs, left.size(), morsels,
        [&](std::vector<Value>& buf, size_t r) {
          uint32_t head = idx.Find(left.rel(), r, lkey_span);
          if (head == RowIndex::kNone) return;  // filtered out
          const Value lm = lmult < 0 ? 1 : left.rel().At(r, lmult);
          if (rextra.empty()) {
            Value rsum = 0;
            if (rmult < 0) {
              rsum = static_cast<Value>(idx.MatchCount(head));
            } else {
              for (uint32_t row = head; row != RowIndex::kNone;
                   row = idx.Next(row)) {
                rsum += right.rel().At(row, rmult);
              }
            }
            for (int c : lregular) buf.push_back(left.rel().At(r, c));
            buf.push_back(lm * rsum);
            return;
          }
          for (uint32_t row = head; row != RowIndex::kNone;
               row = idx.Next(row)) {
            const Value rm = rmult < 0 ? 1 : right.rel().At(row, rmult);
            for (int c : lregular) buf.push_back(left.rel().At(r, c));
            for (int c : rextra) buf.push_back(right.rel().At(row, c));
            buf.push_back(lm * rm);
          }
        });
  }

  // Runs a compiled columnar pipeline under this execution's budget: build
  // sides execute as row subtrees under the SAME charge (non-speculative,
  // and only when the probe side is nonempty — the sequential operation
  // order), and every stage tallies through AccountRows in chain order, so
  // limit decisions match the row path decision for decision.
  Result<NamedRelation> ExecVectorized(PlanNode& /*n*/, const VecPipeline& pipe,
                                       Charge* charge) {
    VecExecEnv env;
    env.inputs = ctx_.inputs;
    env.runtime = ctx_.runtime;
    env.pfor = pfor_;
    env.exec_rows = [this, charge](PlanNode& rc) { return Exec(rc, charge); };
    env.account = [this, charge](PlanNode& sn, size_t PlanStats::* counter,
                                 uint64_t rows, size_t morsels) {
      sn.actual_rows = rows;
      return AccountRows(sn, counter, rows, charge, morsels);
    };
    env.on_scan = [this](PlanNode& scan, uint64_t rows) {
      scan.actual_rows = rows;
      if (ctx_.stats != nullptr) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++ctx_.stats->scans;
      }
    };
    env.on_zero_copy_projection = [this] {
      if (ctx_.stats != nullptr) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++ctx_.stats->zero_copy_projections;
      }
    };
    env.get_index = [this](PlanNode& rnode, const NamedRelation& right,
                           const std::vector<int>& rcols,
                           std::optional<RowIndex>& local) -> const RowIndex& {
      JoinIndexCache* cache = rnode.index_cache;
      if (rnode.op == PlanOp::kScan && cache != nullptr &&
          rnode.input_slot >= 0 &&
          static_cast<size_t>(rnode.input_slot) < ctx_.inputs.size()) {
        // Build over the caller-owned slot relation (it outlives the cache),
        // exactly like the row path's cached-scan branch.
        const Relation& stable = ctx_.inputs[rnode.input_slot]->rel();
        return cache->GetOrBuild(stable, rcols, ctx_.stats, pfor_);
      }
      local.emplace(right.rel(), rcols, pfor_);
      return *local;
    };
    return ExecuteVecPipeline(pipe, env);
  }

  const ExecContext& ctx_;
  /// Bound over the runtime's scheduler (empty when sequential); threaded
  /// into RowIndex builds, HashDedup, and the vectorized pipeline stages.
  ParallelForFn pfor_;
  const bool release_results_;
  std::mutex states_mutex_;
  std::unordered_map<const PlanNode*, std::unique_ptr<NodeState>> states_;
  std::mutex stats_mutex_;
  /// Committed max_steps meter (speculative rows live in Charge chains
  /// until their consumer commits them).
  std::atomic<uint64_t> rows_produced_{0};
};

}  // namespace

Result<NamedRelation> ExecutePlan(PlanNode& root, const ExecContext& ctx) {
  root.ResetActuals();
  Timer timer;
  Executor ex(ctx, /*release_results=*/true);
  auto result = ex.Run(root);
  if (ctx.stats != nullptr) ctx.stats->wall_seconds += timer.Seconds();
  // Snapshot the analyzed render before the next execution resets the
  // actuals — on failure too (an aborted plan shows the work it did).
  if (ctx.runtime.analyze != nullptr) ctx.runtime.analyze->Note(root, ctx.vars);
  return result;
}

struct ExecSession::Impl {
  explicit Impl(const ExecContext& ctx)
      : executor(ctx, /*release_results=*/false), ctx(ctx) {}
  Executor executor;
  const ExecContext& ctx;
};

ExecSession::ExecSession(const ExecContext& ctx)
    : impl_(std::make_unique<Impl>(ctx)) {}

ExecSession::~ExecSession() = default;

Result<NamedRelation> ExecSession::Run(PlanNode& root) {
  root.ResetActuals();
  Timer timer;
  auto result = impl_->executor.Run(root);
  if (impl_->ctx.stats != nullptr) {
    impl_->ctx.stats->wall_seconds += timer.Seconds();
  }
  if (impl_->ctx.runtime.analyze != nullptr) {
    impl_->ctx.runtime.analyze->Note(root, impl_->ctx.vars);
  }
  return result;
}

}  // namespace paraquery
