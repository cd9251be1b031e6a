#include "workloads.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "workload/generators.hpp"

namespace perfbench {

using paraquery::Database;
using paraquery::Relation;
using paraquery::Value;

namespace {

// point / churn: four binary relations of 2 * kPointDomain rows in which
// every domain value occurs exactly twice per column — 32 KiB each, the
// whole database well inside L2. Every constant then has the same fan-out,
// so a query's cost does not depend on which values the seed makes hot.
constexpr Value kPointDomain = 1000;

// analytic: a 3-chain over A, B, C, a triangle graph E and a forest of
// chains G for transitive closure — several MiB, beyond L2.
constexpr size_t kChainRows = 60000;
constexpr Value kChainDomain = 60000;
constexpr Value kTriangleVertices = 4000;
constexpr size_t kTriangleEdges = 60000;
constexpr int kTcChains = 60;
constexpr int kTcChainLength = 40;

// theorem2: the paper's employee/project and student/course scenarios and a
// random graph for simple paths.
constexpr int kEmployees = 8000;
constexpr int kProjects = 20;
constexpr int kStudents = 8000;
constexpr int kCourses = 400;
constexpr int kDepartments = 20;
constexpr int kPathVertices = 32;
constexpr int kPathCycles = 2;  // the graph is a union of random cycles

std::vector<WorkloadSpec> MakeSpecs() {
  const std::vector<Template> point_templates = {
      {"acyclic", "ans(y, z) :- R0($c, y), R1(y, z).", {"R0", "R1"}},
      {"cyclic",
       "ans(x, y) :- R0($c, x), R1(x, y), R2(y, z), R3(z, x).",
       {"R0", "R1", "R2", "R3"}},
      {"neq", "ans(y) :- R0($c, y), R2($c, w), y != w.", {"R0", "R2"}},
      {"lt", "ans(y, z) :- R0($c, y), R1(y, z), y < z.", {"R0", "R1"}},
      {"ucq", "ans(y) := R0($c, y) or R2(y, $c).", {"R0", "R2"}},
      {"count", "COUNT(y) :- R1($c, y), R2(y, z).", {"R1", "R2"}},
      {"fo", "ans(y) := R2($c, y) and not R0(y, $c).", {"R0", "R2"}},
  };
  std::vector<WorkloadSpec> specs;

  WorkloadSpec point;
  point.name = "point";
  point.threads = 1;
  point.templates = point_templates;
  point.constants = static_cast<size_t>(kPointDomain);
  point.zipf_s = 1.0;
  specs.push_back(point);

  // The hot relation R3 is read by the cyclic template only: the writes
  // push it above the templates they leave alone, and churn's median stays
  // inside the band the untouched templates share, as on point.
  WorkloadSpec churn = point;
  churn.name = "churn";
  churn.write_every = 20;
  churn.write_batch = 10;
  churn.hot_relation = "R3";
  specs.push_back(churn);

  WorkloadSpec analytic;
  analytic.name = "analytic";
  analytic.threads = 4;
  analytic.templates = {
      {"chain3", "ans(a, d) :- A(a, b), B(b, c), C(c, d).", {"A", "B", "C"}},
      {"triangle", "ans(x, y, z) :- E(x, y), E(y, z), E(z, x).", {"E"}},
      {"count_chain3", "COUNT(a) :- A(a, b), B(b, c), C(c, d).",
       {"A", "B", "C"}},
      {"ucq2",
       "ans(a, c) := (exists b . (A(a, b) and B(b, c))) or "
       "(exists b . (C(a, b) and B(b, c))).",
       {"A", "B", "C"}},
      {"tc", "tc(x, y) :- G(x, y).\ntc(x, y) :- G(x, z), tc(z, y).", {"G"}},
  };
  specs.push_back(analytic);

  WorkloadSpec theorem2;
  theorem2.name = "theorem2";
  theorem2.threads = 4;
  theorem2.templates = {
      {"multi_project", "g(e) :- EP(e, p), EP(e, q), p != q.", {"EP"}},
      {"outside_department",
       "g(s) :- SD(s, d), SC(s, c), CD(c, d2), d != d2.",
       {"SD", "SC", "CD"}},
      {"simple_path4",
       "ans(a, d) :- E(a, b), E(b, c), E(c, d), a != b, a != c, a != d, "
       "b != c, b != d, c != d.",
       {"E"}},
  };
  specs.push_back(theorem2);
  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

// Adds relation `name` holding `rel`'s rows as a set.
void AddSet(Database& db, const std::string& name, Relation rel) {
  rel.SortAndDedup();
  auto id = db.AddRelation(name, rel.arity());
  db.relation(id.value()) = std::move(rel);
}

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.Below(i)]);
}

// Rows pairing two shuffled copies of [0, domain) repeated `times`: every
// value occurs exactly `times` in each column.
Relation BalancedPairs(Rng& rng, Value domain, int times) {
  std::vector<Value> a;
  for (int t = 0; t < times; ++t) {
    for (Value v = 0; v < domain; ++v) a.push_back(v);
  }
  std::vector<Value> b = a;
  Shuffle(a, rng);
  Shuffle(b, rng);
  Relation rel(2);
  for (size_t i = 0; i < a.size(); ++i) rel.Add({a[i], b[i]});
  return rel;
}

// Both directions of every edge of `cycles` random Hamiltonian cycles on
// `n` vertices: every vertex has degree about 2 * cycles.
Relation CycleUnionEdges(Rng& rng, int n, int cycles) {
  Relation rel(2);
  std::vector<Value> order(n);
  for (int c = 0; c < cycles; ++c) {
    std::iota(order.begin(), order.end(), 0);
    Shuffle(order, rng);
    for (int i = 0; i < n; ++i) {
      const Value u = order[i];
      const Value v = order[(i + 1) % n];
      rel.Add({u, v});
      rel.Add({v, u});
    }
  }
  return rel;
}

Relation RandomPairs(Rng& rng, size_t rows, Value domain) {
  Relation rel(2);
  for (size_t i = 0; i < rows; ++i) {
    rel.Add({static_cast<Value>(rng.Below(domain)),
             static_cast<Value>(rng.Below(domain))});
  }
  return rel;
}

// Copies every relation of `src` into `dst` under its own name.
void CopyRelations(Database& dst, const Database& src) {
  for (paraquery::RelId id = 0;
       id < static_cast<paraquery::RelId>(src.relation_count()); ++id) {
    AddSet(dst, src.relation_name(id), src.relation(id));
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Specs()) names.push_back(s.name);
  return names;
}

std::unique_ptr<Database> BuildDatabase(const WorkloadSpec& spec,
                                        uint64_t seed) {
  auto db = std::make_unique<Database>();
  Rng rng(seed ^ 0xDA7ABA5Eull);
  if (spec.name == "point" || spec.name == "churn") {
    for (const char* name : {"R0", "R1", "R2", "R3"}) {
      AddSet(*db, name, BalancedPairs(rng, kPointDomain, 2));
    }
  } else if (spec.name == "analytic") {
    for (const char* name : {"A", "B", "C"}) {
      AddSet(*db, name, RandomPairs(rng, kChainRows, kChainDomain));
    }
    AddSet(*db, "E", RandomPairs(rng, kTriangleEdges, kTriangleVertices));
    // G: kTcChains disjoint directed chains on shuffled vertex ids.
    std::vector<Value> ids(kTcChains * kTcChainLength);
    std::iota(ids.begin(), ids.end(), 0);
    Shuffle(ids, rng);
    Relation g(2);
    for (int c = 0; c < kTcChains; ++c) {
      for (int i = 0; i + 1 < kTcChainLength; ++i) {
        g.Add({ids[c * kTcChainLength + i], ids[c * kTcChainLength + i + 1]});
      }
    }
    AddSet(*db, "G", std::move(g));
  } else if (spec.name == "theorem2") {
    CopyRelations(*db, paraquery::EmployeeProjects(kEmployees, kProjects, 1, 4,
                                                   rng.Next()));
    CopyRelations(*db, paraquery::StudentCourses(kStudents, kCourses,
                                                 kDepartments, 4, 0.3,
                                                 rng.Next()));
    AddSet(*db, "E", CycleUnionEdges(rng, kPathVertices, kPathCycles));
  }
  return db;
}

OpStream::OpStream(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec),
      rng_(seed ^ 0x0B5E55EDull),
      zipf_(std::max<size_t>(spec.constants, 1), spec.zipf_s) {
  rank_value_.resize(std::max<size_t>(spec.constants, 1));
  std::iota(rank_value_.begin(), rank_value_.end(), 0);
  Shuffle(rank_value_, rng_);
  round_.resize(spec.templates.size());
  round_pos_ = round_.size();
}

Op OpStream::Next() {
  ++index_;
  Op op;
  if (spec_.write_every != 0 && index_ % spec_.write_every == 0) {
    op.write = true;
    Relation sample = RandomPairs(rng_, spec_.write_batch, kPointDomain);
    op.rows.reserve(spec_.write_batch * 2);
    for (size_t r = 0; r < sample.size(); ++r) {
      op.rows.push_back(sample.At(r, 0));
      op.rows.push_back(sample.At(r, 1));
    }
    return op;
  }
  if (round_pos_ == round_.size()) {
    std::iota(round_.begin(), round_.end(), 0);
    Shuffle(round_, rng_);
    round_pos_ = 0;
  }
  op.tmpl = round_[round_pos_++];
  if (spec_.constants != 0) op.constant = rank_value_[zipf_.Sample(rng_)];
  return op;
}

std::string OpText(const WorkloadSpec& spec, const Op& op) {
  std::string text = spec.templates[op.tmpl].text;
  const std::string c = std::to_string(op.constant);
  for (size_t pos = text.find("$c"); pos != std::string::npos;
       pos = text.find("$c", pos + c.size())) {
    text.replace(pos, 2, c);
  }
  return text;
}

std::string OpKey(const WorkloadSpec& spec, const Op& op) {
  if (!op.write) return OpText(spec, op);
  std::string key = "write";
  for (Value v : op.rows) {
    key += ' ';
    key += std::to_string(v);
  }
  return key;
}

void ApplyWrite(Database& db, const WorkloadSpec& spec, const Op& op) {
  Relation& hot = db.relation(db.FindRelation(spec.hot_relation).value());
  const size_t arity = hot.arity();
  const size_t added = op.rows.size() / arity;
  const size_t keep_from = std::min(added, hot.size());
  std::vector<Value> data;
  data.reserve((hot.size() - keep_from + added) * arity);
  for (size_t r = keep_from; r < hot.size(); ++r) {
    for (size_t c = 0; c < arity; ++c) data.push_back(hot.At(r, c));
  }
  data.insert(data.end(), op.rows.begin(), op.rows.end());
  hot = Relation(arity, std::move(data));
}

}  // namespace perfbench
