// End-to-end benchmark of paraquery's Engine.
//
//   paraquery_perfbench --workload <point|analytic|theorem2|churn>
//                       --seed <n> --seconds <s> --trace <0|1>
//                       [--out-dir DIR]
//
// One client thread drives Engine::RunText in a closed loop over a seeded
// operation stream; every answer is checked afterwards against a reference
// engine. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of a traced run (and writes a Chrome trace and a layer summary
// into --out-dir). The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is nonzero on a wrong answer or a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using paraquery::Database;
using paraquery::Engine;
using paraquery::EngineOptions;
using paraquery::Relation;
using paraquery::Result;

constexpr uint64_t kDefaultSeed = 1;
// Set-ups per timed run; setup_s is their median.
constexpr int kSetupReps = 11;
// A timed run completes at least this many queries, so that ten samples
// lie beyond p90; each half of a traced run completes kMinTracedQueries.
constexpr size_t kMinQueries = 100;
constexpr size_t kMinTracedQueries = 20;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return FindWorkload(args->workload) != nullptr && args->seconds > 0;
}

/// A loaded database and the engine bound to it.
struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<Engine> engine;
};

/// Set-up as the user pays it: input generation, database load, engine
/// construction, and one warm-up pass over every template (which builds
/// the columnar mirrors, tries, statistics and the scheduler pool).
Result<Instance> SetUp(const WorkloadSpec& spec, uint64_t seed) {
  Instance in;
  in.db = BuildDatabase(spec, seed);
  EngineOptions options;
  options.threads = spec.threads;
  in.engine = std::make_unique<Engine>(*in.db, options);
  for (size_t t = 0; t < spec.templates.size(); ++t) {
    Op op;
    op.tmpl = static_cast<int>(t);
    auto warm = in.engine->RunText(OpText(spec, op));
    if (!warm.ok()) return warm.status();
  }
  return in;
}

/// What one operation of the timed loop left for the oracle.
struct Record {
  bool write = false;
  bool ok = false;
  Fingerprint fp;
};

struct Phase {
  std::vector<double> latency_ms;  // per query
  std::vector<double> busy_ms;  // per query: its latency plus the writes since
                                // the previous query
  std::vector<int> tmpl;        // per query: its template
  double pending_write_ms = 0;
  size_t queries = 0;
  size_t writes = 0;
  size_t failed = 0;
  std::vector<std::string> uncertified;
};

/// Runs the closed loop for `seconds` and at least `min_queries` queries.
/// `probe`, when given, is told about every operation (the traced phase).
void RunPhase(const WorkloadSpec& spec, Instance& in, OpStream& ops,
              double seconds, size_t min_queries,
              std::vector<Record>* records, Phase* phase, LayerProbe* probe) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  while (NowNs() < deadline || phase->queries < min_queries) {
    const Op op = ops.Next();
    Record rec;
    if (op.write) {
      const uint64_t t0 = NowNs();
      ApplyWrite(*in.db, spec, op);
      const uint64_t t1 = NowNs();
      phase->pending_write_ms += static_cast<double>(t1 - t0) / 1e6;
      ++phase->writes;
      rec.write = true;
      if (probe != nullptr) probe->OnWrite(t0, t1);
      records->push_back(rec);
      continue;
    }
    const std::string text = OpText(spec, op);
    if (probe != nullptr) probe->BeforeQuery();
    const uint64_t t0 = NowNs();
    Result<Relation> result = in.engine->RunText(text);
    const uint64_t t1 = NowNs();
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    phase->latency_ms.push_back(ms);
    phase->busy_ms.push_back(ms + phase->pending_write_ms);
    phase->pending_write_ms = 0;
    phase->tmpl.push_back(op.tmpl);
    ++phase->queries;
    rec.ok = result.ok();
    if (rec.ok) {
      rec.fp = FingerprintOf(result.value());
      const auto& ineq = in.engine->last_stats().ineq;
      if (ineq.family_size > 0 && !ineq.certified) {
        phase->uncertified.push_back(text);
      }
    } else {
      ++phase->failed;
    }
    if (probe != nullptr) probe->AfterQuery(op, text, result, t0, t1);
    records->push_back(rec);
  }
}

/// Replays the operation stream on a freshly built database through a
/// reference engine (sequential, no plan cache, no vectorization, no
/// worst-case-optimal joins) and compares every successful answer as a
/// set. Returns false and prints the query on the first mismatch.
bool Verify(const WorkloadSpec& spec, uint64_t seed,
            const std::vector<Record>& records) {
  std::unique_ptr<Database> db = BuildDatabase(spec, seed);
  EngineOptions options;
  options.threads = 1;
  options.use_plan_cache = false;
  options.vectorize = false;
  options.wcoj = false;
  Engine reference(*db, options);
  OpStream ops(spec, seed);
  // Answers at the current database state, by query text, with the
  // template that produced them. A write drops the answers of templates
  // that read the written relation.
  std::unordered_map<std::string, std::pair<int, Fingerprint>> expected;
  const auto reads_hot = [&](int tmpl) {
    const std::vector<std::string>& reads = spec.templates[tmpl].reads;
    return std::find(reads.begin(), reads.end(), spec.hot_relation) !=
           reads.end();
  };
  for (const Record& rec : records) {
    const Op op = ops.Next();
    if (op.write != rec.write) {
      std::fprintf(stderr, "perfbench: operation replay diverged\n");
      return false;
    }
    if (op.write) {
      ApplyWrite(*db, spec, op);
      std::erase_if(expected,
                    [&](const auto& e) { return reads_hot(e.second.first); });
      continue;
    }
    if (!rec.ok) continue;
    const std::string text = OpText(spec, op);
    auto it = expected.find(text);
    if (it == expected.end()) {
      auto answer = reference.RunText(text);
      if (!answer.ok()) {
        std::fprintf(stderr, "perfbench: reference engine failed on %s: %s\n",
                     text.c_str(), answer.status().ToString().c_str());
        return false;
      }
      it = expected
               .emplace(text, std::make_pair(op.tmpl,
                                             SetFingerprintOf(answer.value())))
               .first;
    }
    if (!(it->second.second == rec.fp)) {
      std::fprintf(stderr,
                   "perfbench: WRONG ANSWER for query\n  %s\n  expected %s\n"
                   "  got      %s\n",
                   text.c_str(), it->second.second.ToString().c_str(),
                   rec.fp.ToString().c_str());
      return false;
    }
  }
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d width=%zu\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, spec.threads);

  // Set-up, repeated; the last instance is the one measured.
  std::vector<double> setup_s;
  Instance in;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    in.engine.reset();  // the engine goes before the database it reads
    in.db.reset();
    const uint64_t t0 = NowNs();
    auto made = SetUp(spec, args.seed);
    const uint64_t t1 = NowNs();
    if (!made.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    in = std::move(made).value();
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  }

  OpStream ops(spec, args.seed);
  std::vector<Record> records;
  Phase timed;
  std::map<std::string, double> layers;
  std::unique_ptr<LayerProbe> probe;
  double rss_mb = 0;
  if (!args.trace) {
    RunPhase(spec, in, ops, args.seconds, kMinQueries, &records, &timed,
             nullptr);
    rss_mb = PeakRssMb();
  } else {
    // Untraced half (the overhead baseline), then the traced half.
    RunPhase(spec, in, ops, args.seconds / 2, kMinTracedQueries, &records,
             &timed, nullptr);
    std::vector<double> untraced = timed.latency_ms;
    std::sort(untraced.begin(), untraced.end());
    in.engine->options().trace = true;
    probe = std::make_unique<LayerProbe>(spec, *in.db, *in.engine);
    Phase traced;
    RunPhase(spec, in, ops, args.seconds / 2, kMinTracedQueries, &records,
             &traced, probe.get());
    in.engine->options().trace = false;
    layers = probe->Finish(Percentile(untraced, 50));
    timed.queries += traced.queries;
    timed.writes += traced.writes;
    timed.failed += traced.failed;
    timed.uncertified.insert(timed.uncertified.end(),
                             traced.uncertified.begin(),
                             traced.uncertified.end());
  }

  const uint64_t verify_start = NowNs();
  const bool correct =
      timed.uncertified.empty() && Verify(spec, args.seed, records);
  std::printf("verified %zu operations in %.2f s\n", records.size(),
              static_cast<double>(NowNs() - verify_start) / 1e9);
  for (const std::string& text : timed.uncertified) {
    std::fprintf(stderr,
                 "perfbench: Theorem 2 ran an uncertified family on\n  %s\n",
                 text.c_str());
  }
  const size_t attempted = timed.queries + timed.writes;
  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> lat = timed.latency_ms;
    std::sort(lat.begin(), lat.end());
    const size_t n = lat.size();
    const WindowStats win = SummarizeWindows(timed.latency_ms, timed.busy_ms,
                                             spec.templates.size());
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"latency_p50_ms", win.p50_ms, "ms"},
        {"latency_p90_ms", win.p90_ms, "ms"},
        {"throughput_qps", win.qps, "queries/s"},
        {"peak_rss_mb", rss_mb, "MiB"},
        {"success_frac",
         1.0 - static_cast<double>(timed.failed) / static_cast<double>(attempted),
         "ratio"},
    };
    std::printf("windows=%zu of %zu queries (%zu samples beyond each window's "
                "p90); whole phase: p50=%.6f ms p90=%.6f ms\n",
                win.windows, win.window_queries,
                SamplesBeyond(win.window_queries, 90), Percentile(lat, 50),
                Percentile(lat, 90));
    const double supported = SupportedPercentile(n);
    std::printf("queries=%zu writes=%zu failed=%zu latency_samples=%zu "
                "highest_supported_percentile=p%g (%zu samples beyond p90)\n",
                timed.queries, timed.writes, timed.failed, n, supported,
                SamplesBeyond(n, 90));
    std::printf("setup_samples=%zu\n", setup_s.size());
    for (size_t t = 0; t < spec.templates.size(); ++t) {
      std::vector<double> own;
      for (size_t i = 0; i < n; ++i) {
        if (timed.tmpl[i] == static_cast<int>(t)) {
          own.push_back(timed.latency_ms[i]);
        }
      }
      std::sort(own.begin(), own.end());
      if (own.empty()) continue;
      std::printf("  template %-20s n=%-7zu p50=%.4f ms p90=%.4f ms\n",
                  spec.templates[t].name.c_str(), own.size(),
                  Percentile(own, 50), Percentile(own, 90));
    }
    for (const Metric& m : metrics) {
      std::printf("  %-16s %14.6f %-10s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(),
                  m.name == "setup_s"       ? setup_s.size()
                  : m.name == "peak_rss_mb" ? size_t{1}
                  : m.name == "success_frac" ? attempted
                                             : n);
    }
  } else {
    for (const LayerMetric& m : LayerMetrics()) {
      metrics.push_back({m.name, layers[m.name], m.unit});
      std::printf("  %-36s %16.6f %s\n", m.name.c_str(), layers[m.name],
                  m.unit.c_str());
    }
    for (const std::string& w : probe->warnings()) {
      std::printf("warning: %s\n", w.c_str());
    }
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string base = args.out_dir + "/" + spec.name;
    std::ofstream(base + ".trace.json") << ChromeTrace(probe->kept_spans());
    std::ofstream summary(base + ".layers.json");
    summary << "{\"workload\": \"" << spec.name << "\", \"seed\": " << args.seed
            << ", \"queries\": " << timed.queries
            << ", \"layers\": " << ResultJson(correct, attempted, timed.failed,
                                              metrics)
            << "}\n";
    std::printf("trace=%s.trace.json layers=%s.layers.json\n", base.c_str(),
                base.c_str());
  }
  std::printf("%s\n", ResultJson(correct, attempted, timed.failed, metrics)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: paraquery_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir DIR]\n"
                 "workloads:");
    for (const std::string& w : perfbench::WorkloadNames()) {
      std::fprintf(stderr, " %s", w.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  return perfbench::Run(args);
}
