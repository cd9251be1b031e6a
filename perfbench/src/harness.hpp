// Measurement helpers of the end-to-end benchmark: a seeded generator, a
// Zipf sampler, percentile rules, answer fingerprints and timing.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "relational/relation.hpp"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: a fixed, portable sequence for every seed, so the same seed
/// gives the same inputs with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf distribution over ranks 0..n-1: P(rank r) ∝ 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng& rng) const;
  double Pmf(size_t rank) const;

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank percentile (0 < p <= 100) of `sorted` (ascending, nonempty).
double Percentile(const std::vector<double>& sorted, double p);

/// Samples strictly above the nearest-rank p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

/// The highest of the percentiles 99.9, 99, 90 and 50 that has at least ten
/// of `n` samples beyond it; 0 when not even the median has.
double SupportedPercentile(size_t n);

/// A timed phase summarized window by window. The queries are cut into
/// consecutive windows of whole template rounds (so every window holds the
/// same template mix) of at least `min_window` queries, about `windows` of
/// them. Each window gives its own p50, p90 and throughput; the phase
/// reports the quartile of window values on the good side: the lower
/// quartile of the window latencies, the upper quartile of the window
/// throughputs. The shared machines the benchmark runs on change speed by
/// up to 2x over seconds, and a run's least-disturbed quarter repeats from
/// run to run far better than its overall percentiles. With fewer than four
/// windows' worth of queries the whole phase is one window.
struct WindowStats {
  size_t windows = 0;
  size_t window_queries = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double qps = 0;
};
WindowStats SummarizeWindows(const std::vector<double>& latency_ms,
                             const std::vector<double>& busy_ms,
                             size_t round, size_t windows = 20,
                             size_t min_window = 100);

/// Order-independent digest of a relation's rows: equal for two relations
/// iff (up to hash collisions) they hold the same multiset of rows.
struct Fingerprint {
  size_t rows = 0;
  size_t arity = 0;
  uint64_t sum = 0;
  uint64_t xor_ = 0;
  bool operator==(const Fingerprint& o) const {
    return rows == o.rows && arity == o.arity && sum == o.sum &&
           xor_ == o.xor_;
  }
  std::string ToString() const;
};
Fingerprint FingerprintOf(const paraquery::Relation& rel);

/// Fingerprint of the sorted, duplicate-free copy of `rel` (the oracle's
/// side: an answer is a set).
Fingerprint SetFingerprintOf(const paraquery::Relation& rel);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
