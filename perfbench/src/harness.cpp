#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Unit();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

double Zipf::Pmf(size_t rank) const {
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

namespace {

size_t NearestRank(size_t n, double p) {
  // Rank r = ceil(p/100 * n), computed in integer thousandths of a percent
  // so that e.g. p = 90, n = 100 gives exactly 90.
  const uint64_t milli = static_cast<uint64_t>(std::llround(p * 1000));
  const uint64_t num = milli * n;
  size_t r = static_cast<size_t>((num + 100000 - 1) / 100000);
  return std::clamp<size_t>(r, 1, n);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double p) {
  return sorted[NearestRank(sorted.size(), p) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

double SupportedPercentile(size_t n) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0;
}

WindowStats SummarizeWindows(const std::vector<double>& latency_ms,
                             const std::vector<double>& busy_ms,
                             size_t round, size_t windows,
                             size_t min_window) {
  const size_t n = latency_ms.size();
  size_t size = std::max(min_window, n / windows);
  size = (size + round - 1) / round * round;
  if (n < 4 * size) size = n;
  WindowStats out;
  out.window_queries = size;
  std::vector<double> p50s, p90s, qps;
  for (size_t begin = 0; begin + size <= n; begin += size) {
    std::vector<double> lat(latency_ms.begin() + begin,
                            latency_ms.begin() + begin + size);
    std::sort(lat.begin(), lat.end());
    p50s.push_back(Percentile(lat, 50));
    p90s.push_back(Percentile(lat, 90));
    double busy = 0;
    for (size_t i = begin; i < begin + size; ++i) busy += busy_ms[i];
    qps.push_back(static_cast<double>(size) / (busy / 1e3));
  }
  std::sort(p50s.begin(), p50s.end());
  std::sort(p90s.begin(), p90s.end());
  std::sort(qps.begin(), qps.end());
  out.windows = p50s.size();
  out.p50_ms = Percentile(p50s, 25);
  out.p90_ms = Percentile(p90s, 25);
  out.qps = Percentile(qps, 75);
  return out;
}

std::string Fingerprint::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "rows=%zu arity=%zu digest=%016llx%016llx",
                rows, arity, static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(xor_));
  return buf;
}

Fingerprint FingerprintOf(const paraquery::Relation& rel) {
  Fingerprint fp;
  fp.rows = rel.size();
  fp.arity = rel.arity();
  std::vector<paraquery::Value> row(rel.arity());
  for (size_t r = 0; r < rel.size(); ++r) {
    for (size_t c = 0; c < rel.arity(); ++c) row[c] = rel.At(r, c);
    const uint64_t h = paraquery::HashRow(row);
    fp.sum += h;
    fp.xor_ ^= h * 0x9E3779B97F4A7C15ull;
  }
  return fp;
}

Fingerprint SetFingerprintOf(const paraquery::Relation& rel) {
  paraquery::Relation copy = rel;
  copy.SortAndDedup();
  return FingerprintOf(copy);
}

}  // namespace perfbench
