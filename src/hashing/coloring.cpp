#include "hashing/coloring.hpp"

#include <algorithm>
#include <cmath>

#include "common/combinatorics.hpp"
#include "common/rng.hpp"

namespace paraquery {

ColoringFamily ColoringFamily::MonteCarlo(int k, double c, uint64_t seed) {
  PQ_CHECK(k >= 0, "MonteCarlo: negative k");
  PQ_CHECK(c > 0, "MonteCarlo: error exponent must be positive");
  size_t members = 1;
  if (k > 1) {
    double raw = std::ceil(c * std::exp(static_cast<double>(k)));
    members = static_cast<size_t>(std::max(1.0, raw));
  }
  Rng rng(seed);
  std::vector<uint64_t> seeds(members);
  for (auto& s : seeds) s = rng.Next();
  return ColoringFamily(k, std::move(seeds), /*certified=*/k <= 1);
}

Result<ColoringFamily> ColoringFamily::Certified(
    const std::vector<Value>& ground, int k, uint64_t seed,
    uint64_t max_subsets, size_t max_members) {
  PQ_CHECK(k >= 0, "Certified: negative k");
  int n = static_cast<int>(ground.size());
  if (k <= 1 || n <= k) {
    // One member suffices: with n <= k we may still need injectivity, which a
    // single hash seed might miss, so for 1 < n <= k fall through to the
    // search below over all (= one) subsets.
    if (k <= 1) {
      return ColoringFamily(k, {0xabcdef1234567890ull}, /*certified=*/true);
    }
  }
  uint64_t num_subsets = Binomial(static_cast<uint64_t>(n),
                                  static_cast<uint64_t>(k));
  if (num_subsets > max_subsets) {
    return Status::ResourceExhausted(internal::StrCat(
        "Certified coloring family: C(", n, ",", k, ") = ", num_subsets,
        " exceeds limit ", max_subsets));
  }
  // All k-subsets as one flat table of ground indices (k ints per row),
  // covered greedily with seeded random members. Each candidate colors the
  // n ground values once; a subset is then covered iff its k colors are
  // distinct, which for k < 64 is one bitmask pass over its row.
  const size_t kk = static_cast<size_t>(k);
  std::vector<int> uncovered;
  uncovered.reserve(num_subsets * kk);
  ForEachKSubset(n, k, [&](const std::vector<int>& subset) {
    uncovered.insert(uncovered.end(), subset.begin(), subset.end());
    return true;
  });

  Rng rng(seed);
  std::vector<uint64_t> seeds;
  std::vector<Value> colors(n);
  auto injective = [&](const int* row) {
    if (k < 64) {
      uint64_t seen = 0;
      for (size_t j = 0; j < kk; ++j) {
        const uint64_t bit = uint64_t{1} << (colors[row[j]] - 1);
        if ((seen & bit) != 0) return false;
        seen |= bit;
      }
      return true;
    }
    for (size_t j = 0; j < kk; ++j) {
      for (size_t l = 0; l < j; ++l) {
        if (colors[row[l]] == colors[row[j]]) return false;
      }
    }
    return true;
  };
  while (!uncovered.empty()) {
    if (seeds.size() >= max_members) {
      return Status::ResourceExhausted(internal::StrCat(
          "Certified coloring family: exceeded ", max_members, " members with ",
          uncovered.size() / kk, " subsets uncovered"));
    }
    uint64_t s = rng.Next();
    for (int i = 0; i < n; ++i) colors[i] = SeedColor(s, k, ground[i]);
    size_t kept = 0;
    for (size_t i = 0; i < uncovered.size(); i += kk) {
      if (injective(&uncovered[i])) continue;
      if (kept != i) {
        std::copy_n(uncovered.begin() + i, kk, uncovered.begin() + kept);
      }
      kept += kk;
    }
    bool useful = kept < uncovered.size();
    uncovered.resize(kept);
    if (useful) seeds.push_back(s);
  }
  if (seeds.empty()) seeds.push_back(rng.Next());
  return ColoringFamily(k, std::move(seeds), /*certified=*/true);
}

bool ColoringFamily::InjectiveOn(size_t member,
                                 const std::vector<Value>& values) const {
  std::vector<Value> colors;
  colors.reserve(values.size());
  for (Value v : values) colors.push_back(Color(member, v));
  std::sort(colors.begin(), colors.end());
  return std::adjacent_find(colors.begin(), colors.end()) == colors.end();
}

bool ColoringFamily::IsPerfectOn(const std::vector<Value>& ground) const {
  if (k_ <= 1) return true;
  int n = static_cast<int>(ground.size());
  bool all_covered = true;
  ForEachKSubset(n, k_, [&](const std::vector<int>& subset) {
    std::vector<Value> values;
    values.reserve(subset.size());
    for (int i : subset) values.push_back(ground[i]);
    for (size_t m = 0; m < size(); ++m) {
      if (InjectiveOn(m, values)) return true;  // next subset
    }
    all_covered = false;
    return false;  // stop
  });
  return all_covered;
}

}  // namespace paraquery
