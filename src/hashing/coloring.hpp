// Color-coding hash families for the Theorem 2 driver.
//
// The paper evaluates Q(d) = ∪_h Q_h(d) over functions h : D -> {1..k}. Two
// regimes are implemented:
//
//  * Monte Carlo (the paper's randomized algorithm): c·e^k independent random
//    colorings. If a satisfying instantiation exists, each trial is consistent
//    with it with probability >= l!/l^k > e^-k, so all trials fail with
//    probability <= (1 - e^-k)^{c·e^k} <= e^-c.
//
//  * Certified (the deterministic algorithm): the paper invokes a k-perfect
//    family of size 2^{O(k)} log |D| from Alon-Yuster-Zwick. We substitute a
//    seeded construction that is *certified* k-perfect on a known ground set
//    (the active domain of the relevant columns): members are added until
//    every k-subset of the ground set is injectively colored by some member.
//    Expected size is O(e^k · k · log |ground|) (coupon collector), matching
//    the paper's g(v) = 2^{O(v log v)} budget; the certification makes the
//    union ∪_h Q_h(d) provably exact. See DESIGN.md §2 for the substitution
//    rationale.
#ifndef PARAQUERY_HASHING_COLORING_H_
#define PARAQUERY_HASHING_COLORING_H_

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "relational/value.hpp"

namespace paraquery {

/// A finite family of colorings h_i : Value -> {1..k}.
class ColoringFamily {
 public:
  /// Monte Carlo family of ceil(c · e^k) seeded random colorings.
  /// `c` is the error exponent: failure probability <= e^-c on satisfiable
  /// instances. k must be >= 0; for k <= 1 a single member suffices and the
  /// family is exact.
  static ColoringFamily MonteCarlo(int k, double c, uint64_t seed);

  /// Deterministic family certified k-perfect on `ground` (sorted distinct
  /// values): for every k-subset S of `ground`, some member is injective on
  /// S. Fails with ResourceExhausted if C(|ground|, k) > max_subsets or more
  /// than max_members members would be needed.
  static Result<ColoringFamily> Certified(const std::vector<Value>& ground,
                                          int k, uint64_t seed,
                                          uint64_t max_subsets = 2'000'000,
                                          size_t max_members = 100'000);

  int k() const { return k_; }
  size_t size() const { return seeds_.size(); }
  bool certified() const { return certified_; }

  /// Color of `v` under member `member`, in {1..k} (always 1 when k <= 1).
  Value Color(size_t member, Value v) const {
    return k_ <= 1 ? 1 : SeedColor(seeds_[member], k_, v);
  }

  /// True if `member` assigns pairwise-distinct colors to `values`.
  bool InjectiveOn(size_t member, const std::vector<Value>& values) const;

  /// Exhaustive check that the family is k-perfect on `ground`
  /// (test helper; cost C(|ground|, k) · size()).
  bool IsPerfectOn(const std::vector<Value>& ground) const;

 private:
  ColoringFamily(int k, std::vector<uint64_t> seeds, bool certified)
      : k_(k), seeds_(std::move(seeds)), certified_(certified) {}

  // The coloring a member with hash seed `seed` applies (k >= 2).
  static Value SeedColor(uint64_t seed, int k, Value v) {
    return 1 + static_cast<Value>(
                   HashValue(static_cast<Value>(static_cast<uint64_t>(v) ^
                                                seed)) %
                   static_cast<uint64_t>(k));
  }

  int k_;
  std::vector<uint64_t> seeds_;
  bool certified_;
};

}  // namespace paraquery

#endif  // PARAQUERY_HASHING_COLORING_H_
