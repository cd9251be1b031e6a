#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "common/combinatorics.hpp"
#include "common/rng.hpp"
#include "hashing/coloring.hpp"

namespace paraquery {
namespace {

TEST(ColoringTest, MonteCarloSizeMatchesFormula) {
  auto fam = ColoringFamily::MonteCarlo(4, 2.0, 1);
  EXPECT_EQ(fam.size(),
            static_cast<size_t>(std::ceil(2.0 * std::exp(4.0))));
  EXPECT_EQ(fam.k(), 4);
  EXPECT_FALSE(fam.certified());
}

TEST(ColoringTest, TrivialKIsSingleMemberCertified) {
  auto fam0 = ColoringFamily::MonteCarlo(0, 1.0, 1);
  EXPECT_EQ(fam0.size(), 1u);
  EXPECT_TRUE(fam0.certified());
  auto fam1 = ColoringFamily::MonteCarlo(1, 1.0, 1);
  EXPECT_EQ(fam1.size(), 1u);
  EXPECT_EQ(fam1.Color(0, 12345), 1);
}

TEST(ColoringTest, ColorsInRange) {
  auto fam = ColoringFamily::MonteCarlo(5, 1.0, 7);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    Value v = static_cast<Value>(rng.Next());
    for (size_t m = 0; m < 3; ++m) {
      Value c = fam.Color(m, v);
      EXPECT_GE(c, 1);
      EXPECT_LE(c, 5);
    }
  }
}

TEST(ColoringTest, ColorIsDeterministic) {
  auto a = ColoringFamily::MonteCarlo(3, 1.0, 42);
  auto b = ColoringFamily::MonteCarlo(3, 1.0, 42);
  for (Value v = 0; v < 100; ++v) EXPECT_EQ(a.Color(0, v), b.Color(0, v));
}

TEST(ColoringTest, CertifiedIsPerfectOnGround) {
  std::vector<Value> ground;
  for (Value v = 100; v < 130; ++v) ground.push_back(v * 7919);
  for (int k = 2; k <= 4; ++k) {
    auto fam = ColoringFamily::Certified(ground, k, /*seed=*/5).ValueOrDie();
    EXPECT_TRUE(fam.certified());
    EXPECT_TRUE(fam.IsPerfectOn(ground)) << "k=" << k;
    EXPECT_GE(fam.size(), 1u);
  }
}

TEST(ColoringTest, CertifiedRejectsHugeGround) {
  std::vector<Value> ground(100);
  for (int i = 0; i < 100; ++i) ground[i] = i;
  auto fam = ColoringFamily::Certified(ground, 5, 1, /*max_subsets=*/1000);
  EXPECT_EQ(fam.status().code(), StatusCode::kResourceExhausted);
}

TEST(ColoringTest, CertifiedTinyGround) {
  // Ground smaller than k: no k-subsets, trivially certified.
  std::vector<Value> ground = {10, 20};
  auto fam = ColoringFamily::Certified(ground, 3, 1).ValueOrDie();
  EXPECT_TRUE(fam.certified());
  // Ground exactly k: needs one injective member.
  std::vector<Value> ground3 = {10, 20, 30};
  auto fam3 = ColoringFamily::Certified(ground3, 3, 1).ValueOrDie();
  EXPECT_TRUE(fam3.IsPerfectOn(ground3));
}

TEST(ColoringTest, InjectiveOnDetectsCollisions) {
  auto fam = ColoringFamily::MonteCarlo(2, 1.0, 9);
  // With k=2 and 3 values, injectivity is impossible.
  EXPECT_FALSE(fam.InjectiveOn(0, {1, 2, 3}));
}

TEST(ColoringTest, MonteCarloHitsWitnessWithHighProbability) {
  // Empirical sanity check of the paper's probability bound: for a fixed
  // witness set of size k, at least one member of a c=3 family should be
  // injective on it (failure probability <= e^-3 ~ 0.05; seeds chosen fixed).
  for (int k = 2; k <= 5; ++k) {
    std::vector<Value> witness;
    for (int i = 0; i < k; ++i) witness.push_back(1000 + i * 31337);
    auto fam = ColoringFamily::MonteCarlo(k, 3.0, 1234 + k);
    bool hit = false;
    for (size_t m = 0; m < fam.size() && !hit; ++m) {
      hit = fam.InjectiveOn(m, witness);
    }
    EXPECT_TRUE(hit) << "k=" << k;
  }
}

// The straightforward greedy cover Certified must reproduce: every k-subset
// as its own vector, k hashes per subset per candidate seed, a candidate
// kept iff it covers a subset not covered yet.
std::vector<uint64_t> ReferenceCertifiedSeeds(const std::vector<Value>& ground,
                                              int k, uint64_t seed) {
  auto color = [k](uint64_t s, Value v) {
    return 1 + static_cast<Value>(
                   HashValue(static_cast<Value>(static_cast<uint64_t>(v) ^ s)) %
                   static_cast<uint64_t>(k));
  };
  std::vector<std::vector<int>> uncovered;
  ForEachKSubset(static_cast<int>(ground.size()), k,
                 [&](const std::vector<int>& subset) {
                   uncovered.push_back(subset);
                   return true;
                 });
  Rng rng(seed);
  std::vector<uint64_t> seeds;
  while (!uncovered.empty()) {
    const uint64_t s = rng.Next();
    std::vector<std::vector<int>> left;
    for (const std::vector<int>& subset : uncovered) {
      std::vector<Value> colors;
      for (int i : subset) colors.push_back(color(s, ground[i]));
      std::sort(colors.begin(), colors.end());
      if (std::adjacent_find(colors.begin(), colors.end()) != colors.end()) {
        left.push_back(subset);
      }
    }
    if (left.size() < uncovered.size()) seeds.push_back(s);
    uncovered = std::move(left);
  }
  if (seeds.empty()) seeds.push_back(rng.Next());
  return seeds;
}

TEST(ColoringTest, CertifiedMatchesReferenceGreedyCover) {
  struct Case {
    int n;
    int k;
    uint64_t seed;
  };
  const Case cases[] = {{8, 2, 1},  {12, 3, 7}, {20, 3, 42}, {32, 4, 1},
                        {24, 4, 9}, {16, 5, 3}, {6, 6, 5},   {4, 7, 11},
                        {40, 2, 0xC0FFEE}};
  for (const Case& c : cases) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " k=" + std::to_string(c.k) +
                 " seed=" + std::to_string(c.seed));
    Rng rng(c.seed * 31 + 5);
    std::set<Value> distinct;
    while (distinct.size() < static_cast<size_t>(c.n)) {
      distinct.insert(static_cast<Value>(rng.Next() >> 1) - (Value{1} << 61));
    }
    const std::vector<Value> ground(distinct.begin(), distinct.end());
    auto fam = ColoringFamily::Certified(ground, c.k, c.seed).ValueOrDie();
    const std::vector<uint64_t> seeds =
        ReferenceCertifiedSeeds(ground, c.k, c.seed);
    ASSERT_EQ(fam.size(), seeds.size());
    EXPECT_TRUE(fam.IsPerfectOn(ground));
    for (size_t m = 0; m < fam.size(); ++m) {
      for (Value v : ground) {
        ASSERT_EQ(fam.Color(m, v),
                  1 + static_cast<Value>(
                          HashValue(static_cast<Value>(
                              static_cast<uint64_t>(v) ^ seeds[m])) %
                          static_cast<uint64_t>(c.k)))
            << "member " << m << " value " << v;
      }
    }
  }
}

TEST(ColoringTest, CertifiedWideK) {
  // k >= 64 colors do not fit the 64-bit color mask. Fewer values than
  // colors: no k-subset, one member, certified.
  std::vector<Value> few;
  for (Value v = 0; v < 10; ++v) few.push_back(v * 7);
  auto fam = ColoringFamily::Certified(few, 70, 1).ValueOrDie();
  EXPECT_TRUE(fam.certified());
  EXPECT_EQ(fam.size(), 1u);
  EXPECT_TRUE(fam.IsPerfectOn(few));
  // Subsets to cover but no member budget: a clean failure.
  std::vector<Value> ground;
  for (Value v = 0; v < 65; ++v) ground.push_back(v * 7);
  auto none = ColoringFamily::Certified(ground, 64, 1, /*max_subsets=*/1000,
                                        /*max_members=*/0);
  EXPECT_EQ(none.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace paraquery
