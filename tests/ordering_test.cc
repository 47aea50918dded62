#include "src/core/ordering.h"

#include <algorithm>

#include "src/core/actions.h"
#include <numeric>
#include <set>

#include <gtest/gtest.h>

namespace deltaclus {
namespace {

bool IsPermutation(const std::vector<size_t>& order, size_t n) {
  if (order.size() != n) return false;
  std::set<size_t> seen(order.begin(), order.end());
  if (seen.size() != n) return false;
  return *seen.begin() == 0 && *seen.rbegin() == n - 1;
}

TEST(OrderingTest, ToStringNames) {
  EXPECT_EQ(ToString(ActionOrdering::kFixed), "fixed");
  EXPECT_EQ(ToString(ActionOrdering::kRandom), "random");
  EXPECT_EQ(ToString(ActionOrdering::kWeightedRandom), "weighted");
}

TEST(OrderingTest, FixedIsIdentity) {
  Rng rng(1);
  std::vector<double> gains(10, 0.0);
  std::vector<size_t> order =
      MakeActionOrder(ActionOrdering::kFixed, gains, rng);
  for (size_t t = 0; t < 10; ++t) EXPECT_EQ(order[t], t);
}

TEST(OrderingTest, AllOrderingsArePermutations) {
  Rng rng(2);
  std::vector<double> gains = {3, -1, 2, 0, 5, -4, 1, 2, 2, -2};
  for (ActionOrdering o : {ActionOrdering::kFixed, ActionOrdering::kRandom,
                           ActionOrdering::kWeightedRandom}) {
    for (int rep = 0; rep < 20; ++rep) {
      EXPECT_TRUE(IsPermutation(MakeActionOrder(o, gains, rng), gains.size()));
    }
  }
}

TEST(OrderingTest, RandomActuallyShuffles) {
  Rng rng(3);
  std::vector<double> gains(50, 0.0);
  std::vector<size_t> order =
      MakeActionOrder(ActionOrdering::kRandom, gains, rng);
  std::vector<size_t> identity(50);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_NE(order, identity);
}

TEST(OrderingTest, RandomIsSeedDeterministic) {
  std::vector<double> gains(30, 1.0);
  Rng a(7);
  Rng b(7);
  EXPECT_EQ(MakeActionOrder(ActionOrdering::kRandom, gains, a),
            MakeActionOrder(ActionOrdering::kRandom, gains, b));
}

TEST(OrderingTest, WeightedIsSeedDeterministic) {
  std::vector<double> gains(40);
  for (size_t t = 0; t < gains.size(); ++t) {
    gains[t] = static_cast<double>((t * 13) % 11);
  }
  Rng a(77);
  Rng b(77);
  EXPECT_EQ(MakeActionOrder(ActionOrdering::kWeightedRandom, gains, a),
            MakeActionOrder(ActionOrdering::kWeightedRandom, gains, b));
}

TEST(OrderingTest, WeightedFrontLoadsHighGains) {
  // With a few high-gain actions among many low ones, the high-gain
  // actions should on average land near the front.
  Rng rng(11);
  std::vector<double> gains(100, -1.0);
  gains[40] = 100.0;
  gains[41] = 90.0;
  gains[42] = 80.0;
  double avg_position = 0.0;
  const int reps = 50;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<size_t> order =
        MakeActionOrder(ActionOrdering::kWeightedRandom, gains, rng);
    for (size_t t = 0; t < order.size(); ++t) {
      if (order[t] == 40 || order[t] == 41 || order[t] == 42) {
        avg_position += static_cast<double>(t);
      }
    }
  }
  avg_position /= reps * 3;
  // Uniform random placement would average ~49.5; the weighted order
  // should do much better.
  EXPECT_LT(avg_position, 25.0);
}

TEST(OrderingTest, WeightedIsNotDeterministicSort) {
  // The randomness must be real: across repetitions the order varies.
  Rng rng(13);
  std::vector<double> gains(40);
  for (size_t t = 0; t < gains.size(); ++t) {
    gains[t] = static_cast<double>(t % 7);
  }
  std::set<std::vector<size_t>> distinct;
  for (int rep = 0; rep < 10; ++rep) {
    distinct.insert(
        MakeActionOrder(ActionOrdering::kWeightedRandom, gains, rng));
  }
  EXPECT_GT(distinct.size(), 1u);
}

TEST(OrderingTest, WeightedHandlesBlockedGains) {
  Rng rng(17);
  std::vector<double> gains = {1.0, kBlockedGain, 2.0, kBlockedGain, -1.0};
  for (int rep = 0; rep < 20; ++rep) {
    EXPECT_TRUE(IsPermutation(
        MakeActionOrder(ActionOrdering::kWeightedRandom, gains, rng),
        gains.size()));
  }
}

TEST(OrderingTest, WeightedHandlesAllBlocked) {
  Rng rng(19);
  std::vector<double> gains(6, kBlockedGain);
  EXPECT_TRUE(IsPermutation(
      MakeActionOrder(ActionOrdering::kWeightedRandom, gains, rng),
      gains.size()));
}

TEST(OrderingTest, WeightedHandlesEqualGains) {
  Rng rng(23);
  std::vector<double> gains(10, 3.0);
  EXPECT_TRUE(IsPermutation(
      MakeActionOrder(ActionOrdering::kWeightedRandom, gains, rng),
      gains.size()));
}

TEST(OrderingTest, EmptyAndSingleton) {
  Rng rng(29);
  std::vector<double> none;
  EXPECT_TRUE(MakeActionOrder(ActionOrdering::kRandom, none, rng).empty());
  std::vector<double> one = {5.0};
  std::vector<size_t> order =
      MakeActionOrder(ActionOrdering::kWeightedRandom, one, rng);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 0u);
}

}  // namespace
}  // namespace deltaclus
