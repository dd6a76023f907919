// Unit tests for common substrate: strong ids, logical clocks, RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "common/ids.h"
#include "common/rng.h"
#include "common/version.h"
#include "sim/clock.h"

namespace dq {
namespace {

TEST(TaggedId, ComparesByValue) {
  EXPECT_EQ(NodeId(3), NodeId(3));
  EXPECT_NE(NodeId(3), NodeId(4));
  EXPECT_LT(NodeId(3), NodeId(4));
}

TEST(TaggedId, Hashable) {
  std::unordered_set<ObjectId> s;
  s.insert(ObjectId(1));
  s.insert(ObjectId(1));
  s.insert(ObjectId(2));
  EXPECT_EQ(s.size(), 2u);
}

TEST(LogicalClock, OrdersByCounterThenWriter) {
  LogicalClock a{1, 5}, b{2, 1}, c{1, 6};
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
  EXPECT_LT(c, b);
  EXPECT_EQ(LogicalClock::zero(), LogicalClock{});
}

TEST(LogicalClock, AdvanceIncrementsCounterAndStampsWriter) {
  const LogicalClock base{7, 3};
  const LogicalClock next = base.advanced_by(ClientId(9));
  EXPECT_EQ(next.counter, 8u);
  EXPECT_EQ(next.writer, 9u);
  EXPECT_GT(next, base);
}

TEST(LogicalClock, ConcurrentAdvancesAreTotallyOrdered) {
  const LogicalClock base{7, 3};
  const LogicalClock a = base.advanced_by(ClientId(1));
  const LogicalClock b = base.advanced_by(ClientId(2));
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(42);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowStaysInBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(9), 9u);
  }
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, ChanceExtremes) {
  Rng r(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(99);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 2.0);
}

TEST(Rng, SampleWithoutReplacementIsDistinctSubset) {
  Rng r(5);
  for (int trial = 0; trial < 50; ++trial) {
    auto s = r.sample_without_replacement(10, 4);
    ASSERT_EQ(s.size(), 4u);
    std::set<std::size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 4u);
    for (auto x : s) EXPECT_LT(x, 10u);
  }
}

TEST(Rng, SampleRequestingAllReturnsAll) {
  Rng r(5);
  auto s = r.sample_without_replacement(4, 9);
  EXPECT_EQ(s.size(), 4u);
}

TEST(Rng, SampleCoversAllElementsEventually) {
  Rng r(6);
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) {
    for (auto x : r.sample_without_replacement(6, 2)) seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(DriftClock, PerfectClockIsIdentity) {
  sim::DriftClock c;
  EXPECT_EQ(c.local_time(12345), 12345);
  EXPECT_EQ(c.global_time(12345), 12345);
}

TEST(DriftClock, LocalAndGlobalAreInverse) {
  sim::DriftClock c(1000, 1.0001);
  for (sim::Time t : {sim::Time{0}, sim::Time{1000000}, sim::Time{999999999}}) {
    EXPECT_NEAR(static_cast<double>(c.global_time(c.local_time(t))),
                static_cast<double>(t), 2.0);
  }
}

TEST(DriftClock, RandomClockStaysWithinDriftEnvelope) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    auto c = sim::DriftClock::random(rng, 0.01, sim::seconds(1));
    EXPECT_GE(c.rate(), 0.99);
    EXPECT_LE(c.rate(), 1.01);
    EXPECT_GE(c.offset(), 0);
    EXPECT_LE(c.offset(), sim::seconds(1));
  }
}

TEST(VersionedValue, EqualityComparesValueAndClock) {
  VersionedValue a{"x", {1, 2}}, b{"x", {1, 2}}, c{"x", {1, 3}};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace dq
