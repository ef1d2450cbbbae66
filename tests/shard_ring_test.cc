// Consistent-hash ring properties (shard/ring.h): map determinism and
// insertion-order independence (the "same seed + same node set =>
// byte-identical shard map" contract), ownership invariants, and the
// consistent-hashing churn bound — one node joining or leaving an
// N-node ring moves only ~K/N of the K shards. Randomized properties pin
// the batch build (AddNodes) and membership churn against a naive
// reference walk of the ring.
#include "shard/ring.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace wimpy::shard {
namespace {

Ring MakeRing(const RingConfig& config, const std::vector<int>& nodes) {
  Ring ring(config);
  for (int n : nodes) ring.AddNode(n);
  return ring;
}

bool SameMap(const Ring& a, const Ring& b) {
  if (a.shards() != b.shards()) return false;
  for (int s = 0; s < a.shards(); ++s) {
    if (a.Preference(s) != b.Preference(s)) return false;
  }
  return true;
}

TEST(ShardRingTest, MapIndependentOfInsertionOrder) {
  RingConfig config;
  config.replication = 3;
  const Ring forward = MakeRing(config, {0, 1, 2, 3, 4, 5, 6, 7});
  const Ring backward = MakeRing(config, {7, 6, 5, 4, 3, 2, 1, 0});
  const Ring shuffled = MakeRing(config, {3, 7, 0, 5, 1, 6, 2, 4});
  EXPECT_TRUE(SameMap(forward, backward));
  EXPECT_TRUE(SameMap(forward, shuffled));
}

TEST(ShardRingTest, RebuildAfterChurnMatchesFreshRing) {
  RingConfig config;
  config.replication = 2;
  Ring churned = MakeRing(config, {0, 1, 2, 3, 4, 9});
  churned.RemoveNode(9);
  churned.AddNode(5);
  const Ring fresh = MakeRing(config, {0, 1, 2, 3, 4, 5});
  EXPECT_TRUE(SameMap(churned, fresh));
}

TEST(ShardRingTest, EveryShardOwnedByDistinctChain) {
  RingConfig config;
  config.replication = 3;
  const Ring ring = MakeRing(config, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  EXPECT_EQ(ring.chain_length(), 3);
  for (int s = 0; s < ring.shards(); ++s) {
    const std::vector<int>& pref = ring.Preference(s);
    // The preference list covers every member exactly once.
    ASSERT_EQ(pref.size(), 12u);
    std::set<int> distinct(pref.begin(), pref.end());
    EXPECT_EQ(distinct.size(), pref.size());
    EXPECT_EQ(ring.PrimaryOf(s), pref[0]);
  }
}

TEST(ShardRingTest, ChainLengthClampsToMembership) {
  RingConfig config;
  config.replication = 3;
  const Ring ring = MakeRing(config, {0, 1});
  EXPECT_EQ(ring.chain_length(), 2);
}

TEST(ShardRingTest, ShardOfUsesTopBits) {
  RingConfig config;
  config.shards = 256;
  const Ring ring = MakeRing(config, {0});
  EXPECT_EQ(ring.ShardOf(0), 0);
  EXPECT_EQ(ring.ShardOf(~0ULL), 255);
  EXPECT_EQ(ring.ShardOf(1ULL << 56), 1);
}

TEST(ShardRingTest, JoinMovesAboutOneNthOfShards) {
  RingConfig config;
  config.replication = 1;
  const std::vector<int> nodes = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  const Ring before = MakeRing(config, nodes);
  Ring after = MakeRing(config, nodes);
  after.AddNode(12);
  const std::vector<int> moved = Ring::MovedPrimaries(before, after);
  // Ideal: K/N = 256/13 ~ 20 shards change primary. Ketama with 64
  // vnodes is lumpy, so accept a generous band — the property under test
  // is "a small fraction moved, not a reshuffle".
  const double ideal = 256.0 / 13.0;
  EXPECT_GE(moved.size(), static_cast<std::size_t>(ideal / 3));
  EXPECT_LE(moved.size(), static_cast<std::size_t>(ideal * 3));
  // Every moved shard moved *to* the joiner, nowhere else.
  for (int s : moved) EXPECT_EQ(after.PrimaryOf(s), 12);
}

TEST(ShardRingTest, LeaveMovesOnlyTheLeaversShards) {
  RingConfig config;
  config.replication = 1;
  const std::vector<int> nodes = {0, 1, 2, 3, 4, 5, 6, 7};
  const Ring before = MakeRing(config, nodes);
  Ring after = MakeRing(config, nodes);
  after.RemoveNode(3);
  const std::vector<int> moved = Ring::MovedPrimaries(before, after);
  std::size_t owned_before = 0;
  for (int s = 0; s < before.shards(); ++s) {
    if (before.PrimaryOf(s) == 3) ++owned_before;
  }
  // Exactly the shards node 3 owned change primary; everything else is
  // untouched (the consistent-hashing minimal-disruption property).
  EXPECT_EQ(moved.size(), owned_before);
  for (int s : moved) {
    EXPECT_EQ(before.PrimaryOf(s), 3);
    EXPECT_NE(after.PrimaryOf(s), 3);
  }
}

TEST(ShardRingTest, SaltReshapesTheMap) {
  RingConfig a;
  RingConfig b;
  b.salt = 0xDEADBEEFULL;
  const std::vector<int> nodes = {0, 1, 2, 3, 4, 5};
  const Ring ring_a = MakeRing(a, nodes);
  const Ring ring_b = MakeRing(b, nodes);
  EXPECT_FALSE(SameMap(ring_a, ring_b));
}

TEST(ShardRingTest, BalanceIsReasonable) {
  RingConfig config;
  const Ring ring = MakeRing(config, {0, 1, 2, 3, 4, 5, 6, 7});
  std::vector<int> owned(8, 0);
  for (int s = 0; s < ring.shards(); ++s) {
    ++owned[static_cast<std::size_t>(ring.PrimaryOf(s))];
  }
  // 256 shards over 8 nodes: ideal 32 each; 64 vnodes keeps every node
  // within a ~3x band of ideal (the paper-era ketama expectation).
  for (int n = 0; n < 8; ++n) {
    EXPECT_GE(owned[static_cast<std::size_t>(n)], 10) << "node " << n;
    EXPECT_LE(owned[static_cast<std::size_t>(n)], 96) << "node " << n;
  }
}

// --- randomized properties against a naive reference ----------------------

// The ring's point placement, restated: splitmix64 over (salt, node,
// replica).
std::uint64_t RefMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t RefPointHash(std::uint64_t salt, int node, int replica) {
  return RefMix64(salt ^ RefMix64(static_cast<std::uint64_t>(node) *
                                      0x100000001b3ULL +
                                  static_cast<std::uint64_t>(replica)));
}

// Naive reference walk: order every point by its clockwise distance from
// the shard's start position (node id breaks ties), then keep each
// member's first appearance.
std::vector<int> RefPreference(const RingConfig& config,
                               const std::vector<int>& members, int shard) {
  int log2 = 0;
  while ((1 << log2) < config.shards) ++log2;
  const std::uint64_t position = static_cast<std::uint64_t>(shard)
                                 << (64 - log2);
  std::vector<std::pair<std::uint64_t, int>> by_distance;
  for (int node : members) {
    for (int r = 0; r < config.vnodes_per_node; ++r) {
      by_distance.emplace_back(RefPointHash(config.salt, node, r) - position,
                               node);
    }
  }
  std::sort(by_distance.begin(), by_distance.end());
  std::vector<int> pref;
  for (const auto& [distance, node] : by_distance) {
    if (std::find(pref.begin(), pref.end(), node) == pref.end()) {
      pref.push_back(node);
    }
  }
  return pref;
}

void ExpectMatchesReference(const Ring& ring, const std::vector<int>& members) {
  ASSERT_EQ(ring.members(), members);
  for (int s = 0; s < ring.shards(); ++s) {
    ASSERT_EQ(ring.Preference(s), RefPreference(ring.config(), members, s))
        << "shard " << s;
  }
}

RingConfig RandomConfig(std::mt19937_64& rng) {
  static constexpr int kShards[] = {16, 64, 256};
  RingConfig config;
  config.vnodes_per_node = 1 + static_cast<int>(rng() % 64);
  config.shards = kShards[rng() % 3];
  config.replication = 1 + static_cast<int>(rng() % 3);
  config.salt = rng();
  return config;
}

// A random set of distinct ids below 64, in random order.
std::vector<int> RandomMembers(std::mt19937_64& rng) {
  std::vector<int> ids(64);
  for (int i = 0; i < 64; ++i) ids[static_cast<std::size_t>(i)] = i;
  std::shuffle(ids.begin(), ids.end(), rng);
  ids.resize(static_cast<std::size_t>(rng() % 25));
  return ids;
}

TEST(ShardRingPropertyTest, BatchAddMatchesSequentialAddAndReference) {
  std::mt19937_64 rng(20160901);
  for (int trial = 0; trial < 40; ++trial) {
    const RingConfig config = RandomConfig(rng);
    const std::vector<int> batch = RandomMembers(rng);
    Ring batched(config);
    batched.AddNodes(batch);
    const Ring sequential = MakeRing(config, batch);
    std::vector<int> sorted = batch;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(batched.members(), sequential.members()) << "trial " << trial;
    ASSERT_TRUE(SameMap(batched, sequential)) << "trial " << trial;
    ExpectMatchesReference(batched, sorted);
  }
}

TEST(ShardRingPropertyTest, BatchesCompose) {
  // Two batches land on the same map as one batch of their union.
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const RingConfig config = RandomConfig(rng);
    const std::vector<int> all = RandomMembers(rng);
    const std::size_t split = all.empty() ? 0 : rng() % all.size();
    Ring two(config);
    two.AddNodes({all.begin(), all.begin() + static_cast<long>(split)});
    two.AddNodes({all.begin() + static_cast<long>(split), all.end()});
    Ring one(config);
    one.AddNodes(all);
    ASSERT_EQ(two.members(), one.members());
    ASSERT_TRUE(SameMap(two, one)) << "trial " << trial;
  }
}

TEST(ShardRingPropertyTest, ChurnMatchesFreshRing) {
  std::mt19937_64 rng(424242);
  for (int trial = 0; trial < 8; ++trial) {
    const RingConfig config = RandomConfig(rng);
    Ring churned(config);
    std::set<int> model;
    for (int step = 0; step < 30; ++step) {
      const int id = static_cast<int>(rng() % 24);
      if (model.count(id) != 0) {
        churned.RemoveNode(id);
        model.erase(id);
      } else {
        churned.AddNode(id);
        model.insert(id);
      }
      const std::vector<int> members(model.begin(), model.end());
      Ring fresh(config);
      fresh.AddNodes(members);
      ASSERT_TRUE(SameMap(churned, fresh))
          << "trial " << trial << " step " << step;
      ExpectMatchesReference(churned, members);
    }
  }
}

TEST(ShardRingPropertyTest, AddNodesRebuildsOnce) {
  const std::uint64_t before = Ring::rebuilds();
  Ring ring(RingConfig{});
  ring.AddNodes({5, 3, 9, 0, 1});
  EXPECT_EQ(Ring::rebuilds() - before, 1u);
  ring.AddNode(2);
  ring.RemoveNode(9);
  EXPECT_EQ(Ring::rebuilds() - before, 3u);
}

}  // namespace
}  // namespace wimpy::shard
