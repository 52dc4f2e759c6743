// Property tests for the consistent-hash ShardRouter: distribution
// uniformity and minimal movement on membership change.

#include "service/shard_router.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

namespace vire::service {
namespace {

std::vector<sim::TagId> fuzz_ids(std::size_t count) {
  // splitmix64-scrambled ids, so uniformity is tested on scattered keys as
  // well as dense ones.
  std::vector<sim::TagId> ids;
  ids.reserve(count);
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  for (std::size_t i = 0; i < count; ++i) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    ids.push_back(static_cast<sim::TagId>(z ^ (z >> 31)));
  }
  return ids;
}

ShardRouter make_router(int shards, int virtual_nodes = 64) {
  ShardRouterConfig config;
  config.virtual_nodes = virtual_nodes;
  ShardRouter router(config);
  for (int i = 0; i < shards; ++i) router.add_shard(static_cast<std::uint32_t>(i));
  return router;
}

TEST(ShardRouterTest, EmptyRingThrows) {
  ShardRouter router;
  EXPECT_THROW((void)router.route(1), std::logic_error);
}

TEST(ShardRouterTest, InvalidVirtualNodesThrows) {
  ShardRouterConfig config;
  config.virtual_nodes = 0;
  EXPECT_THROW(ShardRouter router(config), std::invalid_argument);
}

TEST(ShardRouterTest, RoutingIsDeterministic) {
  auto a = make_router(4);
  auto b = make_router(4);
  for (const auto id : fuzz_ids(1000)) {
    EXPECT_EQ(a.route(id), b.route(id));
  }
}

TEST(ShardRouterTest, DistributionIsUniformChiSquare) {
  // The null here is NOT multinomial sampling noise: a consistent-hash
  // ring gives each shard a fixed total arc length, so per-shard counts
  // converge to the arc fractions as kKeys grows and the raw chi2
  // statistic grows linearly with kKeys. The scale-free quantity is
  // chi2/kKeys = sum (p_i - 1/N)^2 / (1/N), the squared relative share
  // imbalance. With 512 vnodes/shard the arc-share relative std is
  // ~1/sqrt(512) = 4.4%, giving chi2/kKeys around 0.002; 0.01 (≈ 5% RMS
  // imbalance) is a loose-but-meaningful uniformity bar.
  constexpr int kShards = 4;
  constexpr std::size_t kKeys = 100000;
  auto router = make_router(kShards, /*virtual_nodes=*/512);
  std::map<std::uint32_t, double> counts;
  for (const auto id : fuzz_ids(kKeys)) counts[router.route(id)] += 1;
  ASSERT_EQ(counts.size(), kShards) << "some shard owns no keys at all";
  const double expected = static_cast<double>(kKeys) / kShards;
  double chi2 = 0.0;
  for (const auto& [shard, observed] : counts) {
    const double d = observed - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2 / static_cast<double>(kKeys), 0.01)
      << "key distribution is badly skewed: chi2=" << chi2;
  // At the default 64 vnodes the shares are lumpier (~12% rel std) but no
  // shard may be wildly over/under-loaded.
  auto coarse = make_router(kShards);
  std::map<std::uint32_t, double> coarse_counts;
  for (const auto id : fuzz_ids(kKeys)) {
    coarse_counts[coarse.route(id)] += 1;
  }
  ASSERT_EQ(coarse_counts.size(), kShards);
  for (const auto& [shard, observed] : coarse_counts) {
    EXPECT_GT(observed, expected * 0.5) << "shard " << shard << " starved";
    EXPECT_LT(observed, expected * 1.5) << "shard " << shard << " overloaded";
  }
}

TEST(ShardRouterTest, AddShardMovesOnlyOntoNewShardAndFewKeys) {
  constexpr std::size_t kKeys = 20000;
  constexpr int kShards = 4;
  auto router = make_router(kShards);
  const auto ids = fuzz_ids(kKeys);
  std::map<sim::TagId, std::uint32_t> before;
  for (const auto id : ids) before[id] = router.route(id);

  router.add_shard(kShards);
  std::size_t moved = 0;
  for (const auto id : ids) {
    const auto now = router.route(id);
    if (now != before.at(id)) {
      // Exact consistent-hash property: a key only ever moves ONTO the
      // added shard; keys between untouched ring points cannot move.
      EXPECT_EQ(now, static_cast<std::uint32_t>(kShards));
      ++moved;
    }
  }
  // Ideal share is K/(N+1) = 4000; allow vnode variance headroom.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, static_cast<std::size_t>(kKeys / (kShards + 1) * 1.75));
}

TEST(ShardRouterTest, RemoveShardMovesOnlyRemovedShardsKeys) {
  constexpr std::size_t kKeys = 20000;
  auto router = make_router(4);
  const auto ids = fuzz_ids(kKeys);
  std::map<sim::TagId, std::uint32_t> before;
  for (const auto id : ids) before[id] = router.route(id);

  constexpr std::uint32_t kRemoved = 2;
  router.remove_shard(kRemoved);
  EXPECT_FALSE(router.has_shard(kRemoved));
  for (const auto id : ids) {
    const auto now = router.route(id);
    if (before.at(id) == kRemoved) {
      EXPECT_NE(now, kRemoved);
    } else {
      // Exact: survivors keep every key they had.
      EXPECT_EQ(now, before.at(id));
    }
  }
}

}  // namespace
}  // namespace vire::service
