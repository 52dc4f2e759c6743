#pragma once
// ShardRouter: deterministic tag -> shard routing for the sharded
// localization service (docs/service.md).
//
// The core is a consistent-hash ring: each shard contributes
// `virtual_nodes` points on a 64-bit ring (splitmix64 of (seed, shard,
// vnode)), and a tag routes to the first point clockwise of its own hash.
// Consistent hashing gives the minimal-movement property the rebalancer
// depends on: adding a shard to an N+1-way ring moves only ~K/(N+1) of K
// keys (all of them onto the new shard), and removing a shard moves only
// the keys it owned. tests/service/shard_router_test.cpp locks both
// properties plus a chi-square uniformity bound.
//
// The ring is the only rule: a tag's zone is a caller's label carried on
// the wire and in the journals, never a routing input.
//
// Routing is a pure function of (configuration, membership), never of call
// order — the determinism contract extends through the service layer.

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "sim/types.h"

namespace vire::service {

struct ShardRouterConfig {
  /// Ring points per shard. More points flatten the key distribution
  /// (variance ~ 1/sqrt(virtual_nodes)) at the cost of a bigger ring map.
  int virtual_nodes = 64;
  /// Salt mixed into every ring-point and key hash, so two services with
  /// different seeds shard the same tag population differently.
  std::uint64_t seed = 0x5eed5eed5eed5eedULL;
};

class ShardRouter {
 public:
  explicit ShardRouter(ShardRouterConfig config = {});

  /// Membership. Adding an existing shard / removing an absent one is a
  /// no-op. add_shard throws std::invalid_argument on virtual_nodes <= 0
  /// (checked at construction time too).
  void add_shard(std::uint32_t shard);
  void remove_shard(std::uint32_t shard);
  [[nodiscard]] bool has_shard(std::uint32_t shard) const noexcept {
    return members_.count(shard) != 0;
  }
  /// Member shard ids, ascending.
  [[nodiscard]] std::vector<std::uint32_t> shards() const;
  [[nodiscard]] std::size_t shard_count() const noexcept { return members_.size(); }

  /// Owner of `tag`: the first ring point clockwise of its hash. Throws
  /// std::logic_error when the ring is empty.
  [[nodiscard]] std::uint32_t route(sim::TagId tag) const;

  [[nodiscard]] const ShardRouterConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] std::uint64_t point_hash(std::uint32_t shard, int vnode) const noexcept;
  [[nodiscard]] std::uint64_t key_hash(sim::TagId tag) const noexcept;

  ShardRouterConfig config_;
  /// ring point -> shard id. A std::map keeps lookup O(log n) and iteration
  /// deterministic; collisions are resolved by probing to the next free
  /// point, which is stable because membership changes rebuild ring points
  /// from the same pure hashes.
  std::map<std::uint64_t, std::uint32_t> ring_;
  std::set<std::uint32_t> members_;
};

}  // namespace vire::service
