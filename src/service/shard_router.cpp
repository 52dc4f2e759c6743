#include "service/shard_router.h"

#include <stdexcept>

#include "support/rng.h"

namespace vire::service {

ShardRouter::ShardRouter(ShardRouterConfig config) : config_(config) {
  if (config_.virtual_nodes <= 0) {
    throw std::invalid_argument("ShardRouter: virtual_nodes must be positive");
  }
}

std::uint64_t ShardRouter::point_hash(std::uint32_t shard, int vnode) const noexcept {
  // Two splitmix64 rounds over (seed, shard, vnode) — a pure function, so a
  // shard re-added after removal lands on exactly the points it held before.
  std::uint64_t state = config_.seed ^ (static_cast<std::uint64_t>(shard) << 32 |
                                        static_cast<std::uint64_t>(vnode));
  const std::uint64_t first = support::splitmix64(state);
  state = first;
  return support::splitmix64(state);
}

std::uint64_t ShardRouter::key_hash(sim::TagId tag) const noexcept {
  std::uint64_t state = config_.seed ^ 0x9e3779b97f4a7c15ULL ^
                        static_cast<std::uint64_t>(tag);
  return support::splitmix64(state);
}

void ShardRouter::add_shard(std::uint32_t shard) {
  if (!members_.insert(shard).second) return;
  for (int v = 0; v < config_.virtual_nodes; ++v) {
    // emplace keeps the first owner on the (astronomically unlikely) 64-bit
    // point collision; the losing shard simply fields one fewer point.
    ring_.emplace(point_hash(shard, v), shard);
  }
}

void ShardRouter::remove_shard(std::uint32_t shard) {
  if (members_.erase(shard) == 0) return;
  for (auto it = ring_.begin(); it != ring_.end();) {
    it = it->second == shard ? ring_.erase(it) : std::next(it);
  }
}

std::vector<std::uint32_t> ShardRouter::shards() const {
  return {members_.begin(), members_.end()};
}

std::uint32_t ShardRouter::route(sim::TagId tag) const {
  if (ring_.empty()) {
    throw std::logic_error("ShardRouter::route: no shards on the ring");
  }
  const auto it = ring_.lower_bound(key_hash(tag));
  return it == ring_.end() ? ring_.begin()->second : it->second;
}

}  // namespace vire::service
