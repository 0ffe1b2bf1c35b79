// The key every per-pair store indexes by: src in bits 24 and up, dst in
// a 20-bit field at bit 4, the family in bit 0. Ascending keys order
// pairs by (src, dst, family), and `key % n_shards` names a pair's
// shard, so the packing is part of the deterministic-merge contract
// (DESIGN.md section 9) and must not change.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/ip.h"
#include "simnet/events.h"
#include "topology/topology.h"

namespace s2s::core {

/// Largest dst id the key can hold. A larger one would carry into the
/// src field and alias pair (src + 1, ...), so stores drop and tally it.
inline constexpr topology::ServerId kMaxPairKeyDst = 0xFFFFF;

/// nullopt when `dst` exceeds kMaxPairKeyDst.
inline std::optional<std::uint64_t> pack_pair_key(topology::ServerId src,
                                                  topology::ServerId dst,
                                                  net::Family family) {
  if (dst > kMaxPairKeyDst) return std::nullopt;
  return (std::uint64_t{src} << 24) | (std::uint64_t{dst} << 4) |
         (family == net::Family::kIPv6 ? 1u : 0u);
}

inline simnet::PairKey unpack_pair_key(std::uint64_t key) {
  return {static_cast<topology::ServerId>(key >> 24),
          static_cast<topology::ServerId>((key >> 4) & kMaxPairKeyDst),
          (key & 1u) ? net::Family::kIPv6 : net::Family::kIPv4};
}

/// The per-pair store lookups over a key -> value map.
template <typename Map>
const typename Map::mapped_type* find_pair(const Map& pairs,
                                           topology::ServerId src,
                                           topology::ServerId dst,
                                           net::Family family) {
  const auto key = pack_pair_key(src, dst, family);
  if (!key) return nullptr;
  const auto it = pairs.find(*key);
  return it == pairs.end() ? nullptr : &it->second;
}

/// Visits every pair as fn(src, dst, family, value), in map order.
template <typename Map, typename Fn>
void visit_pairs(const Map& pairs, const Fn& fn) {
  for (const auto& [k, value] : pairs) {
    const simnet::PairKey p = unpack_pair_key(k);
    fn(p.src, p.dst, p.family, value);
  }
}

/// Visits the pairs whose key falls in `shard` (key % n_shards) in
/// ascending key order, independent of hash-map layout.
template <typename Map, typename Fn>
void visit_shard(const Map& pairs, std::size_t shard, std::size_t n_shards,
                 const Fn& fn) {
  std::vector<std::pair<std::uint64_t, const typename Map::mapped_type*>> keys;
  for (const auto& [k, value] : pairs) {
    if (k % n_shards == shard) keys.emplace_back(k, &value);
  }
  std::sort(keys.begin(), keys.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [k, value] : keys) {
    const simnet::PairKey p = unpack_pair_key(k);
    fn(p.src, p.dst, p.family, *value);
  }
}

}  // namespace s2s::core
