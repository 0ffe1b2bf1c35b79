// BGP routing-information-base view: IP -> origin-AS mapping.
//
// Built from the topology's address plan, including only *announced*
// prefixes — unannounced infrastructure space (IXP LANs, internal blocks)
// correctly yields "no mapping", reproducing the paper's
// "missing AS-level data" rows in Table 1.
//
// The paper maps every traceroute hop to "the origin AS of the longest
// matching prefix observed in BGP". Each family's address space is kept
// as a flat, sorted table of disjoint ranges, each holding the origin of
// its longest covering prefix, so a lookup is one binary search.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "net/asn.h"
#include "net/ip.h"
#include "net/prefix.h"
#include "topology/topology.h"

namespace s2s::bgp {

/// Disjoint ranges [starts_[i], starts_[i + 1]) covering the whole key
/// space of `Bits`-bit addresses; each carries the origin and length of
/// its longest covering prefix (length -1: no covering prefix).
template <typename Key, int Bits>
class RangeTable {
 public:
  /// Announces the `length`-bit prefix at `lo`: every range inside it
  /// whose current prefix is no longer takes `origin`, so the same
  /// prefix again overwrites.
  void insert(Key lo, int length, net::Asn origin) {
    prefixes_.emplace(lo, length);
    const Key hi = lo | (length == Bits ? Key{0} : ~Key{0} >> length);
    const std::size_t first = split(lo);
    const std::size_t last = hi == ~Key{0} ? starts_.size() : split(hi + 1);
    for (std::size_t i = first; i < last; ++i) {
      if (slots_[i].length <= length) slots_[i] = {origin, length};
    }
  }

  std::optional<net::Asn> find(Key key) const {
    // starts_[0] == 0, so the range holding `key` always exists.
    const auto i = static_cast<std::size_t>(
        std::upper_bound(starts_.begin(), starts_.end(), key) -
        starts_.begin() - 1);
    if (slots_[i].length < 0) return std::nullopt;
    return slots_[i].origin;
  }

  /// Distinct prefixes inserted.
  std::size_t size() const noexcept { return prefixes_.size(); }

 private:
  struct Slot {
    net::Asn origin;
    int length = -1;
  };

  /// Index of the range starting at `key`, splitting its holder if needed.
  std::size_t split(Key key) {
    const auto it = std::upper_bound(starts_.begin(), starts_.end(), key);
    const auto i = static_cast<std::size_t>(it - starts_.begin());
    if (starts_[i - 1] == key) return i - 1;
    starts_.insert(it, key);
    slots_.insert(slots_.begin() + static_cast<std::ptrdiff_t>(i),
                  slots_[i - 1]);
    return i;
  }

  std::vector<Key> starts_{Key{0}};
  std::vector<Slot> slots_{Slot{}};
  std::set<std::pair<Key, int>> prefixes_;
};

class Rib {
 public:
  Rib() = default;

  /// Loads every announced prefix from the topology.
  static Rib from_topology(const topology::Topology& topo);

  /// Same prefix again overwrites its origin.
  void insert(const net::Prefix4& prefix, net::Asn origin) {
    v4_.insert(prefix.address().value(), prefix.length(), origin);
  }
  void insert(const net::Prefix6& prefix, net::Asn origin) {
    v6_.insert(key6(prefix.address()), prefix.length(), origin);
  }

  /// Origin AS of the longest matching announced prefix; nullopt when the
  /// address is not covered (the paper's unmapped-hop case).
  std::optional<net::Asn> origin(const net::IPAddr& addr) const;
  std::optional<net::Asn> origin(net::IPv4Addr addr) const {
    return v4_.find(addr.value());
  }
  std::optional<net::Asn> origin(const net::IPv6Addr& addr) const {
    return v6_.find(key6(addr));
  }

  std::size_t size4() const noexcept { return v4_.size(); }
  std::size_t size6() const noexcept { return v6_.size(); }

 private:
  using Key6 = unsigned __int128;
  static Key6 key6(const net::IPv6Addr& addr) {
    return (Key6{addr.hi()} << 64) | addr.lo();
  }

  RangeTable<std::uint32_t, 32> v4_;
  RangeTable<Key6, 128> v6_;
};

}  // namespace s2s::bgp
