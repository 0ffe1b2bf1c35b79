#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "bgp/relationships.h"
#include "bgp/rib.h"
#include "stats/rng.h"
#include "topology/generator.h"

namespace s2s::bgp {
namespace {

TEST(Rib, LongestPrefixMatchWins) {
  Rib rib;
  rib.insert(*net::Prefix4::parse("10.0.0.0/8"), net::Asn(100));
  rib.insert(*net::Prefix4::parse("10.1.0.0/16"), net::Asn(200));
  rib.insert(*net::Prefix4::parse("10.1.2.0/24"), net::Asn(300));
  EXPECT_EQ(rib.origin(*net::IPv4Addr::parse("10.1.2.3")), net::Asn(300));
  EXPECT_EQ(rib.origin(*net::IPv4Addr::parse("10.1.3.3")), net::Asn(200));
  EXPECT_EQ(rib.origin(*net::IPv4Addr::parse("10.9.9.9")), net::Asn(100));
  EXPECT_FALSE(rib.origin(*net::IPv4Addr::parse("11.0.0.1")).has_value());
  EXPECT_EQ(rib.size4(), 3u);
}

TEST(Rib, DefaultRouteAndHostRoute) {
  Rib rib;
  rib.insert(net::Prefix4(net::IPv4Addr(0), 0), net::Asn(1));
  rib.insert(net::Prefix4(net::IPv4Addr(1, 2, 3, 4), 32), net::Asn(2));
  EXPECT_EQ(rib.origin(net::IPv4Addr(1, 2, 3, 4)), net::Asn(2));
  EXPECT_EQ(rib.origin(net::IPv4Addr(1, 2, 3, 5)), net::Asn(1));
  EXPECT_EQ(rib.origin(net::IPv4Addr(0xFFFFFFFFu)), net::Asn(1));
}

TEST(Rib, OverwriteSamePrefix) {
  Rib rib;
  rib.insert(*net::Prefix4::parse("10.0.0.0/8"), net::Asn(1));
  rib.insert(*net::Prefix4::parse("10.0.0.0/8"), net::Asn(2));
  EXPECT_EQ(rib.origin(net::IPv4Addr(10, 0, 0, 1)), net::Asn(2));
  EXPECT_EQ(rib.size4(), 1u);
}

TEST(Rib, LongestPrefixMatchV6) {
  Rib rib;
  rib.insert(*net::Prefix6::parse("2001:db8::/32"), net::Asn(10));
  rib.insert(*net::Prefix6::parse("2001:db8:1::/48"), net::Asn(20));
  EXPECT_EQ(rib.origin(*net::IPv6Addr::parse("2001:db8:1::5")), net::Asn(20));
  EXPECT_EQ(rib.origin(*net::IPv6Addr::parse("2001:db8:2::5")), net::Asn(10));
  EXPECT_FALSE(rib.origin(*net::IPv6Addr::parse("2001:db9::1")).has_value());
}

// Property check: the range table answers every probe exactly like a
// brute-force scan for the longest covering prefix, over random prefix
// sets with /0, host routes, nested prefixes and re-inserts. Probes sit
// on both sides of every prefix edge (lo - 1, lo, hi, hi + 1).
using U128 = unsigned __int128;

template <int Bits>
struct Family;
template <>
struct Family<32> {
  static net::Prefix4 prefix(U128 lo, int len) {
    return net::Prefix4(net::IPv4Addr(static_cast<std::uint32_t>(lo)), len);
  }
  static net::IPv4Addr addr(U128 key) {
    return net::IPv4Addr(static_cast<std::uint32_t>(key));
  }
  static std::size_t size(const Rib& rib) { return rib.size4(); }
};
template <>
struct Family<128> {
  static net::Prefix6 prefix(U128 lo, int len) { return {addr(lo), len}; }
  static net::IPv6Addr addr(U128 key) {
    return net::IPv6Addr::from_halves(static_cast<std::uint64_t>(key >> 64),
                                      static_cast<std::uint64_t>(key));
  }
  static std::size_t size(const Rib& rib) { return rib.size6(); }
};

template <int Bits>
void check_against_brute_force(std::uint64_t seed) {
  const U128 top = Bits == 128 ? ~U128{0} : (U128{1} << Bits) - 1;
  const auto host_bits = [&](int len) -> U128 {
    return len == Bits ? 0 : top >> len;
  };
  stats::Rng rng(seed);
  const auto random_key = [&] { return ((U128{rng()} << 64) | rng()) & top; };

  Rib rib;
  std::map<std::pair<U128, int>, std::uint32_t> reference;  // last wins
  std::vector<std::pair<U128, int>> order;
  std::uint32_t next_origin = 1;
  const auto announce = [&](U128 key, int len) {
    const U128 lo = key & ~host_bits(len) & top;
    rib.insert(Family<Bits>::prefix(lo, len), net::Asn(next_origin));
    reference[{lo, len}] = next_origin++;
    order.emplace_back(lo, len);
  };
  for (int i = 0; i < 300; ++i) {
    const auto kind = rng() % 10;
    if (i == 150) {
      announce(0, 0);  // default route, after some longer prefixes
    } else if (kind < 4 && !order.empty()) {
      // Nested: a longer prefix inside an announced one.
      const auto [lo, len] = order[rng() % order.size()];
      const int sub = len + static_cast<int>(rng() % (Bits - len + 1));
      announce(lo | (random_key() & host_bits(len)), sub);
    } else if (kind < 5 && !order.empty()) {
      const auto [lo, len] = order[rng() % order.size()];
      announce(lo, len);  // re-insert: overwrites the origin
    } else if (kind < 6) {
      announce(random_key(), Bits);  // host route
    } else {
      announce(random_key(), static_cast<int>(rng() % (Bits + 1)));
    }
  }

  const auto expected = [&](U128 key) -> std::optional<net::Asn> {
    int best = -1;
    std::uint32_t origin = 0;
    for (const auto& [prefix, value] : reference) {
      const auto [lo, len] = prefix;
      if (len > best && (key & ~host_bits(len) & top) == lo) {
        best = len;
        origin = value;
      }
    }
    if (best < 0) return std::nullopt;
    return net::Asn(origin);
  };
  std::vector<U128> probes;
  for (const auto& [prefix, value] : reference) {
    const auto [lo, len] = prefix;
    const U128 hi = lo | host_bits(len);
    if (lo > 0) probes.push_back(lo - 1);
    probes.push_back(lo);
    probes.push_back(hi);
    if (hi < top) probes.push_back(hi + 1);
  }
  for (int i = 0; i < 1000; ++i) probes.push_back(random_key());
  for (const U128 key : probes) {
    ASSERT_EQ(rib.origin(Family<Bits>::addr(key)), expected(key))
        << Family<Bits>::addr(key);
  }
  EXPECT_EQ(Family<Bits>::size(rib), reference.size());
}

TEST(Rib, MatchesBruteForceV4) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    check_against_brute_force<32>(seed);
  }
}

TEST(Rib, MatchesBruteForceV6) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    check_against_brute_force<128>(seed);
  }
}

TEST(Rib, ExcludesUnannouncedPrefixes) {
  topology::GeneratorConfig cfg;
  cfg.seed = 9;
  cfg.tier1_count = 5;
  cfg.transit_count = 20;
  cfg.stub_count = 60;
  cfg.server_count = 20;
  cfg.unannounced_ixp_fraction = 1.0;  // every IXP LAN hidden
  const auto topo = topology::generate(cfg);
  const Rib rib = Rib::from_topology(topo);
  std::size_t hidden = 0;
  for (const auto& entry : topo.prefixes4) {
    const net::IPv4Addr probe(entry.prefix.address().value() + 1);
    const auto origin = rib.origin(probe);
    if (entry.announced) {
      ASSERT_TRUE(origin.has_value());
    } else {
      // Must not resolve to the hidden prefix's origin via this prefix:
      // either unmapped or covered by a shorter announced prefix (none in
      // our plan, so unmapped).
      EXPECT_FALSE(origin.has_value());
      ++hidden;
    }
  }
  EXPECT_GT(hidden, 0u);
}

TEST(Rib, DispatchesFamilies) {
  Rib rib;
  rib.insert(*net::Prefix4::parse("10.0.0.0/8"), net::Asn(64500));
  rib.insert(*net::Prefix6::parse("2001:db8::/32"), net::Asn(64501));
  EXPECT_EQ(rib.origin(*net::IPAddr::parse("10.1.1.1")), net::Asn(64500));
  EXPECT_EQ(rib.origin(*net::IPAddr::parse("2001:db8::1")), net::Asn(64501));
  EXPECT_FALSE(rib.origin(*net::IPAddr::parse("192.0.2.1")).has_value());
  EXPECT_EQ(rib.size4(), 1u);
  EXPECT_EQ(rib.size6(), 1u);
}

TEST(RelationshipTable, SymmetricViews) {
  RelationshipTable table;
  table.add(net::Asn(1), net::Asn(2), Rel::kCustomer);
  table.add(net::Asn(3), net::Asn(4), Rel::kPeer);
  EXPECT_EQ(table.rel(net::Asn(1), net::Asn(2)), Rel::kCustomer);
  EXPECT_EQ(table.rel(net::Asn(2), net::Asn(1)), Rel::kProvider);
  EXPECT_TRUE(table.are_peers(net::Asn(3), net::Asn(4)));
  EXPECT_TRUE(table.are_peers(net::Asn(4), net::Asn(3)));
  EXPECT_FALSE(table.rel(net::Asn(1), net::Asn(3)).has_value());
  EXPECT_TRUE(table.is_customer_of(net::Asn(1), net::Asn(2)));
  EXPECT_TRUE(table.is_provider_of(net::Asn(2), net::Asn(1)));
}

TEST(RelationshipTable, FromTopologyMatchesGroundTruth) {
  topology::GeneratorConfig cfg;
  cfg.seed = 10;
  cfg.tier1_count = 5;
  cfg.transit_count = 20;
  cfg.stub_count = 60;
  cfg.server_count = 10;
  const auto topo = topology::generate(cfg);
  const auto table = RelationshipTable::from_topology(topo);
  EXPECT_EQ(table.size(), topo.adjacencies.size());
  for (const auto& adj : topo.adjacencies) {
    const auto a = topo.ases[adj.a].asn;
    const auto b = topo.ases[adj.b].asn;
    if (adj.rel == topology::Relationship::kCustomerToProvider) {
      EXPECT_TRUE(table.is_customer_of(a, b));
    } else {
      EXPECT_TRUE(table.are_peers(a, b));
    }
  }
}

TEST(RelationshipTable, PerturbDropsAndFlips) {
  topology::GeneratorConfig cfg;
  cfg.seed = 11;
  cfg.tier1_count = 5;
  cfg.transit_count = 20;
  cfg.stub_count = 60;
  cfg.server_count = 10;
  const auto topo = topology::generate(cfg);
  auto table = RelationshipTable::from_topology(topo);
  const std::size_t before = table.size();
  stats::Rng rng(3);
  table.perturb(rng, /*flip_prob=*/0.1, /*drop_prob=*/0.1);
  EXPECT_LT(table.size(), before);
  EXPECT_GT(table.size(), before / 2);
  // Some relationships must now disagree with ground truth.
  std::size_t flipped = 0;
  for (const auto& adj : topo.adjacencies) {
    const auto rel = table.rel(topo.ases[adj.a].asn, topo.ases[adj.b].asn);
    if (!rel) continue;
    const bool truth_c2p =
        adj.rel == topology::Relationship::kCustomerToProvider;
    if (truth_c2p != (*rel == Rel::kCustomer)) ++flipped;
  }
  EXPECT_GT(flipped, 0u);
}

}  // namespace
}  // namespace s2s::bgp
