#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <set>

#include "bgp/rib.h"
#include "core/congestion_detect.h"
#include "core/localize.h"
#include "core/pair_key.h"
#include "core/segment_series.h"
#include "core/timeline.h"
#include "stats/rng.h"
#include "topology/generator.h"

namespace s2s::core {
namespace {

using net::IPAddr;
using net::IPv4Addr;

std::vector<double> diurnal_series(double base, double amplitude,
                                   double noise_sigma, int days,
                                   int per_day, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> out;
  for (int i = 0; i < days * per_day; ++i) {
    const double hour = 24.0 * (i % per_day) / per_day;
    out.push_back(base +
                  amplitude * std::exp(-std::pow(hour - 20.0, 2) / 10.0) +
                  rng.normal(0, noise_sigma));
  }
  return out;
}

TEST(AssessSeries, FlagsDiurnalCongestion) {
  const auto series = diurnal_series(80, 25, 0.5, 7, 96, 1);
  const auto verdict = assess_series(series, 96.0);
  EXPECT_TRUE(verdict.high_variation);
  EXPECT_TRUE(verdict.strong_diurnal);
  EXPECT_TRUE(verdict.consistent_congestion());
  EXPECT_GT(verdict.variation_ms, 10.0);
}

TEST(AssessSeries, QuietSeriesNotFlagged) {
  const auto series = diurnal_series(80, 0.0, 0.5, 7, 96, 2);
  const auto verdict = assess_series(series, 96.0);
  EXPECT_FALSE(verdict.high_variation);
  EXPECT_FALSE(verdict.consistent_congestion());
}

TEST(AssessSeries, NoisyButNotDiurnalFailsRatioTest) {
  stats::Rng rng(3);
  std::vector<double> series;
  for (int i = 0; i < 7 * 96; ++i) series.push_back(80 + rng.normal(0, 15));
  const auto verdict = assess_series(series, 96.0);
  EXPECT_TRUE(verdict.high_variation);
  EXPECT_FALSE(verdict.strong_diurnal);
  EXPECT_FALSE(verdict.consistent_congestion());
}

TEST(AssessSeries, SmallDiurnalBelowVariationThreshold) {
  // Clean diurnal shape but < 10ms swing: strong ratio, not flagged.
  const auto series = diurnal_series(80, 4.0, 0.1, 7, 96, 4);
  const auto verdict = assess_series(series, 96.0);
  EXPECT_TRUE(verdict.strong_diurnal);
  EXPECT_FALSE(verdict.high_variation);
  EXPECT_FALSE(verdict.consistent_congestion());
}

TEST(PingSeriesStore, AccumulatesOnGrid) {
  PingSeriesStore store(0.0, net::kFifteenMinutes, 96);
  probe::PingRecord rec;
  rec.src = 1;
  rec.dst = 2;
  rec.family = net::Family::kIPv4;
  rec.success = true;
  rec.time = net::SimTime(30 * 60);  // epoch 2
  rec.rtt_ms = 42.5;
  store.add(rec);
  rec.success = false;
  rec.time = net::SimTime(45 * 60);
  store.add(rec);  // failed ping ignored
  const auto* series = store.find(1, 2, net::Family::kIPv4);
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->valid, 1u);
  EXPECT_EQ(series->rtt_tenths[2], 425);
  EXPECT_EQ(series->rtt_tenths[3], PingSeriesStore::kMissing);
}

TEST(PingSeriesStore, InterpolationFillsGaps) {
  PingSeriesStore::Series series;
  series.rtt_tenths = {PingSeriesStore::kMissing, 100,
                       PingSeriesStore::kMissing, 300,
                       PingSeriesStore::kMissing};
  series.valid = 2;
  const auto ms = PingSeriesStore::to_ms_interpolated(series);
  ASSERT_EQ(ms.size(), 5u);
  EXPECT_DOUBLE_EQ(ms[0], 10.0);  // leading gap copies first valid
  EXPECT_DOUBLE_EQ(ms[1], 10.0);
  EXPECT_DOUBLE_EQ(ms[2], 20.0);  // midpoint of 10 and 30
  EXPECT_DOUBLE_EQ(ms[3], 30.0);
  EXPECT_DOUBLE_EQ(ms[4], 30.0);  // trailing gap copies last valid
}

TEST(SurveyCongestion, CountsPerFamily) {
  const int epochs = 7 * 96;
  PingSeriesStore store(0.0, net::kFifteenMinutes, epochs);
  auto feed = [&](topology::ServerId src, net::Family fam,
                  const std::vector<double>& series) {
    probe::PingRecord rec;
    rec.src = src;
    rec.dst = 99;
    rec.family = fam;
    rec.success = true;
    for (int i = 0; i < epochs; ++i) {
      rec.time = net::SimTime(static_cast<std::int64_t>(i) * 900);
      rec.rtt_ms = series[static_cast<std::size_t>(i)];
      store.add(rec);
    }
  };
  feed(1, net::Family::kIPv4, diurnal_series(80, 25, 0.5, 7, 96, 5));
  feed(2, net::Family::kIPv4, diurnal_series(80, 0, 0.5, 7, 96, 6));
  feed(3, net::Family::kIPv6, diurnal_series(80, 30, 1.0, 7, 96, 7));

  const auto survey = survey_congestion(store);
  EXPECT_EQ(survey.v4.pairs_assessed, 2u);
  EXPECT_EQ(survey.v4.consistent, 1u);
  EXPECT_EQ(survey.v6.consistent, 1u);
  ASSERT_EQ(survey.flagged.size(), 2u);
}

// ---- segment localization ------------------------------------------------

IPAddr addr(int i) {
  return IPAddr(IPv4Addr(10, 0, 0, static_cast<std::uint8_t>(i)));
}
IPAddr rev_addr(int i) {
  return IPAddr(IPv4Addr(10, 0, 1, static_cast<std::uint8_t>(i)));
}

// Builds a symmetric pair of segment series with a diurnal bump injected
// at hop `congested_hop` (and correspondingly in the reverse direction).
void build_store(SegmentSeriesStore& store, int hops, int congested_hop,
                 int days, int per_day, std::uint64_t seed) {
  stats::Rng rng(seed);
  const int epochs = days * per_day;
  for (int e = 0; e < epochs; ++e) {
    const double hour = 24.0 * (e % per_day) / per_day;
    const double bump =
        25.0 * std::exp(-std::pow(hour - 20.0, 2) / 10.0);
    auto make = [&](bool forward) {
      probe::TracerouteRecord rec;
      rec.src = forward ? 1 : 2;
      rec.dst = forward ? 2 : 1;
      rec.family = net::Family::kIPv4;
      rec.complete = true;
      rec.time = net::SimTime(static_cast<std::int64_t>(e) * 1800);
      for (int h = 0; h < hops; ++h) {
        probe::Hop hop;
        const int label = forward ? h : hops - 1 - h;
        hop.addr = forward ? addr(label) : rev_addr(label);
        double rtt = 10.0 * (h + 1) + rng.normal(0, 0.2);
        // Hops at or beyond the congested link carry the bump. In reverse
        // the same physical link sits at index hops-1-congested_hop.
        const int bump_at = forward ? congested_hop : hops - congested_hop;
        if (h >= bump_at) rtt += bump;
        hop.rtt_ms = rtt;
        rec.hops.push_back(hop);
      }
      probe::Hop last;
      last.addr = forward ? addr(99) : rev_addr(99);
      last.rtt_ms = 10.0 * (hops + 1) + bump + rng.normal(0, 0.3);
      rec.hops.push_back(last);
      store.add(rec);
    };
    make(true);
    make(false);
  }
}

TEST(LocalizeCongestion, FindsInjectedSegment) {
  const int days = 14, per_day = 48, hops = 6, congested = 3;
  SegmentSeriesStore store(0.0, 1800, days * per_day);
  build_store(store, hops, congested, days, per_day, 8);

  LocalizeConfig cfg;
  cfg.require_symmetric_as_paths = false;  // synthetic addresses, no RIB
  cfg.min_traces = 10;
  bgp::Rib empty_rib;
  const auto result = localize_congestion(store, empty_rib, cfg);
  EXPECT_EQ(result.pairs_considered, 2u);
  EXPECT_EQ(result.pairs_persistent, 2u);
  ASSERT_EQ(result.segments.size(), 2u);
  for (const auto& seg : result.segments) {
    const bool forward = seg.src == 1;
    EXPECT_EQ(seg.segment_index,
              static_cast<std::size_t>(forward ? congested
                                               : hops - congested));
    EXPECT_GE(seg.rho, 0.5);
    EXPECT_NEAR(seg.overhead_ms, 25.0, 8.0);
  }
}

TEST(LocalizeCongestion, QuietPairNotLocalized) {
  const int days = 14, per_day = 48;
  SegmentSeriesStore store(0.0, 1800, days * per_day);
  stats::Rng rng(9);
  for (int e = 0; e < days * per_day; ++e) {
    probe::TracerouteRecord rec;
    rec.src = 5;
    rec.dst = 6;
    rec.family = net::Family::kIPv4;
    rec.complete = true;
    rec.time = net::SimTime(static_cast<std::int64_t>(e) * 1800);
    for (int h = 0; h < 4; ++h) {
      rec.hops.push_back({addr(h), 10.0 * (h + 1) + rng.normal(0, 0.2)});
    }
    store.add(rec);
  }
  LocalizeConfig cfg;
  cfg.require_symmetric_as_paths = false;
  cfg.min_traces = 10;
  bgp::Rib rib;
  const auto result = localize_congestion(store, rib, cfg);
  EXPECT_TRUE(result.segments.empty());
  EXPECT_EQ(result.pairs_persistent, 0u);
}

TEST(SegmentSeriesStore, DetectsNonStaticPaths) {
  SegmentSeriesStore store(0.0, 1800, 10);
  probe::TracerouteRecord rec;
  rec.src = 1;
  rec.dst = 2;
  rec.family = net::Family::kIPv4;
  rec.complete = true;
  rec.time = net::SimTime(0);
  rec.hops = {{addr(1), 1.0}, {addr(2), 2.0}, {addr(99), 3.0}};
  store.add(rec);
  rec.time = net::SimTime(1800);
  rec.hops = {{addr(1), 1.0}, {addr(7), 2.0}, {addr(99), 3.0}};  // changed
  store.add(rec);
  const auto* series = store.find(1, 2, net::Family::kIPv4);
  ASSERT_NE(series, nullptr);
  EXPECT_FALSE(series->ip_static);
}

TEST(SegmentSeriesStore, UnresponsiveHopsAreWildcards) {
  SegmentSeriesStore store(0.0, 1800, 10);
  probe::TracerouteRecord rec;
  rec.src = 1;
  rec.dst = 2;
  rec.family = net::Family::kIPv4;
  rec.complete = true;
  rec.time = net::SimTime(0);
  rec.hops = {{addr(1), 1.0}, {std::nullopt, 0.0}, {addr(99), 3.0}};
  store.add(rec);
  rec.time = net::SimTime(1800);
  rec.hops = {{addr(1), 1.0}, {addr(2), 2.0}, {addr(99), 3.0}};
  store.add(rec);
  const auto* series = store.find(1, 2, net::Family::kIPv4);
  ASSERT_NE(series, nullptr);
  EXPECT_TRUE(series->ip_static);
  ASSERT_TRUE(series->hop_addrs[1].has_value());  // learned later
  EXPECT_EQ(*series->hop_addrs[1], addr(2));
}

TEST(PingSeriesStore, GridGrowsToLastEpochFed) {
  PingSeriesStore store(0.0, net::kFifteenMinutes, 4);
  probe::PingRecord rec;
  rec.src = 1;
  rec.dst = 2;
  rec.success = true;
  rec.rtt_ms = 10.0;
  rec.time = net::SimTime(10 * 900);
  store.add(rec);
  EXPECT_EQ(store.epochs(), 11u);
  // A failed ping past the grid still grows it, like the last epoch of a
  // campaign whose final round timed out.
  rec.success = false;
  rec.time = net::SimTime(20 * 900);
  store.add(rec);
  EXPECT_EQ(store.epochs(), 21u);
  const auto* series = store.find(1, 2, net::Family::kIPv4);
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->rtt_tenths.size(), 21u);
  EXPECT_EQ(series->rtt_tenths[10], 100);
  EXPECT_EQ(series->rtt_tenths[20], PingSeriesStore::kMissing);
  // Only epochs before the grid's start are off the grid now.
  rec.time = net::SimTime(-3600);
  store.add(rec);
  EXPECT_EQ(store.quality().out_of_grid, 1u);
  EXPECT_EQ(store.epochs(), 21u);
}

TEST(PairKey, PacksAndUnpacksTheFullRange) {
  const auto key =
      pack_pair_key(0xFFFFFFFFu, kMaxPairKeyDst, net::Family::kIPv6);
  ASSERT_TRUE(key.has_value());
  const simnet::PairKey p = unpack_pair_key(*key);
  EXPECT_EQ(p.src, 0xFFFFFFFFu);
  EXPECT_EQ(p.dst, kMaxPairKeyDst);
  EXPECT_EQ(p.family, net::Family::kIPv6);
  EXPECT_FALSE(
      pack_pair_key(0, kMaxPairKeyDst + 1, net::Family::kIPv4).has_value());
}

TEST(PairKey, DstBeyondKeyFieldNeverAliasesAnotherPair) {
  // (0, 2 + 2^20) used to pack to the key of (1, 2).
  const topology::ServerId wide = 2 + (kMaxPairKeyDst + 1);
  PingSeriesStore pings(0.0, net::kFifteenMinutes, 4);
  probe::PingRecord ping;
  ping.src = 1;
  ping.dst = 2;
  ping.success = true;
  ping.rtt_ms = 10.0;
  pings.add(ping);
  ping.src = 0;
  ping.dst = wide;
  ping.time = net::SimTime(900);
  ping.rtt_ms = 20.0;
  pings.add(ping);
  const auto* series = pings.find(1, 2, net::Family::kIPv4);
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->valid, 1u);
  EXPECT_EQ(series->rtt_tenths[1], PingSeriesStore::kMissing);
  EXPECT_EQ(pings.find(0, wide, net::Family::kIPv4), nullptr);
  EXPECT_EQ(pings.pair_count(), 1u);
  EXPECT_EQ(pings.quality().unknown_server, 1u);

  SegmentSeriesStore segments(0.0, 1800, 4);
  probe::TracerouteRecord trace;
  trace.src = 1;
  trace.dst = 2;
  trace.complete = true;
  trace.hops = {{IPAddr(IPv4Addr(10, 0, 0, 1)), 1.0},
                {IPAddr(IPv4Addr(10, 0, 0, 9)), 3.0}};
  segments.add(trace);
  trace.src = 0;
  trace.dst = wide;
  trace.time = net::SimTime(1800);
  trace.hops[0].addr = IPAddr(IPv4Addr(10, 0, 0, 7));  // would un-static
  segments.add(trace);
  const auto* seg = segments.find(1, 2, net::Family::kIPv4);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->traces, 1u);
  EXPECT_TRUE(seg->ip_static);
  EXPECT_EQ(segments.pair_count(), 1u);
  EXPECT_EQ(segments.quality().unknown_server, 1u);
}

TEST(TimelineStore, ServerOutsideTheTopologyIsDroppedAndTallied) {
  topology::GeneratorConfig cfg;
  cfg.seed = 9;
  cfg.tier1_count = 3;
  cfg.transit_count = 6;
  cfg.stub_count = 12;
  cfg.server_count = 4;
  const auto topo = topology::generate(cfg);
  const auto rib = bgp::Rib::from_topology(topo);
  TimelineStore store(topo, rib, {0.0, net::kThreeHours});
  probe::TracerouteRecord rec;
  rec.src = 7;  // a server of a larger deployment
  rec.dst = 1;
  rec.complete = true;
  rec.hops = {{IPAddr(IPv4Addr(10, 0, 0, 1)), 1.0}};
  store.add(rec);
  rec.src = 0;
  rec.dst = 2 + (kMaxPairKeyDst + 1);
  store.add(rec);
  EXPECT_EQ(store.quality().unknown_server, 2u);
  EXPECT_EQ(store.table1().v4.collected, 0u);
  EXPECT_EQ(store.timeline_count(), 0u);
}

/// The window as a deque of the last `capacity` distinct fingerprints.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(std::size_t capacity) : capacity_(capacity) {}
  bool seen_or_insert(std::uint64_t fp) {
    if (members_.count(fp) != 0) return true;
    if (order_.size() == capacity_) {
      members_.erase(order_.front());
      order_.pop_front();
    }
    order_.push_back(fp);
    members_.insert(fp);
    return false;
  }

 private:
  std::size_t capacity_;
  std::deque<std::uint64_t> order_;
  std::set<std::uint64_t> members_;
};

TEST(DedupWindow, ReDeliveryAtTheWindowEdge) {
  // A re-delivery is caught while at most capacity - 1 distinct
  // fingerprints arrived after the original.
  for (const std::size_t after : {4095u, 4096u, 4097u}) {
    DedupWindow window;
    ReferenceWindow reference(4096);
    const std::uint64_t original = 0xFEEDull;
    EXPECT_FALSE(window.seen_or_insert(original));
    reference.seen_or_insert(original);
    for (std::uint64_t i = 1; i <= after; ++i) {
      const std::uint64_t fp = i * 0x9E3779B97F4A7C15ull;
      ASSERT_EQ(window.seen_or_insert(fp), reference.seen_or_insert(fp));
    }
    const bool expected = after < 4096;
    EXPECT_EQ(reference.seen_or_insert(original), expected) << after;
    EXPECT_EQ(window.seen_or_insert(original), expected) << after;
  }
}

TEST(DedupWindow, MatchesReferenceWindow) {
  // Long random streams with re-deliveries near and past the window
  // edge; a small window over a small value range packs the probe
  // table, so evictions shift entries inside long runs.
  for (const auto& [capacity, range] :
       {std::pair<std::size_t, std::uint64_t>{4096, 0},
        std::pair<std::size_t, std::uint64_t>{8, 24}}) {
    DedupWindow window(capacity);
    ReferenceWindow reference(capacity);
    stats::Rng rng(capacity);
    std::vector<std::uint64_t> history;
    for (int i = 0; i < 60000; ++i) {
      std::uint64_t fp;
      const auto pick = rng() % 8;
      if (range != 0) {
        fp = rng() % range;  // includes 0
      } else if (pick < 3 && history.size() > capacity + 1) {
        const std::size_t back = capacity - 1 + rng() % 3;  // 4095..4097
        fp = history[history.size() - back];
      } else if (pick < 5 && !history.empty()) {
        fp = history[history.size() - 1 - rng() % history.size() % 64];
      } else {
        fp = rng();
      }
      history.push_back(fp);
      ASSERT_EQ(window.seen_or_insert(fp), reference.seen_or_insert(fp))
          << "step " << i;
    }
  }
}

}  // namespace
}  // namespace s2s::core
