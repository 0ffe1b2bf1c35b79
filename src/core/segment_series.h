// Per-segment RTT time series from follow-up traceroute campaigns
// (paper Section 5.2).
//
// "We define the path from the vantage point of a traceroute to a given
// hop as a segment" — for every (src, dst, family) we track the hop-IP
// path seen in complete traceroutes and a fixed-grid RTT series per
// segment. Pairs whose IP-level path changes are marked non-static and
// excluded from localization, exactly as the paper requires.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/data_quality.h"
#include "core/pair_key.h"
#include "net/ip.h"
#include "net/timebase.h"
#include "probe/records.h"

namespace s2s::core {

class SegmentSeriesStore {
 public:
  static constexpr std::uint16_t kMissing = 0xFFFF;

  SegmentSeriesStore(double start_day, std::int64_t interval_s,
                     std::size_t epochs)
      : start_day_(start_day), interval_s_(interval_s), epochs_(epochs) {}

  /// Streaming sink; only complete traceroutes contribute. Duplicates,
  /// invalid RTTs and off-grid timestamps are dropped and tallied in
  /// quality(); arrival order does not matter (slot-addressed grid).
  void add(const probe::TracerouteRecord& record);

  struct PairSeries {
    /// Endpoint host addresses (known from the first complete traceroute);
    /// they anchor the AS-level symmetry check, since border-router
    /// ingress interfaces often carry the neighbor AS's address space.
    net::IPAddr src_addr;
    net::IPAddr dst_addr;
    /// Canonical hop addresses (unresponsive positions stay empty until a
    /// later traceroute reveals them).
    std::vector<std::optional<net::IPAddr>> hop_addrs;
    bool ip_static = true;  ///< falsified on any hop-address disagreement
    /// RTT series per hop segment [hop][epoch], tenths of ms.
    std::vector<std::vector<std::uint16_t>> hop_rtt;
    /// End-to-end series [epoch], tenths of ms.
    std::vector<std::uint16_t> end_rtt;
    std::size_t traces = 0;
  };

  const PairSeries* find(topology::ServerId src, topology::ServerId dst,
                         net::Family family) const {
    return find_pair(series_, src, dst, family);
  }
  void for_each(const std::function<void(topology::ServerId,
                                         topology::ServerId, net::Family,
                                         const PairSeries&)>& fn) const {
    visit_pairs(series_, fn);
  }

  /// Visits the pairs whose key falls in `shard` (key % n_shards), in
  /// ascending key order — hash-layout-independent, so shard outputs merge
  /// deterministically (DESIGN.md section 9). Read-only; distinct shards
  /// are safe to run concurrently.
  void for_each_shard(std::size_t shard, std::size_t n_shards,
                      const std::function<void(topology::ServerId,
                                               topology::ServerId, net::Family,
                                               const PairSeries&)>& fn) const {
    visit_shard(series_, shard, n_shards, fn);
  }

  std::size_t pair_count() const noexcept { return series_.size(); }
  std::size_t epochs() const noexcept { return epochs_; }
  const DataQualityReport& quality() const noexcept { return quality_; }
  double samples_per_day() const {
    return 86400.0 / static_cast<double>(interval_s_);
  }

  /// Gap-filled ms copy of a row (linear interpolation; edge gaps copy
  /// the nearest valid sample); empty when no slot is valid. Ping series
  /// interpolate through this too.
  static std::vector<double> row_ms_interpolated(
      const std::vector<std::uint16_t>& row);

 private:
  double start_day_;
  std::int64_t interval_s_;
  std::size_t epochs_;
  IngestObs obs_ = IngestObs::make("segments");
  DataQualityReport quality_;
  DedupWindow dedup_;
  std::int64_t last_epoch_seen_ = -1;
  std::unordered_map<std::uint64_t, PairSeries> series_;
};

}  // namespace s2s::core
