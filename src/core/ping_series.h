// Fixed-grid RTT series from ping campaigns (paper Section 5.1).
//
// One uint16 slot per epoch per (src, dst, family); missing samples are
// kMissing and can be interpolated before spectral analysis. The grid
// grows to the largest epoch the store is fed, so one pass over an
// archive both sizes and fills it.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/data_quality.h"
#include "core/pair_key.h"
#include "net/timebase.h"
#include "probe/records.h"

namespace s2s::core {

class PingSeriesStore {
 public:
  static constexpr std::uint16_t kMissing = 0xFFFF;

  /// `epochs` is the initial grid; add() grows it past that.
  PingSeriesStore(double start_day, std::int64_t interval_s,
                  std::size_t epochs)
      : start_day_(start_day), interval_s_(interval_s), epochs_(epochs) {}

  /// Re-grids every series to at least `epochs` slots; the added slots
  /// start missing. Capacity grows in whole days of slots: doubling
  /// would strand up to half the grid as slack. Live delta pickup grows
  /// a copy of the current store to the new watermark epoch (DESIGN.md
  /// section 16).
  void grow(std::size_t epochs);

  /// Streaming sink for PingCampaign. A record past the grid grows it to
  /// the record's epoch (before the validity and success checks, so
  /// failed and invalid pings size it too); every series then has
  /// epochs() slots. Slots are
  /// first-write-wins: duplicates and invalid samples are dropped and
  /// tallied in quality(), where out_of_grid counts only epochs before
  /// the grid's start; late arrivals land in their correct slot
  /// regardless of order.
  void add(const probe::PingRecord& record);

  struct Series {
    std::vector<std::uint16_t> rtt_tenths;  ///< size = epochs; kMissing gaps
    std::size_t valid = 0;                  ///< populated slots
  };

  const Series* find(topology::ServerId src, topology::ServerId dst,
                     net::Family family) const {
    return find_pair(series_, src, dst, family);
  }

  void for_each(const std::function<void(topology::ServerId,
                                         topology::ServerId, net::Family,
                                         const Series&)>& fn) const {
    visit_pairs(series_, fn);
  }

  /// Visits the pairs whose key falls in `shard` (key % n_shards), in
  /// ascending key order. Shards partition the store: over all shards of
  /// one n_shards every pair is visited exactly once, and the visit order
  /// within a shard is independent of hash-map layout — the store half of
  /// the deterministic-merge contract (DESIGN.md section 9). Read-only, so
  /// distinct shards may run on distinct threads concurrently.
  void for_each_shard(std::size_t shard, std::size_t n_shards,
                      const std::function<void(topology::ServerId,
                                               topology::ServerId, net::Family,
                                               const Series&)>& fn) const {
    visit_shard(series_, shard, n_shards, fn);
  }

  std::size_t pair_count() const noexcept { return series_.size(); }
  std::size_t epochs() const noexcept { return epochs_; }
  const DataQualityReport& quality() const noexcept { return quality_; }
  double samples_per_day() const {
    return 86400.0 / static_cast<double>(interval_s_);
  }

  /// Gap-filled copy in ms (linear interpolation; edge gaps copy the
  /// nearest valid sample). Empty when the series has no valid samples.
  static std::vector<double> to_ms_interpolated(const Series& series);

 private:
  void fit(std::vector<std::uint16_t>& slots) const;

  double start_day_;
  std::int64_t interval_s_;
  std::size_t epochs_;
  IngestObs obs_ = IngestObs::make("ping_store");
  DataQualityReport quality_;
  DedupWindow dedup_;
  std::int64_t last_epoch_seen_ = -1;
  std::unordered_map<std::uint64_t, Series> series_;
};

}  // namespace s2s::core
