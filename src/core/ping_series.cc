#include "core/ping_series.h"

#include <algorithm>
#include <cmath>

#include "core/segment_series.h"

namespace s2s::core {

void PingSeriesStore::fit(std::vector<std::uint16_t>& slots) const {
  if (slots.capacity() < epochs_) {
    const auto day = static_cast<std::size_t>(std::max(1.0, samples_per_day()));
    slots.reserve((epochs_ + day - 1) / day * day);
  }
  slots.resize(epochs_, kMissing);
}

void PingSeriesStore::grow(std::size_t epochs) {
  if (epochs <= epochs_) return;
  epochs_ = epochs;
  for (auto& [k, series] : series_) fit(series.rtt_tenths);
}

void PingSeriesStore::add(const probe::PingRecord& record) {
  const auto key = pack_pair_key(record.src, record.dst, record.family);
  if (!key) {
    ++quality_.unknown_server;
    obs_.drop_unknown_server.inc();
    return;
  }
  if (dedup_.seen_or_insert(fingerprint(record))) {
    ++quality_.duplicates_dropped;
    obs_.drop_duplicates.inc();
    return;
  }
  const std::int64_t epoch =
      net::grid_epoch(record.time, start_day_, interval_s_);
  if (epoch < 0) {
    ++quality_.out_of_grid;
    obs_.drop_out_of_grid.inc();
    return;
  }
  if (static_cast<std::size_t>(epoch) >= epochs_) {
    grow(static_cast<std::size_t>(epoch) + 1);
  }
  if (epoch < last_epoch_seen_) {
    ++quality_.reordered;
    obs_.reordered.inc();
  }
  last_epoch_seen_ = std::max(last_epoch_seen_, epoch);
  if (!valid_record(record)) {
    ++quality_.invalid_rtt;
    obs_.drop_invalid_rtt.inc();
    return;
  }
  if (!record.success) return;

  Series& series = series_[*key];
  if (series.rtt_tenths.empty()) fit(series.rtt_tenths);
  auto& slot = series.rtt_tenths[static_cast<std::size_t>(epoch)];
  // First write wins: a conflicting re-delivery cannot overwrite the
  // sample the analyses already count on.
  if (slot != kMissing) {
    ++quality_.duplicates_dropped;
    obs_.drop_duplicates.inc();
    return;
  }
  obs_.records.inc();
  obs_.rtt_ms.record(record.rtt_ms);
  ++series.valid;
  slot = static_cast<std::uint16_t>(
      std::min(6553.0, std::max(0.0, record.rtt_ms)) * 10.0);
}

std::vector<double> PingSeriesStore::to_ms_interpolated(const Series& series) {
  return SegmentSeriesStore::row_ms_interpolated(series.rtt_tenths);
}

}  // namespace s2s::core
