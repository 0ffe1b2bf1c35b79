#include "core/segment_series.h"

#include <algorithm>
#include <cmath>

namespace s2s::core {

namespace {

std::uint16_t to_tenths(double ms) {
  return static_cast<std::uint16_t>(
      std::min(6553.0, std::max(0.0, ms)) * 10.0);
}

}  // namespace

void SegmentSeriesStore::add(const probe::TracerouteRecord& record) {
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
  if (epoch < 0 || static_cast<std::size_t>(epoch) >= epochs_) {
    ++quality_.out_of_grid;
    obs_.drop_out_of_grid.inc();
    return;
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
  if (!record.complete || record.hops.empty()) return;
  obs_.records.inc();
  obs_.rtt_ms.record(record.end_to_end_rtt_ms());
  const auto e = static_cast<std::size_t>(epoch);

  PairSeries& series = series_[*key];
  // The final hop is the destination; segments cover the router hops.
  const std::size_t hops = record.hops.size() - 1;
  if (series.traces == 0) {
    series.src_addr = record.src_addr;
    series.dst_addr = record.dst_addr;
    series.hop_addrs.resize(hops);
    series.hop_rtt.assign(hops, std::vector<std::uint16_t>(epochs_, kMissing));
    series.end_rtt.assign(epochs_, kMissing);
  } else if (series.hop_addrs.size() != hops) {
    series.ip_static = false;
  }
  ++series.traces;
  if (!series.ip_static) return;

  for (std::size_t i = 0; i < hops; ++i) {
    const auto& hop = record.hops[i];
    if (!hop.addr) continue;  // unresponsive: wildcard, no disagreement
    if (!series.hop_addrs[i]) {
      series.hop_addrs[i] = hop.addr;
    } else if (*series.hop_addrs[i] != *hop.addr) {
      series.ip_static = false;
      return;
    }
    series.hop_rtt[i][e] = to_tenths(hop.rtt_ms);
  }
  series.end_rtt[e] = to_tenths(record.hops.back().rtt_ms);
}

std::vector<double> SegmentSeriesStore::row_ms_interpolated(
    const std::vector<std::uint16_t>& row) {
  std::vector<double> out;
  std::size_t valid = 0;
  for (auto v : row) valid += v != kMissing;
  if (valid == 0) return out;
  out.resize(row.size());
  std::ptrdiff_t prev = -1;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] == kMissing) continue;
    out[i] = row[i] / 10.0;
    const double left =
        prev >= 0 ? out[static_cast<std::size_t>(prev)] : out[i];
    for (std::ptrdiff_t j = prev + 1; j < static_cast<std::ptrdiff_t>(i);
         ++j) {
      const double frac =
          prev < 0 ? 1.0
                   : static_cast<double>(j - prev) /
                         static_cast<double>(static_cast<std::ptrdiff_t>(i) -
                                             prev);
      out[static_cast<std::size_t>(j)] = left + frac * (out[i] - left);
    }
    prev = static_cast<std::ptrdiff_t>(i);
  }
  for (std::size_t i = static_cast<std::size_t>(prev) + 1; i < row.size();
       ++i) {
    out[i] = out[static_cast<std::size_t>(prev)];
  }
  return out;
}

}  // namespace s2s::core
