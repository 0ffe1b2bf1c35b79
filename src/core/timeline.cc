#include "core/timeline.h"

#include <algorithm>
#include <cmath>

namespace s2s::core {

std::uint32_t PathInterner::intern(const net::AsPath& path) {
  const auto it = index_.find(path);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(paths_.size());
  paths_.push_back(path);
  index_.emplace(paths_.back(), id);
  return id;
}

void TimelineStore::add(const probe::TracerouteRecord& record) {
  // Quality gate: every record (complete or not) is checked before it can
  // touch the Table 1 accounting, so a garbled or re-delivered stream
  // cannot inflate the paper's completeness statistics. A server id from
  // a larger deployment has no AS to anchor the path on.
  const auto key = pack_pair_key(record.src, record.dst, record.family);
  if (!key || record.src >= topo_.servers.size() ||
      record.dst >= topo_.servers.size()) {
    ++quality_.unknown_server;
    obs_.drop_unknown_server.inc();
    return;
  }
  if (dedup_.seen_or_insert(fingerprint(record))) {
    ++quality_.duplicates_dropped;
    obs_.drop_duplicates.inc();
    return;
  }
  const std::int64_t grid = net::grid_epoch(record.time, config_.start_day,
                                            config_.interval_s);
  if (grid < 0 || grid > 0xFFFF) {
    ++quality_.out_of_grid;
    obs_.drop_out_of_grid.inc();
    return;
  }
  if (grid < last_epoch_seen_) {
    ++quality_.reordered;
    obs_.reordered.inc();
  }
  last_epoch_seen_ = std::max(last_epoch_seen_, grid);
  if (!valid_record(record)) {
    ++quality_.invalid_rtt;
    obs_.drop_invalid_rtt.inc();
    return;
  }
  obs_.records.inc();
  if (record.complete) obs_.rtt_ms.record(record.end_to_end_rtt_ms());

  auto& counts = table1_.of(record.family);
  ++counts.collected;
  if (!record.complete) return;
  ++counts.complete;

  const net::Asn src_asn = topo_.ases[topo_.servers[record.src].as_id].asn;
  const InferredPath inferred = inferrer_.infer(record, src_asn);
  if (inferred.has_as_loop) {
    ++counts.as_loops;  // excluded from the analyses, as in the paper
    return;
  }
  switch (inferred.quality) {
    case TraceQuality::kCompleteAsLevel: ++counts.complete_as; break;
    case TraceQuality::kMissingAsLevel: ++counts.missing_as; break;
    case TraceQuality::kMissingIpLevel: ++counts.missing_ip; break;
  }

  const auto epoch = static_cast<std::uint16_t>(grid);
  max_epoch_ = std::max(max_epoch_, epoch);

  const std::uint32_t global = interner_.intern(inferred.as_path);
  TraceTimeline& timeline = timelines_[*key];
  auto local_it = std::find(timeline.local_paths.begin(),
                            timeline.local_paths.end(), global);
  std::uint16_t local;
  if (local_it == timeline.local_paths.end()) {
    local = static_cast<std::uint16_t>(timeline.local_paths.size());
    timeline.local_paths.push_back(global);
  } else {
    local = static_cast<std::uint16_t>(local_it - timeline.local_paths.begin());
  }

  Observation obs;
  obs.epoch = epoch;
  obs.rtt_tenths = static_cast<std::uint16_t>(
      std::min(6553.0, std::max(0.0, record.end_to_end_rtt_ms())) * 10.0);
  obs.path = local;
  if (timeline.obs.empty() || timeline.obs.back().epoch <= epoch) {
    timeline.obs.push_back(obs);
  } else {
    // Late arrival: insert in epoch order so the change detector never
    // interprets delivery order as a routing flap.
    const auto pos = std::upper_bound(
        timeline.obs.begin(), timeline.obs.end(), epoch,
        [](std::uint16_t e, const Observation& o) { return e < o.epoch; });
    timeline.obs.insert(pos, obs);
  }
}

}  // namespace s2s::core
