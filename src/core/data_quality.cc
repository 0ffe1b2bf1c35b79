#include "core/data_quality.h"

#include <bit>
#include <cmath>

namespace s2s::core {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

void mix_double(std::uint64_t& h, double v) {
  mix(h, std::bit_cast<std::uint64_t>(v));
}

bool valid_rtt(double ms) {
  return std::isfinite(ms) && ms >= 0.0 && ms <= probe::kMaxPlausibleRttMs;
}

bool valid_time(net::SimTime t) {
  return t.seconds() >= 0 && t.seconds() <= probe::kMaxTimestampS;
}

}  // namespace

IngestObs IngestObs::make(std::string_view subsystem) {
  auto& reg = obs::MetricsRegistry::global();
  const std::string prefix = "s2s." + std::string(subsystem) + ".";
  IngestObs o;
  o.records = reg.counter(prefix + "records");
  o.drop_invalid_rtt = reg.counter(prefix + "drop_invalid_rtt");
  o.drop_duplicates = reg.counter(prefix + "drop_duplicates");
  o.drop_out_of_grid = reg.counter(prefix + "drop_out_of_grid");
  o.drop_unknown_server = reg.counter(prefix + "drop_unknown_server");
  o.reordered = reg.counter(prefix + "reordered");
  o.rtt_ms = reg.histogram(prefix + "rtt_ms",
                           obs::MetricsRegistry::rtt_ms_bounds());
  return o;
}

std::map<std::string, std::size_t> DataQualityReport::as_map() const {
  return {{"invalid_rtt", invalid_rtt},
          {"duplicates_dropped", duplicates_dropped},
          {"reordered", reordered},
          {"out_of_grid", out_of_grid},
          {"unknown_server", unknown_server},
          {"insufficient_epochs", insufficient_epochs},
          {"insufficient_series", insufficient_series},
          {"interpolated_samples", interpolated_samples},
          {"corrupt_blocks", corrupt_blocks}};
}

std::string DataQualityReport::to_string() const {
  std::string out = "invalid_rtt=" + std::to_string(invalid_rtt);
  out += " duplicates_dropped=" + std::to_string(duplicates_dropped);
  out += " reordered=" + std::to_string(reordered);
  out += " out_of_grid=" + std::to_string(out_of_grid);
  out += " unknown_server=" + std::to_string(unknown_server);
  out += " insufficient_epochs=" + std::to_string(insufficient_epochs);
  out += " insufficient_series=" + std::to_string(insufficient_series);
  out += " interpolated_samples=" + std::to_string(interpolated_samples);
  out += " corrupt_blocks=" + std::to_string(corrupt_blocks);
  return out;
}

bool valid_record(const probe::TracerouteRecord& r) {
  if (!valid_time(r.time)) return false;
  for (const auto& hop : r.hops) {
    if (!valid_rtt(hop.rtt_ms)) return false;
  }
  return true;
}

bool valid_record(const probe::PingRecord& r) {
  return valid_time(r.time) && valid_rtt(r.rtt_ms);
}

std::uint64_t fingerprint(const probe::TracerouteRecord& r) {
  std::uint64_t h = kFnvOffset;
  mix(h, 'T');
  mix(h, r.src);
  mix(h, r.dst);
  mix(h, static_cast<std::uint64_t>(r.family));
  mix(h, static_cast<std::uint64_t>(r.time.seconds()));
  mix(h, static_cast<std::uint64_t>(r.method));
  mix(h, r.complete ? 1 : 0);
  mix(h, r.hops.size());
  for (const auto& hop : r.hops) {
    if (hop.addr) {
      mix(h, std::hash<net::IPAddr>{}(*hop.addr));
    } else {
      mix(h, 0x2a);
    }
    mix_double(h, hop.rtt_ms);
  }
  return h;
}

std::uint64_t fingerprint(const probe::PingRecord& r) {
  std::uint64_t h = kFnvOffset;
  mix(h, 'P');
  mix(h, r.src);
  mix(h, r.dst);
  mix(h, static_cast<std::uint64_t>(r.family));
  mix(h, static_cast<std::uint64_t>(r.time.seconds()));
  mix(h, r.success ? 1 : 0);
  mix_double(h, r.rtt_ms);
  return h;
}

DedupWindow::DedupWindow(std::size_t capacity)
    : ring_(capacity, 0), table_(std::bit_ceil(2 * capacity), 0) {
  mask_ = table_.size() - 1;
  shift_ = 64 - std::countr_zero(table_.size());
}

std::size_t DedupWindow::probe(std::uint64_t fp) const {
  std::size_t i = home(fp);
  while (table_[i] != 0 && ring_[table_[i] - 1] != fp) i = (i + 1) & mask_;
  return i;
}

bool DedupWindow::seen_or_insert(std::uint64_t fp) {
  if (table_[probe(fp)] != 0) return true;
  if (size_ == ring_.size()) {
    evict_oldest();
  } else {
    ++size_;
  }
  ring_[head_] = fp;
  // Probe again: the eviction may have emptied a slot in fp's run.
  table_[probe(fp)] = static_cast<std::uint32_t>(head_ + 1);
  head_ = (head_ + 1) % ring_.size();
  return false;
}

void DedupWindow::evict_oldest() {
  std::size_t hole = probe(ring_[head_]);
  // Backward shift: pull each later entry of the run into the hole when
  // the hole lies between its home slot and where it sits.
  for (std::size_t j = (hole + 1) & mask_; table_[j] != 0;
       j = (j + 1) & mask_) {
    const std::size_t h = home(ring_[table_[j] - 1]);
    if (((j - h) & mask_) >= ((j - hole) & mask_)) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole] = 0;
}

}  // namespace s2s::core
