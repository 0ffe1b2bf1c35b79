// Seeded workload inputs. The deployment (topology, servers, pairs) is
// fixed by the scale in Params; the seed draws the measurement campaigns
// that fill the archives, and (in the workloads) the request traffic.
// Inputs are generated before any timed region and cached under
// <work_dir>/inputs, keyed by seed and scale; only the two most recent
// archives of each kind are kept, so a long sweep over seeds does not
// fill the disk.
#include <algorithm>
#include <filesystem>

#include "bench.h"
#include "io/binrec.h"
#include "probe/campaign.h"
#include "simnet/network.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

// Bump when the generator or the scale changes, so stale inputs are
// never reused.
constexpr const char* kInputVersion = "v2";

std::string input_path(const Options& opt, const char* kind) {
  return opt.work_dir + "/inputs/" + kind + "-" + kInputVersion + "-s" +
         std::to_string(opt.seed) + ".s2sb";
}

/// Keeps `current` and the newest other file of the same kind.
void prune(const std::string& current, const char* kind) {
  const fs::path dir = fs::path(current).parent_path();
  std::vector<std::pair<fs::file_time_type, fs::path>> others;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(std::string(kind) + "-", 0) != 0) continue;
    if (entry.path() == fs::path(current)) continue;
    others.emplace_back(entry.last_write_time(ec), entry.path());
  }
  std::sort(others.begin(), others.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 1; i < others.size(); ++i) fs::remove(others[i].second, ec);
}

}  // namespace

s2s::svc::DatasetConfig batch_config(const std::string& archive) {
  s2s::svc::DatasetConfig cfg;
  cfg.archive_path = archive;
  cfg.server_count = Params::kBatchServers;
  return cfg;
}

s2s::svc::DatasetConfig live_config(const std::string& archive) {
  s2s::svc::DatasetConfig cfg;
  cfg.archive_path = archive;
  cfg.server_count = Params::kLiveServers;
  return cfg;
}

bool batch_archive(const Options& opt, std::string& path, std::string& error) {
  path = input_path(opt, "batch");
  std::error_code ec;
  if (fs::exists(path, ec)) return true;
  fs::create_directories(fs::path(path).parent_path(), ec);
  s2s::svc::FixtureParams p;
  p.trace_days = Params::kTraceDays;
  p.ping_days = Params::kPingDays;
  p.max_trace_pairs = Params::kBatchPairs;
  p.max_ping_pairs = Params::kBatchPairs;
  p.trace_seed = mix_seed(opt.seed, 1);
  p.ping_seed = mix_seed(opt.seed, 2);
  if (!s2s::svc::write_fixture_archive(path, batch_config(path), p, error)) {
    return false;
  }
  prune(path, "batch");
  return true;
}

bool live_epochs(const Options& opt,
                 std::vector<std::vector<s2s::probe::PingRecord>>& epochs,
                 std::string& error) {
  using namespace s2s;
  const std::string path = input_path(opt, "live");
  const svc::DatasetConfig cfg = live_config(path);
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    fs::create_directories(fs::path(path).parent_path(), ec);
    simnet::Network net(svc::dataset_net_config(cfg));
    const auto pairs = svc::fixture_pairs(net.topo(), Params::kLivePairs);
    probe::PingCampaignConfig ping;
    ping.start_day = cfg.ping_start_day;
    ping.interval_s = cfg.ping_interval_s;
    ping.days = static_cast<double>(Params::kPrefillEpochs +
                                    Params::kExtraEpochs) / 96.0;
    ping.seed = mix_seed(opt.seed, 3);
    io::AtomicArchiveWriter out(path);
    if (!out.ok()) {
      error = out.error();
      return false;
    }
    {
      io::BinRecordWriter writer(out.stream());
      probe::PingCampaign campaign(net, ping, pairs);
      campaign.run([&](const probe::PingRecord& r) { writer.write(r); });
      writer.finish();
    }
    if (!out.commit(error)) return false;
    prune(path, "live");
  }
  epochs.assign(Params::kPrefillEpochs + Params::kExtraEpochs, {});
  const auto res = io::ingest_record_file(
      path, [](const probe::TracerouteRecord&) {},
      [&](const probe::PingRecord& r) {
        const std::int64_t e =
            net::grid_epoch(r.time, cfg.ping_start_day, cfg.ping_interval_s);
        if (e >= 0 && static_cast<std::size_t>(e) < epochs.size()) {
          epochs[static_cast<std::size_t>(e)].push_back(r);
        }
      });
  if (!res.ok || res.records == 0) {
    error = "live campaign unreadable: " + res.error;
    return false;
  }
  return true;
}

}  // namespace perfbench
