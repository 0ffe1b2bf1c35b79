// live: s2sd --live-poll-ms serves an open shard that s2sbench grows
// with live::OpenShardWriter. A writer thread seals one epoch per
// cadence. Meanwhile the generator sends, on connection 0 (reactor 0,
// where pickups run), fixed-interval kServerStats polls that time each
// seal until the server shows the new watermark, and on the other
// connections Poisson verdict queries plus a slow fixed-rate kLiveStatus
// stream. kLiveStatus is not the visibility probe: every call summarizes
// all live pairs (tens of ms), so polling it would measure itself. A
// closing capacity phase seals back to back, each as soon as the
// previous one is visible.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <thread>

#include "bench.h"
#include "live/open_shard.h"

namespace perfbench {

namespace {

using s2s::svc::MsgType;

enum Kind : std::uint8_t { kPoll, kStatus, kVerdict };

}  // namespace

Result run_live(const Options& opt, const RunConfig& rc) {
  using namespace s2s;
  Result res;
  std::string error;
  std::vector<std::vector<probe::PingRecord>> epochs;
  if (!live_epochs(opt, epochs, error)) {
    res.fail(error);
    return res;
  }
  const std::string shard = opt.work_dir + "/live-shard.s2sb";
  std::filesystem::remove(shard);
  live::remove_watermark_file(shard);
  const svc::DatasetConfig cfg = live_config(shard);

  // Prefill: a week of epochs, sealed once.
  live::OpenShardWriter writer(shard);
  std::size_t next_epoch = 0;
  auto seal_next = [&]() -> bool {
    for (const auto& r : epochs[next_epoch]) writer.write(r);
    const bool ok = writer.seal(static_cast<std::int64_t>(next_epoch), error);
    ++next_epoch;
    return ok;
  };
  for (; next_epoch + 1 < Params::kPrefillEpochs; ++next_epoch) {
    for (const auto& r : epochs[next_epoch]) writer.write(r);
  }
  if (!writer.ok() || !seal_next()) {
    res.fail("prefill: " + error + writer.error());
    return res;
  }

  const std::string report = rc.traced ? opt.work_dir + "/s2sd_report.json" : "";
  const auto args = daemon_args(cfg, shard, 64, Params::kLivePollMs, report);
  std::vector<double> setups;
  Daemon daemon;
  for (int i = 0; i < rc.setups; ++i) {
    if (i > 0) daemon.stop();
    Span span("live.s2sd_setup");
    if (!daemon.start(opt, args, error)) {
      res.fail(error);
      return res;
    }
    setups.push_back(daemon.setup_s());
  }
  Connections conns;
  if (!conns.open(daemon, Params::kConnections, error)) {
    res.fail(error);
    return res;
  }

  // Requests: the stats poll, kLiveStatus, and a verdict per live series
  // (those the prefilled shard answers in-process) with Zipf popularity
  // over a seeded ranking.
  std::vector<Request> requests = {{MsgType::kServerStats, "", kPoll},
                                   {MsgType::kLiveStatus, "", kStatus}};
  {
    svc::Dataset prefilled(cfg);
    if (!prefilled.load(error)) {
      res.fail("prefill load: " + error);
      return res;
    }
    for (const auto& k : prefilled.ping_pairs()) {
      auto payload = svc::encode_pair_query({k.src, k.dst, k.family, 0});
      if (prefilled.execute(MsgType::kCongestionVerdict, payload, nullptr)
              .type == MsgType::kOk) {
        requests.push_back(
            {MsgType::kCongestionVerdict, std::move(payload), kVerdict});
      }
    }
  }
  std::vector<std::uint32_t> ranked(requests.size() - 2);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    ranked[i] = static_cast<std::uint32_t>(i + 2);
  }
  std::mt19937_64 rng(mix_seed(opt.seed, 30));
  std::shuffle(ranked.begin(), ranked.end(), rng);
  const Zipf zipf(ranked.size(), Params::kZipfExponent);

  // Ingest phase schedule. Reactor 0 runs the pickups; it gets the
  // fixed-interval stats polls (connection 0) and the Poisson verdict
  // stream (connection 2), so the verdicts queue behind pickups. The slow
  // kLiveStatus stream goes to reactor 1 (connection 1).
  const double ingest_s = rc.seconds * 0.8;
  const std::size_t seals = std::min<std::size_t>(
      static_cast<std::size_t>(ingest_s * 1000.0 / Params::kSealCadenceMs) - 1,
      epochs.size() - next_epoch - 1);
  std::vector<Arrival> arrivals = poisson_schedule(
      Params::kLiveVerdictRate, ingest_s, 1, rng,
      [&](std::mt19937_64& r) { return ranked[zipf.draw(r)]; });
  for (Arrival& a : arrivals) a.conn = 2;
  auto fixed_rate = [&](double rate, std::uint32_t request,
                        std::uint32_t conn) {
    const auto gap_ns = static_cast<std::int64_t>(1e9 / rate);
    for (std::int64_t t = gap_ns / 2;
         t < static_cast<std::int64_t>(ingest_s * 1e9); t += gap_ns) {
      arrivals.push_back({t, request, conn});
    }
  };
  fixed_rate(Params::kLivePollRate, 0, 0);
  fixed_rate(Params::kLiveStatusRate, 1, 1);
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.due_ns < b.due_ns;
                   });

  auto pickups = [&](double& n) {
    MsgType t;
    std::string payload;
    return conns.call(1, MsgType::kLiveStatus, "", t, payload) &&
           t == MsgType::kOk && json_number(payload, "delta_pickups", n);
  };
  auto watermark = [&](double& epoch) {
    MsgType t;
    std::string payload;
    return conns.call(0, MsgType::kServerStats, "", t, payload) &&
           t == MsgType::kOk &&
           json_number(payload, "watermark_epoch", epoch);
  };
  auto counters = [&](double& hits, double& lookups, double& served) {
    MsgType t;
    std::string stats;
    double misses = 0;
    return conns.call(0, MsgType::kServerStats, "", t, stats) &&
           json_number(stats, "hits", hits) &&
           json_number(stats, "misses", misses) &&
           json_number(stats, "requests", served) &&
           (lookups = hits + misses, true);
  };
  double hits0 = 0, lookups0 = 0, served0 = 0, wm = -1.0, pickups0 = 0;
  if (!counters(hits0, lookups0, served0) || !pickups(pickups0)) {
    res.fail("server stats failed");
    return res;
  }
  const double cpu0 = proc_cpu_seconds(daemon.pid());

  // Seal k (1-based) publishes epoch first_live + k - 1; its return time
  // is stamped for the status replies to measure against.
  const std::int64_t first_live = static_cast<std::int64_t>(next_epoch);
  std::vector<std::atomic<std::int64_t>> sealed_at(seals);
  for (auto& s : sealed_at) s.store(-1);
  std::vector<double> visible_ms(seals, -1.0);
  std::atomic<bool> seal_failed{false};
  const auto start = soon();
  auto ns_since_start = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - start)
        .count();
  };
  std::size_t first_unseen = 0;
  Connections::PhaseStats ingest;
  {
    Span span("live.ingest_phase");
    std::thread sealer([&] {
      for (std::size_t k = 0; k < seals; ++k) {
        std::this_thread::sleep_until(
            start + std::chrono::milliseconds(Params::kSealCadenceMs *
                                              static_cast<int>(k + 1)));
        if (!seal_next()) {
          seal_failed = true;
          return;
        }
        sealed_at[k].store(ns_since_start(Clock::now()));
      }
    });
    ingest = conns.run(
        requests, arrivals, start, 2.0, rc.traced ? 8 : 0,
        [&](std::size_t i, MsgType t, std::string_view payload,
            Clock::time_point at) {
          if (t != MsgType::kOk || arrivals[i].request != 0) return;
          double shown = -1.0;
          if (!json_number(payload, "watermark_epoch", shown)) return;
          // The first poll sent after seal k returned that shows its
          // epoch makes seal k visible.
          while (first_unseen < seals) {
            const std::int64_t sealed = sealed_at[first_unseen].load();
            if (sealed < 0 || arrivals[i].due_ns < sealed ||
                shown < static_cast<double>(first_live) +
                         static_cast<double>(first_unseen)) {
              break;
            }
            visible_ms[first_unseen] =
                static_cast<double>(ns_since_start(at) - sealed) / 1e6;
            ++first_unseen;
          }
        });
    sealer.join();
  }
  res.attempted += arrivals.size() + seals;
  res.failed += ingest.failed;
  if (seal_failed) res.fail("seal failed: " + error);
  std::vector<double> visible;
  for (const double v : visible_ms) {
    // A seal never seen visible counts as failed, over any limit.
    visible.push_back(v >= 0.0 ? v : std::numeric_limits<double>::infinity());
    if (v < 0.0) ++res.failed;
  }
  if (conns.size() == 0) {
    res.fail("live connections lost");
    return res;
  }

  // Capacity: seal back to back, each once the previous one is visible.
  // Throughput is records per epoch over the median seal-to-visible
  // cycle, so a stall of the machine moves one cycle, not the figure.
  std::size_t capacity_records = 0, capacity_seals = 0;
  std::vector<double> cycle_s;
  const auto t_cap = Clock::now();
  {
    Span span("live.capacity_phase");
    while (seconds_since(t_cap) < rc.seconds * 0.15 &&
           next_epoch < epochs.size()) {
      const auto t_cycle = Clock::now();
      capacity_records += epochs[next_epoch].size();
      const auto want = static_cast<double>(next_epoch);
      if (!seal_next()) {
        res.fail("seal failed: " + error);
        break;
      }
      ++capacity_seals;
      ++res.attempted;
      const auto deadline = Clock::now() + std::chrono::seconds(5);
      while ((watermark(wm), wm < want) && Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (wm < want) {
        ++res.failed;
        res.fail("sealed epoch never became visible");
        break;
      }
      cycle_s.push_back(seconds_since(t_cycle));
    }
  }
  const double capacity_s = seconds_since(t_cap);

  const double cpu_s = proc_cpu_seconds(daemon.pid()) - cpu0;
  double hits = 0, lookups = 0, served = 0, picked = 0;
  if (!counters(hits, lookups, served) || !pickups(picked)) {
    res.fail("server stats failed");
  }
  hits -= hits0;
  lookups -= lookups0;
  served -= served0;
  picked -= pickups0;

  // Check: the served state equals a fresh load of the same shard, by
  // digest and by a sample of verdict replies.
  MsgType t;
  std::string stats, served_digest;
  if (!conns.call(0, MsgType::kServerStats, "", t, stats) ||
      !json_string(stats, "digest", served_digest)) {
    res.fail("server stats failed");
  }
  svc::Dataset fresh(cfg);
  if (!fresh.load(error)) {
    res.fail("fresh load: " + error);
  } else {
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fresh.digest()));
    if (served_digest != hex) {
      res.fail("served live digest " + served_digest +
               " != fresh load digest " + hex);
    }
    for (std::size_t i = 2; i < requests.size(); i += requests.size() / 20) {
      std::string payload;
      const auto want = fresh.execute(requests[i].type, requests[i].payload,
                                      nullptr);
      if (!conns.call(1, requests[i].type, requests[i].payload, t, payload) ||
          want.payload != payload) {
        res.fail("served live verdict differs from a fresh load");
        break;
      }
    }
  }
  const double peak_mb =
      static_cast<double>(
          proc_status_kib(std::to_string(daemon.pid()), "VmHWM")) / 1024.0;
  if (!daemon.stop()) res.fail("s2sd did not drain cleanly");
  writer.finish(error);
  std::filesystem::remove(shard);
  live::remove_watermark_file(shard);

  std::vector<double> verdict_us;
  for (const Reply& r : ingest.replies) {
    if (r.kind == kVerdict) verdict_us.push_back(r.latency_us);
  }
  const double lag_p99 = quantile(ingest.lag_ms, 0.99);
  const double lag_p90 = quantile(ingest.lag_ms, 0.9);
  const std::size_t w = Params::kWindows;
  std::printf("live: %zu live series, %zu seals at %d ms (%zu visible, "
              "p50/p90/p99 %.3f/%.3f/%.3f ms), %zu verdicts (p50/p90/p99 "
              "%.1f/%.1f/%.1f us), capacity %zu seals in %.2f s, failed: %s\n",
              requests.size() - 2, seals, Params::kSealCadenceMs,
              first_unseen, median(visible), quantile(visible, 0.9),
              quantile(visible, 0.99), verdict_us.size(),
              windowed_quantile(verdict_us, w, 0.5),
              windowed_quantile(verdict_us, w, 0.9),
              quantile(verdict_us, 0.99), capacity_seals, capacity_s,
              ingest.error_summary().c_str());
  if (lag_p90 > Params::kMaxGenLagMs) {
    res.fail("invalid run: the load generator fell behind (lag p90 " +
             std::to_string(lag_p90) + " ms)");
  }
  if (rc.traced) add_phase_metrics(report, res);

  res.e2e["setup_s"] = {median(setups), "s"};
  res.e2e["peak_rss_mb"] = {peak_mb, "MB"};
  // Visibility has one sample per seal, too few to slice.
  res.e2e["result_p50_ms"] = {median(visible), "ms"};
  res.e2e["verdict_p90_us"] = {windowed_quantile(verdict_us, w, 0.9), "us"};
  res.e2e["throughput_per_s"] = {
      static_cast<double>(capacity_records) /
          static_cast<double>(capacity_seals) / median(cycle_s),
      "1/s"};

  res.layer["live.pickups_per_seal"] = {
      picked / static_cast<double>(seals + capacity_seals), "ratio"};
  res.layer["svc.cache_hits"] = {hits, "count"};
  res.layer["svc.cache_lookups"] = {lookups, "count"};
  res.layer["svc.cache_hit_ratio"] = {lookups > 0 ? hits / lookups : 0.0,
                                      "ratio"};
  res.layer["svc.server_cpu_us_per_req"] = {
      served > 0 ? cpu_s * 1e6 / served : 0.0, "us"};
  res.layer["gen.lag_p99_ms"] = {lag_p99, "ms"};
  return res;
}

}  // namespace perfbench
