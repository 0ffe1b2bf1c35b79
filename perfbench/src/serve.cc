// serve: an s2sd subprocess over the batch archive, driven open loop with
// Poisson arrivals. The mix is pair_rtt, path_prevalence,
// congestion_verdict and dualstack_delta over every archive pair with
// Zipf popularity, plus a small fixed share of figure digests. The
// result cache is sized below the working set.
//
// Phases: set-up (spawn -> first OK reply, repeated), warm-up, the
// nominal-rate phase (latency, from each request's due time), then the
// capacity ladder (the highest rate whose p90 stays within the limit
// with no growing backlog).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.h"
#include "exec/pool.h"
#include "obs/run_report.h"

namespace perfbench {

namespace {

using s2s::svc::MsgType;

enum Kind : std::uint8_t {
  kPairRtt,
  kPathPrevalence,
  kVerdict,
  kDualStack,
  kFigure,
  kKinds
};
// Shares of the non-figure traffic.
constexpr double kKindWeights[kFigure] = {0.30, 0.25, 0.25, 0.20};
// Capacity ladder: rates kLadderStart * kLadderRatio^k, then bisection.
constexpr double kLadderStart = 8000.0;
constexpr double kLadderRatio = 2.0;
constexpr double kLadderEnd = 300000.0;
constexpr int kBisections = 4;
constexpr double kStepSeconds = 0.5;
constexpr std::size_t kStepWindows = 5;

struct Mix {
  std::vector<Request> requests;
  std::vector<std::vector<std::uint32_t>> by_rank;  ///< per kind, rank order
  std::vector<Zipf> zipf;

  std::uint32_t pick(std::mt19937_64& rng) const {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const double x = u(rng);
    std::size_t kind = kFigure;
    if (x >= Params::kFigureShare) {
      double y = (x - Params::kFigureShare) / (1.0 - Params::kFigureShare);
      for (kind = 0; kind + 1 < kFigure && y >= kKindWeights[kind]; ++kind) {
        y -= kKindWeights[kind];
      }
    }
    const auto& ranks = by_rank[kind];
    if (kind == kFigure) {
      return ranks[std::uniform_int_distribution<std::size_t>(
          0, ranks.size() - 1)(rng)];
    }
    return ranks[zipf[kind].draw(rng)];
  }
};

Mix build_mix(const s2s::svc::Dataset& ds, std::uint64_t seed) {
  using namespace s2s::svc;
  Mix m;
  m.by_rank.resize(kKinds);
  auto add = [&](Kind k, MsgType t, std::string payload) {
    m.by_rank[k].push_back(static_cast<std::uint32_t>(m.requests.size()));
    m.requests.push_back({t, std::move(payload), k});
  };
  for (const auto& p : ds.ping_pairs()) {
    add(kPairRtt, MsgType::kPairRtt,
        encode_pair_query({p.src, p.dst, p.family, 0}));
    add(kVerdict, MsgType::kCongestionVerdict,
        encode_pair_query({p.src, p.dst, p.family, 0}));
  }
  const auto traces = ds.trace_pairs();
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const auto& p = traces[i];
    add(kPathPrevalence, MsgType::kPathPrevalence,
        encode_pair_query({p.src, p.dst, p.family, 0}));
    // Sorted by (src, dst, family): a v4 entry followed by the same
    // pair's v6 entry is a dual-stack pair.
    if (p.family == 4 && i + 1 < traces.size() && traces[i + 1].src == p.src &&
        traces[i + 1].dst == p.dst && traces[i + 1].family == 6) {
      add(kDualStack, MsgType::kDualStackDelta,
          encode_dualstack_query({p.src, p.dst}));
    }
  }
  for (const std::uint8_t fig : {1, 2, 5, 10}) {
    add(kFigure, MsgType::kFigureDigest, encode_figure_query({fig}));
  }
  // Popularity: a seeded permutation assigns Zipf ranks to pairs.
  std::mt19937_64 rng(mix_seed(seed, 10));
  for (std::size_t k = 0; k < kFigure; ++k) {
    std::shuffle(m.by_rank[k].begin(), m.by_rank[k].end(), rng);
    m.zipf.emplace_back(m.by_rank[k].size(), Params::kZipfExponent);
  }
  return m;
}

struct ServerCounters {
  double hits = 0, misses = 0, requests = 0, cpu_s = 0;
};

bool server_counters(Connections& conns, pid_t pid, ServerCounters& out) {
  MsgType t;
  std::string payload;
  if (!conns.call(0, MsgType::kServerStats, "", t, payload) ||
      t != MsgType::kOk) {
    return false;
  }
  out.cpu_s = proc_cpu_seconds(pid);
  return json_number(payload, "hits", out.hits) &&
         json_number(payload, "misses", out.misses) &&
         json_number(payload, "requests", out.requests);
}

std::vector<double> latencies_us(const Connections::PhaseStats& st, int kind) {
  std::vector<double> v;
  for (const Reply& r : st.replies) {
    if (kind < 0 || r.kind == kind) v.push_back(r.latency_us);
  }
  return v;
}

}  // namespace

void add_phase_metrics(const std::string& report_path, Result& res) {
  std::ifstream in(report_path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto report = s2s::obs::RunReport::parse(text);
  if (!report) {
    res.fail("cannot parse s2sd run report " + report_path);
    return;
  }
  for (const char* phase :
       {"queue_wait", "cache_lookup", "exec", "encode", "write"}) {
    double ms = 0.0;
    std::uint64_t n = 0;
    const std::string suffix = std::string("/") + phase;
    for (const auto& [path, s] : report->spans) {
      if (path.size() > suffix.size() &&
          path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
              0 &&
          path.find("server:") != std::string::npos) {
        ms += s.total_ms;
        n += s.count;
      }
    }
    res.layer[std::string("svc.phase_us.") + phase] = {
        n > 0 ? ms * 1e3 / static_cast<double>(n) : 0.0, "us"};
  }
}

Result run_serve(const Options& opt, const RunConfig& rc) {
  using namespace s2s;
  Result res;
  std::string archive, error;
  if (!batch_archive(opt, archive, error)) {
    res.fail("batch archive: " + error);
    return res;
  }
  const svc::DatasetConfig cfg = batch_config(archive);

  // The in-process reference: request universe and reply check.
  svc::Dataset ref(cfg);
  if (!ref.load(error)) {
    res.fail("reference load: " + error);
    return res;
  }
  const Mix mix = build_mix(ref, opt.seed);

  const std::string report = rc.traced ? opt.work_dir + "/s2sd_report.json" : "";
  const auto args =
      daemon_args(cfg, archive, Params::kServeCacheMb, 0, report);
  std::vector<double> setups;
  Daemon daemon;
  for (int i = 0; i < rc.setups; ++i) {
    if (i > 0) daemon.stop();
    Span span("svc.s2sd_setup");
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
  std::vector<std::pair<std::uint32_t, std::string>> samples;
  // Warm-up: figure digests primed on every connection (so on every
  // reactor's cache), then two unmeasured seconds of the nominal stream.
  for (std::size_t c = 0; c < conns.size(); ++c) {
    for (const std::uint32_t idx : mix.by_rank[kFigure]) {
      MsgType t;
      std::string payload;
      if (!conns.call(c, mix.requests[idx].type, mix.requests[idx].payload, t,
                      payload) ||
          t != MsgType::kOk) {
        res.fail("figure warm-up failed");
        return res;
      }
      if (c == 0) samples.emplace_back(idx, payload);
    }
  }
  auto pick = [&](std::mt19937_64& r) { return mix.pick(r); };
  {
    std::mt19937_64 rng(mix_seed(opt.seed, 11));
    const auto warm = poisson_schedule(Params::kServeRate, 2.0, conns.size(),
                                       rng, pick);
    conns.run(mix.requests, warm, soon(), 2.0, 0, {});
  }

  // Nominal phase.
  ServerCounters before, after;
  if (!server_counters(conns, daemon.pid(), before)) {
    res.fail("server stats failed");
    return res;
  }
  const double nominal_s = rc.ladder ? rc.seconds * 0.5 : rc.seconds;
  std::mt19937_64 rng(mix_seed(opt.seed, 12));
  const auto arrivals = poisson_schedule(Params::kServeRate, nominal_s,
                                         conns.size(), rng, pick);
  Connections::PhaseStats nominal;
  {
    Span span("svc.serve_nominal");
    nominal = conns.run(
        mix.requests, arrivals, soon(), 2.0, rc.traced ? 8 : 0,
        [&](std::size_t i, MsgType t, std::string_view payload,
            Clock::time_point) {
          if (t == MsgType::kOk && i % 97 == 0) {
            samples.emplace_back(arrivals[i].request, std::string(payload));
          }
        });
  }
  res.attempted += arrivals.size();
  res.failed += nominal.failed;
  if (conns.size() == 0 || !server_counters(conns, daemon.pid(), after)) {
    res.fail("server stats failed after the nominal phase");
    return res;
  }

  // Capacity ladder: geometric steps until one fails, then bisection
  // between the last passing and the first failing rate. A step passes
  // when its p90 (failed requests counted as over any limit; the median
  // over five slices of the step) is within the latency limit, its last
  // slice is not backed up, and the generator kept to its schedule. The
  // limit is on a sliced p90 because the p99 of a half-second step is set
  // by single stalls of a shared machine.
  std::string ladder_log;
  // One ladder step; `lagged` is set when the generator fell behind its
  // schedule, which makes the step invalid rather than failed.
  auto step = [&](double rate, std::uint64_t stream, double& achieved,
                  bool& lagged) {
    Span span("svc.serve_ladder_step");
    std::mt19937_64 lrng(mix_seed(opt.seed, stream));
    const auto la =
        poisson_schedule(rate, kStepSeconds, conns.size(), lrng, pick);
    const auto st = conns.run(mix.requests, la, soon(), 1.0, 0, {});
    const auto lat = latencies_us(st, -1);
    const double p90_ms = windowed_quantile(lat, kStepWindows, 0.9) / 1e3;
    const std::vector<double> tail(lat.end() - lat.size() / kStepWindows,
                                   lat.end());
    const double tail_p50_ms = median(tail) / 1e3;
    const double lag_ms = quantile(st.lag_ms, 0.9);
    achieved = static_cast<double>(la.size() - st.failed) / st.elapsed_s;
    lagged = lag_ms > Params::kMaxGenLagMs;
    const bool pass = p90_ms <= Params::kLatencyLimitMs &&
                      tail_p50_ms <= Params::kLatencyLimitMs / 2 && !lagged;
    char line[320];
    std::snprintf(line, sizeof line,
                  "  ladder %8.0f req/s: achieved %8.1f, p90 %.3f ms, tail "
                  "p50 %.3f ms, lag p90 %.3f ms, failed %llu %s -> %s\n",
                  rate, achieved, p90_ms, tail_p50_ms, lag_ms,
                  static_cast<unsigned long long>(st.failed),
                  st.error_summary().c_str(),
                  pass ? "pass" : lagged ? "invalid" : "fail");
    ladder_log += line;
    // Requests of the step that overloads the server are the probe's
    // stopping condition; they are logged above, not counted.
    if (pass) {
      res.attempted += la.size();
      res.failed += st.failed;
    }
    if (conns.size() == 0) {
      std::string err;
      if (!conns.open(daemon, Params::kConnections, err)) {
        res.fail("reconnect after a ladder step: " + err);
      }
    }
    return pass;
  };
  // A step run while the generator fell behind is run once more.
  auto step_passes = [&](double rate, std::uint64_t& stream,
                         double& achieved) {
    bool lagged = false;
    if (step(rate, stream++, achieved, lagged)) return true;
    return lagged && step(rate, stream++, achieved, lagged);
  };
  double max_rps = 0.0;
  if (rc.ladder) {
    double lo = 0.0, hi = 0.0, achieved = 0.0;
    std::uint64_t stream = 20;
    for (double rate = kLadderStart; rate <= kLadderEnd; rate *= kLadderRatio) {
      if (!step_passes(rate, stream, achieved)) {
        hi = rate;
        break;
      }
      lo = rate;
      max_rps = achieved;
    }
    for (int i = 0; i < kBisections && lo > 0.0 && hi > 0.0; ++i) {
      const double mid = std::sqrt(lo * hi);
      if (step_passes(mid, stream, achieved)) {
        lo = mid;
        max_rps = achieved;
      } else {
        hi = mid;
      }
    }
  }

  const double peak_mb =
      static_cast<double>(
          proc_status_kib(std::to_string(daemon.pid()), "VmHWM")) / 1024.0;
  if (!daemon.stop()) res.fail("s2sd did not drain cleanly");
  if (rc.traced) add_phase_metrics(report, res);

  // Reply check: sampled replies are byte-identical to in-process
  // Dataset::execute on the same archive.
  {
    exec::ThreadPool pool(opt.nproc);
    std::size_t mismatched = 0;
    for (const auto& [idx, payload] : samples) {
      const Request& r = mix.requests[idx];
      const auto want = ref.execute(r.type, r.payload, &pool);
      if (want.type != MsgType::kOk || want.payload != payload) ++mismatched;
    }
    if (mismatched > 0 || samples.size() < 10) {
      res.fail("serve replies differ from in-process execute: " +
               std::to_string(mismatched) + " of " +
               std::to_string(samples.size()));
    }
  }

  const auto all = latencies_us(nominal, -1);
  const auto verdicts = latencies_us(nominal, kVerdict);
  const double lag_p99 = quantile(nominal.lag_ms, 0.99);
  const double lag_p90 = quantile(nominal.lag_ms, 0.9);
  const std::size_t w = Params::kWindows;
  std::printf("serve: %zu requests in the nominal phase, p50/p90/p99 "
              "%.3f/%.3f/%.3f ms; %zu verdicts, p50/p90/p99 %.1f/%.1f/%.1f "
              "us; %llu failed; cache hits %.0f of %.0f lookups\n%s",
              all.size(), windowed_quantile(all, w, 0.5) / 1e3,
              windowed_quantile(all, w, 0.9) / 1e3, quantile(all, 0.99) / 1e3,
              verdicts.size(), windowed_quantile(verdicts, w, 0.5),
              windowed_quantile(verdicts, w, 0.9), quantile(verdicts, 0.99),
              static_cast<unsigned long long>(nominal.failed),
              after.hits - before.hits,
              after.hits + after.misses - before.hits - before.misses,
              ladder_log.c_str());
  if (lag_p90 > Params::kMaxGenLagMs) {
    res.fail("invalid run: the load generator fell behind (lag p90 " +
             std::to_string(lag_p90) + " ms)");
  }

  res.e2e["setup_s"] = {median(setups), "s"};
  res.e2e["peak_rss_mb"] = {peak_mb, "MB"};
  res.e2e["result_p50_ms"] = {windowed_quantile(all, w, 0.5) / 1e3, "ms"};
  res.e2e["verdict_p90_us"] = {windowed_quantile(verdicts, w, 0.9), "us"};
  res.e2e["throughput_per_s"] = {max_rps, "1/s"};

  const double lookups = after.hits + after.misses - before.hits - before.misses;
  const double served = after.requests - before.requests;
  res.layer["svc.cache_hits"] = {after.hits - before.hits, "count"};
  res.layer["svc.cache_lookups"] = {lookups, "count"};
  res.layer["svc.cache_hit_ratio"] = {
      lookups > 0 ? (after.hits - before.hits) / lookups : 0.0, "ratio"};
  res.layer["svc.server_cpu_us_per_req"] = {
      served > 0 ? (after.cpu_s - before.cpu_s) * 1e6 / served : 0.0, "us"};
  res.layer["gen.lag_p99_ms"] = {lag_p99, "ms"};
  return res;
}

}  // namespace perfbench
