// The layer suite of the traced run: s2sbench calls each module's
// public functions directly on the workload inputs and times them. Every
// call sits in a Span, so the traced run's table shows the same calls
// with their self times.
//
//   io    ingest_record_file on the mmap arm with no-op callbacks
//   core  AsPathInferrer::infer, the store fold, the routing and
//         dual-stack studies, survey_congestion at 1 and nproc threads
//   exec  the survey's thread-pool speed-up
//   svc   Dataset::load and Dataset::execute per request type
//   live  OpenShardWriter::seal and Dataset::clone_advanced
#include <filesystem>
#include <memory>

#include "bench.h"
#include "core/as_path_infer.h"
#include "core/congestion_detect.h"
#include "core/dualstack.h"
#include "core/routing_study.h"
#include "exec/pool.h"
#include "live/open_shard.h"

namespace perfbench {

namespace {

using s2s::svc::MsgType;

/// Median wall time of `reps` calls of `fn`, in seconds.
template <typename Fn>
double timed(const char* span, int reps, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const auto t = Clock::now();
    Span sp(span);
    fn();
    s.push_back(seconds_since(t));
  }
  return median(s);
}

void batch_layers(const Options& opt, Result& res) {
  using namespace s2s;
  std::string archive, error;
  if (!batch_archive(opt, archive, error)) {
    res.fail("batch archive: " + error);
    return;
  }
  const svc::DatasetConfig cfg = batch_config(archive);
  exec::ThreadPool pool(opt.nproc);
  svc::Dataset ds(cfg);

  std::size_t records = 0;
  const double decode_s = timed("io.ingest_record_file", 3, [&] {
    records = io::ingest_record_file(
                  archive, [](const probe::TracerouteRecord&) {},
                  [](const probe::PingRecord&) {}, true)
                  .records;
  });
  bool loaded = true;
  const double load_s =
      timed("svc.Dataset::load", 2, [&] { loaded = ds.load(error) && loaded; });
  if (!loaded) {
    res.fail("load: " + error);
    return;
  }
  const double fold_ingest_s = timed("core.store_fold", 2, [&] {
    core::TimelineStore timelines(
        ds.net().topo(), ds.net().rib(),
        core::TimelineStoreConfig{cfg.trace_start_day, cfg.trace_interval_s});
    core::PingSeriesStore pings(cfg.ping_start_day, cfg.ping_interval_s,
                                ds.ping_epochs());
    io::ingest_record_file(
        archive, [&](const probe::TracerouteRecord& r) { timelines.add(r); },
        [&](const probe::PingRecord& r) { pings.add(r); }, true);
  });

  // AS-path inference over the archive's first complete traceroutes.
  std::vector<probe::TracerouteRecord> traces;
  io::ingest_record_file(
      archive,
      [&](const probe::TracerouteRecord& r) {
        if (r.complete && traces.size() < 100000) traces.push_back(r);
      },
      [](const probe::PingRecord&) {}, true);
  const core::AsPathInferrer inferrer(ds.net().rib());
  const auto& topo = ds.net().topo();
  std::size_t inferred = 0;
  const double infer_s = timed("core.AsPathInferrer::infer", 1, [&] {
    for (const auto& r : traces) {
      const auto path =
          inferrer.infer(r, topo.ases[topo.servers[r.src].as_id].asn);
      inferred += path.has_as_loop ? 0 : 1;
    }
  });

  const double routing_s = timed("core.run_routing_study", 3, [&] {
    core::run_routing_study(ds.timelines(), cfg.routing, &pool);
  });
  const double dualstack_s = timed("core.run_dualstack_study", 3, [&] {
    core::run_dualstack_study(ds.timelines(), &pool);
  });
  core::CongestionDetectConfig dc = cfg.detect;
  dc.min_samples = static_cast<std::size_t>(
      cfg.detect_min_fraction * static_cast<double>(ds.ping_epochs()));
  const double survey_1t = timed("core.survey_congestion_1t", 3, [&] {
    core::survey_congestion(ds.pings(), dc, nullptr);
  });
  const double survey_nt = timed("exec.survey_congestion_nt", 3, [&] {
    core::survey_congestion(ds.pings(), dc, &pool);
  });

  // Dataset::execute per request type, over an evenly spaced sample.
  const auto ping = ds.ping_pairs();
  const auto trace = ds.trace_pairs();
  auto per_call_us = [&](const char* span, MsgType type,
                         const std::vector<std::string>& payloads) {
    std::vector<double> us;
    for (const auto& p : payloads) {
      const auto t = Clock::now();
      Span sp(span);
      const auto r = ds.execute(type, p, &pool);
      us.push_back(us_between(t, Clock::now()));
      ++res.attempted;
      if (r.type != MsgType::kOk) ++res.failed;
    }
    return median(us);
  };
  std::vector<std::string> ping_q, trace_q, dual_q;
  for (std::size_t i = 0; i < ping.size(); i += ping.size() / 200 + 1) {
    ping_q.push_back(svc::encode_pair_query(
        {ping[i].src, ping[i].dst, ping[i].family, 0}));
  }
  for (std::size_t i = 0; i < trace.size(); i += trace.size() / 200 + 1) {
    trace_q.push_back(svc::encode_pair_query(
        {trace[i].src, trace[i].dst, trace[i].family, 0}));
  }
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    if (trace[i].family == 4 && trace[i + 1].family == 6 &&
        trace[i + 1].src == trace[i].src && trace[i + 1].dst == trace[i].dst &&
        dual_q.size() < 200) {
      dual_q.push_back(
          svc::encode_dualstack_query({trace[i].src, trace[i].dst}));
    }
  }
  std::vector<std::string> figs;
  for (int rep = 0; rep < 2; ++rep) {
    for (const std::uint8_t f : {2, 5, 10}) {
      figs.push_back(svc::encode_figure_query({f}));
    }
  }
  res.layer["svc.execute_us.pair_rtt"] = {
      per_call_us("svc.execute.pair_rtt", MsgType::kPairRtt, ping_q), "us"};
  res.layer["svc.execute_us.path_prevalence"] = {
      per_call_us("svc.execute.path_prevalence", MsgType::kPathPrevalence,
                  trace_q),
      "us"};
  res.layer["svc.execute_us.congestion_verdict"] = {
      per_call_us("svc.execute.congestion_verdict",
                  MsgType::kCongestionVerdict, ping_q),
      "us"};
  res.layer["svc.execute_us.dualstack_delta"] = {
      per_call_us("svc.execute.dualstack_delta", MsgType::kDualStackDelta,
                  dual_q),
      "us"};
  res.layer["svc.execute_us.figure"] = {
      per_call_us("svc.execute.figure", MsgType::kFigureDigest, figs), "us"};

  res.layer["io.decode_records_per_s"] = {
      static_cast<double>(records) / decode_s, "1/s"};
  res.layer["core.as_path_infer_per_s"] = {
      static_cast<double>(traces.size()) / infer_s, "1/s"};
  res.layer["core.fold_s"] = {fold_ingest_s - decode_s, "s"};
  res.layer["svc.load_s"] = {load_s, "s"};
  res.layer["svc.load_over_decode"] = {load_s / decode_s, "ratio"};
  res.layer["core.routing_study_ms"] = {routing_s * 1e3, "ms"};
  res.layer["core.dualstack_study_ms"] = {dualstack_s * 1e3, "ms"};
  res.layer["core.survey_1t_ms"] = {survey_1t * 1e3, "ms"};
  res.layer["core.survey_nt_ms"] = {survey_nt * 1e3, "ms"};
  res.layer["exec.survey_speedup"] = {survey_1t / survey_nt, "ratio"};
  res.attempted += 3 + 2 + 2 + 1 + 3 + 3 + 3 + 3;
  if (inferred == 0) res.fail("AS-path inference produced no paths");
}

void live_layers(const Options& opt, Result& res) {
  using namespace s2s;
  std::string error;
  std::vector<std::vector<probe::PingRecord>> epochs;
  if (!live_epochs(opt, epochs, error)) {
    res.fail(error);
    return;
  }
  const std::string shard = opt.work_dir + "/layer-shard.s2sb";
  std::filesystem::remove(shard);
  live::remove_watermark_file(shard);
  const svc::DatasetConfig cfg = live_config(shard);
  {
    live::OpenShardWriter writer(shard);
    std::size_t e = 0;
    for (; e < Params::kPrefillEpochs; ++e) {
      for (const auto& r : epochs[e]) writer.write(r);
    }
    if (!writer.seal(static_cast<std::int64_t>(e - 1), error)) {
      res.fail("prefill seal: " + error);
      return;
    }
    auto root = std::make_shared<svc::Dataset>(cfg);
    const auto heap0 = heap_bytes_in_use();
    if (!root->load(error) || !root->live()) {
      res.fail("live load: " + error);
      return;
    }
    const auto heap1 = heap_bytes_in_use();
    const double pairs =
        static_cast<double>(root->live_state()->pairs_tracked());

    // A live verdict answers from the incremental state, not the batch
    // engine, so it is timed on its own.
    std::vector<double> verdict_us;
    for (const auto& k : root->ping_pairs()) {
      if (verdict_us.size() == 200) break;
      const auto payload = svc::encode_pair_query({k.src, k.dst, k.family, 0});
      const auto t = Clock::now();
      Span sp("live.execute.congestion_verdict");
      root->execute(MsgType::kCongestionVerdict, payload, nullptr);
      verdict_us.push_back(us_between(t, Clock::now()));
    }
    res.layer["live.execute_us.congestion_verdict"] = {median(verdict_us),
                                                       "us"};

    std::shared_ptr<const svc::Dataset> snap = root;
    std::vector<double> seal_ms, pickup_ms;
    for (int k = 0; k < 20 && e < epochs.size(); ++k, ++e) {
      for (const auto& r : epochs[e]) writer.write(r);
      auto t = Clock::now();
      bool ok;
      {
        Span sp("live.OpenShardWriter::seal");
        ok = writer.seal(static_cast<std::int64_t>(e), error);
      }
      seal_ms.push_back(seconds_since(t) * 1e3);
      t = Clock::now();
      std::shared_ptr<svc::Dataset> next;
      {
        Span sp("live.Dataset::clone_advanced");
        next = snap->clone_advanced(error);
      }
      pickup_ms.push_back(seconds_since(t) * 1e3);
      res.attempted += 2;
      if (!ok || !next) {
        ++res.failed;
        res.fail("seal or pickup failed: " + error);
        break;
      }
      snap = std::move(next);
    }
    const double pickup = median(pickup_ms);
    res.layer["live.seal_ms"] = {median(seal_ms), "ms"};
    res.layer["live.pickup_ms"] = {pickup, "ms"};
    res.layer["live.pickup_us_per_pair"] = {pickup * 1e3 / pairs, "us"};
    res.layer["live.rss_bytes_per_pair"] = {
        static_cast<double>(heap1 - heap0) / pairs, "B"};
  }
  std::filesystem::remove(shard);
  live::remove_watermark_file(shard);
}

}  // namespace

Result run_layer_suite(const Options& opt) {
  Result res;
  batch_layers(opt, res);
  live_layers(opt, res);
  return res;
}

}  // namespace perfbench
