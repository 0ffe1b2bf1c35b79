// batch: archive -> every figure and verdict, in-process, on a pool of
// nproc threads. One pass = Dataset::load, figure digests 1/2/5/10, a
// congestion verdict for every ping series, and survey_congestion. The
// serving tier, the result cache and live ingest are bypassed.
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "core/congestion_detect.h"
#include "exec/pool.h"

namespace perfbench {

namespace {

using s2s::svc::MsgType;

std::uint64_t fnv(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string survey_digest(const s2s::core::CongestionSurvey& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  char buf[160];
  for (const auto* f : {&s.v4, &s.v6}) {
    std::snprintf(buf, sizeof buf, "%zu %zu %zu %zu\n", f->pairs_total,
                  f->pairs_assessed, f->high_variation, f->consistent);
    h = fnv(h, buf);
  }
  for (const auto& p : s.flagged) {
    std::snprintf(buf, sizeof buf, "%u %u %d %a %a\n", p.src, p.dst,
                  static_cast<int>(p.family), p.verdict.variation_ms,
                  p.verdict.diurnal_ratio);
    h = fnv(h, buf);
  }
  std::snprintf(buf, sizeof buf, "%016" PRIx64 " flagged=%zu", h,
                s.flagged.size());
  return buf;
}

struct PassOutput {
  std::string figures;
  std::string survey;
  std::uint64_t verdicts = 0xcbf29ce484222325ull;
};

}  // namespace

Result run_batch(const Options& opt, const RunConfig& rc) {
  using namespace s2s;
  Result res;
  std::string archive, error;
  if (!batch_archive(opt, archive, error)) {
    res.fail("batch archive: " + error);
    return res;
  }
  const svc::DatasetConfig cfg = batch_config(archive);

  // Set-up: the Dataset's deployment build (topology + RIB). It takes
  // about two milliseconds, so it is repeated far more often than a
  // daemon spawn before taking the median.
  std::vector<double> setups;
  std::unique_ptr<svc::Dataset> ds;
  for (int i = 0; i < 51; ++i) {
    ds.reset();
    const auto t = Clock::now();
    Span span("svc.Dataset");
    ds = std::make_unique<svc::Dataset>(cfg);
    setups.push_back(seconds_since(t));
  }
  exec::ThreadPool pool(opt.nproc);

  auto figures = [&](exec::ThreadPool* p, PassOutput& out) {
    for (const std::uint8_t fig : {1, 2, 5, 10}) {
      Span span("svc.figure_digest");
      const auto r = ds->execute(MsgType::kFigureDigest,
                                 svc::encode_figure_query({fig}), p);
      ++res.attempted;
      if (r.type != MsgType::kOk) {
        ++res.failed;
        res.fail("figure " + std::to_string(fig) + ": " + r.payload);
      }
      out.figures += r.payload + "\n";
    }
  };
  auto survey = [&](exec::ThreadPool* p, PassOutput& out) {
    Span span("core.survey_congestion");
    core::CongestionDetectConfig dc = cfg.detect;
    dc.min_samples = static_cast<std::size_t>(
        cfg.detect_min_fraction * static_cast<double>(ds->ping_epochs()));
    out.survey = survey_digest(core::survey_congestion(ds->pings(), dc, p));
    ++res.attempted;
  };

  std::vector<double> pass_ms, verdict_us;
  std::vector<PassOutput> outputs;
  std::size_t records = 0;
  const auto t_run = Clock::now();
  while (outputs.size() < 2 || seconds_since(t_run) < rc.seconds) {
    Span pass_span("batch.pass");
    PassOutput out;
    const auto t0 = Clock::now();
    {
      Span span("svc.Dataset::load");
      ++res.attempted;
      if (!ds->load(error)) {
        ++res.failed;
        res.fail("load: " + error);
        return res;
      }
    }
    records = ds->ingest().records;
    figures(&pool, out);
    {
      Span span("svc.verdicts");
      for (const auto& k : ds->ping_pairs()) {
        const auto t = Clock::now();
        const auto r = ds->execute(
            MsgType::kCongestionVerdict,
            svc::encode_pair_query({k.src, k.dst, k.family, 0}), nullptr);
        verdict_us.push_back(us_between(t, Clock::now()));
        ++res.attempted;
        if (r.type != MsgType::kOk) ++res.failed;
        out.verdicts = fnv(out.verdicts, r.payload);
      }
    }
    survey(&pool, out);
    pass_ms.push_back(seconds_since(t0) * 1e3);
    outputs.push_back(std::move(out));
  }

  // Output checks: every pass agrees, and the figures and the survey are
  // identical when run serially (one thread) on the same stores.
  PassOutput serial;
  figures(nullptr, serial);
  survey(nullptr, serial);
  for (const PassOutput& o : outputs) {
    if (o.figures != outputs.front().figures ||
        o.survey != outputs.front().survey ||
        o.verdicts != outputs.front().verdicts) {
      res.fail("batch passes disagree");
    }
  }
  if (serial.figures != outputs.back().figures) {
    res.fail("figure digests differ between 1 and " +
             std::to_string(opt.nproc) + " threads");
  }
  if (serial.survey != outputs.back().survey) {
    res.fail("survey differs between 1 and " + std::to_string(opt.nproc) +
             " threads: " + serial.survey + " vs " + outputs.back().survey);
  }
  const std::size_t w = Params::kWindows;
  std::printf("batch: %zu passes (max %.1f ms), %zu records, %zu verdicts "
              "(p50 %.1f us), survey %s\n",
              outputs.size(), quantile(pass_ms, 1.0), records,
              verdict_us.size(), windowed_quantile(verdict_us, w, 0.5),
              outputs.back().survey.c_str());

  const double pass_s = median(pass_ms) / 1e3;
  res.e2e["setup_s"] = {median(setups), "s"};
  res.e2e["peak_rss_mb"] = {
      static_cast<double>(proc_status_kib("self", "VmHWM")) / 1024.0, "MB"};
  res.e2e["result_p50_ms"] = {median(pass_ms), "ms"};
  res.e2e["verdict_p90_us"] = {windowed_quantile(verdict_us, w, 0.9), "us"};
  res.e2e["throughput_per_s"] = {static_cast<double>(records) / pass_s, "1/s"};
  return res;
}

}  // namespace perfbench
