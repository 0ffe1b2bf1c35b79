// s2sbench — the s2s benchmark program.
//
//   s2sbench --workload batch|serve|live --seed N --seconds S --trace 0|1
//            --work-dir DIR --s2sd PATH
//
// --trace 0 runs the workload untraced and reports its end-to-end
// metrics. --trace 1 runs it twice at half length, untraced then traced
// (obs.trace_overhead is the ratio of their result_p50_ms), then the
// in-process layer suite, and reports the per-layer metrics; server-side
// layer metrics a workload does not produce itself (batch runs no
// server, serve no live ingest) come from short traced serve / live
// probes. The last stdout line is the JSON result; the exit code is
// non-zero when an output check failed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "bench.h"
#include "exec/pool.h"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: s2sbench --workload batch|serve|live --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --s2sd PATH\n");
  return 2;
}

Result run_workload(const Options& opt, const RunConfig& rc) {
  if (opt.workload == "batch") return run_batch(opt, rc);
  if (opt.workload == "serve") return run_serve(opt, rc);
  return run_live(opt, rc);
}

Result traced_run(const Options& opt) {
  RunConfig half;
  half.seconds = opt.seconds / 2.0;
  half.ladder = false;
  half.setups = 1;
  const Result untraced = run_workload(opt, half);

  Tracer::get().set_enabled(true);
  half.traced = true;
  Result res = run_workload(opt, half);
  res.merge(untraced);
  res.merge(run_layer_suite(opt));
  // Server-side layers from short traced probes of the other paths.
  RunConfig probe;
  probe.seconds = 4.0;
  probe.traced = true;
  probe.ladder = false;
  probe.setups = 1;
  if (opt.workload == "batch") res.merge(run_serve(opt, probe));
  if (opt.workload != "live") res.merge(run_live(opt, probe));
  Tracer::get().set_enabled(false);

  const auto u = untraced.e2e.find("result_p50_ms");
  const auto t = res.e2e.find("result_p50_ms");
  if (u != untraced.e2e.end() && t != res.e2e.end()) {
    res.layer["obs.trace_overhead"] = {t->second.value / u->second.value,
                                       "ratio"};
  }
  std::printf("per-layer spans (calls from s2sbench, self time):\n%s",
              Tracer::get().table().c_str());
  const std::string trace_path =
      opt.work_dir + "/trace-" + opt.workload + ".json";
  if (Tracer::get().write_chrome_json(trace_path)) {
    std::printf("spans written to %s\n", trace_path.c_str());
  }
  return res;
}

/// Jiffies the hypervisor gave to other guests while ours wanted to run
/// (the "steal" column of /proc/stat), summed over CPUs.
double steal_jiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  double v[8] = {};
  const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0.0;
}

void print_result(const Result& res, const Metrics& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& p : res.problems) std::fprintf(stderr, "CHECK: %s\n", p.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string trace = "0";
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (!std::strcmp(argv[i], "--workload")) opt.workload = next();
    else if (!std::strcmp(argv[i], "--seed")) opt.seed = std::strtoull(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--seconds")) opt.seconds = std::atof(next());
    else if (!std::strcmp(argv[i], "--trace")) trace = next();
    else if (!std::strcmp(argv[i], "--work-dir")) opt.work_dir = next();
    else if (!std::strcmp(argv[i], "--s2sd")) opt.s2sd_path = next();
    else return usage();
  }
  if ((opt.workload != "batch" && opt.workload != "serve" &&
       opt.workload != "live") ||
      (trace != "0" && trace != "1") || !(opt.seconds > 0.0) ||
      opt.work_dir.empty() || opt.s2sd_path.empty()) {
    return usage();
  }
  opt.trace = trace == "1";
  opt.nproc = s2s::exec::hardware_threads();
  std::filesystem::create_directories(opt.work_dir);

  const double steal0 = steal_jiffies();
  const auto t0 = std::chrono::steady_clock::now();
  Result res;
  if (opt.trace) {
    res = traced_run(opt);
  } else {
    RunConfig rc;
    rc.seconds = opt.seconds;
    res = run_workload(opt, rc);
  }
  // Host interference is the main source of run-to-run spread on a shared
  // virtual machine; print it so a noisy run can be recognised.
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("cpu steal during the run: %.1f%% of %u CPUs\n",
              100.0 * (steal_jiffies() - steal0) /
                  static_cast<double>(::sysconf(_SC_CLK_TCK)) /
                  (wall_s * opt.nproc),
              opt.nproc);
  Metrics& metrics = opt.trace ? res.layer : res.e2e;
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) res.fail(name + " is not finite");
  }
  if (res.attempted == 0) res.fail("no operation attempted");
  print_result(res, metrics);
  return res.correct ? 0 : 1;
}
