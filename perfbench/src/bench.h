// Shared pieces of the s2s benchmark program (s2sbench): workload parameters, the
// result record every workload fills, statistics, the in-memory span
// tracer, process and /proc helpers, and the open-loop load generator.
//
// s2sbench is one process. It generates its inputs from --seed, runs
// one workload (batch, serve or live) for --seconds, checks the outputs,
// and prints the metrics; see perfbench/README.md.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "svc/dataset.h"
#include "svc/protocol.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
/// A phase start a moment ahead, so the first arrival is not late.
inline Clock::time_point soon() {
  return Clock::now() + std::chrono::milliseconds(2);
}
double us_between(Clock::time_point a, Clock::time_point b);

// ---------------------------------------------------------------------------
// Fixed workload parameters. BENCHMARK.json's `why` lines and README.md
// quote these; change them together.
// ---------------------------------------------------------------------------

struct Params {
  // batch / serve archive: ~60 servers, 60-day traceroute campaign at 3 h,
  // 14-day ping campaign at 15 min, 700 server pairs (both directions).
  static constexpr std::size_t kBatchServers = 60;
  static constexpr double kTraceDays = 60.0;
  static constexpr double kPingDays = 14.0;
  static constexpr std::size_t kBatchPairs = 700;

  // live shard: ~40 servers, 400 pairs, one week of 15-minute prefill.
  static constexpr std::size_t kLiveServers = 40;
  static constexpr std::size_t kLivePairs = 400;
  static constexpr std::size_t kPrefillEpochs = 7 * 96;
  static constexpr std::size_t kExtraEpochs = 4 * 96;

  // serve: open-loop Poisson, Zipf popularity over every archive pair.
  static constexpr double kServeRate = 2000.0;   // req/s, nominal
  static constexpr double kZipfExponent = 0.9;
  static constexpr int kServeCacheMb = 1;        // below the working set
  static constexpr double kLatencyLimitMs = 5.0;  // p90 limit on the ladder
  // Latency quantiles are medians over this many slices of a phase.
  static constexpr std::size_t kWindows = 10;
  static constexpr double kFigureShare = 0.01;   // figure digests in the mix

  // live: one sealed epoch per cadence, fixed-rate reads during ingest.
  static constexpr int kSealCadenceMs = 100;
  static constexpr int kLivePollMs = 2;
  static constexpr double kLiveVerdictRate = 1000.0;  // verdict req/s
  static constexpr double kLivePollRate = 250.0;      // watermark polls/s
  static constexpr double kLiveStatusRate = 2.0;      // kLiveStatus req/s

  // s2sd shape: fixed reactor count, fd-handoff accept (round-robin, so
  // connection placement is the connect order, not a kernel port hash).
  static constexpr int kReactors = 2;
  static constexpr int kServerThreads = 2;
  static constexpr std::size_t kConnections = 4;

  // A run whose generator ran later than this at p90 fell behind its
  // schedule and is invalid. (Its p99 is reported; on a shared machine it
  // is set by single preemptions of the generator's CPU.)
  static constexpr double kMaxGenLagMs = 1.0;
  // Set-ups per run; setup_s is their median.
  static constexpr int kSetups = 5;
};

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Result {
  bool correct = true;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics e2e;    ///< reported with --trace 0
  Metrics layer;  ///< reported with --trace 1

  void fail(const std::string& why);
  /// Adds the other run's counts and problems, and its layer metrics not
  /// yet present.
  void merge(const Result& other);
};

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Linear-interpolation quantile (numpy "linear"); +inf entries (failed
/// requests) sort last, so a failure counts as over any latency limit.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// Median, over `windows` consecutive slices of `v` (kept in time order),
/// of each slice's q-quantile: a stall of the machine moves the slices it
/// falls in, not the median.
double windowed_quantile(const std::vector<double>& v, std::size_t windows,
                         double q);

/// Seeded generators for the workload inputs.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Zipf(s) over ranks 0..n-1, drawn by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// In-memory span tracer for s2sbench's calls into each layer. Spans
// are recorded only while enabled (the traced run), kept in memory, and
// written out once at the end as chrome://tracing JSON.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  struct Event {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
  };

  static Tracer& get();
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Per-name call count, total and self time (duration minus the part
  /// covered by direct children), as a printable table.
  std::string table() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  friend class Span;
  Tracer();
  Clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<Event> events_;
  std::uint32_t current_ = 0;
  std::uint32_t next_id_ = 1;
};

/// RAII span around one call into a layer; a no-op unless tracing.
/// Spans nest on the main thread only.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_ = false;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  const char* name_;
  Clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Processes and /proc.
// ---------------------------------------------------------------------------

/// VmHWM / VmRSS of a process ("self" for this process), in KiB.
std::uint64_t proc_status_kib(const std::string& pid, const char* field);
/// Heap bytes this process has allocated and not freed.
std::uint64_t heap_bytes_in_use();
/// utime + stime of a process, in seconds.
double proc_cpu_seconds(pid_t pid);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< build/scratch directory inside the checkout
  std::string s2sd_path;
  unsigned nproc = 4;
};

/// A spawned s2sd. The destructor stops it (SIGTERM, then SIGKILL after a
/// grace period) and reaps it.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns s2sd with `args`, waits for its "listening on" line, then for
  /// the first OK reply to a ping. Returns false with `error` on failure.
  bool start(const Options& opt, const std::vector<std::string>& args,
             std::string& error);
  /// Graceful drain (SIGTERM) and reap; true when s2sd exited 0.
  bool stop();

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }
  /// The connection that carried the first ping (the server's first
  /// accepted connection); the caller owns it. -1 once taken.
  int take_first_connection();
  /// Spawn -> first OK reply, seconds.
  double setup_s() const { return setup_s_; }

 private:
  pid_t pid_ = -1;
  int first_conn_ = -1;
  std::uint16_t port_ = 0;
  double setup_s_ = 0.0;
};

/// The s2sd command line for a deployment config (provenance flags)
/// and the fixed serving shape.
std::vector<std::string> daemon_args(const s2s::svc::DatasetConfig& cfg,
                                     const std::string& archive,
                                     int cache_mb, int live_poll_ms,
                                     const std::string& report_path);

// ---------------------------------------------------------------------------
// Open-loop load generator: one busy-polling thread, a few non-blocking
// connections, requests sent at their scheduled due times and timed from
// them.
// ---------------------------------------------------------------------------

struct Request {
  s2s::svc::MsgType type = s2s::svc::MsgType::kPingEcho;
  std::string payload;
  std::uint8_t kind = 0;  ///< caller's category index for per-kind stats
};

struct Arrival {
  std::int64_t due_ns = 0;  ///< offset from the phase start
  std::uint32_t request = 0;
  std::uint32_t conn = 0;
};

struct Reply {
  double latency_us = 0.0;  ///< +inf when failed
  bool ok = false;
  std::uint8_t kind = 0;
};

class Connections {
 public:
  Connections() = default;
  ~Connections();
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;

  /// Opens `n` connections one after another, each confirmed with a ping
  /// round trip before the next connects. The first open adopts the
  /// daemon's first connection, so the server's round-robin accept places
  /// connection i on reactor i % reactors; a reopen after a phase closed
  /// them continues the same rotation.
  bool open(Daemon& daemon, std::size_t n, std::string& error);
  std::size_t size() const { return fds_.size(); }

  /// Blocking request/response on connection `c` (control traffic
  /// between phases: stats, checks).
  bool call(std::size_t c, s2s::svc::MsgType type, std::string_view payload,
            s2s::svc::MsgType& rtype, std::string& rpayload);

  struct PhaseStats {
    std::vector<Reply> replies;        ///< one per arrival, in order
    std::vector<double> lag_ms;        ///< send time minus due time
    double elapsed_s = 0.0;            ///< first due to last completion
    std::uint64_t failed = 0;
    std::map<std::string, std::uint64_t> errors;  ///< by error code
    /// "code=n ..." for the failures, empty when none.
    std::string error_summary() const;
  };
  /// Runs one open-loop phase whose arrival offsets count from `start`.
  /// `on_reply(i, type, payload, at)` (may be empty) sees every response
  /// to arrival i. Requests unanswered `grace_s` after the last due time
  /// count as failed, and the connections are then closed. With
  /// `trace_every` > 0 every Nth request carries a trace context.
  PhaseStats run(const std::vector<Request>& requests,
                 const std::vector<Arrival>& arrivals, Clock::time_point start,
                 double grace_s, std::size_t trace_every,
                 const std::function<void(std::size_t, s2s::svc::MsgType,
                                          std::string_view,
                                          Clock::time_point)>& on_reply);

 private:
  std::vector<int> fds_;
};

/// Poisson arrivals at `rate` per second over `seconds`, spread over
/// `conns` connections round-robin; request indices drawn by `pick`.
std::vector<Arrival> poisson_schedule(
    double rate, double seconds, std::size_t conns, std::mt19937_64& rng,
    const std::function<std::uint32_t(std::mt19937_64&)>& pick);

/// Value of `"key":<number>` in a flat JSON reply (first occurrence).
bool json_number(std::string_view json, std::string_view key, double& out);
/// Value of `"key":"<string>"`.
bool json_string(std::string_view json, std::string_view key,
                 std::string& out);

// ---------------------------------------------------------------------------
// Inputs (inputs.cc): generated from the seed outside every timed region
// and cached under <work_dir>/inputs for runs of the same seed and scale.
// ---------------------------------------------------------------------------

s2s::svc::DatasetConfig batch_config(const std::string& archive);
s2s::svc::DatasetConfig live_config(const std::string& archive);

/// The batch/serve archive for `seed`; generated on first use.
bool batch_archive(const Options& opt, std::string& path, std::string& error);

/// The live campaign for `seed`, ping records grouped by epoch.
bool live_epochs(const Options& opt,
                 std::vector<std::vector<s2s::probe::PingRecord>>& epochs,
                 std::string& error);

// ---------------------------------------------------------------------------
// Workloads and the layer suite.
// ---------------------------------------------------------------------------

struct RunConfig {
  double seconds = 10.0;
  bool traced = false;   ///< s2sbench spans + traced s2sd requests
  bool ladder = true;    ///< serve: run the capacity ladder
  int setups = Params::kSetups;
};

Result run_batch(const Options& opt, const RunConfig& rc);
Result run_serve(const Options& opt, const RunConfig& rc);
Result run_live(const Options& opt, const RunConfig& rc);
/// Mean per-request microseconds of each s2sd phase span (queue_wait,
/// cache_lookup, exec, encode, write) from its RunReport, as
/// svc.phase_us.* layer metrics.
void add_phase_metrics(const std::string& report_path, Result& res);
/// In-process per-layer timings of io, core, exec, svc and live.
Result run_layer_suite(const Options& opt);

}  // namespace perfbench
