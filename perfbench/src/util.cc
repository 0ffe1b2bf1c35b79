#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "bench.h"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

void Result::fail(const std::string& why) {
  correct = false;
  problems.push_back(why);
}

void Result::merge(const Result& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& [name, m] : other.layer) layer.emplace(name, m);
  for (const auto& p : other.problems) problems.push_back(p);
  correct = correct && other.correct;
}

// ---------------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double windowed_quantile(const std::vector<double>& v, std::size_t windows,
                         double q) {
  windows = std::max<std::size_t>(1, std::min(windows, v.size()));
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = v.begin() + static_cast<std::ptrdiff_t>(
                                       w * v.size() / windows);
    const auto end = v.begin() + static_cast<std::ptrdiff_t>(
                                     (w + 1) * v.size() / windows);
    per_window.push_back(quantile(std::vector<double>(begin, end), q));
  }

  return median(std::move(per_window));
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + stream;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::draw(std::mt19937_64& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

// ---------------------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Span::Span(const char* name) : name_(name) {
  Tracer& t = Tracer::get();
  if (!t.enabled()) return;
  on_ = true;
  id_ = t.next_id_++;
  parent_ = t.current_;
  t.current_ = id_;
  start_ = Clock::now();
}

Span::~Span() {
  if (!on_) return;
  const auto end = Clock::now();
  Tracer& t = Tracer::get();
  t.current_ = parent_;
  Tracer::Event e;
  e.name = name_;
  e.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   start_ - t.epoch_).count();
  e.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 end - t.epoch_).count();
  e.id = id_;
  e.parent = parent_;
  t.events_.push_back(std::move(e));
}

std::string Tracer::table() const {
  std::map<std::uint32_t, std::int64_t> child_ns;
  for (const Event& e : events_) {
    if (e.parent != 0) child_ns[e.parent] += e.end_ns - e.start_ns;
  }
  struct Row {
    std::uint64_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const Event& e : events_) {
    Row& r = rows[e.name];
    const std::int64_t dur = e.end_ns - e.start_ns;
    ++r.calls;
    r.total_ms += static_cast<double>(dur) / 1e6;
    r.self_ms += static_cast<double>(dur - child_ns[e.id]) / 1e6;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof line, "%-34s %8s %12s %12s\n", "span", "calls",
                "total_ms", "self_ms");
  out << line;
  for (const auto& [name, r] : sorted) {
    std::snprintf(line, sizeof line, "%-34s %8llu %12.3f %12.3f\n",
                  name.c_str(), static_cast<unsigned long long>(r.calls),
                  r.total_ms, r.self_ms);
    out << line;
  }
  return out.str();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                  "\"parent\":%u}}",
                  i == 0 ? "" : ",", e.name.c_str(),
                  static_cast<double>(e.start_ns) / 1e3,
                  static_cast<double>(e.end_ns - e.start_ns) / 1e3, e.id,
                  e.parent);
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------

std::uint64_t proc_status_kib(const std::string& pid, const char* field) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n &&
        line[n] == ':') {
      return std::strtoull(line.c_str() + n + 1, nullptr, 10);
    }
  }
  return 0;
}

std::uint64_t heap_bytes_in_use() {
  const struct mallinfo2 mi = ::mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

double proc_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// ---------------------------------------------------------------------------

namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool write_all(int fd, std::string_view bytes, int timeout_ms) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      pollfd p{fd, POLLOUT, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) return false;
    } else {
      return false;
    }
  }
  return true;
}

/// Splits complete frames off the front of `in`.
template <typename Fn>
bool parse_frames(std::string& in, std::size_t& off, Fn&& on_frame) {
  while (in.size() - off >= s2s::svc::kFrameHeaderBytes) {
    const auto* p = reinterpret_cast<const unsigned char*>(in.data() + off);
    s2s::svc::FrameHeader h;
    if (s2s::svc::parse_frame_header(p, h) != s2s::svc::HeaderStatus::kOk) {
      return false;
    }
    const std::size_t total = s2s::svc::kFrameHeaderBytes + h.payload_bytes;
    if (in.size() - off < total) break;
    const std::string_view payload(in.data() + off +
                                       s2s::svc::kFrameHeaderBytes,
                                   h.payload_bytes);
    if (s2s::svc::frame_crc(p, payload) != h.crc) return false;
    on_frame(h.type, payload);
    off += total;
  }
  if (off > 0 && off == in.size()) {
    in.clear();
    off = 0;
  } else if (off > (1u << 20)) {
    in.erase(0, off);
    off = 0;
  }
  return true;
}

}  // namespace

std::vector<std::string> daemon_args(const s2s::svc::DatasetConfig& cfg,
                                     const std::string& archive,
                                     int cache_mb, int live_poll_ms,
                                     const std::string& report_path) {
  std::vector<std::string> a = {
      "--archive", archive,
      "--seed", std::to_string(cfg.topo_seed),
      "--servers", std::to_string(cfg.server_count),
      "--tier1", std::to_string(cfg.tier1_count),
      "--transit", std::to_string(cfg.transit_count),
      "--stub", std::to_string(cfg.stub_count),
      "--reactors", std::to_string(Params::kReactors),
      "--no-reuseport",
      "--threads", std::to_string(Params::kServerThreads),
      "--cache-mb", std::to_string(cache_mb),
      // Admission bounds lifted: a stall of the machine queues requests
      // instead of shedding them, so overload shows as latency and
      // backlog, which is what the workloads judge.
      "--max-inflight", "1000000",
      "--max-pending-cost", "0",
      "--max-client-pending", "0"};
  if (live_poll_ms > 0) {
    a.push_back("--live-poll-ms");
    a.push_back(std::to_string(live_poll_ms));
  }
  if (report_path.empty()) {
    a.push_back("--no-report");
  } else {
    a.push_back("--report");
    a.push_back(report_path);
  }
  return a;
}

Daemon::~Daemon() { stop(); }

bool Daemon::start(const Options& opt, const std::vector<std::string>& args,
                   std::string& error) {
  const std::string log_path = opt.work_dir + "/s2sd.log";
  port_ = 0;
  const auto t0 = Clock::now();
  std::vector<std::string> argv_s = {opt.s2sd_path};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    error = "cannot open " + log_path;
    return false;
  }
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(log_fd);
    error = "fork failed";
    return false;
  }
  if (pid_ == 0) {
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);

  // Wait for "listening on <host>:<port>", then for the first OK reply.
  const auto deadline = t0 + std::chrono::seconds(120);
  while (port_ == 0) {
    if (Clock::now() > deadline) {
      error = "s2sd did not start listening";
      return false;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      std::ifstream in(log_path);
      std::string log((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
      error = "s2sd exited during start-up: " + log;
      return false;
    }
    std::ifstream in(log_path);
    std::string line;
    while (std::getline(in, line)) {
      const auto at = line.find("listening on ");
      if (at == std::string::npos) continue;
      const auto colon = line.find(':', at + 13);
      if (colon != std::string::npos) {
        port_ = static_cast<std::uint16_t>(
            std::strtoul(line.c_str() + colon + 1, nullptr, 10));
      }
    }
    if (port_ == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const int fd = connect_loopback(port_);
  if (fd < 0) {
    error = "cannot connect to s2sd";
    return false;
  }
  const std::string frame =
      s2s::svc::encode_frame(s2s::svc::MsgType::kPingEcho, 0, "");
  bool ok = write_all(fd, frame, 30000);
  std::string in;
  std::size_t off = 0;
  bool got = false;
  while (ok && !got) {
    char buf[4096];
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 30000) <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    in.append(buf, static_cast<std::size_t>(n));
    ok = parse_frames(in, off, [&](s2s::svc::MsgType t, std::string_view) {
      got = true;
      ok = ok && t == s2s::svc::MsgType::kOk;
    });
  }
  setup_s_ = seconds_since(t0);
  if (!got || !ok) {
    ::close(fd);
    error = "s2sd did not answer its first ping";
    return false;
  }
  if (first_conn_ >= 0) ::close(first_conn_);
  first_conn_ = fd;
  return true;
}

int Daemon::take_first_connection() {
  const int fd = first_conn_;
  first_conn_ = -1;
  return fd;
}

bool Daemon::stop() {
  if (first_conn_ >= 0) ::close(first_conn_);
  first_conn_ = -1;
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ---------------------------------------------------------------------------

Connections::~Connections() {
  for (const int fd : fds_) ::close(fd);
}

bool Connections::open(Daemon& daemon, std::size_t n, std::string& error) {
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = i == 0 && fds_.empty() ? daemon.take_first_connection()
                                          : connect_loopback(daemon.port());
    if (fd < 0) {
      error = "connect failed";
      return false;
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    fds_.push_back(fd);
    s2s::svc::MsgType t;
    std::string payload;
    if (!call(fds_.size() - 1, s2s::svc::MsgType::kPingEcho, "", t,
              payload) ||
        t != s2s::svc::MsgType::kOk) {
      error = "connection ping failed";
      return false;
    }
  }
  return true;
}

bool Connections::call(std::size_t c, s2s::svc::MsgType type,
                       std::string_view payload, s2s::svc::MsgType& rtype,
                       std::string& rpayload) {
  if (c >= fds_.size()) return false;
  const int fd = fds_[c];
  if (!write_all(fd, s2s::svc::encode_frame(type, 0, payload), 30000)) {
    return false;
  }
  std::string in;
  std::size_t off = 0;
  bool got = false;
  while (!got) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 30000) <= 0) return false;
    char buf[65536];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EAGAIN || errno == EINTR) continue;
      return false;
    }
    in.append(buf, static_cast<std::size_t>(n));
    if (!parse_frames(in, off, [&](s2s::svc::MsgType t, std::string_view p) {
          rtype = t;
          rpayload.assign(p);
          got = true;
        })) {
      return false;
    }
  }
  return true;
}

Connections::PhaseStats Connections::run(
    const std::vector<Request>& requests, const std::vector<Arrival>& arrivals,
    Clock::time_point start, double grace_s, std::size_t trace_every,
    const std::function<void(std::size_t, s2s::svc::MsgType,
                             std::string_view, Clock::time_point)>& on_reply) {
  using namespace s2s::svc;
  PhaseStats st;
  st.replies.resize(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    st.replies[i].latency_us = std::numeric_limits<double>::infinity();
    st.replies[i].kind = requests[arrivals[i].request].kind;
  }
  st.lag_ms.reserve(arrivals.size());

  // Frames are encoded before the clock starts.
  std::vector<std::string> frames;
  frames.reserve(requests.size());
  for (const Request& r : requests) {
    frames.push_back(encode_frame(r.type, 0, r.payload));
  }

  struct Conn {
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::size_t in_off = 0;
    std::deque<std::uint32_t> inflight;
    bool want_out = false;
  };
  std::vector<Conn> conns(fds_.size());
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  epoll_event ev{};
  for (std::size_t c = 0; c < fds_.size(); ++c) {
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, fds_[c], &ev);
  }

  const std::int64_t last_due = arrivals.empty() ? 0 : arrivals.back().due_ns;
  const auto give_up = start + std::chrono::nanoseconds(last_due) +
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::duration<double>(grace_s));
  std::size_t next = 0;
  std::size_t outstanding = 0;
  Clock::time_point last_done = start;
  bool broken = false;

  auto flush = [&](std::size_t c) {
    Conn& k = conns[c];
    while (k.out_off < k.out.size()) {
      const ssize_t n = ::send(fds_[c], k.out.data() + k.out_off,
                               k.out.size() - k.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        k.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;
      }
    }
    if (k.out_off == k.out.size()) {
      k.out.clear();
      k.out_off = 0;
    }
    const bool want = !k.out.empty();
    if (want != k.want_out) {
      k.want_out = want;
      epoll_event e{};
      e.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      e.data.u64 = c;
      ::epoll_ctl(ep, EPOLL_CTL_MOD, fds_[c], &e);
    }
  };

  epoll_event events[16];
  std::vector<bool> touched(conns.size());
  while (!broken) {
    const auto now = Clock::now();
    touched.assign(conns.size(), false);
    while (next < arrivals.size() &&
           start + std::chrono::nanoseconds(arrivals[next].due_ns) <= now) {
      const Arrival& a = arrivals[next];
      Conn& k = conns[a.conn];
      if (trace_every > 0 && next % trace_every == 0) {
        const Request& r = requests[a.request];
        TraceContext ctx{mix_seed(next, 77) | 1, mix_seed(next, 78) | 1};
        k.out += encode_frame(r.type, kFlagTraceContext,
                              encode_trace_context(ctx) + r.payload);
      } else {
        k.out += frames[a.request];
      }
      k.inflight.push_back(static_cast<std::uint32_t>(next));
      ++outstanding;
      st.lag_ms.push_back(
          us_between(start + std::chrono::nanoseconds(a.due_ns), now) / 1e3);
      touched[a.conn] = true;
      ++next;
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (touched[c]) flush(c);
    }
    if (next == arrivals.size() && outstanding == 0) break;
    if (now > give_up) break;

    // Busy-poll: a generator that sleeps between arrivals pays the
    // wake-up latency of an idle CPU, which on a virtual machine can be
    // milliseconds, and would count it as the server's.
    const int n = ::epoll_wait(ep, events, 16, 0);
    const auto at = Clock::now();
    for (int i = 0; i < n; ++i) {
      const std::uint64_t c = events[i].data.u64;
      Conn& k = conns[c];
      if (events[i].events & EPOLLOUT) flush(c);
      if (!(events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      for (;;) {
        char buf[65536];
        const ssize_t got = ::recv(fds_[c], buf, sizeof buf, 0);
        if (got > 0) {
          k.in.append(buf, static_cast<std::size_t>(got));
          continue;
        }
        if (got == 0) broken = true;
        if (got < 0 && errno == EINTR) continue;
        break;
      }
      const bool ok = parse_frames(
          k.in, k.in_off, [&](MsgType t, std::string_view payload) {
            if (k.inflight.empty()) {
              broken = true;
              return;
            }
            const std::uint32_t idx = k.inflight.front();
            k.inflight.pop_front();
            --outstanding;
            const auto due =
                start + std::chrono::nanoseconds(arrivals[idx].due_ns);
            Reply& r = st.replies[idx];
            r.ok = t == MsgType::kOk;
            if (!r.ok) ++st.errors[parse_error_payload(payload).code];
            if (r.ok) r.latency_us = us_between(due, at);
            last_done = at;
            if (on_reply) on_reply(idx, t, payload, at);
          });
      if (!ok) broken = true;
    }
  }
  ::close(ep);
  st.elapsed_s = std::chrono::duration<double>(last_done - start).count();
  for (const Reply& r : st.replies) {
    if (!r.ok) ++st.failed;
  }
  if (st.failed > 0) {
    std::uint64_t answered = 0;
    for (const auto& [code, n] : st.errors) answered += n;
    if (st.failed > answered) st.errors["timeout"] = st.failed - answered;
  }
  // A connection with unanswered requests cannot be reused: its replies
  // would arrive in the next phase.
  if (outstanding > 0 || broken) {
    for (const int fd : fds_) ::close(fd);
    fds_.clear();
  }
  return st;
}

std::string Connections::PhaseStats::error_summary() const {
  std::string out;
  for (const auto& [code, n] : errors) {
    out += (out.empty() ? "" : " ") + code + "=" + std::to_string(n);
  }
  return out;
}

std::vector<Arrival> poisson_schedule(
    double rate, double seconds, std::size_t conns, std::mt19937_64& rng,
    const std::function<std::uint32_t(std::mt19937_64&)>& pick) {
  std::vector<Arrival> out;
  std::exponential_distribution<double> gap(rate);
  double t = 0.0;
  for (;;) {
    t += gap(rng);
    if (t >= seconds) break;
    Arrival a;
    a.due_ns = static_cast<std::int64_t>(t * 1e9);
    a.request = pick(rng);
    a.conn = static_cast<std::uint32_t>(out.size() % conns);
    out.push_back(a);
  }
  return out;
}

bool json_number(std::string_view json, std::string_view key, double& out) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const auto at = json.find(needle);
  if (at == std::string_view::npos) return false;
  const std::string rest(json.substr(at + needle.size(), 64));
  char* end = nullptr;
  out = std::strtod(rest.c_str(), &end);
  return end != rest.c_str();
}

bool json_string(std::string_view json, std::string_view key,
                 std::string& out) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const auto at = json.find(needle);
  if (at == std::string_view::npos) return false;
  const auto end = json.find('"', at + needle.size());
  if (end == std::string_view::npos) return false;
  out.assign(json.substr(at + needle.size(), end - at - needle.size()));
  return true;
}

}  // namespace perfbench
