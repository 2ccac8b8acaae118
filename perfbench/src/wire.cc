#include "wire.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <numeric>
#include <thread>
#include <utility>

#include "api/witness.h"
#include "server/client.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::uint64_t WitnessDigest(const std::vector<cqa::FactSpec>& facts) {
  std::uint64_t h = 1469598103934665603ull;
  for (const cqa::FactSpec& f : facts) {
    for (char c : FactKey(f)) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    h = (h ^ 0xff) * 1099511628211ull;
  }
  return h;
}

/// A new socketpair connection to `server`; returns the client end.
int ConnectFd(cqa::server::Server& server) {
  int client_fd = -1;
  int server_fd = -1;
  cqa::Status made = cqa::server::LocalSocketPair(&client_fd, &server_fd);
  if (!made.ok()) Die("socketpair: " + made.ToString());
  cqa::Status served = server.ServeFd(server_fd);
  if (!served.ok()) Die("ServeFd: " + served.ToString());
  return client_fd;
}

cqa::server::Client Connect(cqa::server::Server& server) {
  return cqa::server::Client::FromFd(ConnectFd(server));
}

/// A uniform random sample of at most `capacity` items of a stream
/// (reservoir sampling), so the benchmark's own memory stays the same
/// however fast the program runs and peak_rss_mb measures the program.
template <typename T>
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity) : capacity_(capacity) {
    // Written once up front, so the pages are resident from the start and
    // the process's memory does not depend on how many samples arrive.
    items_.resize(capacity);
    items_.clear();
  }
  void Add(const T& item) {
    ++seen_;
    if (items_.size() < capacity_) {
      items_.push_back(item);
      return;
    }
    // xorshift64: cheap, and deterministic per reservoir.
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    std::uint64_t slot = state_ % seen_;
    if (slot < capacity_) items_[slot] = item;
  }
  const std::vector<T>& items() const { return items_; }
  std::uint64_t seen() const { return seen_; }

 private:
  std::size_t capacity_;
  std::vector<T> items_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

// Latencies kept per thread and per window: every workload but hot_small
// stays below this, so its percentiles are exact.
constexpr std::size_t kSamplesPerWindow = 2048;
constexpr std::size_t kLatenessSamples = 16384;

std::size_t WindowOf(double at_s) {
  return at_s < 0 ? 0 : static_cast<std::size_t>(at_s / kWindowSeconds);
}

/// Windows in which the hypervisor took at most this share (%) of the
/// machine's CPU time count as quiet: two clock ticks of the 200 that 4
/// CPUs count in a window. Even 1-2% of steal raised churn_large's
/// per-window p99 by 9-14%, so the bar is set as low as the counter
/// resolves while still leaving most windows of a calm run.
constexpr double kQuietStealPct = 1.0;

/// Machine-wide {steal, total} CPU time in clock ticks from /proc/stat;
/// {0, 0} where it cannot be read, which makes every window quiet.
std::pair<std::uint64_t, std::uint64_t> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::uint64_t fields[8] = {};
  std::uint64_t total = 0;
  for (std::uint64_t& field : fields) {
    if (!(in >> field)) break;
    total += field;
  }
  return {fields[7], total};
}

/// The windows the figures are taken over: the quiet ones, or, when fewer
/// than a tenth of the windows were quiet, the tenth with the least steal.
/// Steal is time the program could have run but the host gave to another
/// guest; it says nothing about the program, so windows that had any
/// measurable share of it are left out. A run is read from a few quiet
/// seconds rather than from many stolen ones.
std::vector<bool> QuietWindows(const std::vector<double>& steal_pct) {
  const std::size_t n = steal_pct.size();
  const std::size_t want = std::max<std::size_t>(1, n / 10);
  std::vector<bool> quiet(n, false);
  std::size_t count = 0;
  for (std::size_t w = 0; w < n; ++w) {
    if (steal_pct[w] <= kQuietStealPct) {
      quiet[w] = true;
      ++count;
    }
  }
  if (count >= want) return quiet;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal_pct[a] < steal_pct[b];
  });
  quiet.assign(n, false);
  for (std::size_t k = 0; k < want && k < n; ++k) quiet[order[k]] = true;
  return quiet;
}

/// Per-thread samples, merged after the threads join.
struct Samples {
  std::vector<Reservoir<LatencySample>> windows;
  Reservoir<float> lateness{kLatenessSamples};
  std::uint64_t attempted = 0, failed = 0;

  void Add(Clock::time_point at, Clock::time_point measure_from,
           bool write_op, double micros) {
    double at_s = std::chrono::duration<double>(at - measure_from).count();
    std::size_t w = WindowOf(at_s);
    while (windows.size() <= w) windows.emplace_back(kSamplesPerWindow);
    windows[w].Add({static_cast<float>(at_s), static_cast<float>(micros),
                    write_op});
  }
};

/// Closed loop: one blocking caller per stream until `end`. Lateness is
/// the caller's own gap between a response and its next request.
void ClosedLoop(Env& env, RequestStream& stream, Checker& checker,
                Clock::time_point measure_from, Clock::time_point end,
                Samples* out) {
  cqa::server::Client client = Connect(*env.server);
  Clock::time_point last = Clock::now();
  for (;;) {
    Clock::time_point before = Clock::now();
    if (before >= end) break;
    cqa::server::Request req = stream.Next();
    std::size_t tenant = stream.last_tenant();
    Clock::time_point t0 = Clock::now();
    cqa::StatusOr<cqa::server::Response> resp = client.Call(req);
    Clock::time_point t1 = Clock::now();
    ++out->attempted;
    if (!resp.ok()) {
      checker.Fail("transport: " + resp.status().ToString());
      ++out->failed;
      break;
    }
    // Only correct answers are timed and counted as completed, so a
    // change that fails or sheds more cannot read as faster.
    bool ok = checker.Check(tenant, req, *resp);
    if (!ok) ++out->failed;
    if (t0 >= measure_from) {
      if (ok) {
        out->Add(t0, measure_from, IsWrite(req.request_id),
                 MicrosBetween(t0, t1));
      }
      out->lateness.Add(static_cast<float>(MicrosBetween(last, t0)));
    }
    last = t1;
  }
}

}  // namespace

double WindowedPercentile(const WireResult& wire, double p, Ops ops) {
  std::vector<std::vector<double>> windows(wire.quiet.size());
  for (const LatencySample& s : wire.samples) {
    if ((ops == Ops::kReads && s.write) || (ops == Ops::kWrites && !s.write)) {
      continue;
    }
    std::size_t w = WindowOf(s.at_s);
    if (w < windows.size() && wire.quiet[w]) windows[w].push_back(s.micros);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(Percentile(w, p));
  }
  return Percentile(per_window, 0.5);
}

Checker::Checker(const Env& env, std::vector<int> expected)
    : env_(env), expected_(std::move(expected)) {
  for (const cqa::CompiledQuery& q : env.compiled) {
    backend_.emplace_back(q.backend_name());
  }
}

bool Checker::Check(std::size_t tenant, const cqa::server::Request& req,
                    const cqa::server::Response& resp) {
  std::string what;
  bool is_error = false;
  if (resp.code != cqa::StatusCode::kOk) {
    // Counted by the caller as a failed request; not a wrong answer.
    what = "error response " + std::string(cqa::ToString(resp.code)) + ": " +
           resp.message;
    is_error = true;
  } else if (resp.request_id != req.request_id) {
    what = "response id mismatch";
  } else if (!resp.backend_name.empty() &&
             resp.backend_name != backend_[tenant]) {
    what = "tenant " + env_.data.tenants[tenant].label + " answered by " +
           resp.backend_name + ", expected " + backend_[tenant];
  } else if (!expected_.empty() && !req.query_text.empty() &&
             expected_[tenant] >= 0 &&
             resp.certain != (expected_[tenant] == 1)) {
    what = "tenant " + env_.data.tenants[tenant].label + " answered " +
           (resp.certain ? "certain" : "not certain") +
           ", the exhaustive reference disagrees";
  } else if (req.want_witness && !resp.certain &&
             (backend_[tenant] == "exhaustive" || backend_[tenant] == "sat") &&
             !resp.has_witness) {
    what = "non-certain answer without the requested witness";
  }
  if (what.empty()) {
    if (resp.has_witness) {
      std::uint64_t digest = WitnessDigest(resp.witness);
      std::lock_guard lock(mu_);
      witnesses_.try_emplace({tenant, digest}, resp.witness);
    }
    return true;
  }
  std::lock_guard lock(mu_);
  if (!is_error) ++wrong_;
  if (first_failure_.empty()) first_failure_ = what;
  return false;
}

void Checker::VerifyWitnesses() {
  std::map<std::size_t, cqa::Database> copies;
  for (const auto& [key, facts] : witnesses_) {
    std::size_t db = env_.data.tenants[key.first].db;
    auto it = copies.find(db);
    if (it == copies.end()) {
      it = copies
               .emplace(db, MakeDatabase(env_.data.queries[db],
                                         env_.data.facts[db]))
               .first;
    }
    cqa::StatusOr<cqa::Repair> repair = cqa::WitnessFromSpecs(it->second, facts);
    cqa::Status verified =
        repair.ok() ? cqa::VerifyWitness(env_.data.queries[db], it->second,
                                         *repair)
                    : repair.status();
    if (!verified.ok()) {
      Fail("witness for " + env_.data.tenants[key.first].label +
           " rejected: " + verified.ToString());
    }
  }
}

void Checker::Fail(const std::string& what) {
  std::lock_guard lock(mu_);
  ++wrong_;
  if (first_failure_.empty()) first_failure_ = what;
}

std::string Checker::first_failure() const {
  std::lock_guard lock(mu_);
  return first_failure_;
}

WireResult RunWire(Env& env, std::vector<RequestStream>& streams,
                   double warmup_s, double seconds, Checker& checker) {
  auto to_duration = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  // A short lead lets every thread connect before the load starts.
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  Clock::time_point measure_from = start + to_duration(warmup_s);
  Clock::time_point end = measure_from + to_duration(seconds);

  // Only whole windows count.
  const std::size_t windows = WindowOf(seconds);
  WireResult result;
  result.steal_pct.assign(windows, 0.0);
  std::thread sampler([&] {
    std::this_thread::sleep_until(measure_from);
    std::pair<std::uint64_t, std::uint64_t> prev = CpuTicks();
    for (std::size_t w = 0; w < windows; ++w) {
      std::this_thread::sleep_until(measure_from +
                                    to_duration((w + 1) * kWindowSeconds));
      std::pair<std::uint64_t, std::uint64_t> now = CpuTicks();
      std::uint64_t total = now.second - prev.second;
      if (total > 0) {
        result.steal_pct[w] =
            100.0 * static_cast<double>(now.first - prev.first) /
            static_cast<double>(total);
      }
      prev = now;
    }
  });

  // Every window's reservoir exists before the load starts (one more for
  // the partial window at the end), for the same reason.
  std::vector<Samples> samples(streams.size());
  for (Samples& s : samples) {
    for (std::size_t w = 0; w <= windows; ++w) {
      s.windows.emplace_back(kSamplesPerWindow);
    }
  }
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back([&, c] {
      std::this_thread::sleep_until(start);
      ClosedLoop(env, streams[c], checker, measure_from, end, &samples[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  sampler.join();
  result.quiet = QuietWindows(result.steal_pct);

  std::vector<double> per_window_rps(windows, 0.0);
  for (const Samples& s : samples) {
    for (std::size_t w = 0; w < s.windows.size(); ++w) {
      const Reservoir<LatencySample>& window = s.windows[w];
      result.samples.insert(result.samples.end(), window.items().begin(),
                            window.items().end());
      if (w < per_window_rps.size()) {
        per_window_rps[w] +=
            static_cast<double>(window.seen()) / kWindowSeconds;
      }
    }
    result.lateness_us.insert(result.lateness_us.end(),
                              s.lateness.items().begin(),
                              s.lateness.items().end());
    result.attempted += s.attempted;
    result.failed += s.failed;
  }
  for (const RequestStream& s : streams) result.sent.push_back(s.generated());
  // The median of the quiet windows' rates of correct completions.
  std::vector<double> quiet_rps;
  for (std::size_t w = 0; w < windows; ++w) {
    if (result.quiet[w]) quiet_rps.push_back(per_window_rps[w]);
  }
  result.throughput_rps = Percentile(quiet_rps, 0.5);
  result.stats = env.server->Stats();
  return result;
}

cqa::server::Response CallOnce(Env& env, const cqa::server::Request& req) {
  cqa::server::Client client = Connect(*env.server);
  cqa::StatusOr<cqa::server::Response> resp = client.Call(req);
  if (!resp.ok()) {
    cqa::server::Response failed;
    failed.code = resp.status().code();
    failed.message = resp.status().message();
    return failed;
  }
  return *resp;
}

}  // namespace perfbench
