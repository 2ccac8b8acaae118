// The untraced run: load driven over the wire through server::Client,
// from one thread per socketpair connection (four, or two on churn_large),
// each a closed loop (one blocking Call() per connection at a time).

#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/report.h"
#include "api/service.h"
#include "server/protocol.h"
#include "setup.h"
#include "workload.h"

namespace perfbench {

/// Judges every response against what the benchmark knows in advance.
/// Thread-safe: the only mutable state (witnesses to verify, first
/// failures) sits behind a mutex.
class Checker {
 public:
  /// `expected`: the verdict of each tenant (empty when verdicts change
  /// during the run and only the final state is checked).
  Checker(const Env& env, std::vector<int> expected);

  /// Records whether `resp` answers `req` (asked of `tenant`) correctly.
  /// Returns false for an error response or a wrong answer.
  bool Check(std::size_t tenant, const cqa::server::Request& req,
             const cqa::server::Response& resp);

  /// Verifies every distinct witness seen, against the benchmark's own
  /// copy of each tenant database (WitnessFromSpecs + VerifyWitness).
  void VerifyWitnesses();

  /// Wrong answers and failed final-state checks so far.
  std::uint64_t wrong() const { return wrong_; }
  /// Notes a failure found outside Check (final-state checks).
  void Fail(const std::string& what);
  std::string first_failure() const;

 private:
  const Env& env_;
  std::vector<int> expected_;
  std::vector<std::string> backend_;  ///< Per tenant.
  mutable std::mutex mu_;
  std::uint64_t wrong_ = 0;
  std::string first_failure_;
  /// Distinct witnesses: (tenant, digest) -> named facts.
  std::map<std::pair<std::size_t, std::uint64_t>, std::vector<cqa::FactSpec>>
      witnesses_;
};

/// One timed request of the measured window.
struct LatencySample {
  float at_s = 0.0f;    ///< Send time, seconds into the measured time.
  float micros = 0.0f;
  bool write = false;   ///< Carries a mutation.
};

enum class Ops { kAll, kReads, kWrites };

/// The measured time is cut into windows of this length (seconds); the
/// latency and throughput figures are taken per window.
inline constexpr double kWindowSeconds = 0.5;

struct WireResult {
  /// The measured time's correctly answered requests: all of them, or a
  /// uniform sample of up to 2048 per connection and window when more
  /// completed.
  std::vector<LatencySample> samples;
  /// Per whole window of the measured time: the share (%) of the
  /// machine's CPU time the hypervisor gave to other guests, and whether
  /// the window is one the figures are taken over (see QuietWindows).
  std::vector<double> steal_pct;
  std::vector<bool> quiet;
  std::vector<double> lateness_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double throughput_rps = 0.0;
  std::vector<std::uint64_t> sent;  ///< Requests sent per client.
  cqa::ServiceStats stats;          ///< Server::Stats() after the load.
};

/// The `p` percentile of `ops` latencies taken in each quiet window of
/// the measured time, reported as the median of those windows' figures.
/// A stall from outside the program hits some windows and leaves this
/// figure alone; a cost the program pays in every window moves it in
/// full.
double WindowedPercentile(const WireResult& wire, double p, Ops ops);

/// Drives `streams` (one per connection) against env.server for
/// `warmup_s` (unmeasured) plus `seconds`.
WireResult RunWire(Env& env, std::vector<RequestStream>& streams,
                   double warmup_s, double seconds, Checker& checker);

/// One blocking request over a fresh connection (final-state checks).
cqa::server::Response CallOnce(Env& env, const cqa::server::Request& req);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
