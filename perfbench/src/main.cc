// perfbench: the serving benchmark. One process starts an in-process
// server::Server (4 workers) over a cqa::Service and drives it through
// server::Client over socketpairs. See perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --data-dir DIR [--out-dir DIR] [--meta-out FILE]
//             [--small] [--corrupt-expected]
//   perfbench --workload NAME --seed N --stream-digest COUNT
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the wire load
// once more and then a traced in-process replay of the same streams, and
// prints the per-layer metrics. The last stdout line is the result JSON.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "server/protocol.h"
#include "setup.h"
#include "traced.h"
#include "wire.h"
#include "workload.h"

namespace perfbench {
namespace {

// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 5;
// Cap on requests each traced replay thread re-executes.
constexpr std::uint64_t kMaxTracedPerThread = 20000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string data_dir;
  std::string out_dir;
  std::string meta_out;
  bool small = false;
  bool corrupt_expected = false;
  std::uint64_t digest_requests = 0;
};

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(value().c_str());
    } else if (flag == "--data-dir") {
      a.data_dir = value();
    } else if (flag == "--out-dir") {
      a.out_dir = value();
    } else if (flag == "--meta-out") {
      a.meta_out = value();
    } else if (flag == "--stream-digest") {
      a.digest_requests = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--small") {
      a.small = true;
    } else if (flag == "--corrupt-expected") {
      a.corrupt_expected = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.seconds < kWindowSeconds) {
    Die("--seconds must be at least one measurement window (0.5 s)");
  }
  if (a.trace != 0 && a.trace != 1) Die("--trace must be 0 or 1");
  return a;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The `p` percentile of every latency sample of the wire run, windows
/// and steal ignored.
double PooledPercentile(const WireResult& wire, double p) {
  std::vector<double> micros;
  micros.reserve(wire.samples.size());
  for (const LatencySample& s : wire.samples) micros.push_back(s.micros);
  return Percentile(std::move(micros), p);
}

double Warmup(double seconds) { return std::min(1.0, 0.1 * seconds); }

std::vector<RequestStream> MakeStreams(const Env& env, std::uint64_t seed,
                                       std::size_t clients) {
  std::vector<RequestStream> streams;
  for (std::size_t c = 0; c < clients; ++c) {
    streams.emplace_back(env.config, env.data, seed, c);
  }
  return streams;
}

/// hot_small's reference verdicts: every tenant's query compiled a second
/// time with forced_backend = "exhaustive" and solved in process.
std::vector<int> ReferenceVerdicts(Env& env, bool corrupt) {
  std::vector<int> expected;
  if (env.config.kind != Kind::kHotSmall) return expected;
  for (const Tenant& tenant : env.data.tenants) {
    cqa::CompileOptions options;
    options.forced_backend = "exhaustive";
    cqa::StatusOr<cqa::CompiledQuery> q =
        env.service->Compile(tenant.query_text, options);
    if (!q.ok()) Die("reference compile: " + q.status().ToString());
    cqa::StatusOr<cqa::SolveReport> report =
        env.service->Solve(*q, env.data.db_names[tenant.db]);
    if (!report.ok()) Die("reference solve: " + report.status().ToString());
    expected.push_back(report->certain ? 1 : 0);
  }
  if (corrupt) expected[0] = 1 - expected[0];
  return expected;
}

std::vector<std::string> SortedKeys(const std::vector<cqa::FactSpec>& facts) {
  std::vector<std::string> keys;
  keys.reserve(facts.size());
  for (const cqa::FactSpec& f : facts) keys.push_back(FactKey(f));
  std::sort(keys.begin(), keys.end());
  return keys;
}

void CompareFacts(const cqa::Service& service, const std::string& db,
                  const std::vector<cqa::FactSpec>& model, const char* when,
                  Checker& checker) {
  cqa::StatusOr<std::vector<cqa::FactSpec>> listed = service.ListFacts(db);
  if (!listed.ok()) {
    checker.Fail(std::string(when) + " ListFacts(" + db +
                 "): " + listed.status().ToString());
  } else if (SortedKeys(*listed) != SortedKeys(model)) {
    checker.Fail(std::string(when) + ": facts of " + db + " (" +
                 std::to_string(listed->size()) + ") differ from the model (" +
                 std::to_string(model.size()) + ")");
  }
}

/// End-of-run checks of the final state (after the load has stopped).
void FinalChecks(Env& env, const std::vector<RequestStream>& streams,
                 bool corrupt, Checker& checker) {
  const Dataset& data = env.data;
  if (env.config.kind == Kind::kHotSmall) {
    checker.VerifyWitnesses();
    return;
  }
  std::vector<std::vector<cqa::FactSpec>> model =
      ModelFacts(streams, data.db_names.size());
  if (env.config.kind == Kind::kChurnLarge) {
    cqa::ServiceOptions options;
    options.explain_non_certain = false;
    cqa::Service reference(options);
    for (std::size_t db = 0; db < data.db_names.size(); ++db) {
      CompareFacts(*env.service, data.db_names[db], model[db], "after churn",
                   checker);
    }
    for (std::size_t t = 0; t < data.tenants.size(); ++t) {
      const Tenant& tenant = data.tenants[t];
      cqa::server::Request req;
      req.request_id = 1;
      req.db_name = data.db_names[tenant.db];
      req.query_text = tenant.query_text;
      req.forced_backend = tenant.forced_backend;
      cqa::server::Response resp = CallOnce(env, req);
      cqa::CompileOptions copts;
      copts.forced_backend = tenant.forced_backend;
      cqa::StatusOr<cqa::CompiledQuery> q =
          reference.Compile(tenant.query_text, copts);
      cqa::StatusOr<cqa::SolveReport> ref =
          q.ok() ? reference.Solve(
                       *q, MakeDatabase(data.queries[tenant.db], model[tenant.db]))
                 : cqa::StatusOr<cqa::SolveReport>(q.status());
      if (resp.code != cqa::StatusCode::kOk || !ref.ok()) {
        checker.Fail("final solve of " + tenant.label + " failed");
        continue;
      }
      bool expected = ref->certain != (corrupt && t == 0);
      if (resp.certain != expected) {
        checker.Fail("final wire solve of " + tenant.label +
                     " disagrees with an ad-hoc solve of the model");
      }
    }
    return;
  }
  // durable_write: stop serving, drop the service, recover from disk.
  if (corrupt && !model[0].empty()) model[0].pop_back();
  env.server->Stop();
  env.server.reset();
  env.service.reset();
  cqa::Service recovered(OptionsFor(env.config, env.data_dir));
  for (std::size_t db = 0; db < data.db_names.size(); ++db) {
    cqa::Status status = recovered.RecoverDatabase(data.db_names[db]);
    if (!status.ok()) {
      checker.Fail("RecoverDatabase(" + data.db_names[db] +
                   "): " + status.ToString());
      continue;
    }
    CompareFacts(recovered, data.db_names[db], model[db], "after recovery",
                 checker);
  }
}

std::string Unit(const std::string& metric) {
  auto ends = [&](const char* suffix) {
    std::string s = suffix;
    return metric.size() >= s.size() &&
           metric.compare(metric.size() - s.size(), s.size(), s) == 0;
  };
  if (metric == "throughput_rps") return "1/s";
  if (metric == "peak_rss_mb") return "MB";
  if (metric == "trace.overhead_pct") return "%";
  if (metric == "protocol.response_bytes") return "bytes";
  if (ends("_us") || metric.find("_us.") != std::string::npos) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_ns_per_component")) return "ns";
  if (ends("_s")) return "s";
  if (ends("_ratio") || ends("_per_alive") || ends("_per_user_byte")) {
    return "ratio";
  }
  return "count";
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const LayerMetrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    out += (first ? "" : ", ") + std::string("\"") + name +
           "\": {\"value\": " + buf + ", \"unit\": \"" + Unit(name) + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void WriteMeta(const Args& args, const Env& env, const WireResult& wire,
               const std::vector<double>& setups) {
  if (args.meta_out.empty()) return;
  std::FILE* f = std::fopen(args.meta_out.c_str(), "w");
  if (f == nullptr) return;
  const WorkloadConfig& c = env.config;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                  "\"trace\": %d, \"small\": %s, \"clients\": %zu, "
                  "\"fsync_policy\": \"%s\", \"snapshot_interval\": %u, "
                  "\"server_workers\": 4, \"warmup_s\": %g, \"setups_s\": [",
               c.name.c_str(), static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace, args.small ? "true" : "false",
               c.clients,
               c.durable ? "every_batch" : "durability_off",
               c.snapshot_interval, Warmup(args.seconds));
  for (std::size_t i = 0; i < setups.size(); ++i) {
    std::fprintf(f, "%s%.6f", i ? ", " : "", setups[i]);
  }
  std::fprintf(f, "], \"databases\": [");
  for (std::size_t i = 0; i < env.data.db_names.size(); ++i) {
    std::fprintf(f, "%s{\"name\": \"%s\", \"facts\": %zu}", i ? ", " : "",
                 env.data.db_names[i].c_str(), env.data.facts[i].size());
  }
  std::size_t writes = 0;
  for (const LatencySample& s : wire.samples) writes += s.write ? 1 : 0;
  std::size_t quiet = 0;
  std::fprintf(f, "], \"window_steal_pct\": [");
  for (std::size_t w = 0; w < wire.steal_pct.size(); ++w) {
    std::fprintf(f, "%s%.1f", w ? ", " : "", wire.steal_pct[w]);
    quiet += wire.quiet[w] ? 1 : 0;
  }
  std::fprintf(f, "], \"windows_used\": %zu", quiet);
  std::fprintf(f, ", \"read_samples\": %zu, \"write_samples\": %zu, "
                  "\"pooled_p50_us\": %.3f, \"pooled_p99_us\": %.3f, "
                  "\"read_p50_us\": %.3f, \"read_p99_us\": %.3f, "
                  "\"write_p50_us\": %.3f, \"write_p99_us\": %.3f}\n",
               wire.samples.size() - writes, writes,
               PooledPercentile(wire, 0.5), PooledPercentile(wire, 0.99),
               WindowedPercentile(wire, 0.5, Ops::kReads),
               WindowedPercentile(wire, 0.99, Ops::kReads),
               WindowedPercentile(wire, 0.5, Ops::kWrites),
               WindowedPercentile(wire, 0.99, Ops::kWrites));
  std::fclose(f);
}

std::string SetupDir(const Args& args, const std::string& name) {
  std::string dir = args.data_dir + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

int RunStreamDigest(const Args& args, const WorkloadConfig& config) {
  Dataset data = BuildDataset(config, args.seed);
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& bytes) {
    for (char c : bytes) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  };
  for (const auto& facts : data.facts) {
    for (const cqa::FactSpec& f : facts) mix(FactKey(f) + "\n");
  }
  for (std::size_t c = 0; c < config.clients; ++c) {
    RequestStream stream(config, data, args.seed, c);
    for (std::uint64_t i = 0; i < args.digest_requests; ++i) {
      mix(cqa::server::Frame(cqa::server::EncodeRequest(stream.Next())));
    }
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"requests_per_client\": "
              "%llu, \"digest\": \"%016llx\"}\n",
              config.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(args.digest_requests),
              static_cast<unsigned long long>(h));
  return 0;
}

int RunEndToEnd(const Args& args, const WorkloadConfig& config) {
  std::vector<double> setups;
  std::unique_ptr<Env> env;
  for (int k = 0; k < kSetups; ++k) {
    env.reset();
    env = Setup(config, args.seed, SetupDir(args, "setup-" + std::to_string(k)),
                /*start_server=*/true);
    setups.push_back(env->times.total_s);
  }
  std::vector<int> expected = ReferenceVerdicts(*env, args.corrupt_expected);
  std::vector<RequestStream> streams =
      MakeStreams(*env, args.seed, config.clients);
  Checker checker(*env, expected);
  WireResult wire =
      RunWire(*env, streams, Warmup(args.seconds), args.seconds, checker);
  // Before FinalChecks, which builds the benchmark's own reference state.
  double peak_rss_mb = PeakRssMb();
  FinalChecks(*env, streams, args.corrupt_expected, checker);
  WriteMeta(args, *env, wire, setups);

  bool correct = checker.wrong() == 0;
  if (!correct) {
    std::fprintf(stderr, "perfbench: check failed: %s\n",
                 checker.first_failure().c_str());
    PrintResult(false, wire.attempted, wire.failed, {});
    return 1;
  }
  LayerMetrics m;
  m["setup_s"] = Percentile(setups, 0.5);
  m["throughput_rps"] = wire.throughput_rps;
  m["latency_p50_us"] = WindowedPercentile(wire, 0.5, Ops::kAll);
  m["latency_p99_us"] = WindowedPercentile(wire, 0.99, Ops::kAll);
  m["ok_ratio"] = wire.attempted
                      ? 1.0 - static_cast<double>(wire.failed) /
                                  static_cast<double>(wire.attempted)
                      : 0.0;
  m["peak_rss_mb"] = peak_rss_mb;
  PrintResult(true, wire.attempted, wire.failed, m);
  return 0;
}

int RunLayered(const Args& args, const WorkloadConfig& config) {
  // Untraced wire run: the latencies server.overhead_us subtracts from,
  // the server's queue counters, and the load generator's lateness.
  std::unique_ptr<Env> env =
      Setup(config, args.seed, SetupDir(args, "trace-wire"), true);
  std::vector<int> expected = ReferenceVerdicts(*env, args.corrupt_expected);
  std::vector<RequestStream> streams =
      MakeStreams(*env, args.seed, config.clients);
  Checker wire_checker(*env, expected);
  WireResult wire =
      RunWire(*env, streams, Warmup(args.seconds), args.seconds, wire_checker);
  FinalChecks(*env, streams, args.corrupt_expected, wire_checker);
  WriteMeta(args, *env, wire, {env->times.total_s});
  const SetupTimes wire_setup = env->times;
  env.reset();

  // Traced replay of the same streams on a fresh set-up.
  env = Setup(config, args.seed, SetupDir(args, "trace-replay"),
              /*start_server=*/false);
  Checker checker(*env, expected);
  std::vector<std::uint64_t> counts;
  for (std::uint64_t sent : wire.sent) {
    counts.push_back(std::min(sent, kMaxTracedPerThread));
  }
  std::string spans_path;
  if (!args.out_dir.empty()) {
    spans_path = args.out_dir + "/spans-" + config.name + ".tsv";
  }
  TracedResult traced = RunTraced(*env, counts, args.seed, checker, spans_path);
  if (config.kind == Kind::kHotSmall) checker.VerifyWitnesses();

  std::uint64_t attempted = wire.attempted + traced.replayed;
  std::uint64_t failed = wire.failed + traced.failed;
  bool correct = wire_checker.wrong() == 0 && checker.wrong() == 0;
  if (!correct) {
    std::string why = wire_checker.first_failure();
    if (why.empty()) why = checker.first_failure();
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    PrintResult(false, attempted, failed, {});
    return 1;
  }
  LayerMetrics m = traced.metrics;
  // Both sides pooled over their whole run: the traced replay is not
  // cut into quiet windows, so the wire side must not be either.
  m["server.overhead_us"] =
      PooledPercentile(wire, 0.5) - Percentile(traced.pipeline_us, 0.5);
  const auto& s = wire.stats.server;
  m["server.queue_peak"] = static_cast<double>(s.peak_queue_depth);
  m["server.rejected"] = static_cast<double>(
      s.shed_overloaded + s.deadline_rejected_admission +
      s.deadline_rejected_dequeue + s.deadline_rejected_pipeline +
      s.decode_errors);
  m["classify.cold_compile_ms"] = wire_setup.cold_compile_s * 1000.0;
  m["setup.ingest_s"] = wire_setup.ingest_s;
  m["setup.cold_solve_s"] = wire_setup.cold_solve_s;
  m["loadgen.lateness_us"] = Percentile(wire.lateness_us, 0.99);
  std::fprintf(stderr,
               "perfbench: pooled wire p50 %.1f us; traced pipeline p50 "
               "%.1f us over %llu replayed requests\n",
               PooledPercentile(wire, 0.5),
               Percentile(traced.pipeline_us, 0.5),
               static_cast<unsigned long long>(traced.replayed));
  PrintResult(true, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = Parse(argc, argv);
  WorkloadConfig config;
  if (!ConfigFor(args.workload, args.small, &config)) {
    Die("unknown workload '" + args.workload + "'");
  }
  if (args.digest_requests > 0) return RunStreamDigest(args, config);
  if (args.data_dir.empty()) Die("--data-dir is required");
  std::filesystem::create_directories(args.data_dir);
  int code = args.trace == 1 ? RunLayered(args, config)
                             : RunEndToEnd(args, config);
  std::filesystem::remove_all(args.data_dir);
  return code;
}
