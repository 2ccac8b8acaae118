#include "traced.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

#include "server/protocol.h"
#include "store/store.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

enum SpanName : std::uint8_t {
  kRequest,
  kDecodeRequest,
  kMutate,
  kCompile,
  kSolve,
  kEncodeResponse,
  kDecodeResponse,
};
constexpr const char* kSpanNames[] = {
    "request",     "protocol.decode_request", "api.mutate",
    "api.compile", "api.solve",               "protocol.encode_response",
    "protocol.decode_response"};

// Mutation batches kept per thread for the store probe (each costs one
// fsync to replay).
constexpr std::size_t kMaxProbeBatchesPerThread = 500;
// Requests per thread whose spans go to the spans file (all are kept in
// memory and feed the metrics).
constexpr std::uint64_t kWrittenRequestsPerThread = 5000;
// All-hit solves per tenant in the engine probe.
constexpr int kProbeSolves = 8;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request_id = 0;
  std::int32_t parent = -1;
  SpanName name = kRequest;
};

class Tracer {
 public:
  std::int32_t Begin(SpanName name, std::int32_t parent, std::uint64_t id) {
    spans_.push_back(Span{NowNs(), 0, id, parent, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  /// Ends span `s` and returns its duration in microseconds.
  double End(std::int32_t s) {
    Span& span = spans_[static_cast<std::size_t>(s)];
    span.end_ns = NowNs();
    return static_cast<double>(span.end_ns - span.start_ns) / 1000.0;
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(std::size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
};

struct SolveSample {
  std::size_t tenant = 0;
  double micros = 0.0;
  std::uint64_t total = 0;
  std::uint64_t resolved = 0;
  std::uint64_t cached = 0;
};

struct ProbeBatch {
  cqa::store::WalRecord::Kind kind = cqa::store::WalRecord::Kind::kInsert;
  std::vector<cqa::store::NamedFact> facts;
};

struct ThreadOut {
  Tracer tracer;
  std::vector<SolveSample> solves;
  std::vector<ProbeBatch> batches;
  std::vector<double> pipeline_us, decode_us, encode_us, compile_us,
      mutate_us;
  double response_bytes = 0.0;
  std::uint64_t failed = 0;
};

/// One request through the worker pipeline, traced.
void ReplayOne(Env& env, const cqa::server::Request& original,
               std::size_t tenant, Checker& checker, ThreadOut* out) {
  cqa::Service& service = *env.service;
  Tracer& tr = out->tracer;
  const std::string frame = cqa::server::Frame(cqa::server::EncodeRequest(original));
  const std::uint64_t id = original.request_id;

  std::int32_t root = tr.Begin(kRequest, -1, id);
  std::int32_t s = tr.Begin(kDecodeRequest, root, id);
  cqa::server::FrameReader reader;
  reader.Feed(frame);
  std::string payload;
  cqa::server::Request req;
  bool decoded = reader.Next(&payload) == cqa::server::FrameReader::Result::kFrame &&
                 cqa::server::DecodeRequest(payload, &req).ok();
  double decode_us = tr.End(s);

  cqa::server::Response resp;
  resp.request_id = id;
  cqa::Status status = decoded ? cqa::Status::Ok()
                               : cqa::Status(cqa::StatusCode::kCorruptedData,
                                             "request did not round-trip");
  if (status.ok() && req.mutation_kind != cqa::server::MutationKind::kNone) {
    s = tr.Begin(kMutate, root, id);
    status = req.mutation_kind == cqa::server::MutationKind::kInsert
                 ? service.InsertFacts(req.db_name, req.mutation)
                 : service.DeleteFacts(req.db_name, req.mutation);
    out->mutate_us.push_back(tr.End(s));
    resp.mutated = status.ok();
    if (env.config.durable &&
        out->batches.size() < kMaxProbeBatchesPerThread) {
      ProbeBatch batch;
      batch.kind = req.mutation_kind == cqa::server::MutationKind::kInsert
                       ? cqa::store::WalRecord::Kind::kInsert
                       : cqa::store::WalRecord::Kind::kDelete;
      for (const cqa::FactSpec& f : req.mutation) {
        batch.facts.push_back({f.relation, f.args});
      }
      out->batches.push_back(std::move(batch));
    }
  }
  if (status.ok() && !req.query_text.empty()) {
    s = tr.Begin(kCompile, root, id);
    cqa::CompileOptions copts;
    copts.forced_backend = req.forced_backend;
    copts.allow_unresolved = req.allow_unresolved;
    cqa::StatusOr<cqa::CompiledQuery> q = service.Compile(req.query_text, copts);
    out->compile_us.push_back(tr.End(s));
    if (q.ok()) {
      s = tr.Begin(kSolve, root, id);
      cqa::StatusOr<cqa::SolveReport> report =
          service.Solve(*q, req.db_name, /*name_witness=*/req.want_witness);
      double solve_us = tr.End(s);
      if (report.ok()) {
        out->solves.push_back({tenant, solve_us, report->components_total,
                               report->components_resolved,
                               report->components_cached});
        resp.certain = report->certain;
        resp.backend_name = report->backend_name;
        resp.num_facts = report->num_facts;
        resp.num_blocks = report->num_blocks;
        resp.components_total = report->components_total;
        resp.components_cached = report->components_cached;
        if (req.want_witness && report->named_witness.has_value()) {
          resp.has_witness = true;
          resp.witness = *report->named_witness;
        }
      } else {
        status = report.status();
      }
    } else {
      status = q.status();
    }
  }
  if (!status.ok()) {
    cqa::server::Response error;
    error.request_id = id;
    error.code = status.code();
    error.message = status.message();
    resp = std::move(error);
  }

  s = tr.Begin(kEncodeResponse, root, id);
  std::string out_frame = cqa::server::Frame(cqa::server::EncodeResponse(resp));
  out->encode_us.push_back(tr.End(s));

  s = tr.Begin(kDecodeResponse, root, id);
  cqa::server::FrameReader back_reader;
  back_reader.Feed(out_frame);
  std::string back_payload;
  cqa::server::Response back;
  bool round_trip =
      back_reader.Next(&back_payload) == cqa::server::FrameReader::Result::kFrame &&
      cqa::server::DecodeResponse(back_payload, &back).ok();
  decode_us += tr.End(s);
  out->decode_us.push_back(decode_us);
  out->pipeline_us.push_back(tr.End(root));
  out->response_bytes += static_cast<double>(out_frame.size());

  if (!round_trip) {
    checker.Fail("response did not round-trip through the codec");
    ++out->failed;
  } else if (!checker.Check(tenant, original, back)) {
    ++out->failed;
  }
}

std::string MetricBackend(std::string_view backend) {
  std::string name(backend);
  std::replace(name.begin(), name.end(), '+', '_');
  return name;
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

/// Times DurableStore::AppendBatch on the replay's own batches, under the
/// workload's fsync policy, in a separate store beside the data (removed
/// with the data directory when the run ends).
void StoreProbe(Env& env, const std::vector<ThreadOut>& outs,
                LayerMetrics* m) {
  std::vector<double> append_us;
  double user_bytes = 0.0;
  double wal_bytes = 0.0;
  if (env.config.durable) {
    std::string dir = env.data_dir + "/append-probe";
    cqa::store::DurableStore::Options options;
    options.fsync = cqa::store::FsyncPolicy::kEveryBatch;
    options.snapshot_interval = 0;
    options.persist_verdicts = false;
    cqa::Database empty(env.data.queries[0].schema());
    auto created = cqa::store::DurableStore::Create(dir, empty, {}, options);
    if (!created.ok()) Die("append probe: " + created.status().ToString());
    std::unique_ptr<cqa::store::DurableStore> store = std::move(*created);
    std::uint64_t header = store->counters().wal_bytes;
    for (const ThreadOut& out : outs) {
      for (const ProbeBatch& batch : out.batches) {
        std::vector<cqa::store::NamedFact> facts = batch.facts;
        for (const cqa::store::NamedFact& f : facts) {
          user_bytes += static_cast<double>(f.relation.size());
          for (const std::string& a : f.args) {
            user_bytes += static_cast<double>(a.size());
          }
        }
        auto t0 = Clock::now();
        cqa::Status appended = store->AppendBatch(batch.kind, std::move(facts));
        auto t1 = Clock::now();
        if (!appended.ok()) Die("append probe: " + appended.ToString());
        append_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
    }
    wal_bytes = static_cast<double>(store->counters().wal_bytes - header);
  }
  (*m)["store.append_us"] = Median(append_us);
  (*m)["store.wal_bytes_per_user_byte"] =
      user_bytes > 0 ? wal_bytes / user_bytes : 0.0;
}

/// Cost of recording one span, measured on this machine.
double SpanCostNs() {
  constexpr int kSpans = 200000;
  Tracer probe;
  probe.Reserve(kSpans);
  std::int64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i) probe.End(probe.Begin(kSolve, -1, i));
  return static_cast<double>(NowNs() - t0) / kSpans;
}

void WriteSpans(const std::string& path, const std::vector<ThreadOut>& outs,
                std::uint64_t max_requests_per_thread) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "thread\tspan\tname\tstart_ns\tend_ns\trequest_id\tparent\n");
  for (std::size_t t = 0; t < outs.size(); ++t) {
    const std::vector<Span>& spans = outs[t].tracer.spans();
    std::uint64_t requests = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.name == kRequest && ++requests > max_requests_per_thread) break;
      std::fprintf(f, "%zu\t%zu\t%s\t%lld\t%lld\t%llu\t%d\n", t, i,
                   kSpanNames[s.name], static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.request_id), s.parent);
    }
  }
  std::fclose(f);
}

}  // namespace

TracedResult RunTraced(Env& env, const std::vector<std::uint64_t>& counts,
                       std::uint64_t seed, Checker& checker,
                       const std::string& spans_path) {
  const WorkloadConfig& config = env.config;
  std::vector<RequestStream> streams;
  for (std::size_t c = 0; c < config.clients; ++c) {
    streams.emplace_back(config, env.data, seed, c);
  }
  const cqa::ServiceStats before = env.service->Stats();

  std::vector<ThreadOut> outs(config.clients);
  std::vector<std::thread> threads;
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t c = 0; c < config.clients; ++c) {
    threads.emplace_back([&, c] {
      ThreadOut& out = outs[c];
      out.tracer.Reserve(counts[c] * 7);
      std::this_thread::sleep_until(start);
      for (std::uint64_t i = 0; i < counts[c]; ++i) {
        cqa::server::Request req = streams[c].Next();
        std::size_t tenant = streams[c].last_tenant();
        ReplayOne(env, req, tenant, checker, &out);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const cqa::ServiceStats after = env.service->Stats();

  TracedResult result;
  LayerMetrics& m = result.metrics;
  std::vector<double> decode, encode, compile, mutate;
  std::map<std::string, std::vector<double>> solve_by, miss_by;
  std::uint64_t total = 0, resolved = 0, cached = 0, solves = 0;
  double response_bytes = 0.0;
  for (const ThreadOut& out : outs) {
    result.pipeline_us.insert(result.pipeline_us.end(),
                              out.pipeline_us.begin(), out.pipeline_us.end());
    decode.insert(decode.end(), out.decode_us.begin(), out.decode_us.end());
    encode.insert(encode.end(), out.encode_us.begin(), out.encode_us.end());
    compile.insert(compile.end(), out.compile_us.begin(), out.compile_us.end());
    mutate.insert(mutate.end(), out.mutate_us.begin(), out.mutate_us.end());
    response_bytes += out.response_bytes;
    result.failed += out.failed;
    result.spans += out.tracer.spans().size();
    for (const SolveSample& s : out.solves) {
      std::string backend =
          MetricBackend(env.compiled[s.tenant].backend_name());
      solve_by[backend].push_back(s.micros);
      if (s.resolved > 0) miss_by[backend].push_back(s.micros);
      total += s.total;
      resolved += s.resolved;
      cached += s.cached;
      ++solves;
    }
  }
  result.replayed = result.pipeline_us.size();

  m["protocol.decode_us"] = Median(decode);
  m["protocol.encode_us"] = Median(encode);
  m["protocol.response_bytes"] =
      result.replayed ? response_bytes / static_cast<double>(result.replayed)
                      : 0.0;
  m["api.compile_us"] = Median(compile);
  std::uint64_t hits = after.compiled.hits - before.compiled.hits;
  std::uint64_t lookups = hits + after.compiled.misses - before.compiled.misses;
  m["api.compile_hit_ratio"] =
      lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  m["api.mutate_us"] = Median(mutate);
  for (const char* backend :
       {"cert2", "certk", "certk_matching", "exhaustive", "sat"}) {
    m[std::string("api.solve_us.") + backend] = Median(solve_by[backend]);
    m[std::string("algo.miss_solve_us.") + backend] = Median(miss_by[backend]);
  }
  double n = solves ? static_cast<double>(solves) : 1.0;
  m["engine.components_per_solve"] = static_cast<double>(total) / n;
  m["engine.resolved_per_solve"] = static_cast<double>(resolved) / n;
  m["engine.verdict_hit_ratio"] =
      total ? static_cast<double>(cached) / static_cast<double>(total) : 0.0;

  cqa::CdclStats sat_before, sat_after;
  std::uint64_t evictions = 0, slots = 0, alive = 0, compactions = 0,
                snapshots = 0;
  for (const auto& db : before.databases) {
    sat_before += db.sat;
    evictions -= db.sat_solvers.evictions;
    compactions -= db.compactions;
    snapshots -= db.snapshots;
  }
  for (const auto& db : after.databases) {
    sat_after += db.sat;
    evictions += db.sat_solvers.evictions;
    compactions += db.compactions;
    snapshots += db.snapshots;
    slots += db.fact_slots;
    alive += db.alive_facts;
  }
  std::uint64_t cdcl_solves = sat_after.solves - sat_before.solves;
  m["sat.conflicts_per_solve"] =
      cdcl_solves ? static_cast<double>(sat_after.conflicts - sat_before.conflicts) /
                        static_cast<double>(cdcl_solves)
                  : 0.0;
  m["sat.warm_ratio"] =
      cdcl_solves ? static_cast<double>(sat_after.warm_solves -
                                        sat_before.warm_solves) /
                        static_cast<double>(cdcl_solves)
                  : 0.0;
  m["sat.pool_evictions"] = static_cast<double>(evictions);
  m["data.slots_per_alive"] =
      alive ? static_cast<double>(slots) / static_cast<double>(alive) : 0.0;
  m["data.compactions"] = static_cast<double>(compactions);
  m["store.snapshots"] = static_cast<double>(snapshots);

  // Engine probe: all-hit solves, time per component probed.
  double probe_ns = 0.0;
  double probe_components = 0.0;
  for (std::size_t t = 0; t < env.data.tenants.size(); ++t) {
    const std::string& db = env.data.db_names[env.data.tenants[t].db];
    for (int i = 0; i < kProbeSolves; ++i) {
      std::int64_t t0 = NowNs();
      cqa::StatusOr<cqa::SolveReport> report =
          env.service->Solve(env.compiled[t], db);
      std::int64_t t1 = NowNs();
      if (!report.ok()) {
        checker.Fail("probe solve: " + report.status().ToString());
        break;
      }
      if (report->components_resolved == 0 && report->components_total > 0) {
        probe_ns += static_cast<double>(t1 - t0);
        probe_components += static_cast<double>(report->components_total);
      }
    }
  }
  m["engine.probe_ns_per_component"] =
      probe_components > 0 ? probe_ns / probe_components : 0.0;

  StoreProbe(env, outs, &m);

  double pipeline_total_ns = 0.0;
  for (double us : result.pipeline_us) pipeline_total_ns += us * 1000.0;
  m["trace.overhead_pct"] =
      pipeline_total_ns > 0
          ? 100.0 * static_cast<double>(result.spans) * SpanCostNs() /
                pipeline_total_ns
          : 0.0;

  if (!spans_path.empty()) WriteSpans(spans_path, outs, kWrittenRequestsPerThread);
  return result;
}

}  // namespace perfbench
