#include "setup.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

cqa::ServiceOptions OptionsFor(const WorkloadConfig& config,
                               const std::string& data_dir) {
  cqa::ServiceOptions options;
  if (config.verdict_cache_entries != 0) {
    options.verdict_cache.max_entries = config.verdict_cache_entries;
  }
  if (config.durable) {
    options.durability.enabled = true;
    options.durability.data_dir = data_dir;
    options.durability.fsync = cqa::store::FsyncPolicy::kEveryBatch;
    options.durability.snapshot_interval = config.snapshot_interval;
  }
  return options;
}

cqa::Database MakeDatabase(const cqa::ConjunctiveQuery& q,
                           const std::vector<cqa::FactSpec>& facts) {
  cqa::Database db(q.schema());
  for (const cqa::FactSpec& f : facts) {
    db.AddFactNamed(q.schema().Find(f.relation), f.args);
  }
  return db;
}

std::unique_ptr<Env> Setup(const WorkloadConfig& config, std::uint64_t seed,
                           const std::string& data_dir, bool start_server) {
  auto env = std::make_unique<Env>();
  env->config = config;
  env->data_dir = data_dir;
  SetupTimes& t = env->times;
  double start = NowSeconds();

  env->data = BuildDataset(config, seed);
  const Dataset& data = env->data;
  double mark = NowSeconds();

  env->service =
      std::make_unique<cqa::Service>(OptionsFor(config, data_dir));
  cqa::Service& service = *env->service;
  for (const Tenant& tenant : data.tenants) {
    cqa::CompileOptions options;
    options.forced_backend = tenant.forced_backend;
    cqa::StatusOr<cqa::CompiledQuery> q =
        service.Compile(tenant.query_text, options);
    if (!q.ok()) Die("compile " + tenant.label + ": " + q.status().ToString());
    env->compiled.push_back(*q);
  }
  double now = NowSeconds();
  t.cold_compile_s = now - mark;
  mark = now;

  for (std::size_t i = 0; i < data.db_names.size(); ++i) {
    cqa::Status registered = service.RegisterDatabase(
        data.db_names[i], MakeDatabase(data.queries[i], data.facts[i]));
    if (!registered.ok()) {
      Die("register " + data.db_names[i] + ": " + registered.ToString());
    }
  }
  now = NowSeconds();
  t.ingest_s = now - mark;
  mark = now;

  for (std::size_t i = 0; i < data.tenants.size(); ++i) {
    const Tenant& tenant = data.tenants[i];
    cqa::StatusOr<cqa::SolveReport> report =
        service.Solve(env->compiled[i], data.db_names[tenant.db]);
    if (!report.ok()) {
      Die("cold solve " + tenant.label + ": " + report.status().ToString());
    }
  }
  now = NowSeconds();
  t.cold_solve_s = now - mark;

  if (start_server) {
    cqa::server::ServerOptions options;
    options.num_workers = 4;
    env->server = std::make_unique<cqa::server::Server>(service, options);
  }
  t.total_s = NowSeconds() - start;
  return env;
}

}  // namespace perfbench
