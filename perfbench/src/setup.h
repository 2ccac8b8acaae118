// Set-up of one benchmark environment: generate the tenants, register
// and ingest them into a fresh cqa::Service, run each tenant's first
// (cold) solve, and start the server. Timed piece by piece: the pieces
// are per-layer metrics, their sum is the end-to-end `setup_s`.

#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

#include <memory>
#include <string>
#include <vector>

#include "api/service.h"
#include "data/database.h"
#include "server/server.h"
#include "workload.h"

namespace perfbench {

struct SetupTimes {
  double cold_compile_s = 0.0;  ///< First Compile of every tenant query.
  double ingest_s = 0.0;        ///< Building + RegisterDatabase.
  double cold_solve_s = 0.0;    ///< First Solve of every tenant.
  double total_s = 0.0;         ///< Including server start.
};

struct Env {
  WorkloadConfig config;
  Dataset data;
  std::unique_ptr<cqa::Service> service;
  std::unique_ptr<cqa::server::Server> server;  ///< Null in traced runs.
  std::vector<cqa::CompiledQuery> compiled;     ///< Per tenant.
  SetupTimes times;
  std::string data_dir;  ///< Durable workloads only.
};

/// Builds a fresh environment. `data_dir` is a directory the durable
/// workload may wipe and fill. Errors are fatal (a benchmark that cannot
/// set up has nothing to report).
std::unique_ptr<Env> Setup(const WorkloadConfig& config, std::uint64_t seed,
                           const std::string& data_dir, bool start_server);

/// ServiceOptions of a workload (durability, snapshot cadence).
cqa::ServiceOptions OptionsFor(const WorkloadConfig& config,
                               const std::string& data_dir);

/// A Database holding `facts` under the schema of `q`.
cqa::Database MakeDatabase(const cqa::ConjunctiveQuery& q,
                           const std::vector<cqa::FactSpec>& facts);

/// Seconds on the steady clock since an arbitrary fixed point.
double NowSeconds();

/// Nearest-rank percentile (`p` in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Prints `message` to stderr and exits with code 1 (no result line).
[[noreturn]] void Die(const std::string& message);

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_H_
