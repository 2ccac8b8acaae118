// bench_churn: sustained insert/delete/solve churn against one registered
// database — the ROADMAP's long-lived high-churn deployment in miniature.
//
// Two experiments:
//   1. Compaction: alternating delete/insert over a fixed live set, with
//      automatic tombstone compaction off vs on. Reports mutations/sec,
//      solves/sec, and the peak resident fact-slot count (off: slots grow
//      with every re-insert; on: bounded by alive/(1-dead_ratio)).
//   2. Locking: T threads (1, 2, 4, ... up to --threads), each churning
//      its own disjoint q-connected components and solving after every
//      round under the component-sharded locking scheme. Reports
//      combined throughput per thread count.
//
// Custom main (not google-benchmark): the experiments need a shared
// Service across threads, peak-stat polling, and an A/B over
// ServiceOptions, which fit a plain driver better than the fixture API.
//
//   ./bench_churn [--smoke] [--facts=N] [--ops=N] [--threads=N]
//
// --smoke shrinks everything for CI artifact runs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "bench_json.h"

namespace cqa {
namespace {

struct Config {
  std::size_t facts = 10000;   // Live facts in the database.
  std::size_t ops = 100000;    // Mutations per experiment.
  std::size_t threads = 8;     // Max threads for the locking experiment.
  bool smoke = false;
  std::string label = "adhoc";  // Run label in BENCH_churn.json.
  std::string out_dir;          // BENCH file directory ("" = repo root).
};

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Disjoint two-fact inconsistent components for q3 = R(x | y) R(y | z):
/// block {R(a|b), R(a|c)} per index, namespaced per thread.
std::string NsName(std::size_t thread, const char* stem, std::size_t i) {
  return "t" + std::to_string(thread) + stem + std::to_string(i);
}

Database BuildDatabase(const Schema& schema, std::size_t threads,
                       std::size_t components_per_thread) {
  Database db(schema);
  for (std::size_t t = 0; t < threads; ++t) {
    for (std::size_t i = 0; i < components_per_thread; ++i) {
      db.AddFactNamed(0, {NsName(t, "a", i), NsName(t, "b", i)});
      db.AddFactNamed(0, {NsName(t, "a", i), NsName(t, "c", i)});
    }
  }
  return db;
}

// ---------------------------------------------------------------------
// Experiment 1: compaction on vs off under alternating delete/insert.
// ---------------------------------------------------------------------

void RunCompactionExperiment(const Config& config, bool compaction,
                             std::FILE* out, bench::BenchJsonWriter* writer) {
  ServiceOptions options;
  options.compact_dead_ratio = compaction ? 0.4 : 2.0;  // >=1 disables.
  options.compact_min_slots = 256;
  // Keep the verdict cache above the component count at any --facts:
  // this experiment measures compaction, not cache-thrash behavior.
  options.verdict_cache.max_entries =
      std::max<std::size_t>(options.verdict_cache.max_entries, config.facts);
  Service service(options);
  auto q = service.Compile("R(x | y) R(y | z)");
  if (!q.ok()) {
    std::fprintf(stderr, "compile: %s\n", q.status().ToString().c_str());
    std::exit(1);
  }
  std::size_t components = config.facts / 2;
  (void)service.RegisterDatabase(
      "db", BuildDatabase(q->query().schema(), 1, components));

  std::uint64_t peak_slots = 0;
  std::uint64_t compactions = 0;
  std::uint64_t solves = 0;
  double solve_seconds = 0.0;
  auto start = std::chrono::steady_clock::now();
  for (std::size_t op = 0; op < config.ops; op += 2) {
    std::size_t i = (op / 2) % components;
    FactSpec spec{"R", {NsName(0, "a", i), NsName(0, "c", i)}};
    MutationStats stats;
    (void)service.DeleteFacts("db", {spec}, &stats);
    (void)service.InsertFacts("db", {spec}, &stats);
    compactions += stats.compactions;
    if ((op / 2) % 64 == 0) {
      auto solve_start = std::chrono::steady_clock::now();
      auto report = service.Solve(*q, "db");
      solve_seconds += Seconds(solve_start);
      ++solves;
      if (!report.ok()) std::exit(1);
      ServiceStats snapshot = service.Stats();
      peak_slots = std::max(peak_slots, snapshot.databases[0].fact_slots);
    }
  }
  double elapsed = Seconds(start);
  ServiceStats stats = service.Stats();
  std::fprintf(
      out,
      "compaction=%-3s  mutations/sec=%9.0f  solves/sec=%7.1f  "
      "peak_slots=%8llu  final_slots=%8llu  alive=%llu  compactions=%llu\n",
      compaction ? "on" : "off",
      static_cast<double>(config.ops) / (elapsed - solve_seconds),
      static_cast<double>(solves) / solve_seconds,
      static_cast<unsigned long long>(peak_slots),
      static_cast<unsigned long long>(stats.databases[0].fact_slots),
      static_cast<unsigned long long>(stats.databases[0].alive_facts),
      static_cast<unsigned long long>(compactions));
  bench::BenchEntry entry;
  entry.name = std::string("compaction/") + (compaction ? "on" : "off");
  entry.variant = "churn";
  entry.wall_seconds = elapsed;
  entry.iterations = config.ops;
  entry.counters = {
      {"mutations_per_sec",
       static_cast<double>(config.ops) / (elapsed - solve_seconds)},
      {"solves_per_sec", static_cast<double>(solves) / solve_seconds},
      {"peak_slots", static_cast<double>(peak_slots)},
      {"final_slots", static_cast<double>(stats.databases[0].fact_slots)},
      {"alive", static_cast<double>(stats.databases[0].alive_facts)},
      {"compactions", static_cast<double>(compactions)},
  };
  writer->Add(std::move(entry));
}

// ---------------------------------------------------------------------
// Experiment 2: component-sharded locking, T threads of mutate+solve
// rounds on disjoint components.
// ---------------------------------------------------------------------

void RunLockingExperiment(const Config& config, std::size_t threads,
                          std::FILE* out, bench::BenchJsonWriter* writer) {
  ServiceOptions options;
  options.compact_dead_ratio = 0.4;
  options.compact_min_slots = 256;
  options.verdict_cache.max_entries =
      std::max<std::size_t>(options.verdict_cache.max_entries, config.facts);
  Service service(options);
  auto q = service.Compile("R(x | y) R(y | z)");
  if (!q.ok()) std::exit(1);
  std::size_t per_thread = std::max<std::size_t>(1, config.facts / 2 / threads);
  (void)service.RegisterDatabase(
      "db", BuildDatabase(q->query().schema(), threads, per_thread));
  // Warm the verdict cache so the measured loop is steady-state churn,
  // not first-solve partition building.
  (void)service.Solve(*q, "db");

  std::size_t rounds_per_thread = config.ops / 2 / threads;
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  auto start = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t round = 0; round < rounds_per_thread; ++round) {
        std::size_t i = round % per_thread;
        FactSpec spec{"R", {NsName(t, "a", i), NsName(t, "c", i)}};
        if (!service.DeleteFacts("db", {spec}).ok()) ++failures;
        if (!service.InsertFacts("db", {spec}).ok()) ++failures;
        if (!service.Solve(*q, "db").ok()) ++failures;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  double elapsed = Seconds(start);
  if (failures.load() != 0) {
    std::fprintf(stderr, "locking experiment failures: %llu\n",
                 static_cast<unsigned long long>(failures.load()));
    std::exit(1);
  }
  double rounds = static_cast<double>(rounds_per_thread * threads);
  double per_sec = rounds / elapsed;
  std::fprintf(out,
               "threads=%2zu  rounds/sec=%9.0f  "
               "(each round = 2 mutations + 1 solve)\n",
               threads, per_sec);
  bench::BenchEntry entry;
  entry.name = "locking/threads=" + std::to_string(threads);
  entry.variant = "sharded";
  entry.wall_seconds = elapsed;
  entry.iterations = rounds_per_thread * threads;
  entry.counters = {{"rounds_per_sec", per_sec},
                    {"threads", static_cast<double>(threads)}};
  writer->Add(std::move(entry));
}

void Run(const Config& config) {
  std::FILE* out = stdout;
  bench::BenchJsonWriter writer("churn", config.label);
  std::fprintf(out,
               "bench_churn: facts=%zu ops=%zu max_threads=%zu%s\n\n",
               config.facts, config.ops, config.threads,
               config.smoke ? " (smoke)" : "");

  std::fprintf(out, "[1] tombstone compaction (single-threaded churn)\n");
  RunCompactionExperiment(config, /*compaction=*/false, out, &writer);
  RunCompactionExperiment(config, /*compaction=*/true, out, &writer);

  std::fprintf(out, "\n[2] sharded locking, throughput per thread count\n");
  for (std::size_t t = 1; t <= config.threads; t *= 2) {
    RunLockingExperiment(config, t, out, &writer);
  }

  std::string path = writer.WriteMerged(config.out_dir);
  std::fprintf(out, "\nwrote %s (label=%s, %zu entries)\n", path.c_str(),
               config.label.c_str(), writer.entries().size());
}

}  // namespace
}  // namespace cqa

int main(int argc, char** argv) {
  // Line-buffer stdout so the nightly CI tee shows progress live.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  cqa::Config config;
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw != 0) config.threads = std::max<std::size_t>(2, hw);
  bool threads_given = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      config.smoke = true;
    } else if (std::strncmp(arg, "--facts=", 8) == 0) {
      config.facts = std::strtoull(arg + 8, nullptr, 10);
    } else if (std::strncmp(arg, "--ops=", 6) == 0) {
      config.ops = std::strtoull(arg + 6, nullptr, 10);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      config.threads = std::strtoull(arg + 10, nullptr, 10);
      threads_given = true;
    } else if (std::strncmp(arg, "--label=", 8) == 0) {
      config.label = arg + 8;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      config.out_dir = arg + 6;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--facts=N] [--ops=N] [--threads=N] "
                   "[--label=L] [--out=DIR]\n",
                   argv[0]);
      return 2;
    }
  }
  if (config.smoke) {
    config.facts = std::min<std::size_t>(config.facts, 2000);
    config.ops = std::min<std::size_t>(config.ops, 20000);
    if (!threads_given) {
      config.threads = std::min<std::size_t>(config.threads, 4);
    }
  }
  cqa::Run(config);
  return 0;
}
