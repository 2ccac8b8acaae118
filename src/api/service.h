// cqa::Service — the one stable entry point to the certain-answer engine.
//
// Everything outside src/ and tests/ (examples, benches, future servers)
// talks to this facade and nothing else:
//
//   Service service;
//   auto q = service.Compile("R(x | y) R(y | z)");
//   if (!q.ok()) { /* q.status(): typed code + line:column message */ }
//   service.RegisterDatabase("orders", std::move(db));   // prepared once
//   auto report = service.Solve(*q, "orders");
//   if (report.ok() && !report->certain && report->witness) {
//     // report->witness is a repair falsifying the query.
//   }
//
// Design:
//   - No exception crosses this boundary: every fallible call returns
//     Status or StatusOr (api/status.h).
//   - Compile parses, classifies, and binds the dichotomy backend once,
//     caching the handle by canonical query text (so "R(x|y)  R(y|z)"
//     and "R(x | y) R(y | z)" share one compilation) plus compile
//     options. Handles are cheap shared_ptr copies and stay valid for
//     the life of the Service.
//   - RegisterDatabase ingests and prepares (block partition + indexes)
//     once; every later solve against that name reuses the preparation.
//   - Every solve on a registered database goes through its per-query
//     IncrementalSolver: certain(q) decomposes over the q-connected
//     components (Proposition 10.6(2)), so a solve re-solves only the
//     components an InsertFacts/DeleteFacts delta touched and merges
//     cached verdicts for the rest (see engine/incremental.h;
//     SolveReport::components_* report the reuse). The preparation is
//     delta-maintained, never rebuilt. Caller-owned databases are
//     prepared per call and solved whole.
//   - Solves return SolveReport (api/report.h): answer, class,
//     algorithm, per-phase timings, size counters, and a
//     falsifying-repair witness for non-certain answers when the
//     backend supports Explain.
//
// Memory model: every per-database cache is bounded. The per-query
// incremental-solver map and each solver's per-component verdict cache
// are LRU-bounded (ServiceOptions::solver_cache / verdict_cache), and
// sustained deletion churn triggers tombstone compaction once the
// dead-slot ratio passes ServiceOptions::compact_dead_ratio: the Database
// reclaims its slots and publishes a FactIdRemap that delta-patches the
// prepared indexes and component partitions (content-addressed verdicts
// and witnesses survive). Service::Stats() snapshots cache sizes, hit
// rates, evictions, live-vs-tombstoned facts, and compactions run.
//
// Thread-safety: all methods lock internally around the shared maps, and
// each registered database carries a structure lock (shared_mutex):
// mutations and compactions take it exclusive for their (short, index-
// patching) critical section, while every solve — including cache-filling
// incremental solves — takes it shared. Mutations do NOT maintain the
// per-query component partitions inline: under the exclusive lock they
// only enqueue O(1) deltas per solver (engine/incremental.h), so batches
// touching disjoint components spend their exclusive window on the
// database/index writes alone; the union-find catch-up happens on the
// next solve or audit of each query, under that solver's own components
// lock. Concurrent cache-filling solves coordinate through the verdict
// cache's component-sharded locks: solvers of disjoint components run
// their backend passes in parallel; two solvers racing on the same
// component serialize, and the loser reuses the winner's verdict.
// Compile, registration, and solves on different databases also run
// concurrently; a database dropped mid-solve stays alive until the solve
// returns.
//
// The acquisition order across these locks is a machine-checked hierarchy
// (base/lock_rank.h): kServiceRegistry (mutex_) > kDbEntry (structure) >
// kWal (the DurableStore's WAL/snapshot lock) > kComponents (each
// incremental solver's deferred-delta/partition lock) > kVerdictShard
// (inc_mu and the verdict-cache shard locks). Checking builds
// (Debug/sanitizer trees, CQA_LOCK_RANK) abort with both acquisition
// stacks on any out-of-order acquisition.

#ifndef CQA_API_SERVICE_H_
#define CQA_API_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "api/report.h"
#include "api/status.h"
#include "api/witness.h"
#include "base/lock_rank.h"
#include "base/lru.h"
#include "classify/classifier.h"
#include "data/audit.h"
#include "data/database.h"
#include "data/prepared.h"
#include "engine/incremental.h"
#include "engine/solver.h"
#include "store/store.h"

namespace cqa {

/// Service-wide knobs, fixed at construction.
struct ServiceOptions {
  /// Practical k for Cert_k-based backends (see SolverOptions).
  std::uint32_t practical_k = 4;
  /// Bounds for the classifier's tripath search.
  TripathSearchLimits tripath_limits;
  /// Attach falsifying-repair witnesses to non-certain reports (backends
  /// without Explain still report no witness).
  bool explain_non_certain = true;

  // -- Memory & concurrency knobs (see the header comment) ------------

  /// Bounds for each incremental solver's per-component verdict cache
  /// (0 = unbounded on that axis). The entry cap rounds up to a multiple
  /// of IncrementalSolver::kNumShards. Size it above the database's
  /// expected component count: a cap below it turns the steady-state
  /// round-robin over components into LRU cycle-thrash where every solve
  /// re-solves everything (~100 bytes/verdict, so the default costs at
  /// most a few MB per database/query pair).
  CacheOptions verdict_cache{/*max_entries=*/65536, /*max_bytes=*/0};
  /// Keep per-component warm SAT sessions alive across mutations: with a
  /// session-capable backend (currently "sat"), each incremental solver
  /// holds one ComponentSession whose per-component CDCL solvers retain
  /// learned clauses, VSIDS scores, and phase saves between solves;
  /// mutations retract stale clauses via activation-literal assumptions
  /// instead of re-encoding. Off restores the materialize-a-sub-database
  /// cold path for every component solve.
  bool warm_sat_solvers = true;
  /// Bounds for each warm session's per-component solver pool (0 =
  /// unbounded on that axis). Evicted solvers lose their learned clauses
  /// (the next solve of that component starts cold) but their cumulative
  /// counters are salvaged into the session totals.
  CacheOptions sat_solver_cache{/*max_entries=*/64, /*max_bytes=*/0};
  /// CDCL knobs for each warm session's solvers (clause-DB reduction
  /// cadence, glue threshold, restart base). The defaults suit real
  /// workloads; tests crank the reduction thresholds down to force churn.
  CdclOptions sat_cdcl;
  /// Bounds for the per-database map of incremental solvers (one per
  /// distinct compiled query ever solved incrementally against it).
  /// Evicting a solver drops its component partition and verdict cache;
  /// the next solve of that query rebuilds them from the current state.
  CacheOptions solver_cache{/*max_entries=*/64, /*max_bytes=*/0};
  /// Bounds for the service-wide map of compiled queries (keyed by
  /// canonical text + forced backend). Handles pin their state via
  /// shared_ptr, so evicting a compiled query never invalidates handles
  /// already issued — the next Compile of an evicted text re-classifies.
  CacheOptions compile_cache{/*max_entries=*/256, /*max_bytes=*/0};
  /// Compact a registered database when its tombstoned slots exceed this
  /// fraction of all slots (checked after each DeleteFacts batch). With
  /// ratio r the slot count stays below alive/(1-r): the default keeps
  /// resident slots within 1.67x of the live size. A value >= 1 disables
  /// automatic compaction (CompactDatabase still works).
  double compact_dead_ratio = 0.4;
  /// Never auto-compact below this many slots (churn on tiny databases
  /// isn't worth the remap traffic).
  std::size_t compact_min_slots = 256;

  // -- Durability (src/store) -----------------------------------------

  /// On-disk durability for registered databases. When enabled, every
  /// mutation batch is WAL-logged (and, per `fsync`, fsync'd) *before*
  /// it is applied in memory and acknowledged; snapshots of the
  /// compacted fact store are written every `snapshot_interval` batches;
  /// RecoverDatabase rebuilds a database from the latest valid snapshot
  /// plus the WAL tail, deferring index preparation to first use.
  struct DurabilityOptions {
    bool enabled = false;
    /// Root directory; each database lives in <data_dir>/<escaped name>.
    std::string data_dir;
    /// When an acknowledged batch is guaranteed durable.
    store::FsyncPolicy fsync = store::FsyncPolicy::kEveryBatch;
    /// Batches between fsyncs under FsyncPolicy::kInterval.
    std::uint32_t fsync_interval = 32;
    /// WAL records between automatic snapshots; 0 disables them
    /// (CheckpointDatabase still snapshots on demand).
    std::uint32_t snapshot_interval = 1024;
    /// Persist the verdict caches with each snapshot; recovery re-seeds
    /// them (fingerprints are content-addressed, so persisted verdicts
    /// are valid across restarts by construction).
    bool persist_verdicts = true;
  };
  DurabilityOptions durability;
};

/// Throughput accounting for one Service::SolveBatch call.
struct BatchStats {
  std::uint32_t threads_used = 0;
  std::uint64_t queries = 0;  ///< Slots solved (errored slots excluded).
  double wall_seconds = 0.0;
  double queries_per_sec = 0.0;
};

/// What a mutation batch did.
struct MutationStats {
  std::uint64_t applied = 0;             ///< Facts inserted or deleted.
  std::uint64_t ignored_duplicates = 0;  ///< Insert-only: already present.
  std::uint64_t compactions = 0;         ///< Compactions the batch triggered.
};

/// Point-in-time snapshot of the service's storage and cache state
/// (Service::Stats()): how state lives and ages across every layer —
/// fact slots vs tombstones and compactions at the data layer, verdict
/// caches at the engine layer, solver maps at the API layer.
struct ServiceStats {
  struct DatabaseStats {
    std::string name;
    /// Data layer: live facts, allocated slots (>= alive; the gap is
    /// tombstones awaiting compaction), blocks, compactions run so far.
    std::uint64_t alive_facts = 0;
    std::uint64_t fact_slots = 0;
    std::uint64_t tombstoned = 0;
    std::uint64_t blocks = 0;
    std::uint64_t compactions = 0;
    /// API layer: the LRU map of per-query incremental solvers.
    CacheCounters solvers;
    /// Engine layer: per-component verdict caches, summed over this
    /// database's live solvers.
    CacheCounters verdicts;
    /// SAT layer: cumulative warm-session CDCL counters (decisions,
    /// conflicts, learned kept/deleted, restarts, warm re-solves, clauses
    /// retracted), summed over this database's live solvers' sessions.
    /// All-zero when warm_sat_solvers is off or no session-capable
    /// backend has solved here.
    CdclStats sat;
    /// SAT layer: the sessions' per-component solver pools, summed.
    CacheCounters sat_solvers;
    /// Debug layer: Service::AuditDatabase runs against this database
    /// and cumulative violations they found (0 is the healthy value).
    /// Both survive a restart (they are persisted with each snapshot).
    std::uint64_t audits_run = 0;
    std::uint64_t audit_violations = 0;
    /// Store layer (durability on): records/bytes in the live WAL,
    /// snapshots written by this process, and whether this entry was
    /// rebuilt from disk (1) or registered fresh (0).
    std::uint64_t wal_records = 0;
    std::uint64_t wal_bytes = 0;
    std::uint64_t snapshots = 0;
    std::uint64_t recoveries = 0;
  };

  /// Serving layer (src/server): admission-queue and request-pipeline
  /// counters. The Service itself never writes these — they are all-zero
  /// until a server::Server wraps this service and fills them in its
  /// Stats() (the struct lives here so the one stats snapshot callers
  /// already consume covers the network boundary too).
  struct ServerCounters {
    /// Bounded admission queue: capacity, instantaneous depth, and the
    /// high-water mark since the server started.
    std::uint64_t queue_capacity = 0;
    std::uint64_t queue_depth = 0;
    std::uint64_t peak_queue_depth = 0;
    /// Requests accepted into the queue / completed with a response.
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    /// Requests shed with kOverloaded because the queue was full.
    std::uint64_t shed_overloaded = 0;
    /// Requests rejected with kDeadlineExceeded: at admission (already
    /// expired when decoded), at dequeue (expired while queued), and
    /// between pipeline stages (expired mid-execution).
    std::uint64_t deadline_rejected_admission = 0;
    std::uint64_t deadline_rejected_dequeue = 0;
    std::uint64_t deadline_rejected_pipeline = 0;
    /// Connections ever accepted / currently open, and frames that
    /// failed to decode into a request.
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_open = 0;
    std::uint64_t decode_errors = 0;
  };

  std::uint64_t compiled_queries = 0;
  /// API layer: the LRU map of compiled queries (Service::Compile).
  CacheCounters compiled;
  ServerCounters server;
  std::vector<DatabaseStats> databases;

  /// Multi-line human-readable rendering of the snapshot.
  std::string ToString() const;
};

/// Per-Compile knobs; part of the cache key.
struct CompileOptions {
  /// When nonempty, bypass the dichotomy dispatch and answer with this
  /// registry backend (e.g. "sat", "exhaustive").
  std::string forced_backend;
  /// Accept queries the classifier could not resolve within its tripath
  /// bounds (they fall back to the exact, exponential backend). Off by
  /// default: an unresolved classification is a typed error so callers
  /// explicitly opt into potentially exponential work.
  bool allow_unresolved = false;
};

/// A parsed + classified + backend-bound query; obtained from
/// Service::Compile, valid for the life of the Service. Cheap to copy.
class CompiledQuery {
 public:
  /// Empty handle; using it in a solve yields kInvalidArgument.
  CompiledQuery() = default;

  bool valid() const { return state_ != nullptr; }

  /// Canonical text (the parser's normal form, e.g. "R(x | y) R(y | z)").
  const std::string& text() const { return state_->text; }
  const ConjunctiveQuery& query() const { return state_->solver.query(); }
  const Classification& classification() const {
    return state_->solver.classification();
  }
  /// Registry name of the backend the dichotomy bound, e.g. "cert2".
  std::string_view backend_name() const {
    return state_->solver.backend().name();
  }
  SolverAlgorithm algorithm() const {
    return state_->solver.backend().algorithm();
  }

 private:
  friend class Service;
  struct State {
    State(std::string text_in, CertainSolver solver_in)
        : text(std::move(text_in)), solver(std::move(solver_in)) {}
    std::string text;
    CertainSolver solver;
    double parse_seconds = 0.0;
    double classify_seconds = 0.0;
  };
  explicit CompiledQuery(std::shared_ptr<const State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<const State> state_;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});

  // Disallow copies: handles and prepared state point into this object.
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // -- Queries --------------------------------------------------------

  /// Parses, classifies, and binds `text` (cached). Errors:
  /// kInvalidQuery (with line:column + caret, or for a query that does
  /// not have exactly two atoms), kUnknownBackend, kCapabilityMismatch,
  /// kUnresolvedClass.
  [[nodiscard]] StatusOr<CompiledQuery> Compile(std::string_view text,
                                  const CompileOptions& options = {});

  /// Number of distinct compilations currently cached.
  std::size_t CompiledCount() const;

  // -- Databases ------------------------------------------------------

  /// Ingests `db` under `name`, preparing its indexes once. Errors:
  /// kAlreadyExists.
  [[nodiscard]] Status RegisterDatabase(std::string_view name, Database db);

  /// Removes a registered database. Errors: kNotFound. In-flight solves
  /// keep the entry alive (shared ownership) and finish normally; the
  /// storage is freed when the last of them returns. Witnesses held
  /// beyond that point into freed memory — discard them with the report.
  /// With durability enabled, the database's on-disk WAL/snapshot
  /// directory is deleted too, so a later RegisterDatabase under the
  /// same name starts from a clean slate.
  [[nodiscard]] Status DropDatabase(std::string_view name);

  // -- Durability (requires ServiceOptions::durability.enabled) -------

  /// Rebuilds `name` from its on-disk state: latest valid snapshot, WAL
  /// tail replayed on top (any torn or corrupt tail is detected by
  /// checksum and cleanly truncated, never loaded), persisted verdict
  /// cache re-seeded. Index preparation is deferred to the first solve
  /// or mutation. Errors: kInvalidArgument (durability off),
  /// kAlreadyExists (name registered), kNotFound (no durable state),
  /// kCorruptedData (state exists but nothing decodes).
  [[nodiscard]] Status RecoverDatabase(std::string_view name);

  /// Recovers every database with durable state under data_dir; returns
  /// the names recovered. Directories that fail to recover (partially
  /// created, corrupt beyond the snapshot fallback) are skipped.
  [[nodiscard]] StatusOr<std::vector<std::string>> RecoverAllDatabases();

  /// Forces a durability checkpoint now: compacts the database, writes a
  /// snapshot (with the verdict-cache export) and resets the WAL.
  /// Errors: kNotFound, kInvalidArgument (database not durable),
  /// kIoError.
  [[nodiscard]] Status CheckpointDatabase(std::string_view name);

  /// All alive facts of a registered database by name, in slot order
  /// (recovery tests compare this against a shadow model). Errors:
  /// kNotFound.
  [[nodiscard]] StatusOr<std::vector<FactSpec>> ListFacts(
      std::string_view db_name) const;

  /// Registered names in lexicographic order.
  std::vector<std::string> DatabaseNames() const;

  // -- Mutations ------------------------------------------------------

  /// Inserts facts into a registered database, delta-maintaining its
  /// preparation and component partitions. All-or-nothing: the whole
  /// batch is validated against the schema before anything is applied.
  /// Re-inserting an existing fact is a counted no-op (set semantics).
  /// Any mutation invalidates witnesses from earlier reports on this
  /// database (their block/choice indexes shift) — discard them.
  /// Errors: kNotFound (database), kSchemaMismatch (unknown relation or
  /// arity mismatch).
  [[nodiscard]] Status InsertFacts(std::string_view db_name,
                     const std::vector<FactSpec>& facts,
                     MutationStats* stats = nullptr);

  /// Deletes facts from a registered database, delta-maintaining its
  /// preparation and component partitions. All-or-nothing: every named
  /// fact must exist (and be named once) or nothing is deleted. Errors:
  /// kNotFound (database or fact), kSchemaMismatch (unknown relation or
  /// arity mismatch), kInvalidArgument (fact named twice in the batch).
  [[nodiscard]] Status DeleteFacts(std::string_view db_name,
                     const std::vector<FactSpec>& facts,
                     MutationStats* stats = nullptr);

  /// Compacts a registered database's tombstoned fact slots now,
  /// regardless of the automatic dead-slot-ratio trigger, delta-patching
  /// every dependent structure with the resulting FactIdRemap. A no-op
  /// (not an error) when there are no dead slots. Errors: kNotFound.
  [[nodiscard]] Status CompactDatabase(std::string_view db_name);

  // -- Solving --------------------------------------------------------

  /// Answers certain(q) on a registered database. Errors: kNotFound,
  /// kSchemaMismatch, kInvalidArgument (empty handle).
  ///
  /// With `name_witness`, a non-certain report additionally carries
  /// SolveReport::named_witness — the falsifying repair as fact *names*,
  /// resolved under the same lock hold as the solve, so it is consistent
  /// even when other threads mutate the database right after this call
  /// returns (the id-based `witness` is not: the serving layer always
  /// names). Costs one name lookup per block on non-certain answers.
  [[nodiscard]] StatusOr<SolveReport> Solve(const CompiledQuery& q,
                                            std::string_view db_name,
                                            bool name_witness) const;
  [[nodiscard]] StatusOr<SolveReport> Solve(const CompiledQuery& q,
                                            std::string_view db_name) const {
    return Solve(q, db_name, /*name_witness=*/false);
  }

  /// Answers certain(q) on a caller-owned database (prepared per call).
  [[nodiscard]] StatusOr<SolveReport> Solve(const CompiledQuery& q,
                                            const Database& db) const;

  /// Answers certain(q) on N caller-owned databases in parallel on
  /// min(hardware concurrency, N) threads, one report per database in
  /// input order. A poisoned slot — null pointer, a pointer
  /// repeated in the batch (whose lazy block index two threads would race
  /// on), or any error Solve(q, db) returns — fails only itself.
  std::vector<StatusOr<SolveReport>> SolveBatch(
      const CompiledQuery& q, const std::vector<const Database*>& dbs,
      BatchStats* stats = nullptr) const;

  /// Convenience overload for owned databases.
  std::vector<StatusOr<SolveReport>> SolveBatch(
      const CompiledQuery& q, const std::vector<Database>& dbs,
      BatchStats* stats = nullptr) const;

  // -- Introspection --------------------------------------------------

  /// Registered backend names (the forced_backend vocabulary).
  static std::vector<std::string> BackendNames();

  /// Snapshots storage and cache state across all registered databases:
  /// live vs tombstoned facts, compactions run, solver-map and
  /// verdict-cache sizes, hit/miss/eviction counters.
  ServiceStats Stats() const;

  /// Deep-audits a registered database (data/audit.h): the fact store's
  /// arena/index/partition invariants, the prepared per-relation indexes,
  /// every live incremental solver's component partition and verdict
  /// cache, the solver map's LRU invariants, and the compile cache's.
  /// Runs under the shared structure lock, so it can race only against
  /// other readers; mutations wait. O(facts log facts) plus a fresh
  /// component partition per live solver — a debug/test entry point, not
  /// a production path. Cumulative audits_run/audit_violations counters
  /// surface in Stats(). Errors: kNotFound.
  [[nodiscard]] StatusOr<AuditReport> AuditDatabase(std::string_view db_name) const;

  const ServiceOptions& options() const { return options_; }

 private:
  struct DbEntry {
    DbEntry(Database db_in, CacheOptions solver_cache)
        : db(std::move(db_in)), incremental(solver_cache) {}
    Database db;
    // Prepared after `db` has its final address (construction order).
    // Lazily built (EnsurePrepared): registration prepares eagerly, but
    // recovery defers the O(db) index build to the first solve or
    // mutation. `prepared_ready` lets Stats() peek without forcing the
    // build; everyone else goes through EnsurePrepared.
    mutable std::optional<PreparedDatabase> prepared;
    mutable double prepare_seconds = 0.0;
    mutable std::once_flag prepare_once;
    mutable std::atomic<bool> prepared_ready{false};
    // Structure lock: mutations and compactions (which patch the
    // database, its preparation, and the component partitions) are
    // exclusive; every solve — including cache-filling incremental
    // solves, which coordinate through the verdict cache's component
    // shard locks — is shared. Rank kDbEntry: below the registry lock,
    // above the solver-map and shard locks.
    mutable RankedSharedMutex<LockRank::kDbEntry> structure;
    struct IncrementalEntry {
      // Pins the compiled state the solver points into — a handle
      // compiled by another Service (or a future evictable compile
      // cache) must not be freed while this entry can still use it.
      std::shared_ptr<const CompiledQuery::State> state;
      std::unique_ptr<IncrementalSolver> solver;
    };
    // Incremental solver per compiled query, keyed by canonical query
    // text + backend name; created on first incremental solve and
    // LRU-evicted past ServiceOptions::solver_cache. Values are
    // shared_ptr so an eviction cannot free a solver out from under an
    // in-flight solve (the solve keeps its own reference; the evicted
    // solver simply stops receiving mutations and dies with the last
    // user). Guarded by inc_mu (the structure lock alone is not enough:
    // shared-mode solves mutate the map's LRU order). Rank kVerdictShard,
    // like the solver's shard locks: both are taken under the structure
    // lock and never inside each other.
    mutable RankedMutex<LockRank::kVerdictShard> inc_mu;
    LruCache<std::string, std::shared_ptr<IncrementalEntry>> incremental;
    // Compactions run on this database; written under the exclusive
    // structure lock, read under the shared one.
    std::uint64_t compactions = 0;
    // Cumulative Service::AuditDatabase outcomes; atomic because audits
    // run under the *shared* structure lock (they are reads). Seeded
    // from the snapshot's meta counters on recovery, so they survive a
    // restart.
    mutable std::atomic<std::uint64_t> audits_run{0};
    mutable std::atomic<std::uint64_t> audit_violations{0};
    // Durability (null when ServiceOptions::durability is off): the
    // database's WAL + snapshot store. Mutations append under the
    // exclusive structure lock before applying.
    std::unique_ptr<store::DurableStore> durable;
    // Verdicts loaded by recovery, imported into each incremental solver
    // when it is (re)created; read-only after recovery. Content-
    // addressed fingerprints keep them valid indefinitely.
    store::PersistedVerdictMap recovered_verdicts;
    // 1 when this entry was rebuilt from disk, 0 when registered fresh.
    std::uint64_t recoveries = 0;
  };

  /// Looks up a registered database (service lock held inside).
  StatusOr<std::shared_ptr<DbEntry>> FindEntry(std::string_view db_name) const;

  /// Builds the entry's prepared indexes if they are not built yet.
  /// Caller holds the structure lock (shared suffices: preparation only
  /// reads the database, and call_once serializes builders).
  void EnsurePrepared(DbEntry& entry) const;

  /// The on-disk directory of a database name under durability.data_dir.
  std::string DbDir(std::string_view name) const;

  /// Exports every live solver's verdict cache (plus still-unclaimed
  /// recovered verdicts) keyed by solver cache key, for WriteSnapshot.
  /// Caller holds the structure lock.
  store::PersistedVerdictMap ExportAllVerdicts(DbEntry& entry) const;

  /// Compacts (post-Compact is the snapshot's layout contract) and
  /// writes a snapshot + verdict export + WAL reset. Caller holds the
  /// exclusive structure lock.
  Status SnapshotLocked(DbEntry& entry) const;

  /// The entry's incremental solver for `q`, created on first use.
  /// Caller holds the entry's structure lock (shared suffices: the map
  /// itself is guarded by inc_mu, and solver construction only reads the
  /// database).
  std::shared_ptr<DbEntry::IncrementalEntry> IncrementalFor(
      DbEntry& entry, const CompiledQuery& q) const;

  /// Snapshots the entry's live solvers (for mutation fan-out).
  std::vector<std::shared_ptr<DbEntry::IncrementalEntry>> LiveSolvers(
      DbEntry& entry) const;

  /// Compacts `entry` if its dead-slot ratio passed the configured
  /// trigger (or `force`), delta-patching the prepared indexes and the
  /// given solver snapshot with the remap. Caller holds the exclusive
  /// structure lock (so the snapshot cannot be stale). Returns true if a
  /// compaction ran.
  bool MaybeCompact(
      DbEntry& entry,
      const std::vector<std::shared_ptr<DbEntry::IncrementalEntry>>& solvers,
      bool force) const;

  /// Stamps the compile-time phase timings onto a finished report.
  void FillCompileTimings(const CompiledQuery& q, SolveReport* report) const;

  ServiceOptions options_;

  // Registry lock (rank kServiceRegistry, the hierarchy's top): guards
  // the database map and the compile cache; never held while taking any
  // per-database lock.
  mutable RankedMutex<LockRank::kServiceRegistry> mutex_;
  // shared_ptr values: CompiledQuery handles and incremental solvers pin
  // the state they use, so an LRU eviction only unlinks the cache entry —
  // the classification dies with its last user.
  mutable LruCache<std::string, std::shared_ptr<const CompiledQuery::State>>
      compiled_;
  // shared_ptr: a Solve copies the entry's ownership under the lock, so
  // a concurrent DropDatabase cannot free the database under it.
  std::map<std::string, std::shared_ptr<DbEntry>, std::less<>> databases_;
};

}  // namespace cqa

#endif  // CQA_API_SERVICE_H_
