// Pluggable certain-answer backends.
//
// A backend is one algorithm for answering certain(q): it is bound to a
// query once (Prepare) and then answers any number of prepared databases
// (Solve). The uniform interface makes the dichotomy's algorithms
// interchangeable and benchmarkable against each other, and lets the
// dispatcher (engine/solver.h) and the incremental solver
// (engine/incremental.h) treat them opaquely.
//
// Thread-safety contract: after Prepare returns, Solve must be const and
// safe to call concurrently from multiple threads on distinct
// PreparedDatabase instances. All built-in backends keep their per-call
// state on the stack.

#ifndef CQA_ENGINE_BACKEND_H_
#define CQA_ENGINE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/lru.h"
#include "data/prepared.h"
#include "data/repair.h"
#include "query/query.h"
#include "sat/cdcl.h"

namespace cqa {

/// Which algorithm actually answered.
enum class SolverAlgorithm {
  kTrivialScan,
  kCert2,
  kCertK,
  kCertKOrMatching,
  kExhaustive,
  kSat,
};

std::string ToString(SolverAlgorithm a);

/// Inverse of ToString(SolverAlgorithm); nullopt for unrecognized strings.
std::optional<SolverAlgorithm> SolverAlgorithmFromString(std::string_view s);

/// Knobs shared by all backends.
struct BackendOptions {
  /// Practical k for Cert_k-based backends. The theoretical bound of
  /// Proposition 8.2 (already 8 for key length 1) is exact but usually
  /// overkill; Cert_k is sound for every k.
  std::uint32_t practical_k = 4;
};

/// Verdict of one in-place component solve through a warm session.
struct ComponentVerdict {
  bool certain = false;
  /// When not certain and a witness was requested: one chosen fact per
  /// component block (parent-database ids), jointly a falsifying repair
  /// of the component. Empty otherwise.
  std::vector<FactId> witness;
};

/// A per-database warm-solver session: state a backend keeps alive across
/// repeated component solves of one mutating database (e.g. the sat
/// backend's per-component incremental CDCL solvers, which retain learned
/// clauses across mutations). Sessions solve components *in place* over
/// the parent database — no sub-database materialization.
///
/// Not internally synchronized: the engine serializes all calls on one
/// session instance (IncrementalSolver holds it under a
/// LockRank::kSolverInternal mutex, which nests under the verdict-shard
/// locks).
class ComponentSession {
 public:
  virtual ~ComponentSession() = default;

  /// Decides certainty of the component `members` (whole blocks of
  /// pdb.db()). Repeated calls across mutations of the same database are
  /// the point; results must equal the backend's Solve/Explain on the
  /// materialized component.
  virtual ComponentVerdict SolveComponent(const PreparedDatabase& pdb,
                                          const std::vector<FactId>& members,
                                          bool want_witness) = 0;

  /// Mirrors a Database::Compact (ApplyRemap protocol): every held FactId
  /// must be rewritten before the next SolveComponent.
  virtual void ApplyRemap(const FactIdRemap& remap) = 0;

  /// Aggregated solver counters over the session's lifetime (including
  /// solvers that have since been evicted from its internal cache).
  virtual CdclStats Stats() const = 0;

  /// Counters of the session's warm-solver cache.
  virtual CacheCounters CacheStats() const = 0;
};

/// One certain-answer algorithm behind a uniform prepare/solve interface.
class CertainBackend {
 public:
  virtual ~CertainBackend() = default;

  /// Registry name, e.g. "cert2".
  virtual std::string_view name() const = 0;

  /// Provenance tag reported in SolverAnswer.
  virtual SolverAlgorithm algorithm() const = 0;

  /// Binds the backend to a query. Must be called exactly once, before any
  /// Solve. Returns false if the backend cannot answer this query (e.g.
  /// the trivial scan on a query that is not one-atom-equivalent).
  virtual bool Prepare(const ConjunctiveQuery& query) = 0;

  /// Decides certain(query) on a prepared database. Exactness depends on
  /// the backend and the query's dichotomy class; every built-in backend
  /// is at least sound (a true answer implies certainty).
  virtual bool Solve(const PreparedDatabase& pdb) const = 0;

  /// True if Explain is implemented. For such backends Explain is an
  /// exact replacement for Solve (certain iff no witness), so callers
  /// wanting a witness ask Explain once instead of Solve + Explain.
  virtual bool CanExplain() const { return false; }

  /// Optional witness hook: a repair of pdb.db() that falsifies the query,
  /// i.e. the evidence behind a Solve(pdb) == false answer. Backends that
  /// cannot exhibit one (the Cert_k family decides via a fixpoint, not a
  /// repair) return nullopt; so does every backend when the answer is
  /// certain. The returned Repair points into pdb.db() and is valid while
  /// that database lives. Same thread-safety contract as Solve.
  virtual std::optional<Repair> Explain(const PreparedDatabase& pdb) const {
    (void)pdb;
    return std::nullopt;
  }

  /// Optional warm-session hook: a backend that can amortize state across
  /// repeated component solves returns a fresh session (cache caps bound
  /// its per-component solver pool; solver_options tunes each solver's
  /// clause-DB reduction cadence); backends without one return nullptr
  /// and the engine falls back to materialized Solve/Explain calls.
  virtual std::unique_ptr<ComponentSession> NewSession(
      const CacheOptions& cache_options,
      const CdclOptions& solver_options) const {
    (void)cache_options;
    (void)solver_options;
    return nullptr;
  }
};

}  // namespace cqa

#endif  // CQA_ENGINE_BACKEND_H_
