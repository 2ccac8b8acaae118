// SolveReport: the answer to certain(q) with full provenance.
//
// Like api/status.h, this is boundary *vocabulary*, not machinery: it
// depends only on layers below engine/, so engine code (the incremental
// solver) can build reports without pulling the Service in — the
// dependency between engine/ and the api/ machinery stays one-way (api
// uses engine).
//
// Replaces the bare SolverAnswer {bool, enum} at the API boundary: every
// solve reports what was decided, by which dichotomy class and algorithm,
// how long each phase took, how big the instance was, and — when the
// answer is not certain and the backend supports Explain — a falsifying
// repair witness that VerifyWitness (api/witness.h) can check
// independently.

#ifndef CQA_API_REPORT_H_
#define CQA_API_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "classify/classifier.h"
#include "data/prepared.h"
#include "data/repair.h"
#include "engine/backend.h"

namespace cqa {

/// One fact named at the API boundary: a relation name plus element names
/// (interned on insert). The schema decides which prefix is the key.
/// Mutation batches are vectors of these, and named witnesses use them
/// too — names survive mutations and process boundaries where FactIds
/// and block indexes do not.
struct FactSpec {
  std::string relation;
  std::vector<std::string> args;
};

/// Wall-clock seconds per phase. Parse and classify happen once per
/// compiled query (Service::Compile) and are amortized over every solve
/// with that handle; prepare happens once per registered database (or per
/// ad-hoc solve); solve is per call.
struct PhaseTimings {
  double parse_seconds = 0.0;
  double classify_seconds = 0.0;
  double prepare_seconds = 0.0;
  double solve_seconds = 0.0;
};

/// Answer with provenance; the only result type the public API returns.
struct SolveReport {
  bool certain = false;

  /// Where the query landed in the dichotomy and what answered.
  QueryClass query_class = QueryClass::kUnresolved;
  Complexity complexity = Complexity::kUnknown;
  SolverAlgorithm algorithm = SolverAlgorithm::kExhaustive;
  std::string backend_name;

  PhaseTimings timings;

  /// Instance size counters (num_facts counts alive facts).
  std::uint64_t num_facts = 0;
  std::uint64_t num_blocks = 0;

  /// Component-level reuse (set by solves on registered databases, which
  /// all go through the incremental path; zero/false for caller-owned
  /// databases, which are solved whole).
  /// components_resolved + components_cached == components_total.
  bool incremental = false;
  std::uint64_t components_total = 0;
  std::uint64_t components_resolved = 0;
  std::uint64_t components_cached = 0;
  /// Verdict-cache entries this solve evicted to stay within the
  /// configured CacheOptions bounds (incremental path only).
  std::uint64_t cache_evictions = 0;

  /// Warm-SAT observability (incremental path with a session-capable
  /// backend only; all-zero otherwise). True when a warm per-component
  /// solver session served this solve's backend runs.
  bool sat_warm = false;
  /// Cumulative CDCL counters of the database's warm session as of the
  /// end of this solve: solves/warm_solves, learned kept/deleted,
  /// restarts, clauses retracted by activation-literal retraction, ...
  CdclStats sat;

  /// A repair falsifying the query: present only when certain is false
  /// and the backend supports Explain. Points into the solved database
  /// and is valid while that database lives AND keeps its current
  /// content: mutating a registered database (Service::InsertFacts/
  /// DeleteFacts) shifts blocks and choices, so previously returned
  /// witnesses must be discarded (re-solve for a fresh one).
  std::optional<Repair> witness;

  /// The same falsifying repair as named fact tuples (one per block),
  /// filled only when the solve was asked to name it
  /// (Service::Solve(q, db_name, /*name_witness=*/true)). Unlike
  /// `witness`, names stay meaningful after later mutations and across
  /// process boundaries — the serving layer ships these over the wire,
  /// and WitnessFromSpecs (api/witness.h) rebuilds a checkable Repair.
  std::optional<std::vector<FactSpec>> named_witness;

  /// One-line human-readable summary (never prints raw enum ints).
  std::string Summary() const;
};

/// Runs a prepared `backend` on `pdb` and assembles the per-call part of
/// the report: answer, provenance, counters, solve timing, and (when
/// `want_witness` and not certain) the backend's witness. For backends
/// with CanExplain the answer and witness come from one Explain pass
/// (never Solve *and* Explain, which would double the expensive
/// searches). Parse/classify/prepare timings are the caller's to fill
/// in. The whole-database solve path for caller-owned databases
/// (Service::Solve(q, db), and through it SolveBatch).
SolveReport ExecuteReport(const Classification& classification,
                          const CertainBackend& backend,
                          const PreparedDatabase& pdb, bool want_witness);

}  // namespace cqa

#endif  // CQA_API_REPORT_H_
