// Top-level certain-answer solver: classifies the query once, then
// dispatches every database to the backend the dichotomy prescribes.
//
//   trivial            -> "trivial" (per-block pattern scan; exact, linear)
//   Theorem 6.1 class  -> "cert2" (exact)
//   no-tripath class   -> "certk" (exact for k at the Proposition 8.2
//                         bound; the configured practical k is used, which
//                         is exact on all workloads we generate and always
//                         sound)
//   triangle-only      -> "certk+matching" (Theorem 10.5)
//   coNP-hard classes  -> "exhaustive" (exact, exponential)
//   sjf classes        -> "cert2" for PTime/FO, "exhaustive" for coNP.
//
// Backends are looked up in the global BackendRegistry, so alternative
// implementations (e.g. the "sat" backend) can be forced via
// SolverOptions::forced_backend or registered under new names without
// touching this dispatcher.

#ifndef CQA_ENGINE_SOLVER_H_
#define CQA_ENGINE_SOLVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "api/status.h"
#include "classify/classifier.h"
#include "data/database.h"
#include "data/prepared.h"
#include "engine/backend.h"
#include "query/query.h"

namespace cqa {

/// Options for the solver.
struct SolverOptions {
  /// Practical k for Cert_k in the no-tripath class. The theoretical bound
  /// of Proposition 8.2 (already 8 for key length 1) is exact but usually
  /// overkill; Cert_k is sound for every k.
  std::uint32_t practical_k = 4;
  TripathSearchLimits tripath_limits;
  /// When nonempty, bypass the dichotomy dispatch and answer every
  /// database with this registry backend (e.g. "sat", "exhaustive").
  std::string forced_backend;
};

/// Answer with provenance.
struct SolverAnswer {
  bool certain = false;
  SolverAlgorithm algorithm = SolverAlgorithm::kExhaustive;
};

/// Classify-once, solve-many certain-answer engine for two-atom queries.
class CertainSolver {
 public:
  /// Exception-free construction: classifies the query and binds its
  /// backend. Errors: kInvalidQuery when `query` does not have exactly
  /// two atoms, kUnknownBackend when `options.forced_backend` names no
  /// registered backend, kCapabilityMismatch when the chosen backend
  /// cannot answer `query`.
  [[nodiscard]] static StatusOr<CertainSolver> Create(ConjunctiveQuery query,
                                        SolverOptions options = {});

  /// Decides whether `query()` is certain for db.
  SolverAnswer Solve(const Database& db) const;

  /// As above on an already-prepared database; thread-safe, so callers
  /// may share one solver across threads.
  SolverAnswer Solve(const PreparedDatabase& pdb) const;

  const Classification& classification() const { return classification_; }
  const ConjunctiveQuery& query() const { return query_; }
  const CertainBackend& backend() const { return *backend_; }

 private:
  CertainSolver(ConjunctiveQuery query, SolverOptions options,
                Classification classification,
                std::unique_ptr<CertainBackend> backend);

  ConjunctiveQuery query_;
  SolverOptions options_;
  Classification classification_;
  std::unique_ptr<CertainBackend> backend_;
};

}  // namespace cqa

#endif  // CQA_ENGINE_SOLVER_H_
