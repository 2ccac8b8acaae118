#include "engine/solver.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "base/check.h"
#include "engine/registry.h"

namespace cqa {
namespace {

/// The dichotomy dispatch: which registry backend answers each class.
std::string_view BackendNameFor(QueryClass query_class) {
  switch (query_class) {
    case QueryClass::kTrivial:
      return "trivial";
    case QueryClass::kPTimeCert2:
    case QueryClass::kSjfFirstOrder:
    case QueryClass::kSjfPTime:
      // [3] shows Cert_2 captures all PTime self-join-free two-atom cases;
      // Theorem 6.1 covers the self-join ones.
      return "cert2";
    case QueryClass::kPTimeNoTripath:
      return "certk";
    case QueryClass::kPTimeTriangleOnly:
      return "certk+matching";
    case QueryClass::kCoNPHardCondition:
    case QueryClass::kCoNPForkTripath:
    case QueryClass::kSjfCoNPComplete:
    case QueryClass::kUnresolved:
      return "exhaustive";
  }
  CQA_CHECK_MSG(false, "unhandled query class");
}

}  // namespace

StatusOr<CertainSolver> CertainSolver::Create(ConjunctiveQuery query,
                                              SolverOptions options) {
  // The dichotomy (and every backend) covers two-atom queries only; the
  // parser accepts any atom count, so reject the rest here rather than
  // let the classifier CHECK-abort on client text.
  if (query.NumAtoms() != 2) {
    return Status(StatusCode::kInvalidQuery,
                  "query " + query.ToString() + " has " +
                      std::to_string(query.NumAtoms()) +
                      " atom(s); only two-atom queries are supported");
  }
  Classification classification =
      ClassifyQuery(query, options.tripath_limits);
  std::string_view name = options.forced_backend.empty()
                              ? BackendNameFor(classification.query_class)
                              : std::string_view(options.forced_backend);
  BackendOptions backend_options;
  backend_options.practical_k = options.practical_k;
  std::unique_ptr<CertainBackend> backend =
      BackendRegistry::Global().Create(name, backend_options);
  // forced_backend is user input; reject it like the parser rejects bad
  // query text rather than aborting.
  if (backend == nullptr) {
    std::string registered;
    for (const std::string& n : BackendRegistry::Global().Names()) {
      if (!registered.empty()) registered += ", ";
      registered += n;
    }
    return Status(StatusCode::kUnknownBackend,
                  "unknown certain-answer backend \"" + std::string(name) +
                      "\" (registered: " + registered + ")");
  }
  if (!backend->Prepare(query)) {
    return Status(StatusCode::kCapabilityMismatch,
                  "backend \"" + std::string(name) +
                      "\" cannot answer query " + query.ToString());
  }
  return CertainSolver(std::move(query), std::move(options),
                       std::move(classification), std::move(backend));
}

CertainSolver::CertainSolver(ConjunctiveQuery query, SolverOptions options,
                             Classification classification,
                             std::unique_ptr<CertainBackend> backend)
    : query_(std::move(query)),
      options_(std::move(options)),
      classification_(std::move(classification)),
      backend_(std::move(backend)) {}

SolverAnswer CertainSolver::Solve(const PreparedDatabase& pdb) const {
  SolverAnswer answer;
  answer.algorithm = backend_->algorithm();
  answer.certain = backend_->Solve(pdb);
  return answer;
}

SolverAnswer CertainSolver::Solve(const Database& db) const {
  return Solve(PreparedDatabase(db));
}

}  // namespace cqa
