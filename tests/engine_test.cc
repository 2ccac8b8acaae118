// Tests for the engine layer: the backend registry (every backend agrees
// with or under-approximates the exhaustive ground truth), the prepared
// database indexes, and CertainSolver construction and dispatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algo/exhaustive.h"
#include "base/check.h"
#include "base/rng.h"
#include "data/prepared.h"
#include "engine/registry.h"
#include "engine/solver.h"
#include "gen/workloads.h"

#include "make_solver.h"
#include "query/eval.h"
#include "query/query.h"

namespace cqa {
namespace {


const char* kCatalog[] = {
    "R(x, u | x, v) R(v, y | u, y)",  // q1: coNP (condition).
    "R(x, u | x, y) R(u, y | x, z)",  // q2: coNP (fork-tripath).
    "R(x | y) R(y | z)",              // q3: Cert_2.
    "R(x | y, x) R(y | x, u)",        // q5: Cert_k, no tripath.
    "R(x | y, z) R(z | x, y)",        // q6: Cert_k OR NOT matching.
    "R(x | y) R(y | y)",              // trivial (hom).
};

Database SmallInstance(const ConjunctiveQuery& q, Rng* rng) {
  InstanceParams params;
  params.num_facts = 12;
  params.domain_size = 3;
  return RandomInstance(q, params, rng);
}

TEST(BackendRegistry, ListsBuiltinBackends) {
  std::vector<std::string> names = BackendRegistry::Global().Names();
  for (const char* expected : {"cert2", "certk", "certk+matching",
                               "exhaustive", "sat", "trivial"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) !=
                names.end())
        << expected;
  }
  EXPECT_EQ(BackendRegistry::Global().Create("no-such-backend"), nullptr);
}

TEST(BackendRegistry, CreatedBackendsReportTheirNames) {
  for (const std::string& name : BackendRegistry::Global().Names()) {
    auto backend = BackendRegistry::Global().Create(name);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(backend->name(), name);
  }
}

TEST(BackendRegistry, TrivialBackendRejectsNonTrivialQueries) {
  auto backend = BackendRegistry::Global().Create("trivial");
  EXPECT_FALSE(backend->Prepare(ParseQuery("R(x | y) R(y | z)")));
}

// Exact backends must reproduce the enumeration ground truth on every
// query of the catalog; Cert_k-family backends must never overclaim.
TEST(BackendRegistry, BackendsAgreeWithExhaustiveGroundTruth) {
  for (const char* text : kCatalog) {
    auto q = ParseQuery(text);
    Rng rng(0xE1161);
    for (int round = 0; round < 15; ++round) {
      Database db = SmallInstance(q, &rng);
      PreparedDatabase pdb(db);
      bool truth = CertainByEnumeration(q, db);
      for (const std::string& name : BackendRegistry::Global().Names()) {
        auto backend = BackendRegistry::Global().Create(name);
        if (!backend->Prepare(q)) continue;  // trivial on non-trivial q.
        bool answer = backend->Solve(pdb);
        bool exact = name == "exhaustive" || name == "sat" ||
                     name == "trivial";
        if (exact) {
          EXPECT_EQ(answer, truth) << name << " on " << text << "\n"
                                   << db.ToString();
        } else {
          // Sound under-approximations: only "certain" can be trusted.
          EXPECT_TRUE(!answer || truth) << name << " overclaimed on "
                                        << text << "\n"
                                        << db.ToString();
        }
      }
    }
  }
}

TEST(SatBackend, AgreesOnCertainInstance) {
  auto q6 = ParseQuery("R(x | y, z) R(z | x, y)");
  SolverOptions options;
  options.forced_backend = "sat";
  CertainSolver solver = MakeSolver(q6, options);
  Database db(q6.schema());
  db.AddFactStr(0, "e1 e2 e3");
  db.AddFactStr(0, "e3 e1 e2");
  db.AddFactStr(0, "e2 e3 e1");
  db.AddFactStr(0, "e1 e3 e2");
  db.AddFactStr(0, "e2 e1 e3");
  db.AddFactStr(0, "e3 e2 e1");
  SolverAnswer answer = solver.Solve(db);
  EXPECT_TRUE(answer.certain);
  EXPECT_EQ(answer.algorithm, SolverAlgorithm::kSat);
}

TEST(PreparedDatabaseTest, IndexesMatchTheDatabase) {
  auto q = ParseQuery("R(x | y) R(y | z)");
  Rng rng(0xBEEF);
  InstanceParams params;
  params.num_facts = 40;
  params.domain_size = 6;
  Database db = RandomInstance(q, params, &rng);
  PreparedDatabase pdb(db);

  std::size_t indexed = 0;
  for (RelationId r = 0; r < db.schema().NumRelations(); ++r) {
    for (FactId f : pdb.FactsOf(r)) EXPECT_EQ(db.fact(f).relation, r);
    indexed += pdb.FactsOf(r).size();
  }
  EXPECT_EQ(indexed, db.NumFacts());

  std::size_t blocks_indexed = 0;
  for (RelationId r = 0; r < db.schema().NumRelations(); ++r) {
    for (BlockId b : pdb.BlocksOf(r)) EXPECT_EQ(pdb.blocks()[b].relation, r);
    blocks_indexed += pdb.BlocksOf(r).size();
  }
  EXPECT_EQ(blocks_indexed, pdb.blocks().size());

  for (FactId f = 0; f < db.NumFacts(); ++f) {
    EXPECT_EQ(pdb.BlockOf(f), db.BlockOf(f));
  }

  // Every block is found by its own key; a fresh key is not.
  for (BlockId b = 0; b < pdb.blocks().size(); ++b) {
    const Block& block = pdb.blocks()[b];
    KeyView key{block.key.data(),
                static_cast<std::uint32_t>(block.key.size())};
    EXPECT_EQ(pdb.FindBlock(block.relation, key), b);
  }
  ElementId fresh[] = {0xfffffff0u};
  EXPECT_EQ(pdb.FindBlock(0, KeyView{fresh, 1}), PreparedDatabase::kNoBlock);
}

TEST(PreparedDatabaseTest, ComputeSolutionsMatchesPairwiseDefinition) {
  auto q = ParseQuery("R(x | y, x) R(y | x, u)");
  Rng rng(0x50105);
  Database db = SmallInstance(q, &rng);
  PreparedDatabase pdb(db);
  SolutionSet solutions = ComputeSolutions(q, pdb);
  RelationBinding binding(q, db);
  for (FactId a = 0; a < db.NumFacts(); ++a) {
    for (FactId b = 0; b < db.NumFacts(); ++b) {
      bool expected = IsSolution(q, binding, db, a, b);
      bool listed = std::binary_search(solutions.pairs.begin(),
                                       solutions.pairs.end(),
                                       std::make_pair(a, b));
      EXPECT_EQ(listed, expected) << a << " " << b;
    }
  }
}

TEST(SolverCreateTest, TypedErrorsInsteadOfExceptions) {
  auto q3 = ParseQuery("R(x | y) R(y | z)");
  SolverOptions unknown;
  unknown.forced_backend = "SAT";  // Names are case-sensitive.
  StatusOr<CertainSolver> bad_name = CertainSolver::Create(q3, unknown);
  ASSERT_FALSE(bad_name.ok());
  EXPECT_EQ(bad_name.status().code(), StatusCode::kUnknownBackend);

  SolverOptions unsupported;
  unsupported.forced_backend = "trivial";  // q3 is not one-atom-equivalent.
  StatusOr<CertainSolver> mismatch = CertainSolver::Create(q3, unsupported);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kCapabilityMismatch);

  StatusOr<CertainSolver> ok = CertainSolver::Create(q3);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->backend().name(), "cert2");
}

TEST(SolverAlgorithmToString, RoundTripsExhaustively) {
  const SolverAlgorithm kAll[] = {
      SolverAlgorithm::kTrivialScan, SolverAlgorithm::kCert2,
      SolverAlgorithm::kCertK,       SolverAlgorithm::kCertKOrMatching,
      SolverAlgorithm::kExhaustive,  SolverAlgorithm::kSat,
  };
  for (SolverAlgorithm a : kAll) {
    std::string name = ToString(a);
    EXPECT_NE(name, "?");
    auto parsed = SolverAlgorithmFromString(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, a) << name;
  }
  EXPECT_FALSE(SolverAlgorithmFromString("oracle").has_value());
}

TEST(SolverOptionsTest, ForcedBackendOverridesDispatch) {
  auto q3 = ParseQuery("R(x | y) R(y | z)");
  SolverOptions options;
  options.forced_backend = "exhaustive";
  CertainSolver solver = MakeSolver(q3, options);
  Database db(q3.schema());
  db.AddFactStr(0, "a b");
  db.AddFactStr(0, "b c");
  SolverAnswer answer = solver.Solve(db);
  EXPECT_EQ(answer.algorithm, SolverAlgorithm::kExhaustive);
}

}  // namespace
}  // namespace cqa
