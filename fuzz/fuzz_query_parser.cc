// libFuzzer harness for the query parser (query/parser.cc).
//
// Input is raw query text. Properties enforced on every input:
//   - ParseQueryOrStatus never crashes, hangs, or throws; malformed input
//     yields kInvalidQuery with a non-empty located message.
//   - Round-trip: a successfully parsed query pretty-prints to text that
//     re-parses, and the re-parse pretty-prints identically (ToString is
//     a fixpoint of parse∘print).
//   - Structural sanity: every atom's variable list matches its
//     relation's arity, key lengths never exceed arities, and the
//     variable count respects the parser's 64-variable bound.
//   - Small queries of any atom count additionally go through
//     CertainSolver::Create, which must return either a solver or a
//     typed error — never crash (queries without exactly two atoms are
//     kInvalidQuery). The tripath search is bounded, so this cannot
//     hang.
//
// Seed corpus: fuzz/corpus/query_parser/ — the paper's query shapes plus
// near-miss malformed variants, so coverage starts at the grammar instead
// of discovering parentheses byte by byte.
//
// Build: -DCQA_FUZZ=ON. With clang this links libFuzzer; elsewhere
// fuzz/standalone_main.cc replays the corpus (CI smoke + regression).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "engine/solver.h"
#include "query/query.h"

namespace {

[[noreturn]] void Die(const char* property, const std::string& detail) {
  std::fprintf(stderr, "fuzz_query_parser: %s\n%s\n", property,
               detail.c_str());
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Giant inputs only test std::string; the grammar saturates far below
  // this bound.
  if (size > 4096) return 0;
  std::string text(reinterpret_cast<const char*>(data), size);

  cqa::StatusOr<cqa::ConjunctiveQuery> parsed =
      cqa::ParseQueryOrStatus(text);
  if (!parsed.ok()) {
    if (parsed.status().code() != cqa::StatusCode::kInvalidQuery) {
      Die("parse errors must be kInvalidQuery", parsed.status().ToString());
    }
    if (parsed.status().message().empty()) {
      Die("parse error without a message", text);
    }
    return 0;
  }

  const cqa::ConjunctiveQuery& q = *parsed;
  if (q.NumVars() > 64) Die("parser accepted > 64 variables", text);
  for (std::size_t i = 0; i < q.NumAtoms(); ++i) {
    const cqa::QueryAtom& atom = q.atoms()[i];
    const cqa::RelationSchema& rel = q.schema().Relation(atom.relation);
    if (atom.vars.size() != rel.arity) {
      Die("atom arity disagrees with its relation schema", q.ToString());
    }
    if (rel.key_len > rel.arity) {
      Die("key longer than arity", q.ToString());
    }
  }

  std::string printed = q.ToString();
  cqa::StatusOr<cqa::ConjunctiveQuery> reparsed =
      cqa::ParseQueryOrStatus(printed);
  if (!reparsed.ok()) {
    Die("pretty-printed query fails to re-parse",
        printed + "\n" + reparsed.status().ToString());
  }
  if (reparsed->ToString() != printed) {
    Die("parse-print round trip is not a fixpoint",
        printed + "\nvs\n" + reparsed->ToString());
  }

  // Classification sweep over small queries of every atom count. Either
  // outcome (solver or typed error) is fine; crashes and CHECK-aborts are
  // the bug.
  if (q.NumVars() <= 8) {
    cqa::StatusOr<cqa::CertainSolver> solver =
        cqa::CertainSolver::Create(q);
    if (!solver.ok() && solver.status().message().empty()) {
      Die("classifier error without a message", printed);
    }
  }
  return 0;
}
