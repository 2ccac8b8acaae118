// Workload definitions and the seeded generators behind them.
//
// Everything the program under test receives comes from here: the base
// facts of every tenant database and each client's request stream. Both
// are pure functions of (workload, seed, client), so the same seed gives a
// byte-identical request stream (checked by `perfbench --stream-digest`).
//
// A client's stream also *is* the benchmark's model of the data: clients
// mutate only facts they own (their share of the base facts, plus facts
// they inserted, which always contain a client-private element name), so
// the final fact set of every database is the union of the clients'
// owned sets whatever the interleaving. A client's inserts are
// acknowledged before its next request, so it may delete them again.
//
// Writes only add and remove *blockmates*: facts whose non-key values
// never occur in a key position, so they take part in no solution. An
// insert copies the key of a base fact, a delete removes a base
// blockmate or an inserted fact, and the facts that carry the solutions
// are never deleted. Every write changes one block, and so one
// component's content, but no block appears or vanishes and inserted
// values come from a small per-client name pool: the component partition
// and the element interner keep their size, so a long run stays
// stationary.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "api/report.h"
#include "query/query.h"
#include "server/protocol.h"

namespace perfbench {

enum class Kind { kHotSmall, kChurnLarge, kDurableWrite };

/// How a tenant database is populated (see BuildDataset).
enum class Mix {
  kCertain,     ///< Solution groups only: the query is certain.
  kNonCertain,  ///< Every fact gets a fresh-valued blockmate.
  kMixed,       ///< Half the groups get blockmates, half do not.
};

struct WorkloadConfig {
  Kind kind = Kind::kHotSmall;
  std::string name;
  std::size_t facts_per_db = 0;  ///< Target size of each tenant database.
  std::size_t clients = 4;       ///< Connections (and replay threads).
  bool durable = false;
  std::uint32_t snapshot_interval = 0;  ///< Durable only.
  /// ServiceOptions::verdict_cache entry cap; 0 keeps the default.
  std::size_t verdict_cache_entries = 0;
};

/// The configuration of a named workload; false if the name is unknown.
/// `small` shrinks every size (self-test runs).
bool ConfigFor(const std::string& name, bool small, WorkloadConfig* out);

/// A tenant: one registered database plus a query asked of it.
struct Tenant {
  std::string label;  ///< e.g. "q2.sat@q2"
  std::size_t db = 0; ///< Index into Dataset::db_names.
  std::string query_text;
  std::string forced_backend;  ///< Empty: the dispatcher's choice.
};

struct Dataset {
  std::vector<std::string> db_names;
  std::vector<cqa::ConjunctiveQuery> queries;          ///< Per db: the query
                                                       ///< its facts instantiate.
  std::vector<std::vector<cqa::FactSpec>> facts;       ///< Base facts per db.
  std::vector<Tenant> tenants;
};

Dataset BuildDataset(const WorkloadConfig& config, std::uint64_t seed);

/// Bit 39 of a request id marks a request that carries a mutation, so a
/// receiver can classify a response without shared state.
inline constexpr std::uint64_t kWriteBit = 1ull << 39;
inline bool IsWrite(std::uint64_t request_id) {
  return (request_id & kWriteBit) != 0;
}

/// One client's deterministic request stream.
class RequestStream {
 public:
  RequestStream(const WorkloadConfig& config, const Dataset& data,
                std::uint64_t seed, std::size_t client);

  /// The next request. Updates the owned-fact model as if the request
  /// will be acknowledged.
  cqa::server::Request Next();

  /// Tenant index of the last request Next() returned.
  std::size_t last_tenant() const { return last_tenant_; }
  std::uint64_t generated() const { return generated_; }

  /// Appends the facts of database `db` this client owns (its share of
  /// the model) to `out`.
  void AppendOwned(std::size_t db, std::vector<cqa::FactSpec>* out) const;

 private:
  cqa::FactSpec FreshFact(std::size_t db);

  const WorkloadConfig* config_;
  const Dataset* data_;
  std::size_t client_;
  std::uint64_t rng_state_;
  std::uint64_t generated_ = 0;
  std::uint64_t fresh_ = 0;
  std::size_t last_tenant_ = 0;
  std::vector<std::vector<cqa::FactSpec>> fixed_;     ///< Never deleted.
  std::vector<std::vector<cqa::FactSpec>> base_;      ///< Deletable.
  std::vector<std::vector<cqa::FactSpec>> inserted_;  ///< Per db.
  std::vector<std::unordered_set<std::string>> inserted_keys_;  ///< FactKeys.
};

/// The final fact set of every database implied by the clients' streams.
std::vector<std::vector<cqa::FactSpec>> ModelFacts(
    const std::vector<RequestStream>& streams, std::size_t num_dbs);

/// Canonical one-line rendering of a fact ("R a b c"), used to compare
/// fact sets.
std::string FactKey(const cqa::FactSpec& fact);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
