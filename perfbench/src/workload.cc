#include "workload.h"

#include <unordered_set>
#include <utility>

#include "base/rng.h"

namespace perfbench {
namespace {

// The paper's example queries, one per PTIME backend plus a coNP-complete
// one (q2), which is asked once through the dispatcher (exhaustive) and
// once through the warm CDCL sessions (forced "sat").
struct QuerySpec {
  const char* name;
  const char* text;
};
constexpr QuerySpec kQueries[] = {
    {"q3", "R(x | y) R(y | z)"},               // cert2
    {"q5", "R(x | y, x) R(y | x, u)"},         // certk
    {"q6", "R(x | y, z) R(z | x, y)"},         // certk+matching
    {"q2", "R(x, u | x, y) R(u, y | x, z)"},   // exhaustive / sat
};

// Non-key elements of a blockmate start with this letter (group elements
// with 'g', client-inserted ones with 'c'). No fact has such an element
// in a key position, so a blockmate never takes part in a solution.
constexpr char kBlockmatePrefix = 'b';

// Non-key values of a client's inserted facts come from this many names
// per client, so the element interner stops growing once they are all in
// use (inserts stay distinct: a client never inserts a fact it holds).
constexpr std::uint64_t kClientNames = 64;

// Elements per group and solution instantiations per group: small groups
// make many small q-connected components (a few facts each), the shape
// the per-component verdict cache is built for.
constexpr std::size_t kGroupElements = 4;
constexpr std::size_t kInstancesPerGroup = 2;

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
  cqa::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (salt + 1)));
  return rng.Next();
}

cqa::FactSpec Instantiate(const cqa::ConjunctiveQuery& q, std::size_t atom,
                          const std::vector<std::string>& value_of_var) {
  const cqa::QueryAtom& a = q.atoms()[atom];
  cqa::FactSpec fact;
  fact.relation = q.schema().Relation(a.relation).name;
  fact.args.reserve(a.vars.size());
  for (cqa::VarId v : a.vars) fact.args.push_back(value_of_var[v]);
  return fact;
}

void BuildDb(const cqa::ConjunctiveQuery& q, Mix mix, std::size_t target,
             std::uint64_t seed, std::vector<cqa::FactSpec>* facts) {
  cqa::Rng rng(seed);
  std::unordered_set<std::string> seen;
  std::uint64_t fresh = 0;
  auto add = [&](cqa::FactSpec fact) {
    if (seen.insert(FactKey(fact)).second) facts->push_back(std::move(fact));
  };
  for (std::size_t g = 0; facts->size() < target; ++g) {
    std::vector<std::string> elements;
    for (std::size_t i = 0; i < kGroupElements; ++i) {
      elements.push_back("g" + std::to_string(g) + "_" + std::to_string(i));
    }
    std::size_t first = facts->size();
    for (std::size_t inst = 0; inst < kInstancesPerGroup; ++inst) {
      std::vector<std::string> value_of_var(q.NumVars());
      for (std::string& v : value_of_var) {
        v = elements[rng.Below(kGroupElements)];
      }
      for (std::size_t atom = 0; atom < q.NumAtoms(); ++atom) {
        add(Instantiate(q, atom, value_of_var));
      }
    }
    bool blockmates = mix == Mix::kNonCertain || (mix == Mix::kMixed && g % 2);
    if (blockmates) {
      std::size_t last = facts->size();
      for (std::size_t f = first; f < last; ++f) {
        cqa::FactSpec mate = (*facts)[f];
        std::uint32_t key_len = q.KeyLenOf(0);
        for (std::size_t i = key_len; i < mate.args.size(); ++i) {
          mate.args[i] = kBlockmatePrefix + std::to_string(fresh++);
        }
        add(std::move(mate));
      }
    }
  }
}

}  // namespace

bool ConfigFor(const std::string& name, bool small, WorkloadConfig* out) {
  WorkloadConfig c;
  c.name = name;
  if (name == "hot_small") {
    c.kind = Kind::kHotSmall;
    c.facts_per_db = small ? 60 : 300;
    c.clients = 4;
  } else if (name == "churn_large") {
    c.kind = Kind::kChurnLarge;
    c.facts_per_db = small ? 1000 : 10000;
    // Two callers: with four, a writer descheduled by the host while it
    // holds a database lock stalls three readers, and the tail measured
    // the host more than the engine.
    c.clients = 2;
  } else if (name == "durable_write") {
    c.kind = Kind::kDurableWrite;
    c.facts_per_db = small ? 300 : 2000;
    c.clients = 4;
    c.durable = true;
    c.snapshot_interval = small ? 64 : 512;
    // Every solve here re-solves the components touched by the last ~15
    // batches, so stale verdicts pile up fastest. A cap a few times the
    // ~1k components per database lets the cache (and the verdict export
    // each snapshot writes) reach its steady size within the warm-up, so
    // the run measures steady-state costs instead of a growing cache.
    c.verdict_cache_entries = 4096;
  } else {
    return false;
  }
  *out = std::move(c);
  return true;
}

Dataset BuildDataset(const WorkloadConfig& config, std::uint64_t seed) {
  Dataset data;
  for (const QuerySpec& spec : kQueries) {
    std::vector<Mix> mixes;
    if (config.kind == Kind::kHotSmall) {
      mixes = {Mix::kCertain, Mix::kNonCertain};
    } else {
      mixes = {Mix::kMixed};
    }
    for (Mix mix : mixes) {
      std::string name = spec.name;
      if (config.kind == Kind::kHotSmall) {
        name += mix == Mix::kCertain ? ".c" : ".n";
      }
      std::size_t index = data.db_names.size();
      data.queries.push_back(cqa::ParseQuery(spec.text));
      data.facts.emplace_back();
      BuildDb(data.queries.back(), mix, config.facts_per_db,
              MixSeed(seed, index), &data.facts.back());
      data.tenants.push_back({spec.name + std::string("@") + name, index,
                              spec.text, ""});
      if (std::string(spec.name) == "q2") {
        data.tenants.push_back(
            {std::string("q2.sat@") + name, index, spec.text, "sat"});
      }
      data.db_names.push_back(std::move(name));
    }
  }
  return data;
}

RequestStream::RequestStream(const WorkloadConfig& config,
                             const Dataset& data, std::uint64_t seed,
                             std::size_t client)
    : config_(&config),
      data_(&data),
      client_(client),
      rng_state_(MixSeed(seed, 1000 + client)),
      fixed_(data.db_names.size()),
      base_(data.db_names.size()),
      inserted_(data.db_names.size()),
      inserted_keys_(data.db_names.size()) {
  if (config.kind == Kind::kHotSmall) return;  // read-only: owns nothing
  for (std::size_t db = 0; db < data.db_names.size(); ++db) {
    const std::vector<cqa::FactSpec>& facts = data.facts[db];
    std::uint32_t key_len = data.queries[db].KeyLenOf(0);
    for (std::size_t i = client; i < facts.size(); i += config.clients) {
      bool blockmate = facts[i].args[key_len][0] == kBlockmatePrefix;
      (blockmate ? base_ : fixed_)[db].push_back(facts[i]);
    }
  }
}

void RequestStream::AppendOwned(std::size_t db,
                                std::vector<cqa::FactSpec>* out) const {
  out->insert(out->end(), fixed_[db].begin(), fixed_[db].end());
  out->insert(out->end(), base_[db].begin(), base_[db].end());
  out->insert(out->end(), inserted_[db].begin(), inserted_[db].end());
}

cqa::FactSpec RequestStream::FreshFact(std::size_t db) {
  cqa::Rng rng(rng_state_);
  const std::vector<cqa::FactSpec>& facts = data_->facts[db];
  std::uint32_t key_len = data_->queries[db].KeyLenOf(0);
  cqa::FactSpec mate;
  do {
    mate = facts[rng.Below(facts.size())];
    for (std::size_t i = key_len; i < mate.args.size(); ++i) {
      mate.args[i] = "c" + std::to_string(client_) + "_" +
                     std::to_string(rng.Below(kClientNames));
    }
  } while (!inserted_keys_[db].insert(FactKey(mate)).second);
  rng_state_ = rng.Next();
  return mate;
}

cqa::server::Request RequestStream::Next() {
  cqa::Rng rng(rng_state_);
  cqa::server::Request req;
  req.request_id = (static_cast<std::uint64_t>(client_) << 40) | ++generated_;
  last_tenant_ = rng.Below(data_->tenants.size());
  const Tenant& tenant = data_->tenants[last_tenant_];
  std::vector<cqa::FactSpec>& base = base_[tenant.db];
  std::vector<cqa::FactSpec>& inserted = inserted_[tenant.db];
  const std::size_t deletable = base.size() + inserted.size();
  req.db_name = data_->db_names[tenant.db];
  req.query_text = tenant.query_text;
  req.forced_backend = tenant.forced_backend;

  std::size_t inserts = 0;
  std::size_t deletes = 0;
  switch (config_->kind) {
    case Kind::kHotSmall:
      req.want_witness = rng.Below(4) == 0;
      break;
    case Kind::kChurnLarge:
      // Three reads per write; a write inserts or deletes one fact.
      if (rng.Below(4) == 0) {
        if (deletable > 0 && rng.Below(2) == 0) {
          deletes = 1;
        } else {
          inserts = 1;
        }
      }
      break;
    case Kind::kDurableWrite: {
      // Batches of 1-4 facts, ~40% deletes: inserts add 1-3 facts and
      // deletes remove 2-4, so the databases keep their size and the run
      // stays stationary. Every 16th request also solves; the rest only
      // mutate.
      if (rng.Below(10) < 4 && deletable >= 4) {
        deletes = 2 + rng.Below(3);
      } else {
        inserts = 1 + rng.Below(3);
      }
      if (generated_ % 16 != 0) {
        req.query_text.clear();
        req.forced_backend.clear();
      }
      break;
    }
  }
  for (std::size_t i = 0; i < deletes; ++i) {
    std::size_t pick = rng.Below(deletable - i);
    std::vector<cqa::FactSpec>& from = pick < base.size() ? base : inserted;
    if (&from == &inserted) pick -= base.size();
    std::swap(from[pick], from.back());
    if (&from == &inserted) {
      inserted_keys_[tenant.db].erase(FactKey(from.back()));
    }
    req.mutation.push_back(std::move(from.back()));
    from.pop_back();
  }
  rng_state_ = rng.Next();
  for (std::size_t i = 0; i < inserts; ++i) {
    req.mutation.push_back(FreshFact(tenant.db));
    inserted.push_back(req.mutation.back());
  }
  if (deletes + inserts > 0) {
    req.request_id |= kWriteBit;
    req.mutation_kind = deletes > 0 ? cqa::server::MutationKind::kDelete
                                    : cqa::server::MutationKind::kInsert;
  }
  return req;
}

std::vector<std::vector<cqa::FactSpec>> ModelFacts(
    const std::vector<RequestStream>& streams, std::size_t num_dbs) {
  std::vector<std::vector<cqa::FactSpec>> model(num_dbs);
  for (const RequestStream& s : streams) {
    for (std::size_t db = 0; db < num_dbs; ++db) {
      s.AppendOwned(db, &model[db]);
    }
  }
  return model;
}

std::string FactKey(const cqa::FactSpec& fact) {
  std::string key = fact.relation;
  for (const std::string& a : fact.args) {
    key += ' ';
    key += a;
  }
  return key;
}

}  // namespace perfbench
