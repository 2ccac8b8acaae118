// Protocol-differential harness: the serving layer must be a *transparent*
// view of the in-process Service. For every request, the wire answer —
// verdict, answering backend, witness, or typed error code — must match
// what the same call against cqa::Service returns directly. Any drift
// means the protocol encode/decode or the server pipeline changed the
// semantics, which no amount of server-side testing in isolation would
// catch.
//
// Three fronts:
//   - 500+ seeded Random/Chain instances solved both ways, witnesses
//     rebuilt from their wire names (WitnessFromSpecs) and re-verified
//     from first principles (VerifyWitness);
//   - every typed error path reachable over the wire, code-for-code;
//   - mutation batches applied over the wire vs. a shadow Service fed
//     the same batches in-process.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/service.h"
#include "api/witness.h"
#include "base/check.h"
#include "base/rng.h"
#include "gen/workloads.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace cqa {
namespace {

using server::Client;
using server::Frame;
using server::FrameReader;
using server::MutationKind;
using server::Request;
using server::Response;
using server::Server;
using server::ServerOptions;

/// One Service + Server + in-process Client over a socketpair.
struct Harness {
  explicit Harness(ServiceOptions service_options = {},
                   ServerOptions server_options = {})
      : service(service_options), server(service, server_options) {
    int client_fd = -1;
    int server_fd = -1;
    Status paired = server::LocalSocketPair(&client_fd, &server_fd);
    CQA_CHECK(paired.ok());
    CQA_CHECK(server.ServeFd(server_fd).ok());
    client = Client::FromFd(client_fd);
  }

  Request MakeRequest(std::string db, std::string query) {
    Request req;
    req.request_id = ++next_id;
    req.db_name = std::move(db);
    req.query_text = std::move(query);
    return req;
  }

  Service service;
  Server server;
  Client client;
  std::uint64_t next_id = 0;
};

/// Sends raw pre-framed bytes and decodes one response frame — for the
/// cases the well-behaved Client cannot produce (tampered version bytes,
/// hand-built payloads).
StatusOr<Response> RawCall(Server& server, const std::string& frame) {
  int client_fd = -1;
  int server_fd = -1;
  Status paired = server::LocalSocketPair(&client_fd, &server_fd);
  if (!paired.ok()) return paired;
  Status served = server.ServeFd(server_fd);
  if (!served.ok()) {
    ::close(client_fd);
    return served;
  }
  Client raw = Client::FromFd(client_fd);
  // Reuse the Client's receive loop by sending the bytes ourselves.
  std::string_view bytes = frame;
  while (!bytes.empty()) {
    ssize_t n = ::send(client_fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return Status(StatusCode::kIoError, "raw send failed");
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return raw.Receive();
}

TEST(ServerDifferentialTest, WireMatchesInProcessOn500PlusParityChecks) {
  const char* kQueries[] = {
      "R(x | y) R(y | z)",              // PTime, cert2 class.
      "R(x, u | x, y) R(u, y | x, z)",  // The paper's q2.
      "R(x | y, z) R(z | x, y)",        // The paper's q6.
      "R1(x | y) R2(y | z)",            // Self-join-free substrate.
  };
  const int kRandomPerQuery = 85;
  const int kChainPerQuery = 45;

  Harness h;
  std::size_t checks = 0;

  for (const char* query_text : kQueries) {
    StatusOr<CompiledQuery> handle = h.service.Compile(query_text);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();

    Rng rng(0x5E12F00D + checks);
    for (int i = 0; i < kRandomPerQuery + kChainPerQuery; ++i) {
      Database local =
          i < kRandomPerQuery
              ? RandomInstance(handle->query(), InstanceParams{16, 4, 0.6, 0.3},
                               &rng)
              : ChainInstance(handle->query(), 6, 0.5, 0.6, &rng);
      // Keep a content-identical copy outside the service: the wire
      // witness is re-verified against it from first principles, without
      // trusting any server state.
      ASSERT_TRUE(
          h.service.RegisterDatabase("wire_db", Database(local)).ok());

      StatusOr<SolveReport> expected =
          h.service.Solve(*handle, "wire_db", /*name_witness=*/true);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();

      Request req = h.MakeRequest("wire_db", query_text);
      req.want_witness = true;
      StatusOr<Response> resp = h.client.Call(req);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();

      ASSERT_EQ(resp->code, StatusCode::kOk) << resp->message;
      EXPECT_EQ(resp->certain, expected->certain)
          << query_text << " instance " << i;
      EXPECT_EQ(resp->backend_name, expected->backend_name);
      EXPECT_EQ(resp->num_facts, expected->num_facts);
      EXPECT_EQ(resp->num_blocks, expected->num_blocks);
      EXPECT_EQ(resp->has_witness, expected->named_witness.has_value());
      if (resp->has_witness) {
        StatusOr<Repair> witness =
            WitnessFromSpecs(local, resp->witness);
        ASSERT_TRUE(witness.ok()) << witness.status().ToString();
        Status verified = VerifyWitness(handle->query(), local, *witness);
        EXPECT_TRUE(verified.ok()) << verified.ToString();
      }
      ++checks;
      ASSERT_TRUE(h.service.DropDatabase("wire_db").ok());
    }
  }
  EXPECT_GE(checks, 500u);
}

TEST(ServerDifferentialTest, TypedErrorCodesMatchInProcess) {
  Harness h;
  StatusOr<CompiledQuery> q = h.service.Compile("R(x | y) R(y | z)");
  ASSERT_TRUE(q.ok());
  Rng rng(77);
  Database db = RandomInstance(q->query(), InstanceParams{12, 4, 0.6, 0.3},
                               &rng);
  ASSERT_TRUE(h.service.RegisterDatabase("errs", std::move(db)).ok());

  // Parse error: wire code must equal the in-process Compile code.
  {
    StatusOr<CompiledQuery> direct = h.service.Compile("R(x |");
    ASSERT_FALSE(direct.ok());
    ASSERT_EQ(direct.status().code(), StatusCode::kInvalidQuery);
    StatusOr<Response> resp = h.client.Call(h.MakeRequest("errs", "R(x |"));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->code, direct.status().code());
    EXPECT_FALSE(resp->message.empty());
  }
  // Queries without exactly two atoms parse but are outside the
  // dichotomy: the same kInvalidQuery as in process, and the server (and
  // this connection) keeps serving.
  for (const char* text : {"R(x | y)", "R(x | y) R(y | z) R(z | w)"}) {
    StatusOr<CompiledQuery> direct = h.service.Compile(text);
    ASSERT_FALSE(direct.ok()) << text;
    ASSERT_EQ(direct.status().code(), StatusCode::kInvalidQuery) << text;
    StatusOr<Response> resp = h.client.Call(h.MakeRequest("errs", text));
    ASSERT_TRUE(resp.ok()) << text << ": " << resp.status().ToString();
    EXPECT_EQ(resp->code, direct.status().code()) << text;
    EXPECT_FALSE(resp->message.empty()) << text;
    StatusOr<Response> after =
        h.client.Call(h.MakeRequest("errs", "R(x | y) R(y | z)"));
    ASSERT_TRUE(after.ok()) << "server must survive " << text;
    EXPECT_EQ(after->code, StatusCode::kOk) << text;
  }
  // Unknown forced backend.
  {
    Request req = h.MakeRequest("errs", "R(x | y) R(y | z)");
    req.forced_backend = "no-such-backend";
    StatusOr<Response> resp = h.client.Call(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, StatusCode::kUnknownBackend);
  }
  // Backend that cannot answer the query.
  {
    Request req = h.MakeRequest("errs", "R(x | y) R(y | z)");
    req.forced_backend = "trivial";
    StatusOr<Response> resp = h.client.Call(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, StatusCode::kCapabilityMismatch);
  }
  // Unknown database.
  {
    StatusOr<Response> resp =
        h.client.Call(h.MakeRequest("no-such-db", "R(x | y) R(y | z)"));
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, StatusCode::kNotFound);
  }
  // Query over a relation the database lacks.
  {
    StatusOr<Response> resp =
        h.client.Call(h.MakeRequest("errs", "S(x | y) S(y | z)"));
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, StatusCode::kSchemaMismatch);
  }
  // Mutation with the wrong arity, parity-checked against InsertFacts.
  {
    std::vector<FactSpec> bad = {{"R", {"a", "b", "c"}}};
    Status direct = h.service.InsertFacts("errs", bad);
    ASSERT_EQ(direct.code(), StatusCode::kSchemaMismatch);
    Request req = h.MakeRequest("errs", "");
    req.mutation_kind = MutationKind::kInsert;
    req.mutation = bad;
    StatusOr<Response> resp = h.client.Call(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, direct.code());
    EXPECT_FALSE(resp->mutated);
  }
  // Deleting a fact that does not exist.
  {
    std::vector<FactSpec> ghost = {{"R", {"zz1", "zz2"}}};
    Status direct = h.service.DeleteFacts("errs", ghost);
    ASSERT_EQ(direct.code(), StatusCode::kNotFound);
    Request req = h.MakeRequest("errs", "");
    req.mutation_kind = MutationKind::kDelete;
    req.mutation = ghost;
    StatusOr<Response> resp = h.client.Call(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, direct.code());
  }
  // A framing-valid but semantically malformed payload is a
  // *request*-level kCorruptedData error and the connection survives.
  {
    Request req = h.MakeRequest("errs", "");
    req.mutation_kind = MutationKind::kNone;
    req.mutation = {{"R", {"a", "b"}}};  // facts without a mutation kind
    StatusOr<Response> resp = h.client.Call(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, StatusCode::kCorruptedData);
    StatusOr<Response> after =
        h.client.Call(h.MakeRequest("errs", "R(x | y) R(y | z)"));
    ASSERT_TRUE(after.ok()) << "connection must survive a payload error";
    EXPECT_EQ(after->code, StatusCode::kOk);
  }
  // A wrong protocol version is kCapabilityMismatch, echoing the id.
  {
    Request req = h.MakeRequest("errs", "R(x | y) R(y | z)");
    std::string payload = server::EncodeRequest(req);
    payload[0] = static_cast<char>(server::kProtocolVersion + 1);
    StatusOr<Response> resp = RawCall(h.server, Frame(payload));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->code, StatusCode::kCapabilityMismatch);
    EXPECT_EQ(resp->request_id, req.request_id);
  }
  // A bad CRC is connection-fatal: no response, just a hang-up.
  {
    Request req = h.MakeRequest("errs", "R(x | y) R(y | z)");
    std::string frame = Frame(server::EncodeRequest(req));
    frame[frame.size() - 1] ^= 0x5a;  // flip a payload bit; CRC now lies
    StatusOr<Response> resp = RawCall(h.server, frame);
    ASSERT_FALSE(resp.ok());
    EXPECT_EQ(resp.status().code(), StatusCode::kIoError);
  }

  // kUnresolvedClass needs a classifier starved of search budget; that
  // is a Service-wide option, so it gets its own harness.
  {
    ServiceOptions starved;
    starved.tripath_limits.max_candidates = 1;
    Harness h2(starved);
    Rng rng2(78);
    StatusOr<CompiledQuery> q6 =
        h2.service.Compile("R(x | y, z) R(z | x, y)",
                           [] {
                             CompileOptions allow;
                             allow.allow_unresolved = true;
                             return allow;
                           }());
    ASSERT_TRUE(q6.ok());
    ASSERT_TRUE(h2.service
                    .RegisterDatabase(
                        "u", RandomInstance(q6->query(),
                                            InstanceParams{10, 4, 0.6, 0.3},
                                            &rng2))
                    .ok());
    StatusOr<Response> rejected =
        h2.client.Call(h2.MakeRequest("u", "R(x | y, z) R(z | x, y)"));
    ASSERT_TRUE(rejected.ok());
    EXPECT_EQ(rejected->code, StatusCode::kUnresolvedClass);

    Request opt_in = h2.MakeRequest("u", "R(x | y, z) R(z | x, y)");
    opt_in.allow_unresolved = true;
    StatusOr<Response> accepted = h2.client.Call(opt_in);
    ASSERT_TRUE(accepted.ok());
    EXPECT_EQ(accepted->code, StatusCode::kOk);
    EXPECT_EQ(accepted->backend_name, "exhaustive");
    h2.server.Stop();
  }

  ServiceStats stats = h.server.Stats();
  EXPECT_GE(stats.server.decode_errors, 2u);  // bad payload + bad CRC
  h.server.Stop();
}

TEST(ServerDifferentialTest, WireMutationsTrackInProcessShadow) {
  const char* kQuery = "R(x | y) R(y | z)";
  Harness h;
  Service shadow;
  StatusOr<CompiledQuery> wire_q = h.service.Compile(kQuery);
  StatusOr<CompiledQuery> shadow_q = shadow.Compile(kQuery);
  ASSERT_TRUE(wire_q.ok());
  ASSERT_TRUE(shadow_q.ok());

  Rng rng(0xC0FFEE);
  Database seed = ChainInstance(wire_q->query(), 5, 0.5, 0.6, &rng);
  ASSERT_TRUE(h.service.RegisterDatabase("mut", Database(seed)).ok());
  ASSERT_TRUE(shadow.RegisterDatabase("mut", std::move(seed)).ok());

  std::vector<std::vector<FactSpec>> inserted;
  for (int round = 0; round < 30; ++round) {
    bool do_insert = inserted.empty() || round % 3 != 2;
    std::vector<FactSpec> batch;
    if (do_insert) {
      std::string a = "m" + std::to_string(round);
      std::string b = "m" + std::to_string(round + 1);
      batch = {{"R", {a, b}}, {"R", {b, a}}};
    } else {
      batch = inserted.back();
    }

    Status direct = do_insert ? shadow.InsertFacts("mut", batch)
                              : shadow.DeleteFacts("mut", batch);
    ASSERT_TRUE(direct.ok()) << direct.ToString();

    // One wire request carries the mutation *and* the follow-up solve.
    Request req = h.MakeRequest("mut", kQuery);
    req.mutation_kind =
        do_insert ? MutationKind::kInsert : MutationKind::kDelete;
    req.mutation = batch;
    StatusOr<Response> resp = h.client.Call(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->code, StatusCode::kOk) << resp->message;
    EXPECT_TRUE(resp->mutated);

    if (do_insert) {
      inserted.push_back(batch);
    } else {
      inserted.pop_back();
    }

    StatusOr<SolveReport> expected = shadow.Solve(*shadow_q, "mut");
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(resp->certain, expected->certain) << "round " << round;
    EXPECT_EQ(resp->num_facts, expected->num_facts) << "round " << round;
  }
  // Structural invariants must hold on the wire-mutated database too.
  StatusOr<AuditReport> audit = h.service.AuditDatabase("mut");
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->total_violations, 0u) << audit->ToString();
  h.server.Stop();
}

}  // namespace
}  // namespace cqa
