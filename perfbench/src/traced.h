// The traced run: each thread replays its request stream in process,
// through the same public calls a server worker makes and in the same
// order, recording a span around each call:
//
//   request                      (root; one per replayed request)
//     protocol.decode_request    FrameReader::Feed/Next + DecodeRequest
//     api.mutate                 Service::InsertFacts / DeleteFacts
//     api.compile                Service::Compile
//     api.solve                  Service::Solve(q, db, name_witness)
//     protocol.encode_response   EncodeResponse + Frame
//     protocol.decode_response   FrameReader + DecodeResponse
//
// Spans stay in memory and are written out (TSV) when the run ends.

#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "setup.h"
#include "wire.h"
#include "workload.h"

namespace perfbench {

/// Per-layer figures of one traced replay (metric name -> value).
using LayerMetrics = std::map<std::string, double>;

struct TracedResult {
  LayerMetrics metrics;
  std::vector<double> pipeline_us;  ///< Root span durations.
  std::uint64_t replayed = 0;
  std::uint64_t failed = 0;
  std::uint64_t spans = 0;
};

/// Replays, per client c, the first `counts[c]` requests of a fresh
/// stream against `env` (which must be freshly set up from the same
/// seed). Writes the spans to `spans_path` when nonempty.
TracedResult RunTraced(Env& env, const std::vector<std::uint64_t>& counts,
                       std::uint64_t seed, Checker& checker,
                       const std::string& spans_path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
