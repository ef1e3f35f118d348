// Wire-protocol framing: strict request parsing (every malformed frame a
// structured rejection, never an exception) and byte-stable response
// rendering — the golden-transcript CI job depends on both.
#include "server/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "io/json_reader.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace acolay::server {
namespace {

using test::require_field;

using core::AdmissionError;

constexpr const char* kDiamondFrame =
    R"({"id": "d1", "graph": {"num_vertices": 4,)"
    R"( "edges": [[3, 1], [3, 2], [1, 0], [2, 0]]}})";

AdmissionError parse(const std::string& line, ParsedRequest& out,
                     std::string& message) {
  return parse_request_line(line, RequestLimits{}, out, message);
}

TEST(ServerProtocol, ParsesAFullRequestFrame) {
  ParsedRequest request;
  std::string message;
  const std::string line =
      R"({"id": "r-7", "graph": {"num_vertices": 3,)"
      R"( "edges": [[2, 1], [1, 0]], "widths": [1.0, 2.5, 1.0]},)"
      R"( "params": {"num_ants": 4, "num_tours": 6, "seed": 42,)"
      R"( "beta": 2.0, "stagnation": "stop", "order": "bfs"},)"
      R"( "deadline_seconds": 0.5, "priority": 3, "warm": true})";
  ASSERT_EQ(parse(line, request, message), AdmissionError::kNone) << message;
  EXPECT_EQ(request.id, "r-7");
  EXPECT_EQ(request.graph.num_vertices(), 3u);
  EXPECT_EQ(request.graph.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(request.graph.width(1), 2.5);
  EXPECT_EQ(request.params.num_ants, 4);
  EXPECT_EQ(request.params.num_tours, 6);
  EXPECT_EQ(request.params.seed, 42u);
  EXPECT_DOUBLE_EQ(request.params.beta, 2.0);
  EXPECT_EQ(request.params.stagnation, core::StagnationPolicy::kStop);
  EXPECT_EQ(request.params.order, core::VertexOrder::kBfs);
  EXPECT_FALSE(request.params.record_trace);  // server-forced
  EXPECT_DOUBLE_EQ(request.deadline_seconds, 0.5);
  EXPECT_EQ(request.priority, 3);
  EXPECT_TRUE(request.warm);
}

TEST(ServerProtocol, MinimalFrameUsesDefaults) {
  ParsedRequest request;
  std::string message;
  ASSERT_EQ(parse(kDiamondFrame, request, message), AdmissionError::kNone);
  EXPECT_EQ(request.params.num_ants, core::AcoParams{}.num_ants);
  EXPECT_DOUBLE_EQ(request.deadline_seconds, 0.0);
  EXPECT_EQ(request.priority, 0);
  EXPECT_FALSE(request.warm);
}

TEST(ServerProtocol, RejectsFrameShapeViolationsAsBadRequest) {
  ParsedRequest request;
  std::string message;
  const char* bad_frames[] = {
      "not json",
      "[1,2,3]",                                     // not an object
      R"({"graph": {"num_vertices": 1}})",           // missing id
      R"({"id": 7, "graph": {"num_vertices": 1}})",  // non-string id
      R"({"id": "x"})",                              // missing graph
      R"({"id": "x", "graph": 5})",
      R"({"id": "x", "graph": {"num_vertices": 1}, "bogus": 1})",
      R"({"id": "x", "graph": {"num_vertices": 1, "weird": []}})",
      R"({"id": "x", "graph": {"num_vertices": -2}})",
      R"({"id": "x", "graph": {"num_vertices": 2, "edges": [[0]]}})",
      R"({"id": "x", "graph": {"num_vertices": 2, "edges": [[0, 5]]}})",
      R"({"id": "x", "graph": {"num_vertices": 2,)"
      R"( "edges": [[0, 1], [0, 1]]}})",  // duplicate edge
      R"({"id": "x", "graph": {"num_vertices": 2, "widths": [1.0]}})",
      R"({"id": "x", "graph": {"num_vertices": 1, "widths": [-1.0]}})",
      R"({"id": "x", "graph": {"num_vertices": 1},)"
      R"( "deadline_seconds": "soon"})",
      R"({"id": "x", "graph": {"num_vertices": 1}, "priority": 1.5})",
      R"({"id": "x", "graph": {"num_vertices": 1}, "warm": 1})",
  };
  for (const char* line : bad_frames) {
    EXPECT_EQ(parse(line, request, message), AdmissionError::kBadRequest)
        << line;
    EXPECT_FALSE(message.empty());
  }
}

TEST(ServerProtocol, RejectsParamsProblemsAsBadParam) {
  ParsedRequest request;
  std::string message;
  const char* bad_frames[] = {
      R"({"id": "x", "graph": {"num_vertices": 1},)"
      R"( "params": {"bogus_knob": 1}})",
      R"({"id": "x", "graph": {"num_vertices": 1},)"
      R"( "params": {"num_ants": 1.5}})",
      R"({"id": "x", "graph": {"num_vertices": 1},)"
      R"( "params": {"seed": -1}})",
      R"({"id": "x", "graph": {"num_vertices": 1},)"
      R"( "params": {"selection": "psychic"}})",
      R"({"id": "x", "graph": {"num_vertices": 1},)"
      R"( "params": {"num_threads": 4}})",  // server-controlled
      R"({"id": "x", "graph": {"num_vertices": 1},)"
      R"( "params": {"record_trace": true}})",  // server-controlled
  };
  for (const char* line : bad_frames) {
    EXPECT_EQ(parse(line, request, message), AdmissionError::kBadParam)
        << line;
  }
}

TEST(ServerProtocol, SelfLoopIsReportedAsCycle) {
  ParsedRequest request;
  std::string message;
  EXPECT_EQ(
      parse(R"({"id": "x", "graph": {"num_vertices": 2,)"
            R"( "edges": [[1, 1]]}})",
            request, message),
      AdmissionError::kCycle);
}

TEST(ServerProtocol, BestEffortIdSurvivesRejection) {
  ParsedRequest request;
  std::string message;
  EXPECT_EQ(parse(R"({"id": "keep-me", "graph": 42})", request, message),
            AdmissionError::kBadRequest);
  EXPECT_EQ(request.id, "keep-me");
}

TEST(ServerProtocol, EnforcesRequestLimits) {
  RequestLimits limits;
  limits.max_vertices = 8;
  ParsedRequest request;
  std::string message;
  EXPECT_EQ(parse_request_line(
                R"({"id": "x", "graph": {"num_vertices": 9}})", limits,
                request, message),
            AdmissionError::kBadRequest);
  EXPECT_NE(message.find("limit"), std::string::npos);

  limits = RequestLimits{};
  limits.max_line_bytes = 32;
  EXPECT_EQ(parse_request_line(std::string(33, ' '), limits, request,
                               message),
            AdmissionError::kBadRequest);
}

TEST(ServerProtocol, ResponsesAreValidJsonWithTheSchemaTag) {
  core::AcoResult result;
  result.layering = layering::Layering(2);
  const std::string ok =
      render_result_response("r1", result, /*deduped=*/true, /*seconds=*/-1);
  const auto ok_doc = io::parse_json(ok);
  ASSERT_TRUE(ok_doc.has_value());
  EXPECT_EQ(require_field(*ok_doc, "schema").as_string(), kServeSchema);
  EXPECT_EQ(require_field(*ok_doc, "status").as_string(), "ok");
  EXPECT_TRUE(require_field(*ok_doc, "deduped").as_bool());
  EXPECT_EQ(ok_doc->find("seconds"), nullptr);  // timing off

  const std::string timed =
      render_result_response("r1", result, false, 0.125);
  const auto timed_doc = io::parse_json(timed);
  ASSERT_TRUE(timed_doc.has_value());
  EXPECT_DOUBLE_EQ(require_field(*timed_doc, "seconds").as_double(), 0.125);

  const std::string rejected = render_error_response(
      "r2", AdmissionError::kOverloaded, "queue \"full\"");
  const auto rej_doc = io::parse_json(rejected);
  ASSERT_TRUE(rej_doc.has_value());
  EXPECT_EQ(require_field(*rej_doc, "status").as_string(), "rejected");
  EXPECT_EQ(require_field(*rej_doc, "error").as_string(), "overloaded");
  EXPECT_EQ(require_field(*rej_doc, "message").as_string(), "queue \"full\"");
}

TEST(ServerProtocol, ParsesADeltaFrame) {
  ParsedRequest request;
  std::string message;
  const std::string line =
      R"({"id": "d1", "delta": {"base": "00000000deadbeef",)"
      R"( "remove_edges": [[3, 1]], "remove_vertices": [2],)"
      R"( "add_vertices": [1.5, 2.0], "add_edges": [[4, 0]],)"
      R"( "set_widths": [[0, 3.5]]}})";
  ASSERT_EQ(parse(line, request, message), AdmissionError::kNone) << message;
  EXPECT_EQ(request.kind, RequestKind::kDelta);
  EXPECT_EQ(request.id, "d1");
  EXPECT_EQ(request.base_fingerprint, 0x00000000deadbeefu);
  ASSERT_EQ(request.delta.remove_edges.size(), 1u);
  EXPECT_EQ(request.delta.remove_edges[0], (graph::Edge{3, 1}));
  EXPECT_EQ(request.delta.remove_vertices,
            std::vector<graph::VertexId>{2});
  EXPECT_EQ(request.delta.add_vertex_widths,
            (std::vector<double>{1.5, 2.0}));
  ASSERT_EQ(request.delta.add_edges.size(), 1u);
  EXPECT_EQ(request.delta.add_edges[0], (graph::Edge{4, 0}));
  ASSERT_EQ(request.delta.set_widths.size(), 1u);
  EXPECT_EQ(request.delta.set_widths[0],
            (graph::WidthChange{0, 3.5}));
}

TEST(ServerProtocol, ParsesAStatsFrame) {
  ParsedRequest request;
  std::string message;
  ASSERT_EQ(parse(R"({"id": "s1", "stats": true})", request, message),
            AdmissionError::kNone)
      << message;
  EXPECT_EQ(request.kind, RequestKind::kStats);
  EXPECT_EQ(request.id, "s1");
}

TEST(ServerProtocol, SolveFramesParseAsSolveKind) {
  ParsedRequest request;
  std::string message;
  ASSERT_EQ(parse(kDiamondFrame, request, message), AdmissionError::kNone);
  EXPECT_EQ(request.kind, RequestKind::kSolve);
}

TEST(ServerProtocol, RejectsDeltaAndStatsShapeViolations) {
  ParsedRequest request;
  std::string message;
  const char* bad_frames[] = {
      // delta frames carry exactly "id" and "delta".
      R"({"id": "x", "delta": {"base": "00000000deadbeef"},)"
      R"( "graph": {"num_vertices": 1}})",
      R"({"id": "x", "delta": {"base": "00000000deadbeef"},)"
      R"( "params": {"seed": 1}})",
      R"({"id": "x", "delta": {"base": "00000000deadbeef"}, "warm": true})",
      R"({"id": "x", "delta": 5})",
      R"({"id": "x", "delta": {}})",  // base is required
      R"({"id": "x", "delta": {"base": "xyz"}})",
      R"({"id": "x", "delta": {"base": "00000000DEADBEEF"}})",  // uppercase
      R"({"id": "x", "delta": {"base": "00000000deadbee"}})",   // 15 digits
      R"({"id": "x", "delta": {"base": "00000000deadbeef",)"
      R"( "bogus": []}})",
      R"({"id": "x", "delta": {"base": "00000000deadbeef",)"
      R"( "add_edges": [[0]]}})",
      R"({"id": "x", "delta": {"base": "00000000deadbeef",)"
      R"( "remove_vertices": [-1]}})",
      R"({"id": "x", "delta": {"base": "00000000deadbeef",)"
      R"( "add_vertices": [-0.5]}})",
      R"({"id": "x", "delta": {"base": "00000000deadbeef",)"
      R"( "set_widths": [[0]]}})",
      // stats frames carry exactly "id" and "stats": true.
      R"({"id": "x", "stats": false})",
      R"({"id": "x", "stats": 1})",
      R"({"id": "x", "stats": true, "graph": {"num_vertices": 1}})",
      R"({"id": "x", "stats": true,)"
      R"( "delta": {"base": "00000000deadbeef"}})",
  };
  for (const char* line : bad_frames) {
    EXPECT_EQ(parse(line, request, message), AdmissionError::kBadRequest)
        << line;
    EXPECT_FALSE(message.empty()) << line;
  }
}

TEST(ServerProtocol, FingerprintHexRoundTrips) {
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{0xdeadbeefu},
        std::uint64_t{0xfedcba9876543210u}, ~std::uint64_t{0}}) {
    const std::string hex = fingerprint_hex(value);
    EXPECT_EQ(hex.size(), 16u);
    const auto parsed = parse_fingerprint_hex(hex);
    ASSERT_TRUE(parsed.has_value()) << hex;
    EXPECT_EQ(*parsed, value);
  }
  EXPECT_EQ(fingerprint_hex(0xdeadbeefu), "00000000deadbeef");
  EXPECT_FALSE(parse_fingerprint_hex("").has_value());
  EXPECT_FALSE(parse_fingerprint_hex("00000000deadbee").has_value());
  EXPECT_FALSE(parse_fingerprint_hex("00000000deadbeef0").has_value());
  EXPECT_FALSE(parse_fingerprint_hex("00000000DEADBEEF").has_value());
  EXPECT_FALSE(parse_fingerprint_hex("0000000gdeadbeef").has_value());
}

TEST(ServerProtocol, ResultResponseCarriesTheOptionalFingerprint) {
  core::AcoResult result;
  result.layering = layering::Layering(2);
  const std::string with = render_result_response(
      "r1", result, false, -1, std::uint64_t{0xdeadbeefu});
  const auto with_doc = io::parse_json(with);
  ASSERT_TRUE(with_doc.has_value());
  EXPECT_EQ(require_field(*with_doc, "fingerprint").as_string(),
            "00000000deadbeef");

  const std::string without =
      render_result_response("r1", result, false, -1);
  const auto without_doc = io::parse_json(without);
  ASSERT_TRUE(without_doc.has_value());
  EXPECT_EQ(without_doc->find("fingerprint"), nullptr);
}

TEST(ServerProtocol, ParsesTheCyclePolicyKey) {
  ParsedRequest request;
  std::string message;

  // No key: nullopt, so the session substitutes the server default.
  ASSERT_EQ(parse(kDiamondFrame, request, message), AdmissionError::kNone);
  EXPECT_FALSE(request.cycle_policy.has_value());

  const std::pair<const char*, core::CyclePolicy> cases[] = {
      {"reject", core::CyclePolicy::kReject},
      {"greedy_reverse", core::CyclePolicy::kGreedyReverse},
      {"aco_fas", core::CyclePolicy::kAcoFas},
  };
  for (const auto& [name, want] : cases) {
    const std::string line =
        std::string(R"({"id": "c1", "graph": {"num_vertices": 2,)"
                    R"( "edges": [[1, 0]]}, "cycle_policy": ")") +
        name + R"("})";
    ParsedRequest parsed;
    ASSERT_EQ(parse(line, parsed, message), AdmissionError::kNone)
        << line << ": " << message;
    ASSERT_TRUE(parsed.cycle_policy.has_value());
    EXPECT_EQ(*parsed.cycle_policy, want);
  }
}

TEST(ServerProtocol, RejectsBadCyclePolicyValues) {
  ParsedRequest request;
  std::string message;
  // Unknown name.
  EXPECT_EQ(parse(R"({"id": "c2", "graph": {"num_vertices": 2,)"
                  R"( "edges": [[1, 0]]}, "cycle_policy": "shuffle"})",
                  request, message),
            AdmissionError::kBadRequest);
  EXPECT_NE(message.find("cycle_policy"), std::string::npos);
  // Wrong type.
  EXPECT_EQ(parse(R"({"id": "c3", "graph": {"num_vertices": 2,)"
                  R"( "edges": [[1, 0]]}, "cycle_policy": 1})",
                  request, message),
            AdmissionError::kBadRequest);
  // Delta and stats frames carry no cycle policy (the session's policy is
  // fixed at warm-solve time; stats never touch the solver).
  EXPECT_EQ(parse(R"({"id": "c4", "cycle_policy": "reject",)"
                  R"( "delta": {"base": "0123456789abcdef"}})",
                  request, message),
            AdmissionError::kBadRequest);
  EXPECT_EQ(parse(R"({"id": "c5", "stats": true,)"
                  R"( "cycle_policy": "reject"})",
                  request, message),
            AdmissionError::kBadRequest);
}

TEST(ServerProtocol, ResultResponseRendersReversedEdgesOnlyWhenPresent) {
  core::AcoResult result;
  result.layering = layering::Layering(3);
  const std::vector<graph::Edge> reversed = {{2, 0}, {1, 2}};
  const std::string with = render_result_response(
      "r1", result, false, -1, std::nullopt, reversed);
  const auto with_doc = io::parse_json(with);
  ASSERT_TRUE(with_doc.has_value());
  const io::JsonValue* arr = with_doc->find("reversed_edges");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->size(), 2u);
  EXPECT_EQ((*arr)[0][0].as_int64(), 2);
  EXPECT_EQ((*arr)[0][1].as_int64(), 0);
  EXPECT_EQ((*arr)[1][0].as_int64(), 1);
  EXPECT_EQ((*arr)[1][1].as_int64(), 2);

  // An empty reversal set renders byte-identically to the pre-cycle-policy
  // format: no key at all.
  const std::string without = render_result_response("r1", result, false, -1);
  EXPECT_EQ(io::parse_json(without)->find("reversed_edges"), nullptr);
  EXPECT_EQ(without.find("reversed_edges"), std::string::npos);
}

TEST(ServerProtocolFuzz, MutatedFramesNeverThrow) {
  support::Rng rng(0xd1ceULL);
  const std::string base = kDiamondFrame;
  ParsedRequest request;
  std::string message;
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = base;
    const int flips = static_cast<int>(rng.uniform_int(1, 3));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.index(mutated.size())] =
          static_cast<char>(rng.uniform_int(0, 255));
    }
    // Must classify every mutation without throwing; ok or any structured
    // rejection are both acceptable.
    (void)parse(mutated, request, message);
  }
  for (std::size_t len = 0; len < base.size(); ++len) {
    EXPECT_NE(parse(base.substr(0, len), request, message),
              AdmissionError::kNone);
  }

  // The delta/stats shapes get the same treatment: classify, never throw.
  const std::string delta_base =
      R"({"id": "d", "delta": {"base": "00000000deadbeef",)"
      R"( "add_edges": [[1, 0]], "set_widths": [[0, 2.0]]}})";
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = delta_base;
    const int flips = static_cast<int>(rng.uniform_int(1, 3));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.index(mutated.size())] =
          static_cast<char>(rng.uniform_int(0, 255));
    }
    (void)parse(mutated, request, message);
  }
}

}  // namespace
}  // namespace acolay::server
