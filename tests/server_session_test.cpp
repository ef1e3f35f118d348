// The serving contract (src/server/session.hpp): deadline-expired
// requests are shed before their colony runs, priorities are honored
// under a full queue, overload turns into structured backpressure, dedup
// collapses only *exactly* equal requests, and — the headline — a served
// stream is bit-identical to direct core::solve calls over the same
// (graph, params), at any thread count.
#include "server/session.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/incremental.hpp"
#include "core/params.hpp"
#include "core/pheromone.hpp"
#include "core/request.hpp"
#include "gen/random_dag.hpp"
#include "graph/csr.hpp"
#include "graph/delta.hpp"
#include "graph/digraph.hpp"
#include "io/json.hpp"
#include "io/json_reader.hpp"
#include "server/protocol.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "wire_frames.hpp"

namespace acolay::server {
namespace {

using test::delta_frame;
using test::frame;
using test::FrameOpts;
using test::require_field;
using test::wire_normalized;

using core::AdmissionError;

ServeOptions with_threads(int threads) {
  ServeOptions options;
  options.num_threads = threads;
  return options;
}

io::JsonValue parse_response(const std::string& line) {
  const auto doc = io::parse_json(line);
  EXPECT_TRUE(doc.has_value()) << line;
  if (!doc) return io::JsonValue{};  // require_field then fails cleanly
  EXPECT_EQ(require_field(*doc, "schema").as_string(), kServeSchema);
  return *doc;
}

std::string status_of(const std::string& line) {
  return require_field(parse_response(line), "status").as_string();
}

bool deduped_of(const std::string& line) {
  return require_field(parse_response(line), "deduped").as_bool();
}

TEST(ServerSession, AnswersAValidRequestWithItsLayering) {
  Server server(with_threads(1));
  server.push_line(frame("q1", test::small_dag(), 4, 7));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue doc = parse_response(responses[0]);
  EXPECT_EQ(require_field(doc, "id").as_string(), "q1");
  EXPECT_EQ(require_field(doc, "status").as_string(), "ok");
  EXPECT_FALSE(require_field(doc, "deduped").as_bool());
  EXPECT_EQ(doc.find("seconds"), nullptr);  // timing off by default
  EXPECT_EQ(require_field(doc, "layering", "layers").size(), 7u);
  EXPECT_GE(require_field(doc, "layering", "height").as_int64(), 4);
  EXPECT_NE(doc.find("metrics"), nullptr);
  EXPECT_EQ(server.outstanding(), 0u);
}

TEST(ServerSession, KeepsRecordsOnlyForUnansweredFrames) {
  // A long-lived daemon must not keep a record per frame it ever answered:
  // over a few thousand mixed frames (solves, dedup repeats, rejects, warm
  // solves and delta updates) the retained record count never exceeds the
  // frames still awaiting their response, and drains to zero.
  const graph::Digraph g = wire_normalized(test::diamond());
  Server server(with_threads(2));
  server.push_line(frame("w0", g, 1, 5, FrameOpts{.warm = true}));
  server.drain();
  const auto warm = server.take_responses();
  ASSERT_EQ(warm.size(), 1u);
  const std::string fp0 =
      require_field(parse_response(warm[0]), "fingerprint").as_string();
  graph::GraphDelta delta;
  delta.set_widths.push_back(graph::WidthChange{0, 2.0});

  std::size_t pushed = 0;
  std::size_t answered = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string id = "f";
    id += std::to_string(i);
    if (i % 10 == 9) {
      server.push_line("not a frame");
    } else if (i % 10 == 4) {
      server.push_line(delta_frame(id, fp0, delta));
    } else if (i % 100 == 7) {
      server.push_line(frame(id, g, 1, 5, FrameOpts{.warm = true}));
    } else {
      server.push_line(frame(id, g, 1, 1 + i % 50));  // repeats dedup
    }
    ++pushed;
    if (i % 16 == 15) server.drain();
    server.step();
    answered += server.take_responses().size();
    ASSERT_LE(server.num_records(), pushed - answered) << "frame " << i;
  }
  server.drain();
  answered += server.take_responses().size();
  EXPECT_EQ(answered, pushed);
  EXPECT_EQ(server.num_records(), 0u);
  EXPECT_GT(server.stats().delta_updates, 0u);
  EXPECT_GT(server.stats().dedup_shared + server.stats().dedup_cached, 0u);
}

TEST(ServerSession, MalformedAndInvalidFramesGetStructuredRejections) {
  Server server(with_threads(1));
  server.push_line("this is not a frame");
  server.push_line(
      R"({"id": "loop", "graph": {"num_vertices": 2,)"
      R"( "edges": [[0, 1], [1, 0]]}})");
  server.push_line(frame("ok", test::diamond(), 2, 1));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(status_of(responses[0]), "rejected");
  const io::JsonValue cycle = parse_response(responses[1]);
  // best-effort echo
  EXPECT_EQ(require_field(cycle, "id").as_string(), "loop");
  EXPECT_EQ(require_field(cycle, "error").as_string(), "cycle");
  EXPECT_EQ(status_of(responses[2]), "ok");
  EXPECT_EQ(server.stats().rejected_invalid, 2u);
  EXPECT_EQ(server.stats().solved, 1u);
}

TEST(ServerSession, ExpiredDeadlineIsShedWithoutRunningAColony) {
  // A clock that advances one second per *call* makes expiry deterministic
  // with no sleeping: the deadline is stamped on one call and is already
  // in the past by the dispatch-time check.
  int ticks = 0;
  ServeOptions options = with_threads(1);
  options.clock = [&ticks] { return static_cast<double>(ticks++); };
  Server server(options);
  server.push_line(frame("late", test::diamond(), 2, 1,
                         FrameOpts{.deadline = 0.5}));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue doc = parse_response(responses[0]);
  EXPECT_EQ(require_field(doc, "status").as_string(), "rejected");
  EXPECT_EQ(require_field(doc, "error").as_string(), "deadline_expired");
  EXPECT_EQ(server.stats().rejected_deadline, 1u);
  EXPECT_EQ(server.stats().solved, 0u);  // never reached the solver
}

/// Holds one BatchSolver job in flight: installed as the completion gate,
/// it blocks the worker that ran job `held` until release(). The state is
/// shared with the gate, so releasing never races the worker's wake-up.
class HeldJob {
 public:
  explicit HeldJob(core::BatchJobId held)
      : held_(held), state_(std::make_shared<State>()) {}

  /// The gate to install as ServeOptions::completion_gate.
  std::function<void(core::BatchJobId)> gate() const {
    return [held = held_, state = state_](core::BatchJobId id) {
      if (id != held) return;
      std::unique_lock<std::mutex> lock(state->mutex);
      state->cv.wait(lock, [&state] { return state->released; });
    };
  }

  /// Lets the held job finish (idempotent).
  void release() {
    {
      const std::lock_guard<std::mutex> lock(state_->mutex);
      state_->released = true;
    }
    state_->cv.notify_all();
  }

  /// Releases the job when the enclosing scope ends — on a throw too, so
  /// a failing test can never leave the server's solver blocked.
  struct ReleaseAtScopeExit {
    HeldJob& job;
    ~ReleaseAtScopeExit() { job.release(); }
  };

 private:
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool released = false;
  };
  core::BatchJobId held_;
  std::shared_ptr<State> state_;
};

TEST(ServerSession, PrioritiesGovernDispatchAndOverflowIsBackpressure) {
  // One in-flight slot, a two-deep queue, and a blocker held in flight by
  // the completion gate until the three frames below are pushed — held,
  // not guessed to be slow. The low-priority request's deadline expires
  // as soon as two colonies have been solved (the clock reads the solved
  // counter), so:
  //   * correct (priority) order: blocker, then HIGH — by the time LOW is
  //     popped its deadline has passed and it is shed;
  //   * inverted order would pop LOW while its deadline still holds, solve
  //     it, and the shed assertion below fails.
  // A fourth frame arrives with the queue full and must bounce.
  const Server* self = nullptr;
  ServeOptions options;
  options.num_threads = 2;
  options.max_inflight = 1;
  options.max_queue_depth = 2;
  options.clock = [&self] {
    return (self != nullptr && self->stats().solved >= 2) ? 1000.0 : 0.0;
  };
  HeldJob blocker(/*held=*/0);  // the server's first solver job
  options.completion_gate = blocker.gate();
  Server server(options);
  self = &server;

  {
    const HeldJob::ReleaseAtScopeExit release{blocker};
    server.push_line(frame("blocker", test::diamond(), 2, 1));
    server.push_line(frame("low", test::diamond(), 2, 2,
                           FrameOpts{.deadline = 50.0, .priority = 0}));
    server.push_line(frame("high", test::two_chains(), 2, 3,
                           FrameOpts{.priority = 7}));
    server.push_line(frame("bounced", test::small_dag(), 2, 4));
    EXPECT_EQ(server.stats().solved, 0u);  // the blocker is still held
  }
  server.drain();

  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 4u);  // arrival order, always
  EXPECT_EQ(status_of(responses[0]), "ok");
  const io::JsonValue low = parse_response(responses[1]);
  EXPECT_EQ(require_field(low, "error").as_string(), "deadline_expired");
  EXPECT_EQ(status_of(responses[2]), "ok");
  const io::JsonValue bounced = parse_response(responses[3]);
  EXPECT_EQ(require_field(bounced, "error").as_string(), "overloaded");

  EXPECT_EQ(server.stats().solved, 2u);
  EXPECT_EQ(server.stats().rejected_deadline, 1u);
  EXPECT_EQ(server.stats().rejected_overload, 1u);
}

TEST(ServerSession, DedupCollapsesOnlyExactlyEqualRequests) {
  Server server(with_threads(1));
  const auto g = test::small_dag();
  server.push_line(frame("a", g, 3, 11));
  server.push_line(frame("b", g, 3, 11));  // identical (id is not params)
  server.push_line(frame("c", g, 3, 11));
  server.push_line(frame("d", g, 3, 12));  // same graph, different seed
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 4u);

  const io::JsonValue a = parse_response(responses[0]);
  const io::JsonValue b = parse_response(responses[1]);
  const io::JsonValue c = parse_response(responses[2]);
  EXPECT_FALSE(require_field(a, "deduped").as_bool());
  EXPECT_TRUE(require_field(b, "deduped").as_bool());
  EXPECT_TRUE(require_field(c, "deduped").as_bool());
  EXPECT_FALSE(deduped_of(responses[3]));

  // A shared result is the leader's result: identical layers.
  const auto& a_layers = require_field(a, "layering", "layers").elements();
  const auto& b_layers = require_field(b, "layering", "layers").elements();
  ASSERT_EQ(a_layers.size(), b_layers.size());
  for (std::size_t i = 0; i < a_layers.size(); ++i) {
    EXPECT_EQ(a_layers[i].as_int64(), b_layers[i].as_int64());
  }

  EXPECT_EQ(server.stats().solved, 2u);  // the 3 clones cost one colony
  EXPECT_EQ(server.stats().dedup_shared + server.stats().dedup_cached, 2u);
}

TEST(ServerSession, DedupRefusesSetEqualGraphsWithPermutedAdjacency) {
  // Same vertex set, same edge *set*, different adjacency order: the
  // fingerprints collide (order-invariant by design) but the solves may
  // differ, so the order-sensitive guard must keep them apart.
  graph::Digraph a(4);
  a.add_edge(3, 1);
  a.add_edge(3, 2);
  a.add_edge(1, 0);
  a.add_edge(2, 0);
  graph::Digraph b(4);
  b.add_edge(2, 0);
  b.add_edge(3, 2);
  b.add_edge(1, 0);
  b.add_edge(3, 1);

  Server server(with_threads(1));
  server.push_line(frame("a", a, 3, 5));
  server.push_line(frame("b", b, 3, 5));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(deduped_of(responses[0]));
  EXPECT_FALSE(deduped_of(responses[1]));
  EXPECT_EQ(server.stats().solved, 2u);
  EXPECT_EQ(server.stats().dedup_shared + server.stats().dedup_cached, 0u);
}

TEST(ServerSession, WarmRequestsReuseTheSlotAndSkipDedup) {
  Server server(with_threads(1));
  const auto g = test::small_dag();
  server.push_line(frame("w1", g, 3, 21, FrameOpts{.warm = true}));
  server.drain();
  server.push_line(frame("w2", g, 3, 21, FrameOpts{.warm = true}));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(status_of(responses[0]), "ok");
  EXPECT_EQ(status_of(responses[1]), "ok");
  EXPECT_EQ(server.stats().solved, 2u);  // identical frames, NOT deduped
  EXPECT_EQ(server.stats().dedup_shared + server.stats().dedup_cached, 0u);
  EXPECT_EQ(server.stats().warm_reused, 1u);  // w2 adopted w1's matrix
}

TEST(ServerSession, ServedStreamIsBitIdenticalToDirectBatchSolve) {
  // The headline contract, at thread counts {1, 4, hardware}: every served
  // layering (and objective) equals a direct core::solve of the same
  // graph and params, and the transcript bytes are identical across
  // thread counts.
  const auto raw_battery = test::random_battery(8, 0x5e21);
  std::vector<graph::Digraph> graphs;
  std::vector<core::AcoParams> params;
  std::vector<std::string> frames;
  for (std::size_t i = 0; i < raw_battery.size(); ++i) {
    graphs.push_back(wire_normalized(raw_battery[i]));
    core::AcoParams p;
    p.num_tours = 3;
    p.seed = 100 + i;
    p.record_trace = false;  // the server forces this off
    params.push_back(p);
    std::string id = "g";  // two steps: "g" + to_string trips a GCC 12
    id += std::to_string(i);  // -Wrestrict false positive
    frames.push_back(frame(id, graphs.back(), 3, 100 + i));
  }

  std::vector<core::AcoResult> expected;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    expected.push_back(test::solve_result(graphs[i], params[i]));
  }

  std::vector<std::vector<std::string>> transcripts;
  for (const int threads : {1, 4, 0}) {
    Server server(with_threads(threads));
    for (const std::string& f : frames) server.push_line(f);
    server.drain();
    transcripts.push_back(server.take_responses());
    ASSERT_EQ(transcripts.back().size(), frames.size());
  }
  EXPECT_EQ(transcripts[0], transcripts[1]);
  EXPECT_EQ(transcripts[0], transcripts[2]);

  for (std::size_t i = 0; i < frames.size(); ++i) {
    const io::JsonValue doc = parse_response(transcripts[0][i]);
    ASSERT_EQ(require_field(doc, "status").as_string(), "ok")
        << transcripts[0][i];
    const auto& layers = require_field(doc, "layering", "layers").elements();
    const auto& want = expected[i].layering.raw();
    ASSERT_EQ(layers.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v) {
      EXPECT_EQ(layers[v].as_int64(), want[v]) << "graph " << i;
    }
    EXPECT_EQ(require_field(doc, "metrics", "objective").as_double(),
              expected[i].metrics.objective);
    EXPECT_EQ(require_field(doc, "initial_objective").as_double(),
              expected[i].initial_objective);
  }
}

TEST(ServerSession, ServeStreamMatchesDirectPushLines) {
  // The pipe loop is plumbing only: the bytes out of serve_stream must be
  // exactly the push_line-driven responses, newline-terminated.
  std::vector<std::string> lines;
  lines.push_back(frame("s1", test::diamond(), 2, 1));
  lines.push_back("garbage");
  lines.push_back(frame("s2", test::small_dag(), 2, 2));
  lines.push_back(frame("s3", test::diamond(), 2, 1));  // dedups onto s1

  Server reference(with_threads(2));
  for (const std::string& line : lines) reference.push_line(line);
  reference.drain();
  std::string want;
  for (const std::string& r : reference.take_responses()) {
    want += r;
    want += '\n';
  }

  std::string input;
  for (const std::string& line : lines) {
    input += line;
    input += '\n';
  }
  std::istringstream in(input);
  std::ostringstream out;
  Server server(with_threads(2));
  serve_stream(in, out, server);
  EXPECT_EQ(out.str(), want);
}

TEST(ServerSession, DeltaFrameContinuesAWarmSolveBitExactly) {
  const graph::Digraph g = wire_normalized(test::small_dag());
  Server server(with_threads(1));
  server.push_line(frame("w1", g, 3, 21, FrameOpts{.warm = true}));
  server.drain();

  auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue warm_doc = parse_response(responses[0]);
  ASSERT_EQ(require_field(warm_doc, "status").as_string(), "ok");
  // Warm solves report the graph fingerprint delta sessions key on.
  ASSERT_NE(warm_doc.find("fingerprint"), nullptr);
  const std::string fp0 = require_field(warm_doc, "fingerprint").as_string();
  EXPECT_EQ(fp0, fingerprint_hex(graph::CsrView(g).fingerprint()));

  graph::GraphDelta delta;
  delta.add_edges.push_back(graph::Edge{5, 2});
  delta.set_widths.push_back(graph::WidthChange{0, 2.5});
  server.push_line(delta_frame("d1", fp0, delta));
  server.drain();

  responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue doc = parse_response(responses[0]);
  ASSERT_EQ(require_field(doc, "status").as_string(), "ok") << responses[0];
  EXPECT_EQ(require_field(doc, "id").as_string(), "d1");
  EXPECT_EQ(server.stats().incremental_sessions, 1u);
  EXPECT_EQ(server.stats().delta_updates, 1u);

  // The served update is bit-identical to driving an IncrementalSolver by
  // hand from the same warm state the server harvested: the warm solve's
  // written-back tau and best layering.
  core::AcoParams params;
  params.num_tours = 3;
  params.seed = 21;
  params.record_trace = false;  // server-forced off the wire
  core::PheromoneMatrix tau;
  core::SolveRequest request;
  request.graph = &g;
  request.params = params;
  request.warm_tau = &tau;
  const core::SolveOutcome warm = core::solve(request);
  ASSERT_TRUE(warm.ok());

  core::IncrementalSolver reference(g, params);
  reference.adopt(tau, warm.result.layering);
  const core::SolveOutcome& updated = reference.update(delta);
  ASSERT_TRUE(updated.ok());

  EXPECT_EQ(require_field(doc, "fingerprint").as_string(),
            fingerprint_hex(reference.fingerprint()));
  const io::JsonValue& layers =
      require_field(doc, "layering", "layers");
  ASSERT_EQ(layers.size(), updated.result.layering.num_vertices());
  for (std::size_t v = 0; v < layers.size(); ++v) {
    EXPECT_EQ(layers[v].as_int64(),
              updated.result.layering.layer(static_cast<graph::VertexId>(v)))
        << "vertex " << v;
  }
  EXPECT_EQ(require_field(doc, "metrics", "objective").as_double(),
            updated.result.metrics.objective);
}

TEST(ServerSession, DeltaChainsRekeyAndBranchesSeedFreshSessions) {
  const graph::Digraph g = wire_normalized(test::small_dag());
  Server server(with_threads(1));
  server.push_line(frame("w1", g, 3, 5, FrameOpts{.warm = true}));
  server.drain();
  auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const std::string fp0 =
      require_field(parse_response(responses[0]), "fingerprint").as_string();

  graph::GraphDelta first;
  first.add_edges.push_back(graph::Edge{5, 2});
  server.push_line(delta_frame("d1", fp0, first));
  server.drain();
  responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const std::string fp1 =
      require_field(parse_response(responses[0]), "fingerprint").as_string();
  EXPECT_NE(fp1, fp0);

  // The chain re-keyed: fp1 continues the same session.
  graph::GraphDelta second;
  second.set_widths.push_back(graph::WidthChange{1, 3.0});
  server.push_line(delta_frame("d2", fp1, second));
  server.drain();
  responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(status_of(responses[0]), "ok");
  EXPECT_EQ(server.stats().incremental_sessions, 1u);
  EXPECT_EQ(server.stats().delta_updates, 2u);

  // After re-keying, fp0 no longer names the session — but it still names
  // the warm slot, so referencing it branches a fresh session.
  server.push_line(delta_frame("d3", fp0, first));
  server.drain();
  responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(status_of(responses[0]), "ok");
  EXPECT_EQ(server.stats().incremental_sessions, 2u);
  EXPECT_EQ(server.stats().delta_updates, 3u);
}

TEST(ServerSession, DeltaWithoutWarmStateIsUnknownFingerprint) {
  Server server(with_threads(1));
  // A solve *without* warm: true leaves no addressable state behind.
  server.push_line(frame("cold", wire_normalized(test::small_dag()), 2, 1));
  server.drain();
  (void)server.take_responses();

  graph::GraphDelta delta;
  delta.set_widths.push_back(graph::WidthChange{0, 2.0});
  server.push_line(delta_frame("d1", "0123456789abcdef", delta));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue doc = parse_response(responses[0]);
  EXPECT_EQ(require_field(doc, "status").as_string(), "rejected");
  EXPECT_EQ(require_field(doc, "error").as_string(), "unknown_fingerprint");
  EXPECT_NE(require_field(doc, "message").as_string().find("warm"),
            std::string::npos);
  EXPECT_EQ(server.stats().rejected_invalid, 1u);
  EXPECT_EQ(server.stats().incremental_sessions, 0u);
}

TEST(ServerSession, RejectedDeltaLeavesTheSessionUsable) {
  const graph::Digraph g = wire_normalized(test::small_dag());
  Server server(with_threads(1));
  server.push_line(frame("w1", g, 3, 9, FrameOpts{.warm = true}));
  server.drain();
  auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const std::string fp0 =
      require_field(parse_response(responses[0]), "fingerprint").as_string();

  graph::GraphDelta missing;  // structurally invalid against the graph
  missing.remove_edges.push_back(graph::Edge{0, 6});
  server.push_line(delta_frame("bad", fp0, missing));
  graph::GraphDelta cycle;  // 0 -> 2 closes 2 -> 0
  cycle.add_edges.push_back(graph::Edge{0, 2});
  server.push_line(delta_frame("loop", fp0, cycle));
  graph::GraphDelta valid;
  valid.set_widths.push_back(graph::WidthChange{2, 4.0});
  server.push_line(delta_frame("good", fp0, valid));
  server.drain();

  responses = server.take_responses();
  ASSERT_EQ(responses.size(), 3u);
  const io::JsonValue bad = parse_response(responses[0]);
  EXPECT_EQ(require_field(bad, "status").as_string(), "rejected");
  EXPECT_EQ(require_field(bad, "error").as_string(), "bad_request");
  const io::JsonValue loop = parse_response(responses[1]);
  EXPECT_EQ(require_field(loop, "status").as_string(), "rejected");
  EXPECT_EQ(require_field(loop, "error").as_string(), "cycle");
  EXPECT_EQ(status_of(responses[2]), "ok");
  EXPECT_EQ(server.stats().delta_updates, 1u);
}

TEST(ServerSession, StatsFrameReportsTheSchemaTaggedCounters) {
  const graph::Digraph g = wire_normalized(test::diamond());
  Server server(with_threads(1));
  server.push_line(frame("a", g, 2, 1));
  server.push_line(frame("b", g, 2, 1));  // exact duplicate: dedups
  server.push_line(R"({"id": "s1", "stats": true})");
  server.drain();

  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 3u);
  // The stats frame is a sequencing point: it answers after the earlier
  // frames, in arrival order.
  EXPECT_EQ(status_of(responses[0]), "ok");
  EXPECT_EQ(status_of(responses[1]), "ok");
  const io::JsonValue doc = parse_response(responses[2]);
  EXPECT_EQ(require_field(doc, "id").as_string(), "s1");
  EXPECT_EQ(require_field(doc, "status").as_string(), "ok");
  const io::JsonValue* stats = doc.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(require_field(*stats, "schema").as_string(), kServeStatsSchema);
  EXPECT_EQ(require_field(*stats, "received").as_int64(), 3);
  EXPECT_EQ(require_field(*stats, "solved").as_int64(), 1);
  EXPECT_EQ(require_field(*stats, "dedup_hits").as_int64(), 1);
  EXPECT_EQ(require_field(*stats, "delta_updates").as_int64(), 0);
  EXPECT_EQ(require_field(*stats, "incremental_sessions").as_int64(), 0);

  // The shutdown --stats line renders the identical schema-tagged object.
  const std::string line = render_stats_line(server.stats());
  const auto line_doc = io::parse_json(line);
  ASSERT_TRUE(line_doc.has_value());
  EXPECT_EQ(require_field(*line_doc, "schema").as_string(), kServeStatsSchema);
  EXPECT_EQ(require_field(*line_doc, "received").as_int64(), 3);
}

TEST(ServerSession, TimingOptInAddsSecondsWithoutChangingTheRest) {
  ServeOptions options = with_threads(1);
  options.include_timing = true;
  Server server(options);
  server.push_line(frame("t1", test::diamond(), 2, 1));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue doc = parse_response(responses[0]);
  ASSERT_NE(doc.find("seconds"), nullptr);
  EXPECT_GE(require_field(doc, "seconds").as_double(), 0.0);
}

/// A cyclic wire graph: the 3-cycle 0 -> 1 -> 2 -> 0 under a small DAG
/// tail, edges already in source-major (wire-normalized) order.
graph::Digraph wire_cyclic_graph() {
  graph::Digraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 0);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  return g;
}

TEST(ServerSessionCycles, CyclicFrameRejectedByDefaultAdmittedPerPolicy) {
  const auto g = wire_cyclic_graph();
  Server server(with_threads(1));
  server.push_line(frame("bare", g, 3, 9));
  server.push_line(frame("explicit-reject", g, 3, 9,
                         FrameOpts{.cycle_policy = "reject"}));
  server.push_line(frame("greedy", g, 3, 9,
                         FrameOpts{.cycle_policy = "greedy_reverse"}));
  server.push_line(frame("aco", g, 3, 9,
                         FrameOpts{.cycle_policy = "aco_fas"}));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 4u);

  for (std::size_t i = 0; i < 2; ++i) {
    const io::JsonValue doc = parse_response(responses[i]);
    EXPECT_EQ(require_field(doc, "status").as_string(), "rejected")
        << responses[i];
    EXPECT_EQ(require_field(doc, "error").as_string(), "cycle");
  }
  for (std::size_t i = 2; i < 4; ++i) {
    const io::JsonValue doc = parse_response(responses[i]);
    ASSERT_EQ(require_field(doc, "status").as_string(), "ok") << responses[i];
    const io::JsonValue* reversed = doc.find("reversed_edges");
    ASSERT_NE(reversed, nullptr) << responses[i];
    EXPECT_GE(reversed->size(), 1u);
  }

  // The served greedy response is bit-identical to the direct solve.
  core::AcoParams params;
  params.num_tours = 3;
  params.seed = 9;
  core::SolveRequest request;
  request.graph = &g;
  request.params = params;
  request.cycle_policy = core::CyclePolicy::kGreedyReverse;
  const auto direct = core::solve(request);
  ASSERT_TRUE(direct.ok());
  const io::JsonValue greedy = parse_response(responses[2]);
  const io::JsonValue& layers =
      require_field(greedy, "layering", "layers");
  ASSERT_EQ(layers.size(), direct.result.layering.num_vertices());
  for (std::size_t v = 0; v < layers.size(); ++v) {
    EXPECT_EQ(layers[v].as_int64(),
              direct.result.layering.layer(static_cast<graph::VertexId>(v)));
  }
  const io::JsonValue* reversed = greedy.find("reversed_edges");
  ASSERT_EQ(reversed->size(), direct.reversed_edges.size());
  for (std::size_t i = 0; i < reversed->size(); ++i) {
    EXPECT_EQ((*reversed)[i][0].as_int64(), direct.reversed_edges[i].source);
    EXPECT_EQ((*reversed)[i][1].as_int64(), direct.reversed_edges[i].target);
  }
}

TEST(ServerSessionCycles, AcyclicResponsesNeverCarryReversedEdges) {
  // Byte-stability of the pre-cycle-policy wire format: a DAG solve emits
  // no "reversed_edges" key even under an admitting policy.
  Server server(with_threads(1));
  server.push_line(frame("dag", test::small_dag(), 3, 7,
                         FrameOpts{.cycle_policy = "greedy_reverse"}));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue doc = parse_response(responses[0]);
  ASSERT_EQ(require_field(doc, "status").as_string(), "ok");
  EXPECT_EQ(doc.find("reversed_edges"), nullptr);
}

TEST(ServerSessionCycles, ServerDefaultPolicyAppliesToBareFrames) {
  ServeOptions options = with_threads(1);
  options.default_cycle_policy = core::CyclePolicy::kGreedyReverse;
  Server server(options);
  const auto g = wire_cyclic_graph();
  server.push_line(frame("bare", g, 3, 9));
  // The frame's own key always wins over the server default.
  server.push_line(frame("explicit-reject", g, 3, 9,
                         FrameOpts{.cycle_policy = "reject"}));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 2u);
  const io::JsonValue bare = parse_response(responses[0]);
  ASSERT_EQ(require_field(bare, "status").as_string(), "ok") << responses[0];
  EXPECT_NE(bare.find("reversed_edges"), nullptr);
  const io::JsonValue explicit_reject = parse_response(responses[1]);
  EXPECT_EQ(require_field(explicit_reject, "status").as_string(), "rejected");
  EXPECT_EQ(require_field(explicit_reject, "error").as_string(), "cycle");
}

TEST(ServerSessionCycles, DedupKeepsPoliciesApart) {
  // Same graph, same params, different cycle policy: the reversal pass
  // differs, so these are distinct requests and must not share a result.
  const auto g = wire_cyclic_graph();
  Server server(with_threads(1));
  server.push_line(frame("g1", g, 3, 9,
                         FrameOpts{.cycle_policy = "greedy_reverse"}));
  server.push_line(frame("g2", g, 3, 9,
                         FrameOpts{.cycle_policy = "greedy_reverse"}));
  server.push_line(frame("a1", g, 3, 9,
                         FrameOpts{.cycle_policy = "aco_fas"}));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(deduped_of(responses[0]));
  EXPECT_TRUE(deduped_of(responses[1]));
  EXPECT_FALSE(deduped_of(responses[2]));
  // The deduped clone carries the leader's reversal report.
  EXPECT_NE(parse_response(responses[1]).find("reversed_edges"), nullptr);
}

TEST(ServerSessionCycles, CycleIntroducingDeltaFollowsTheSessionPolicy) {
  // A warm solve under an admitting policy seeds a delta session that
  // inherits the policy: an edge closing a cycle is re-broken, reported,
  // and the chain continues. Under the default policy the same delta is
  // a structured "cycle" rejection (pinned by RejectedDeltaLeavesTheSessionUsable).
  const graph::Digraph g = wire_normalized(test::small_dag());
  Server server(with_threads(1));
  server.push_line(frame("w1", g, 3, 21,
                         FrameOpts{.warm = true,
                                   .cycle_policy = "greedy_reverse"}));
  server.drain();
  auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue warm_doc = parse_response(responses[0]);
  ASSERT_EQ(require_field(warm_doc, "status").as_string(), "ok");
  const std::string fp0 = require_field(warm_doc, "fingerprint").as_string();

  // small_dag has 2 -> 0; adding 0 -> 5 -> ... no: close a cycle with the
  // existing path 5 -> 3 -> 2 by adding 2 -> 5.
  graph::GraphDelta delta;
  delta.add_edges.push_back(graph::Edge{2, 5});
  server.push_line(delta_frame("d1", fp0, delta));
  server.drain();
  responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue doc = parse_response(responses[0]);
  ASSERT_EQ(require_field(doc, "status").as_string(), "ok") << responses[0];
  const io::JsonValue* reversed = doc.find("reversed_edges");
  ASSERT_NE(reversed, nullptr);
  EXPECT_GE(reversed->size(), 1u);
  EXPECT_EQ(server.stats().delta_updates, 1u);

  // The re-keyed chain keeps working on the reoriented graph.
  const std::string fp1 = require_field(doc, "fingerprint").as_string();
  EXPECT_NE(fp1, fp0);
  graph::GraphDelta second;
  second.set_widths.push_back(graph::WidthChange{0, 2.0});
  server.push_line(delta_frame("d2", fp1, second));
  server.drain();
  responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(status_of(responses[0]), "ok");
}

TEST(ServerSessionCycles, CycleIntroducingDeltaRejectedUnderDefaultPolicy) {
  const graph::Digraph g = wire_normalized(test::small_dag());
  Server server(with_threads(1));
  server.push_line(frame("w1", g, 3, 21, FrameOpts{.warm = true}));
  server.drain();
  auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const std::string fp0 =
      require_field(parse_response(responses[0]), "fingerprint").as_string();

  graph::GraphDelta delta;
  delta.add_edges.push_back(graph::Edge{2, 5});
  server.push_line(delta_frame("d1", fp0, delta));
  server.drain();
  responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue doc = parse_response(responses[0]);
  EXPECT_EQ(require_field(doc, "status").as_string(), "rejected");
  EXPECT_EQ(require_field(doc, "error").as_string(), "cycle");
}

// --- Concurrent deltas: per-session ordering -------------------------------
//
// Delta updates run on the solver's pool, ordered per session, while the
// transcript must stay exactly what one-at-a-time processing gives. Each
// test below drives one interleaving deterministically — the completion
// gate holds a chosen job in flight — and compares the full transcript
// against a serial reference: the same frames, one at a time, each
// drained before the next, on one worker.

/// A medium random DAG as the server reconstructs it from the wire — big
/// enough that a different warm history shows in the served layering.
graph::Digraph medium_dag(std::uint64_t seed) {
  support::Rng rng(seed);
  gen::GnmParams shape;
  shape.num_vertices = 24;
  shape.num_edges = 48;
  return wire_normalized(gen::random_dag(shape, rng));
}

/// The fingerprint a warm or delta response reports for graph `g`.
std::string fp_hex(const graph::Digraph& g) {
  return fingerprint_hex(graph::CsrView(g).fingerprint());
}

/// A width-only delta (always applicable) and the graph it produces.
graph::GraphDelta width_delta(graph::VertexId v, double width) {
  graph::GraphDelta d;
  d.set_widths.push_back(graph::WidthChange{v, width});
  return d;
}

graph::Digraph applied(graph::Digraph g, const graph::GraphDelta& d) {
  EXPECT_EQ(graph::apply_delta(g, d), "");
  return g;
}

std::string warm_frame(const std::string& id, const graph::Digraph& g,
                       std::uint64_t seed) {
  return frame(id, g, 6, seed, FrameOpts{.warm = true});
}

/// The serial reference transcript for `frames` under `options`.
std::vector<std::string> serial_transcript(
    const std::vector<std::string>& frames, ServeOptions options) {
  options.num_threads = 1;
  options.completion_gate = nullptr;
  Server server(options);
  std::vector<std::string> out;
  for (const std::string& f : frames) {
    server.push_line(f);
    server.drain();
    for (std::string& r : server.take_responses()) out.push_back(std::move(r));
  }
  return out;
}

/// Pushes `frames`, collecting any responses they produce into `out`.
void push_all(Server& server, const std::vector<std::string>& frames,
              std::vector<std::string>& out) {
  for (const std::string& f : frames) server.push_line(f);
  for (std::string& r : server.take_responses()) out.push_back(std::move(r));
}

/// Drains `server` and appends the remaining responses to `out`.
void finish_all(Server& server, std::vector<std::string>& out) {
  server.drain();
  for (std::string& r : server.take_responses()) out.push_back(std::move(r));
}

/// Steps `server` until `done()` holds, sleeping on its wake-up between
/// steps — every finished job rings it, so this waits for an event, not
/// for a guessed duration.
template <typename Done>
void step_until(Server& server, Done done) {
  while (!done()) {
    const std::uint64_t seen = server.wake().generation();
    if (!server.step() && !done()) server.wake().wait(seen);
  }
}

/// Three workers, with `held`'s gate installed when given.
ServeOptions concurrent_options(const HeldJob* held) {
  ServeOptions options;
  options.num_threads = 3;
  if (held != nullptr) options.completion_gate = held->gate();
  return options;
}

TEST(ServerSessionConcurrentDeltas, HeldUpdateKeepsALaterSessionsResponseBack) {
  // (a) Session A's update (job 2) is held while session B's (job 3)
  // completes: B's colony is done, but its response must wait behind A's.
  const graph::Digraph ga = medium_dag(1);
  const graph::Digraph gb = medium_dag(2);
  const std::vector<std::string> warm = {warm_frame("wa", ga, 5),
                                         warm_frame("wb", gb, 6)};
  const std::vector<std::string> deltas = {
      delta_frame("da", fp_hex(ga), width_delta(3, 2.5)),
      delta_frame("db", fp_hex(gb), width_delta(4, 1.5))};

  HeldJob held(/*held=*/2);
  const ServeOptions options = concurrent_options(&held);
  Server server(options);
  std::vector<std::string> got;
  push_all(server, warm, got);
  finish_all(server, got);
  ASSERT_EQ(got.size(), 2u);
  {
    const HeldJob::ReleaseAtScopeExit release{held};
    push_all(server, deltas, got);
    step_until(server, [&] { return server.stats().delta_updates == 1; });
    for (std::string& r : server.take_responses()) got.push_back(r);
    EXPECT_EQ(got.size(), 2u) << "B's response overtook A's held update";
  }
  finish_all(server, got);

  std::vector<std::string> frames = warm;
  frames.insert(frames.end(), deltas.begin(), deltas.end());
  EXPECT_EQ(got, serial_transcript(frames, options));
  EXPECT_EQ(server.stats().delta_updates, 2u);
}

TEST(ServerSessionConcurrentDeltas, PipelinedDeltasOnOneSessionRunInOrder) {
  // (b) Three deltas on one chain arrive back to back, each naming the
  // fingerprint the previous one will return — d2 and d3 arrive while
  // d1's update (job 1) is held, so they must queue behind it.
  const graph::Digraph g0 = medium_dag(3);
  const graph::GraphDelta e1 = width_delta(0, 2.0);
  graph::GraphDelta e2;
  e2.remove_edges.push_back(g0.edges().front());
  const graph::GraphDelta e3 = width_delta(5, 0.5);
  const graph::Digraph g1 = applied(g0, e1);
  const graph::Digraph g2 = applied(g1, e2);
  const std::vector<std::string> frames = {
      warm_frame("w", g0, 9), delta_frame("d1", fp_hex(g0), e1),
      delta_frame("d2", fp_hex(g1), e2), delta_frame("d3", fp_hex(g2), e3)};

  HeldJob held(/*held=*/1);
  const ServeOptions options = concurrent_options(&held);
  Server server(options);
  std::vector<std::string> got;
  push_all(server, {frames[0]}, got);
  finish_all(server, got);
  {
    const HeldJob::ReleaseAtScopeExit release{held};
    push_all(server, {frames.begin() + 1, frames.end()}, got);
    EXPECT_EQ(got.size(), 1u);
    EXPECT_EQ(server.stats().incremental_sessions, 1u);
  }
  finish_all(server, got);

  const auto want = serial_transcript(frames, options);
  EXPECT_EQ(got, want);
  ASSERT_EQ(want.size(), 4u);
  for (const std::string& r : want) EXPECT_EQ(status_of(r), "ok") << r;
  EXPECT_EQ(server.stats().delta_updates, 3u);
}

TEST(ServerSessionConcurrentDeltas, DeltaWaitsForItsOwnUnfinishedWarmSolve) {
  // (c) The warm solve (job 0) is held while its delta arrives: resolving
  // the delta now would find no warm state (unknown_fingerprint); it must
  // wait and seed from the finished solve, as serial processing does.
  const graph::Digraph g = medium_dag(4);
  const std::vector<std::string> frames = {
      warm_frame("w", g, 13),
      delta_frame("d", fp_hex(g), width_delta(2, 3.0))};

  HeldJob held(/*held=*/0);
  const ServeOptions options = concurrent_options(&held);
  Server server(options);
  std::vector<std::string> got;
  {
    const HeldJob::ReleaseAtScopeExit release{held};
    push_all(server, frames, got);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(server.stats().incremental_sessions, 0u);
  }
  finish_all(server, got);

  const auto want = serial_transcript(frames, options);
  EXPECT_EQ(got, want);
  ASSERT_EQ(want.size(), 2u);
  EXPECT_EQ(status_of(want[1]), "ok");
}

TEST(ServerSessionConcurrentDeltas, LaterWarmSolveWaitsForAHeldDeltaOnItsSlot) {
  // (d) One session at most. dG's update (job 2) is held, so dF — which
  // must create a session and would evict the busy one — waits. A second
  // warm solve of F arrives behind it: dispatched now it would rewrite
  // F's slot before dF seeds from it, so it must be deferred.
  const graph::Digraph gf = medium_dag(5);
  const graph::Digraph gg = medium_dag(6);
  const std::vector<std::string> warm = {warm_frame("wf", gf, 17),
                                         warm_frame("wg", gg, 18)};
  const std::vector<std::string> rest = {
      delta_frame("dg", fp_hex(gg), width_delta(1, 2.0)),
      delta_frame("df", fp_hex(gf), width_delta(1, 2.0)),
      warm_frame("wf2", gf, 19)};

  HeldJob held(/*held=*/2);
  ServeOptions options = concurrent_options(&held);
  options.max_incremental_sessions = 1;
  Server server(options);
  std::vector<std::string> got;
  push_all(server, warm, got);
  finish_all(server, got);
  ASSERT_EQ(server.stats().warm_reused, 0u);
  {
    const HeldJob::ReleaseAtScopeExit release{held};
    push_all(server, rest, got);
    // wf2 would have claimed F's slot (a warm reuse) at dispatch.
    EXPECT_EQ(server.stats().warm_reused, 0u);
    EXPECT_EQ(server.stats().incremental_sessions, 1u);
  }
  finish_all(server, got);

  std::vector<std::string> frames = warm;
  frames.insert(frames.end(), rest.begin(), rest.end());
  EXPECT_EQ(got, serial_transcript(frames, options));
  EXPECT_EQ(server.stats().warm_reused, 1u);
  EXPECT_EQ(server.stats().delta_updates, 2u);
}

TEST(ServerSessionConcurrentDeltas, EvictingABusySessionWaitsForItsUpdate) {
  // (e) One session at most. dA's update (job 2) is held; dB must evict
  // A's session to create its own, so it waits for dA to finish — and
  // then the evicted chain's next delta is unknown_fingerprint, exactly
  // as in serial order.
  const graph::Digraph ga = medium_dag(7);
  const graph::Digraph gb = medium_dag(8);
  const graph::GraphDelta ea = width_delta(0, 4.0);
  const std::vector<std::string> warm = {warm_frame("wa", ga, 21),
                                         warm_frame("wb", gb, 22)};
  const std::vector<std::string> rest = {
      delta_frame("da", fp_hex(ga), ea),
      delta_frame("db", fp_hex(gb), width_delta(0, 4.0)),
      delta_frame("da2", fp_hex(applied(ga, ea)), width_delta(1, 4.0))};

  HeldJob held(/*held=*/2);
  ServeOptions options = concurrent_options(&held);
  options.max_incremental_sessions = 1;
  Server server(options);
  std::vector<std::string> got;
  push_all(server, warm, got);
  finish_all(server, got);
  {
    const HeldJob::ReleaseAtScopeExit release{held};
    push_all(server, rest, got);
    EXPECT_EQ(server.stats().incremental_sessions, 1u);  // db not yet
  }
  finish_all(server, got);

  std::vector<std::string> frames = warm;
  frames.insert(frames.end(), rest.begin(), rest.end());
  const auto want = serial_transcript(frames, options);
  EXPECT_EQ(got, want);
  ASSERT_EQ(want.size(), 5u);
  EXPECT_EQ(status_of(want[3]), "ok");
  EXPECT_EQ(require_field(parse_response(want[4]), "error").as_string(),
            "unknown_fingerprint");
}

TEST(ServerSessionConcurrentDeltas, StatsAfterOverlappingDeltasIsExact) {
  // (f) Two chains interleave with nothing held back; the stats frame
  // drains everything and must report the serial counters byte for byte.
  const graph::Digraph ga = medium_dag(9);
  const graph::Digraph gb = medium_dag(10);
  const graph::GraphDelta ea = width_delta(2, 2.0);
  const graph::GraphDelta eb = width_delta(3, 2.0);
  const std::vector<std::string> frames = {
      warm_frame("wa", ga, 25),
      warm_frame("wb", gb, 26),
      delta_frame("da1", fp_hex(ga), ea),
      delta_frame("db1", fp_hex(gb), eb),
      delta_frame("da2", fp_hex(applied(ga, ea)), width_delta(4, 2.0)),
      delta_frame("db2", fp_hex(applied(gb, eb)), width_delta(5, 2.0)),
      delta_frame("bad", "0123456789abcdef", ea),
      R"({"id": "s", "stats": true})"};

  const ServeOptions options = concurrent_options(nullptr);
  Server server(options);
  std::vector<std::string> got;
  push_all(server, frames, got);
  finish_all(server, got);

  EXPECT_EQ(got, serial_transcript(frames, options));
  ASSERT_EQ(got.size(), frames.size());
  const io::JsonValue stats = parse_response(got.back());
  EXPECT_EQ(require_field(stats, "stats", "received").as_int64(), 8);
  EXPECT_EQ(require_field(stats, "stats", "solved").as_int64(), 2);
  EXPECT_EQ(require_field(stats, "stats", "incremental_sessions").as_int64(),
            2);
  EXPECT_EQ(require_field(stats, "stats", "delta_updates").as_int64(), 4);
  EXPECT_EQ(require_field(stats, "stats", "rejected_invalid").as_int64(), 1);
}

// --- Warm-slot cap ----------------------------------------------------------

TEST(ServerSessionWarmSlots, StoreNeverGrowsPastItsCap) {
  ServeOptions options = with_threads(2);
  options.max_warm_slots = 2;
  Server server(options);
  std::vector<std::string> fps;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const graph::Digraph g = medium_dag(20 + i);
    fps.push_back(fp_hex(g));
    std::string id = "w";
    id += std::to_string(i);
    server.push_line(warm_frame(id, g, 30 + i));
    server.drain();
    EXPECT_LE(server.num_warm_slots(), 2u);
  }
  EXPECT_EQ(server.num_warm_slots(), 2u);
  // FIFO: the oldest fingerprints lost their state, the newest kept it.
  server.push_line(delta_frame("old", fps[0], width_delta(0, 2.0)));
  server.push_line(delta_frame("new", fps[4], width_delta(0, 2.0)));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 7u);
  EXPECT_EQ(require_field(parse_response(responses[5]), "error").as_string(),
            "unknown_fingerprint");
  EXPECT_EQ(status_of(responses[6]), "ok");
}

TEST(ServerSessionWarmSlots, BusySlotSurvivesCapPlusOneNewFingerprints) {
  // F's warm solve (job 0) is held, keeping its slot busy at the front of
  // a two-slot store while three new fingerprints arrive warm. The busy
  // slot must not be evicted (its matrix is being written) and the store
  // must not grow past the cap: the first newcomer takes the free slot,
  // the next one's claim — which must evict F's slot — waits, and so does
  // everything behind it. Once F finishes, the claims go through in
  // arrival order, exactly as one-at-a-time processing evicts.
  const graph::Digraph gf = medium_dag(40);
  HeldJob held(/*held=*/0);
  ServeOptions options = concurrent_options(&held);
  options.max_warm_slots = 2;
  Server server(options);
  std::vector<std::string> frames = {warm_frame("wf", gf, 41)};
  std::vector<std::string> fps;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const graph::Digraph g = medium_dag(50 + i);
    fps.push_back(fp_hex(g));
    std::string id = "w";
    id += std::to_string(i);
    frames.push_back(warm_frame(id, g, 60 + i));
  }
  frames.push_back(delta_frame("df", fp_hex(gf), width_delta(0, 2.0)));
  frames.push_back(delta_frame("d0", fps[0], width_delta(0, 2.0)));
  frames.push_back(delta_frame("d2", fps[2], width_delta(0, 2.0)));

  std::vector<std::string> got;
  {
    const HeldJob::ReleaseAtScopeExit release{held};
    for (const std::string& f : frames) {
      server.push_line(f);
      EXPECT_LE(server.num_warm_slots(), 2u);
    }
    step_until(server, [&] { return server.stats().solved == 1; });
    for (int i = 0; i < 3; ++i) server.step();
    EXPECT_EQ(server.stats().solved, 1u) << "a claim evicted the busy slot";
    EXPECT_EQ(server.num_warm_slots(), 2u);
  }
  finish_all(server, got);

  EXPECT_EQ(got, serial_transcript(frames, options));
  ASSERT_EQ(got.size(), 7u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(status_of(got[i]), "ok");
  for (std::size_t i = 4; i < 6; ++i) {
    EXPECT_EQ(require_field(parse_response(got[i]), "error").as_string(),
              "unknown_fingerprint");
  }
  EXPECT_EQ(status_of(got[6]), "ok");
  EXPECT_EQ(server.num_warm_slots(), 2u);
}

TEST(ServerSessionWarmSlots, CapEvictsInArrivalOrderWhateverTheTiming) {
  // One slot. A's warm solve (job 0) is held while B's warm solve and
  // deltas on both arrive. Serially B evicts A's slot, so dA is
  // unknown_fingerprint and dB seeds from B. Concurrently, B's solve
  // could otherwise run while A's slot is busy (losing its own slot: dB
  // unknown) or after dA had already seeded from A's slot (dA ok) — at
  // one worker and at three, the verdicts must be the serial ones.
  const graph::Digraph ga = medium_dag(70);
  const graph::Digraph gb = medium_dag(71);
  const std::vector<std::string> frames = {
      warm_frame("wa", ga, 72), warm_frame("wb", gb, 73),
      delta_frame("da", fp_hex(ga), width_delta(0, 2.0)),
      delta_frame("db", fp_hex(gb), width_delta(0, 2.0))};

  for (const int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    HeldJob held(/*held=*/0);
    ServeOptions options = concurrent_options(&held);
    options.num_threads = threads;
    options.max_warm_slots = 1;
    Server server(options);
    std::vector<std::string> got;
    {
      const HeldJob::ReleaseAtScopeExit release{held};
      push_all(server, frames, got);
      EXPECT_TRUE(got.empty());
      EXPECT_EQ(server.num_warm_slots(), 1u);
    }
    finish_all(server, got);

    const auto want = serial_transcript(frames, options);
    EXPECT_EQ(got, want);
    ASSERT_EQ(want.size(), 4u);
    EXPECT_EQ(require_field(parse_response(want[2]), "error").as_string(),
              "unknown_fingerprint");
    EXPECT_EQ(status_of(want[3]), "ok");
  }
}

TEST(ServerSessionConcurrentDeltas, FailedUpdateRetiresItsSession) {
  // The completion gate throws on d1's update job (job 1), which the
  // solver reports as an internal failure. The chain's state is then
  // unknown, so its session is retired: a delta on the fingerprint d1
  // staged is unknown_fingerprint rather than served from that state.
  const graph::Digraph g0 = medium_dag(80);
  const graph::GraphDelta e1 = width_delta(0, 2.0);
  ServeOptions options = with_threads(2);
  options.completion_gate = [](core::BatchJobId id) {
    if (id == 1) throw std::runtime_error("injected update failure");
  };
  Server server(options);
  server.push_line(warm_frame("w", g0, 81));
  server.push_line(delta_frame("d1", fp_hex(g0), e1));
  server.push_line(
      delta_frame("d2", fp_hex(applied(g0, e1)), width_delta(1, 2.0)));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(status_of(responses[0]), "ok");
  EXPECT_EQ(require_field(parse_response(responses[1]), "error").as_string(),
            "internal");
  EXPECT_EQ(require_field(parse_response(responses[2]), "error").as_string(),
            "unknown_fingerprint");
  EXPECT_EQ(server.stats().delta_updates, 0u);
}

}  // namespace
}  // namespace acolay::server
