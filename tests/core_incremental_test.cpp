// core::IncrementalSolver — the warm re-layering path. Pins the versioned
// quality contract (every update within kIncrementalStepTolerance of a
// cold full-budget solve, script means within kIncrementalMeanTolerance,
// over 40 random edit scripts x 5 updates = 200 updates), the house
// determinism rules (bit-identical across thread counts and reruns), the
// monotone guard (an update never returns worse than its repaired warm
// base), the transactional failure semantics of update(), the stage() +
// finish() split (bit-identical to update(), rejections only in stage()),
// and the allocation-free steady state of the serial update loop.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/colony.hpp"
#include "core/incremental.hpp"
#include "core/pheromone.hpp"
#include "gen/edit_script.hpp"
#include "gen/random_dag.hpp"
#include "graph/csr.hpp"
#include "graph/delta.hpp"
#include "graph/digraph.hpp"
#include "layering/metrics.hpp"
#include "support/alloc_guard.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace acolay::core {
namespace {

AcoParams quick_params(std::uint64_t seed = 1) {
  AcoParams params;
  params.num_ants = 10;
  params.num_tours = 10;
  params.seed = seed;
  params.num_threads = 1;
  return params;
}

/// A base instance in the calibrated size range (n in [12, 32)).
graph::Digraph random_base(support::Rng& rng) {
  gen::GnmParams shape;
  shape.num_vertices =
      12 + static_cast<std::size_t>(rng.uniform_int(0, 19));
  shape.num_edges = 2 * shape.num_vertices;
  return gen::random_dag(shape, rng);
}

TEST(IncrementalSolver, ColdSolveMatchesAntColonyBitExactly) {
  const graph::Digraph g = test::small_dag();
  const AcoParams params = quick_params();
  IncrementalSolver solver(g, params);
  const SolveOutcome& outcome = solver.solve();
  ASSERT_TRUE(outcome.ok());
  const AcoResult direct = test::solve_result(g, params);
  EXPECT_EQ(outcome.result.layering.raw(), direct.layering.raw());
  EXPECT_EQ(outcome.result.metrics.objective, direct.metrics.objective);
  EXPECT_EQ(solver.fingerprint(), graph::CsrView(g).fingerprint());
}

TEST(IncrementalSolver, UpdateBeforeStateIsRejected) {
  IncrementalSolver solver(test::small_dag(), quick_params());
  graph::GraphDelta delta;
  delta.set_widths.push_back(graph::WidthChange{0, 2.0});
  const SolveOutcome& outcome = solver.update(delta);
  EXPECT_EQ(outcome.error, AdmissionError::kBadRequest);
  EXPECT_FALSE(solver.has_state());
}

TEST(IncrementalSolver, InvalidDeltaLeavesSolverUntouched) {
  IncrementalSolver solver(test::small_dag(), quick_params());
  ASSERT_TRUE(solver.solve().ok());
  const std::uint64_t fingerprint = solver.fingerprint();
  const graph::Digraph before = solver.graph();

  graph::GraphDelta missing;  // structurally invalid: edge does not exist
  missing.remove_edges.push_back(graph::Edge{0, 5});
  EXPECT_EQ(solver.update(missing).error, AdmissionError::kBadRequest);
  EXPECT_EQ(solver.fingerprint(), fingerprint);
  EXPECT_EQ(solver.graph(), before);
  EXPECT_EQ(solver.num_updates(), 0);

  graph::GraphDelta cycle;  // valid ops, but 0 -> 2 closes 2 -> 0
  cycle.add_edges.push_back(graph::Edge{0, 2});
  EXPECT_EQ(solver.update(cycle).error, AdmissionError::kCycle);
  EXPECT_EQ(solver.fingerprint(), fingerprint);
  EXPECT_EQ(solver.graph(), before);

  // The solver still works after rejected deltas.
  graph::GraphDelta valid;
  valid.set_widths.push_back(graph::WidthChange{2, 3.0});
  EXPECT_TRUE(solver.update(valid).ok());
  EXPECT_EQ(solver.num_updates(), 1);
}

TEST(IncrementalSolver, FingerprintStaysDeltaComposedAcrossUpdates) {
  support::Rng rng(4242);
  graph::Digraph base = random_base(rng);
  gen::EditScriptParams script_params;
  script_params.num_deltas = 6;
  const auto script = gen::random_edit_script(base, script_params, rng);

  IncrementalSolver solver(base, quick_params());
  ASSERT_TRUE(solver.solve().ok());
  for (const auto& delta : script) {
    ASSERT_TRUE(solver.update(delta).ok());
    // The composed fingerprint equals a cold freeze of the evolving graph
    // — the serving layer's session key never drifts from the truth.
    EXPECT_EQ(solver.fingerprint(),
              graph::CsrView(solver.graph()).fingerprint());
  }
  EXPECT_EQ(solver.num_updates(), 6);
}

TEST(IncrementalSolver, AdoptSeedsStateWithoutASolve) {
  const graph::Digraph g = test::small_dag();
  const AcoParams params = quick_params();
  const AcoResult cold = test::solve_result(g, params);

  IncrementalSolver solver(g, params);
  PheromoneMatrix tau;  // empty: shape mismatch falls back to tau0
  solver.adopt(tau, cold.layering);
  EXPECT_TRUE(solver.has_state());

  graph::GraphDelta delta;
  delta.add_edges.push_back(graph::Edge{5, 2});
  const SolveOutcome& outcome = solver.update(delta);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(layering::validate_layering(solver.graph(),
                                        outcome.result.layering),
            "");
}

TEST(IncrementalSolver, UpdateNeverReturnsWorseThanItsWarmBase) {
  // The monotone guard: result.initial_objective is the repaired base's
  // objective, and the returned layering must match or beat it.
  support::Rng rng(515151);
  for (int script_index = 0; script_index < 8; ++script_index) {
    support::Rng fork = rng.fork(static_cast<std::uint64_t>(script_index));
    graph::Digraph base = random_base(fork);
    gen::EditScriptParams script_params;
    script_params.num_deltas = 5;
    const auto script = gen::random_edit_script(base, script_params, fork);
    IncrementalSolver solver(
        base, quick_params(9000 + static_cast<std::uint64_t>(script_index)));
    ASSERT_TRUE(solver.solve().ok());
    for (const auto& delta : script) {
      const SolveOutcome& outcome = solver.update(delta);
      ASSERT_TRUE(outcome.ok());
      EXPECT_GE(outcome.result.metrics.objective,
                outcome.result.initial_objective);
      EXPECT_EQ(layering::validate_layering(solver.graph(),
                                            outcome.result.layering),
                "");
    }
  }
}

TEST(IncrementalSolver, QualityWithinVersionedToleranceOver200Updates) {
  // The version-1 contract of core/incremental.hpp, re-measured the way it
  // was calibrated: 40 random edit scripts x 5 updates, each update's
  // objective compared against a cold full-budget core::solve of the
  // identical post-delta graph.
  ASSERT_EQ(kIncrementalToleranceVersion, 1)
      << "tolerances re-versioned: recalibrate this test's expectations";
  support::Rng rng(1000);
  double warm_sum = 0.0;
  double cold_sum = 0.0;
  int updates = 0;
  for (int script_index = 0; script_index < 40; ++script_index) {
    support::Rng fork = rng.fork(static_cast<std::uint64_t>(script_index));
    graph::Digraph base = random_base(fork);
    gen::EditScriptParams script_params;
    script_params.num_deltas = 5;
    const auto script = gen::random_edit_script(base, script_params, fork);

    const AcoParams params =
        quick_params(1000 + static_cast<std::uint64_t>(script_index));
    IncrementalSolver solver(base, params);
    ASSERT_TRUE(solver.solve().ok());
    graph::Digraph mirror = base;
    for (const auto& delta : script) {
      const SolveOutcome& warm = solver.update(delta);
      ASSERT_TRUE(warm.ok());
      ASSERT_EQ(graph::apply_delta(mirror, delta), "");
      const AcoResult cold = test::solve_result(mirror, params);
      warm_sum += warm.result.metrics.objective;
      cold_sum += cold.metrics.objective;
      ++updates;
      if (cold.metrics.objective > 0.0) {
        EXPECT_GE(warm.result.metrics.objective,
                  (1.0 - kIncrementalStepTolerance) * cold.metrics.objective)
            << "script " << script_index << ", update "
            << solver.num_updates();
      }
    }
  }
  ASSERT_EQ(updates, 200);
  EXPECT_GE(warm_sum, (1.0 - kIncrementalMeanTolerance) * cold_sum);
}

TEST(IncrementalSolver, BitIdenticalAcrossThreadCountsAndReruns) {
  support::Rng rng(777);
  graph::Digraph base = random_base(rng);
  gen::EditScriptParams script_params;
  script_params.num_deltas = 6;
  const auto script = gen::random_edit_script(base, script_params, rng);

  const auto run_script = [&](int num_threads) {
    AcoParams params = quick_params(42);
    params.num_threads = num_threads;
    IncrementalSolver solver(base, params);
    EXPECT_TRUE(solver.solve().ok());
    std::vector<std::vector<int>> layerings;
    for (const auto& delta : script) {
      const SolveOutcome& outcome = solver.update(delta);
      EXPECT_TRUE(outcome.ok());
      layerings.push_back(outcome.result.layering.raw());
    }
    return layerings;
  };

  const auto serial = run_script(1);
  EXPECT_EQ(run_script(1), serial);  // rerun
  EXPECT_EQ(run_script(4), serial);  // fixed pool
  EXPECT_EQ(run_script(0), serial);  // hardware concurrency
}

/// Everything an update decides, captured for bit-exact comparison.
struct UpdateRecord {
  AdmissionError error = AdmissionError::kNone;
  std::vector<int> layering;
  std::uint64_t objective_bits = 0;
  std::uint64_t initial_objective_bits = 0;
  std::uint64_t fingerprint = 0;
  graph::RefreezeKind refreeze = graph::RefreezeKind::kFull;
  std::vector<graph::Edge> reversed;
  int num_updates = 0;

  friend bool operator==(const UpdateRecord&, const UpdateRecord&) = default;
};

UpdateRecord record(const IncrementalSolver& solver,
                    const SolveOutcome& outcome) {
  UpdateRecord r;
  r.error = outcome.error;
  r.fingerprint = solver.fingerprint();
  r.num_updates = solver.num_updates();
  if (outcome.ok()) {
    r.layering = outcome.result.layering.raw();
    r.objective_bits =
        std::bit_cast<std::uint64_t>(outcome.result.metrics.objective);
    r.initial_objective_bits =
        std::bit_cast<std::uint64_t>(outcome.result.initial_objective);
    r.refreeze = solver.last_refreeze();
    r.reversed = outcome.reversed_edges;
  }
  return r;
}

TEST(IncrementalSolver, StageThenFinishIsBitIdenticalToUpdate) {
  // Two solvers walk the same random edit scripts, one through update(),
  // one through stage() + finish(). Every other delta also closes a cycle
  // (a back edge against an existing edge), so under kReject those are
  // rejected in stage() and under kGreedyReverse they take the Phase 0
  // path (reversal, full rebuild). Deltas are drawn from the live graph,
  // so the script stays applicable after reversals reorient edges.
  for (const CyclePolicy policy :
       {CyclePolicy::kReject, CyclePolicy::kGreedyReverse}) {
    for (std::uint64_t script = 0; script < 6; ++script) {
      support::Rng rng(31337 + script);
      const graph::Digraph base = random_base(rng);
      IncrementalOptions options;
      options.cycle_policy = policy;
      const AcoParams params = quick_params(500 + script);
      IncrementalSolver whole(base, params, options);
      IncrementalSolver split(base, params, options);
      ASSERT_TRUE(whole.solve().ok());
      ASSERT_TRUE(split.solve().ok());
      int rejected = 0;
      int reversed = 0;
      for (int step = 0; step < 8; ++step) {
        gen::EditScriptParams script_params;
        script_params.num_deltas = 1;
        graph::GraphDelta delta =
            gen::random_edit_script(whole.graph(), script_params, rng)[0];
        const auto edges = whole.graph().edges();
        if (step % 2 == 1 && !edges.empty()) {
          const graph::Edge e = edges[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(edges.size()) - 1))];
          // Reversed against the pre-delta ids: skip deltas that renumber.
          if (!delta.touches_vertex_set()) {
            delta.remove_edges.clear();
            delta.add_edges.push_back(graph::Edge{e.target, e.source});
          }
        }
        const UpdateRecord want = record(whole, whole.update(delta));
        const bool staged = split.stage(delta);
        EXPECT_EQ(staged, want.error == AdmissionError::kNone);
        EXPECT_EQ(split.staged(), staged);
        const UpdateRecord got =
            record(split, staged ? split.finish() : split.outcome());
        EXPECT_EQ(got, want) << "policy " << static_cast<int>(policy)
                             << ", script " << script << ", step " << step;
        EXPECT_EQ(split.graph(), whole.graph());
        if (!staged) ++rejected;
        if (!want.reversed.empty()) ++reversed;
      }
      // The scripts exercise the paths they claim to.
      if (policy == CyclePolicy::kReject) {
        EXPECT_GT(rejected, 0) << "script " << script;
      } else {
        EXPECT_GT(reversed, 0) << "script " << script;
      }
    }
  }
}

TEST(IncrementalSolver, RejectedStageLeavesGraphFingerprintAndWarmState) {
  // `probe` sees two rejected stages before a valid delta; `reference`
  // sees only the valid delta. Equal results prove the rejections left
  // the pheromone matrix and best layering (the warm state) untouched.
  const AcoParams params = quick_params(77);
  IncrementalSolver probe(test::small_dag(), params);
  IncrementalSolver reference(test::small_dag(), params);
  ASSERT_TRUE(probe.solve().ok());
  ASSERT_TRUE(reference.solve().ok());
  const std::uint64_t fingerprint = probe.fingerprint();
  const graph::Digraph before = probe.graph();

  graph::GraphDelta missing;  // structurally invalid: edge does not exist
  missing.remove_edges.push_back(graph::Edge{0, 5});
  EXPECT_FALSE(probe.stage(missing));
  EXPECT_EQ(probe.outcome().error, AdmissionError::kBadRequest);
  graph::GraphDelta cycle;  // 0 -> 2 closes 2 -> 0
  cycle.add_edges.push_back(graph::Edge{0, 2});
  EXPECT_FALSE(probe.stage(cycle));
  EXPECT_EQ(probe.outcome().error, AdmissionError::kCycle);
  EXPECT_FALSE(probe.staged());
  EXPECT_EQ(probe.fingerprint(), fingerprint);
  EXPECT_EQ(probe.graph(), before);
  EXPECT_EQ(probe.num_updates(), 0);

  graph::GraphDelta valid;
  valid.add_edges.push_back(graph::Edge{5, 2});
  valid.set_widths.push_back(graph::WidthChange{2, 3.0});
  ASSERT_TRUE(probe.stage(valid));
  // stage() alone already re-keys: the serving layer routes the next
  // delta by this fingerprint before finish() has run.
  EXPECT_EQ(probe.fingerprint(), graph::CsrView(probe.graph()).fingerprint());
  const UpdateRecord got = record(probe, probe.finish());
  const UpdateRecord want = record(reference, reference.update(valid));
  EXPECT_EQ(got, want);
}

TEST(IncrementalSolver, SteadyStateUpdateIsAllocationFree) {
  // Serial path, capacities warmed by one full remove/re-add cycle; the
  // second cycle — refreeze, pheromone remap, base repair, tours, the
  // monotone guard's normalize — must not touch the heap.
  IncrementalSolver solver(test::small_dag(), quick_params());
  ASSERT_TRUE(solver.solve().ok());

  graph::GraphDelta remove;
  remove.remove_edges.push_back(graph::Edge{6, 1});
  graph::GraphDelta add;
  add.add_edges.push_back(graph::Edge{6, 1});

  ASSERT_TRUE(solver.update(remove).ok());  // warm-up cycle
  ASSERT_TRUE(solver.update(add).ok());

  ACOLAY_ASSERT_NO_ALLOC({
    EXPECT_TRUE(solver.update(remove).ok());
    EXPECT_TRUE(solver.update(add).ok());
  });
  // The split the serving layer drives (stage on its thread, finish on a
  // pool worker) is the same steady state.
  ACOLAY_ASSERT_NO_ALLOC({
    EXPECT_TRUE(solver.stage(remove));
    EXPECT_TRUE(solver.finish().ok());
    EXPECT_TRUE(solver.stage(add));
    EXPECT_TRUE(solver.finish().ok());
  });
}

}  // namespace
}  // namespace acolay::core
