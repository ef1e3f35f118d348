// Tests for the colony search (paper §V–§VI), run through core::solve:
// end-to-end search behaviour, determinism across thread counts, trace
// integrity, improvement over the stretched-LPL start, and small-instance
// optimality.
#include "core/colony.hpp"

#include <gtest/gtest.h>

#include "baselines/brute_force.hpp"
#include "baselines/longest_path.hpp"
#include "core/aco.hpp"
#include "core/request.hpp"
#include "layering/metrics.hpp"
#include "test_util.hpp"

namespace acolay::core {
namespace {

AcoParams fast_params(std::uint64_t seed = 1) {
  AcoParams params;
  params.num_ants = 6;
  params.num_tours = 6;
  params.seed = seed;
  return params;
}

TEST(Colony, ProducesValidNormalizedLayerings) {
  for (const auto& g : test::random_battery(12)) {
    const auto result = test::solve_result(g, fast_params());
    EXPECT_TRUE(layering::is_valid_layering(g, result.layering))
        << layering::validate_layering(g, result.layering);
    EXPECT_EQ(result.layering.max_layer(),
              result.layering.occupied_layer_count());
  }
}

TEST(Colony, MetricsMatchReturnedLayering) {
  const auto g = test::random_battery(1, 5).front();
  const auto result = test::solve_result(g, fast_params());
  const auto recomputed = layering::compute_metrics(
      g, result.layering, layering::MetricsOptions{1.0});
  EXPECT_EQ(result.metrics.height, recomputed.height);
  EXPECT_DOUBLE_EQ(result.metrics.width_incl_dummies,
                   recomputed.width_incl_dummies);
  EXPECT_EQ(result.metrics.dummy_count, recomputed.dummy_count);
  EXPECT_DOUBLE_EQ(result.metrics.objective, recomputed.objective);
}

TEST(Colony, ReturnsBestTourObjective) {
  // The result is the best walk across all tours (the paper reports the
  // ants' layering, not max(start, walks) — the ACO trades height for
  // width, so the start can have a higher objective).
  for (const auto& g : test::random_battery(12)) {
    const auto result = test::solve_result(g, fast_params(17));
    double best_traced = 0.0;
    for (const auto& tour : result.trace) {
      best_traced = std::max(best_traced, tour.best_objective);
    }
    EXPECT_DOUBLE_EQ(result.metrics.objective, best_traced);
  }
}

TEST(Colony, DeterministicForFixedSeed) {
  const auto g = test::random_battery(1, 77).front();
  const auto a = test::solve_result(g, fast_params(123));
  const auto b = test::solve_result(g, fast_params(123));
  EXPECT_EQ(a.layering, b.layering);
  EXPECT_DOUBLE_EQ(a.metrics.objective, b.metrics.objective);
}

TEST(Colony, SeedChangesSearchTrajectory) {
  // Different seeds explore differently; on a 30-vertex graph the traces
  // should diverge (final layerings may coincide on easy instances).
  const auto g = test::random_battery(1, 99).front();
  const auto a = test::solve_result(g, fast_params(1));
  const auto b = test::solve_result(g, fast_params(2));
  ASSERT_FALSE(a.trace.empty());
  ASSERT_FALSE(b.trace.empty());
  bool any_difference = false;
  for (std::size_t t = 0; t < a.trace.size(); ++t) {
    if (a.trace[t].best_objective != b.trace[t].best_objective ||
        a.trace[t].total_moves != b.trace[t].total_moves) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Colony, ThreadCountDoesNotChangeResult) {
  // The reduction is deterministic: 1 worker vs 4 workers must be
  // bit-identical.
  for (const auto& g : test::random_battery(6)) {
    auto serial_params = fast_params(55);
    serial_params.num_threads = 1;
    auto parallel_params = fast_params(55);
    parallel_params.num_threads = 4;
    const auto serial = test::solve_result(g, serial_params);
    const auto parallel = test::solve_result(g, parallel_params);
    EXPECT_EQ(serial.layering, parallel.layering);
    EXPECT_DOUBLE_EQ(serial.metrics.objective, parallel.metrics.objective);
  }
}

TEST(Colony, TraceHasOneEntryPerTour) {
  const auto g = test::small_dag();
  auto params = fast_params();
  params.num_tours = 7;
  const auto result = test::solve_result(g, params);
  ASSERT_EQ(result.trace.size(), 7u);
  for (std::size_t t = 0; t < result.trace.size(); ++t) {
    const auto& stats = result.trace[t];
    EXPECT_EQ(stats.tour, static_cast<int>(t) + 1);
    EXPECT_GT(stats.best_objective, 0.0);
    EXPECT_LE(stats.mean_objective, stats.best_objective + 1e-12);
    EXPECT_GT(stats.best_height, 0);
    EXPECT_GT(stats.best_width, 0.0);
  }
}

TEST(Colony, TraceDisabledWhenRequested) {
  auto params = fast_params();
  params.record_trace = false;
  const auto result = test::solve_result(test::small_dag(), params);
  EXPECT_TRUE(result.trace.empty());
}

TEST(Colony, ZeroToursReturnsStretchedLplBaseline) {
  auto params = fast_params();
  params.num_tours = 0;
  const auto g = test::small_dag();
  const auto result = test::solve_result(g, params);
  EXPECT_EQ(result.layering, baselines::longest_path_layering(g));
  EXPECT_DOUBLE_EQ(result.metrics.objective, result.initial_objective);
}

TEST(Colony, FindsOptimumOnTinyInstances) {
  // On <= 7-vertex graphs the colony should reach the brute-force optimum
  // objective most of the time; require it on the clean hand-built shapes.
  const auto check = [](const graph::Digraph& g) {
    auto params = fast_params(3);
    params.num_ants = 10;
    params.num_tours = 10;
    const auto result = test::solve_result(g, params);
    const auto optimal = baselines::brute_force_max_objective(
        g, static_cast<int>(g.num_vertices()));
    EXPECT_DOUBLE_EQ(result.metrics.objective,
                     layering::layering_objective(g, optimal));
  };
  check(test::diamond());
  check(test::triangle_with_long_edge());
  check(gen::path_dag(5));
}

TEST(Colony, RejectsCyclicInput) {
  graph::Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_EQ(solve({.graph = &g, .params = fast_params()}).error,
            AdmissionError::kCycle);
}

TEST(Colony, EmptyGraph) {
  graph::Digraph g;
  const auto result = test::solve_result(g, fast_params());
  EXPECT_EQ(result.layering.num_vertices(), 0u);
}

TEST(Colony, SingleVertex) {
  graph::Digraph g(1);
  const auto result = test::solve_result(g, fast_params());
  EXPECT_EQ(result.layering.layer(0), 1);
  EXPECT_EQ(result.metrics.height, 1);
}

/// Stretch-mode sweep: the colony must be valid and no worse than its start
/// under every stretch strategy (the ablation bench quantifies the quality
/// differences).
class ColonyStretchModes : public ::testing::TestWithParam<StretchMode> {};

TEST_P(ColonyStretchModes, ValidResults) {
  auto params = fast_params(13);
  params.stretch = GetParam();
  for (const auto& g : test::random_battery(8)) {
    const auto result = test::solve_result(g, params);
    EXPECT_TRUE(layering::is_valid_layering(g, result.layering));
    EXPECT_GT(result.metrics.objective, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ColonyStretchModes,
                         ::testing::Values(StretchMode::kBetweenLayers,
                                           StretchMode::kTopBottom,
                                           StretchMode::kNone));

}  // namespace
}  // namespace acolay::core
