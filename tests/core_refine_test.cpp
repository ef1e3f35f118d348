// Tests for the hill-climbing refiner and the hybrid ACO pipeline.
#include "core/refine.hpp"

#include <gtest/gtest.h>

#include "baselines/brute_force.hpp"
#include "baselines/longest_path.hpp"
#include "layering/metrics.hpp"
#include "test_util.hpp"

namespace acolay::core {
namespace {

AcoParams fast_params(std::uint64_t seed = 1) {
  AcoParams params;
  params.num_ants = 5;
  params.num_tours = 4;
  params.seed = seed;
  return params;
}

TEST(GreedyRefine, NeverDecreasesObjective) {
  for (const auto& g : test::random_battery(12)) {
    auto l = baselines::longest_path_layering(g);
    const double before = layering::layering_objective(g, l);
    const auto stats = greedy_refine(g, l);
    EXPECT_TRUE(layering::is_valid_layering(g, l))
        << layering::validate_layering(g, l);
    EXPECT_GE(stats.objective_after, before - 1e-12);
    EXPECT_GE(stats.objective_after, stats.objective_before - 1e-12);
    EXPECT_DOUBLE_EQ(stats.objective_after,
                     layering::layering_objective(g, l));
  }
}

TEST(GreedyRefine, ReachesLocalOptimum) {
  // A second invocation must find nothing to do.
  for (const auto& g : test::random_battery(6)) {
    auto l = baselines::longest_path_layering(g);
    greedy_refine(g, l);
    const auto again = greedy_refine(g, l);
    EXPECT_EQ(again.moves, 0);
  }
}

TEST(GreedyRefine, FindsOptimumOnDiamondFamily) {
  // From a deliberately bad (stacked) layering, the climber must reach the
  // brute-force optimum on tiny graphs.
  const auto check = [](const graph::Digraph& g) {
    auto l = baselines::longest_path_layering(g);
    // Degrade: push the top vertex far up (long spans everywhere).
    greedy_refine(g, l);
    const auto optimal = baselines::brute_force_max_objective(
        g, static_cast<int>(g.num_vertices()));
    EXPECT_DOUBLE_EQ(layering::layering_objective(g, l),
                     layering::layering_objective(g, optimal));
  };
  check(test::diamond());
  check(test::triangle_with_long_edge());
}

TEST(GreedyRefine, RespectsPassBudget) {
  const auto g = test::random_battery(1, 31).front();
  auto l = baselines::longest_path_layering(g);
  RefineOptions opts;
  opts.max_passes = 1;
  const auto stats = greedy_refine(g, l, opts);
  EXPECT_EQ(stats.passes, 1);
  EXPECT_TRUE(layering::is_valid_layering(g, l));
}

TEST(GreedyRefine, RejectsInvalidInput) {
  const auto g = test::diamond();
  auto bad = layering::Layering::from_vector({1, 1, 1, 1});
  EXPECT_THROW(greedy_refine(g, bad), support::CheckError);
}

TEST(GreedyRefine, EmptyGraph) {
  graph::Digraph g;
  layering::Layering l(0);
  const auto stats = greedy_refine(g, l);
  EXPECT_EQ(stats.moves, 0);
}

TEST(HybridAco, AtLeastAsGoodAsPlainColony) {
  for (const auto& g : test::random_battery(10)) {
    const auto plain = test::solve_result(g, fast_params(9));
    const auto hybrid = hybrid_layering(g, fast_params(9));
    EXPECT_TRUE(layering::is_valid_layering(g, hybrid.layering));
    EXPECT_GE(hybrid.metrics.objective, plain.metrics.objective - 1e-12);
  }
}

TEST(HybridAco, MetricsMatchLayering) {
  const auto g = test::random_battery(1, 17).front();
  const auto hybrid = hybrid_layering(g, fast_params(3));
  const auto recomputed = layering::compute_metrics(g, hybrid.layering);
  EXPECT_DOUBLE_EQ(hybrid.metrics.objective, recomputed.objective);
  EXPECT_EQ(hybrid.metrics.dummy_count, recomputed.dummy_count);
}

TEST(HybridAco, DeterministicForFixedSeed) {
  const auto g = test::random_battery(1, 23).front();
  const auto a = hybrid_layering(g, fast_params(5));
  const auto b = hybrid_layering(g, fast_params(5));
  EXPECT_EQ(a.layering, b.layering);
}

TEST(StagnationPolicy, StopEndsEarlyWithIdenticalResult) {
  for (const auto& g : test::random_battery(6)) {
    auto baseline = fast_params(7);
    baseline.num_tours = 10;
    auto stopping = baseline;
    stopping.stagnation = StagnationPolicy::kStop;
    const auto full = test::solve_result(g, baseline);
    const auto stopped = test::solve_result(g, stopping);
    // The frozen tail cannot change the best layering.
    EXPECT_EQ(stopped.layering, full.layering);
    EXPECT_LE(stopped.trace.size(), full.trace.size());
  }
}

TEST(StagnationPolicy, ResetKeepsSearchingValidly) {
  auto params = fast_params(11);
  params.num_tours = 12;
  params.stagnation = StagnationPolicy::kResetPheromone;
  for (const auto& g : test::random_battery(5)) {
    const auto result = test::solve_result(g, params);
    EXPECT_TRUE(layering::is_valid_layering(g, result.layering));
    EXPECT_EQ(result.trace.size(), 12u);  // reset never stops the run
  }
}

}  // namespace
}  // namespace acolay::core
