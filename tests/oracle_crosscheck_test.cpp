// Oracle cross-checks on small instances: every corpus-style graph of at
// most 9 vertices is solved by the exhaustive baselines::brute_force
// oracles, and the heuristic/metaheuristic layerers are checked against
// them — the ACO (single colony and batched) must produce valid layerings
// whose metrics are self-consistent and whose objective never exceeds the
// enumerated optimum, and the classic baselines must honour the guarantees
// their algorithms are defined by (Coffman–Graham's per-layer width bound,
// longest-path's minimum height).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "baselines/brute_force.hpp"
#include "baselines/coffman_graham.hpp"
#include "baselines/longest_path.hpp"
#include "baselines/min_width.hpp"
#include "core/batch.hpp"
#include "core/colony.hpp"
#include "gen/corpus.hpp"
#include "graph/algorithms.hpp"
#include "graph/properties.hpp"
#include "layering/metrics.hpp"
#include "test_util.hpp"

namespace acolay {
namespace {

/// The small-instance corpus: the same generator family as the bench
/// corpus (gen::make_corpus), scaled down to 4..9 vertices so the
/// exponential oracle stays affordable — two graphs per size, all <= 9
/// vertices as brute force requires.
const gen::Corpus& oracle_corpus() {
  static const gen::Corpus corpus = [] {
    gen::CorpusParams params;
    params.seed = 424242;
    params.total_graphs = 12;
    params.min_vertices = 4;
    params.max_vertices = 9;
    params.step = 1;
    return gen::make_corpus(params);
  }();
  return corpus;
}

core::AcoParams oracle_aco_params(std::size_t graph_index) {
  core::AcoParams params;
  params.num_ants = 6;
  params.num_tours = 8;
  params.seed = 20070325 + graph_index;
  return params;
}

/// Memoized oracle values. The cache only pays off within one process
/// (running the binary directly, or several assertions on one graph);
/// under CTest each discovered case is its own process and re-enumerates
/// — affordable because the corpus is capped at 9 vertices, and that cap
/// is load-bearing: raising it revives the exponential cost per case.
double oracle_max_objective(std::size_t graph_index) {
  static std::map<std::size_t, double> cache;
  const auto it = cache.find(graph_index);
  if (it != cache.end()) return it->second;
  const auto& g = oracle_corpus().graphs[graph_index];
  const int max_layers = static_cast<int>(g.num_vertices());
  const auto best = baselines::brute_force_max_objective(g, max_layers);
  const double objective = layering::layering_objective(g, best);
  cache.emplace(graph_index, objective);
  return objective;
}

double oracle_min_width(std::size_t graph_index) {
  static std::map<std::size_t, double> cache;
  const auto it = cache.find(graph_index);
  if (it != cache.end()) return it->second;
  const auto& g = oracle_corpus().graphs[graph_index];
  const int max_layers = static_cast<int>(g.num_vertices());
  const double width = baselines::brute_force_min_width(g, max_layers);
  cache.emplace(graph_index, width);
  return width;
}

class OracleCrosscheckTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  const graph::Digraph& graph() const {
    return oracle_corpus().graphs[GetParam()];
  }
};

INSTANTIATE_TEST_SUITE_P(CorpusGraphs, OracleCrosscheckTest,
                         ::testing::Range<std::size_t>(0, 12));

TEST_P(OracleCrosscheckTest, AntColonyLayeringIsValidAndMetricsConsistent) {
  const auto& g = graph();
  const auto result = test::solve_result(g, oracle_aco_params(GetParam()));
  EXPECT_EQ(layering::validate_layering(g, result.layering), "");

  // The reported metrics must equal a from-scratch recomputation on the
  // returned (normalized) layering: span- and width-derived fields alike.
  const auto scratch = layering::compute_metrics(g, result.layering);
  EXPECT_EQ(result.metrics.height, scratch.height);
  EXPECT_EQ(result.metrics.width_incl_dummies, scratch.width_incl_dummies);
  EXPECT_EQ(result.metrics.width_excl_dummies, scratch.width_excl_dummies);
  EXPECT_EQ(result.metrics.dummy_count, scratch.dummy_count);
  EXPECT_EQ(result.metrics.total_span, scratch.total_span);
  EXPECT_EQ(result.metrics.edge_density, scratch.edge_density);
  EXPECT_EQ(result.metrics.objective, scratch.objective);
}

TEST_P(OracleCrosscheckTest, AntColonyNeverBeatsBruteForceObjective) {
  const auto& g = graph();
  const auto result = test::solve_result(g, oracle_aco_params(GetParam()));
  const double optimum = oracle_max_objective(GetParam());
  // The oracle enumerates every normalized layering, so no search result
  // can exceed it (ties are legitimate: the colony often finds an
  // optimum at these sizes).
  EXPECT_LE(result.metrics.objective, optimum + 1e-12)
      << "ACO objective beats the enumerated optimum on graph " << GetParam();
  // And the LPL starting point is a valid layering, so it cannot beat the
  // optimum either.
  EXPECT_LE(result.initial_objective, optimum + 1e-12);
}

TEST_P(OracleCrosscheckTest, AntColonyWidthRespectsBruteForceMinimum) {
  const auto& g = graph();
  const auto result = test::solve_result(g, oracle_aco_params(GetParam()));
  // brute_force_min_width minimises over every layering, so it lower-bounds
  // the width of any valid layering the search can return.
  EXPECT_GE(result.metrics.width_incl_dummies,
            oracle_min_width(GetParam()) - 1e-12);
}

TEST_P(OracleCrosscheckTest, BatchSolverMatchesSequentialAndRespectsOracle) {
  const auto& g = graph();
  const auto params = oracle_aco_params(GetParam());
  core::BatchSolver solver;
  const auto& batch =
      test::wait_result(solver, test::submit_request(solver, g, params));
  const auto sequential = test::solve_result(g, params);

  EXPECT_EQ(batch.layering, sequential.layering);
  EXPECT_EQ(batch.metrics.objective, sequential.metrics.objective);
  EXPECT_EQ(layering::validate_layering(g, batch.layering), "");
  EXPECT_LE(batch.metrics.objective, oracle_max_objective(GetParam()) + 1e-12);
}

TEST_P(OracleCrosscheckTest, CoffmanGrahamRespectsItsWidthBound) {
  const auto& g = graph();
  for (int bound = 1; bound <= 3; ++bound) {
    baselines::CoffmanGrahamParams params;
    params.width_bound = bound;
    const auto l = baselines::coffman_graham_layering(g, params);
    EXPECT_EQ(layering::validate_layering(g, l), "") << "W=" << bound;
    // The defining guarantee: at most W *real* vertices per layer.
    std::vector<int> occupancy(static_cast<std::size_t>(l.max_layer()), 0);
    for (std::size_t v = 0; v < g.num_vertices(); ++v) {
      const int layer = l.layer(static_cast<graph::VertexId>(v));
      EXPECT_LE(++occupancy[static_cast<std::size_t>(layer - 1)], bound)
          << "layer " << layer << " exceeds W=" << bound;
    }
  }
}

TEST_P(OracleCrosscheckTest, LongestPathAchievesMinimumHeight) {
  const auto& g = graph();
  const auto lpl = baselines::longest_path_layering(g);
  EXPECT_EQ(layering::validate_layering(g, lpl), "");
  // Any valid layering needs at least depth+1 layers (the vertices of a
  // longest path all sit on distinct layers); LPL attains that bound.
  const int min_height = graph::dag_depth(g) + 1;
  EXPECT_EQ(layering::layering_height(lpl), min_height);
  // Other baselines can only match or exceed it.
  EXPECT_GE(layering::layering_height(baselines::min_width_layering(g)),
            min_height);
  EXPECT_GE(layering::layering_height(baselines::coffman_graham_layering(g)),
            min_height);
}

}  // namespace
}  // namespace acolay
