// Bit-identity pin for the walk kernel (core/ant.cpp): the production walk
// memoises eta^beta exactly and fuses the candidate scan into the argmax
// (greedy) or the running total (roulette). This suite keeps the naive
// walk — separate passes for zero-fill, scoring, total and argmax, and a
// fresh std::pow for every eta refresh and every score — as a reference,
// and demands the production walk match it bit for bit: layering, move
// count, objective bits and the RNG stream position after the walk.
//
// The grid crosses selection {greedy, roulette} x tie_break {random,
// first} x alpha {0, 1, 2} x beta {0, 1, 2.5, 3} x max_width {0, tight} x
// dummy_width {1.0, 0.3} x {unit, fractional} vertex widths over random
// DAGs up to n = 400. Fractional widths give non-integral layer widths,
// and the large graphs see more distinct widths than the memo has slots,
// so evictions and collisions are exercised, not just hits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/longest_path.hpp"
#include "core/ant.hpp"
#include "core/stretch.hpp"
#include "gen/random_dag.hpp"
#include "graph/csr.hpp"
#include "layering/layer_widths.hpp"
#include "layering/metrics.hpp"
#include "layering/spans.hpp"
#include "test_util.hpp"

namespace acolay::core {
namespace {

/// The naive walk's layer choice: argmax (or roulette over) a materialised
/// score vector, with the roulette total summed in its own pass.
int reference_choose(std::span<const double> scores, int lo,
                     const AcoParams& params, support::Rng& rng) {
  if (params.selection == SelectionRule::kRoulette) {
    double total = 0.0;
    for (const double s : scores) total += s;
    if (total > 0.0) {
      return lo + static_cast<int>(rng.weighted_index(scores, total));
    }
  }
  double best = -1.0;
  std::vector<int> ties;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] > best) {
      best = scores[i];
      ties.assign(1, static_cast<int>(i));
    } else if (scores[i] == best) {
      ties.push_back(static_cast<int>(i));
    }
  }
  if (ties.size() == 1 || params.tie_break == TieBreak::kFirst) {
    return lo + ties.front();
  }
  return lo + ties[rng.index(ties.size())];
}

/// The walk before the kernel work: four passes per vertex and std::pow
/// on every eta refresh and every score. Advances `rng` in place.
WalkResult reference_walk(const graph::CsrView& g,
                          const layering::Layering& base, int num_layers,
                          const PheromoneMatrix& tau, const AcoParams& params,
                          support::Rng& rng) {
  WalkResult result;
  result.layering = base;
  const auto n = g.num_vertices();
  if (n == 0) return result;
  layering::LayerWidths widths;
  widths.reset(g, result.layering, num_layers, params.dummy_width);
  layering::SpanTable spans;
  spans.reset(g, result.layering, num_layers);

  std::vector<std::int32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::int32_t>(i);
  rng.shuffle(order);

  const auto eta_of = [&](int layer) {
    return std::pow(
        1.0 / (params.eta_epsilon + widths.width_unchecked(layer)),
        params.beta);
  };
  std::vector<double> eta_term(static_cast<std::size_t>(num_layers));
  for (int layer = 1; layer <= num_layers; ++layer) {
    eta_term[static_cast<std::size_t>(layer - 1)] = eta_of(layer);
  }

  std::vector<double> scores;
  for (const auto index : order) {
    const auto v = static_cast<graph::VertexId>(index);
    const auto span = spans.span(v);
    const int current = result.layering.layer(v);
    scores.assign(static_cast<std::size_t>(span.size()), 0.0);
    bool any_candidate = false;
    for (int layer = span.lo; layer <= span.hi; ++layer) {
      if (params.max_width > 0.0 && layer != current &&
          widths.width_unchecked(layer) + g.width(v) > params.max_width) {
        continue;
      }
      const double score = std::pow(tau.at(v, layer), params.alpha) *
                           eta_term[static_cast<std::size_t>(layer - 1)];
      scores[static_cast<std::size_t>(layer - span.lo)] = score;
      any_candidate = any_candidate || score > 0.0;
    }
    if (!any_candidate) continue;
    const int chosen = reference_choose(scores, span.lo, params, rng);
    if (chosen == current) continue;
    widths.apply_move(g, v, current, chosen);
    result.layering.set_layer(v, chosen);
    spans.refresh_around(g, result.layering, v);
    ++result.moves;
    for (int layer = std::min(current, chosen);
         layer <= std::max(current, chosen); ++layer) {
      eta_term[static_cast<std::size_t>(layer - 1)] = eta_of(layer);
    }
  }
  layering::MetricsWorkspace metrics_ws;
  result.metrics = layering::compute_metrics(
      g, result.layering, layering::MetricsOptions{params.dummy_width},
      metrics_ws, /*compact=*/true);
  result.objective = result.metrics.objective;
  return result;
}

/// One graph under test: the DAG, its stretched base layering and a
/// non-uniform pheromone matrix (a few zero and NaN entries included, so
/// the no-admissible-candidate and roulette-fallback paths run too).
struct KernelCase {
  graph::Digraph g;
  graph::CsrView csr;
  layering::Layering base;
  int num_layers = 0;
  PheromoneMatrix tau;
  double tight_width = 0.0;  ///< a layer capacity that actually binds
};

KernelCase make_case(std::size_t n, bool fractional, std::uint64_t seed) {
  support::Rng rng(seed);
  gen::GnmParams gp;
  gp.num_vertices = n;
  gp.num_edges = n + n / 3;
  KernelCase c;
  c.g = test::require_dag(gen::random_dag(gp, rng));
  if (fractional) {
    for (graph::VertexId v = 0; static_cast<std::size_t>(v) < n; ++v) {
      c.g.set_width(v, rng.uniform(0.25, 2.5));
    }
  }
  c.csr.rebuild(c.g);
  const auto lpl = baselines::longest_path_layering(c.g);
  auto stretched = stretch_layering(c.g, lpl, StretchMode::kBetweenLayers);
  c.base = stretched.layering;
  c.num_layers = std::max(stretched.num_layers, 1);
  c.tau = PheromoneMatrix(n, c.num_layers, 1.0);
  for (graph::VertexId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    auto row = c.tau.row(v);
    // Mostly a few repeated levels, so greedy ties stay common. A rare
    // NaN makes a roulette total non-positive-comparable, which sends the
    // walk down its greedy fallback.
    for (double& t : row) {
      const auto draw = rng.index(32);
      if (draw == 0) {
        t = std::numeric_limits<double>::quiet_NaN();
      } else {
        t = draw % 8 == 1 ? 0.0 : 0.5 * static_cast<double>(draw % 4 + 1);
      }
    }
  }
  const layering::LayerWidths widths(c.g, c.base, c.num_layers, 1.0);
  c.tight_width = 0.6 * widths.max_width();
  return c;
}

std::vector<KernelCase> make_cases(bool fractional) {
  std::vector<KernelCase> cases;
  std::uint64_t seed = fractional ? 500 : 100;
  for (const std::size_t n : {std::size_t{9}, std::size_t{40},
                              std::size_t{150}, std::size_t{400}}) {
    cases.push_back(make_case(n, fractional, seed++));
  }
  return cases;
}

/// Runs both walks from the same stream and compares every output bit.
void expect_identical(const KernelCase& c, const AcoParams& params,
                      std::uint64_t stream, WalkWorkspace& ws) {
  support::Rng ref_rng(stream);
  const WalkResult ref = reference_walk(c.csr, c.base, c.num_layers, c.tau,
                                        params, ref_rng);
  support::Rng rng(stream);
  WalkResult got;
  perform_walk_advancing(c.csr, c.base, c.num_layers, c.tau, params, rng, ws,
                         got);
  EXPECT_EQ(got.layering, ref.layering);
  EXPECT_EQ(got.moves, ref.moves);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objective),
            std::bit_cast<std::uint64_t>(ref.objective));
  EXPECT_TRUE(rng == ref_rng) << "the walks consumed different draws";
}

using Grid = std::tuple<SelectionRule, TieBreak, double>;

class WalkKernelBitIdentity : public ::testing::TestWithParam<Grid> {};

TEST_P(WalkKernelBitIdentity, MatchesTheNaiveWalk) {
  const auto [selection, tie_break, alpha] = GetParam();
  for (const bool fractional : {false, true}) {
    const auto cases = make_cases(fractional);
    // One workspace across the whole grid: the memo must rebind (never
    // serve stale values) as beta, dummy_width and the graph change.
    WalkWorkspace ws;
    for (const auto& c : cases) {
      for (const double beta : {0.0, 1.0, 2.5, 3.0}) {
        for (const bool capped : {false, true}) {
          for (const double dummy_width : {1.0, 0.3}) {
            AcoParams params;
            params.selection = selection;
            params.tie_break = tie_break;
            params.alpha = alpha;
            params.beta = beta;
            params.dummy_width = dummy_width;
            params.max_width = capped ? c.tight_width : 0.0;
            SCOPED_TRACE(::testing::Message()
                         << "n=" << c.g.num_vertices() << " fractional="
                         << fractional << " beta=" << beta
                         << " capped=" << capped
                         << " dummy_width=" << dummy_width);
            for (const std::uint64_t stream : {3u, 71u}) {
              expect_identical(c, params, stream, ws);
            }
          }
        }
      }
    }
  }
}

std::string grid_name(const ::testing::TestParamInfo<Grid>& grid) {
  const auto [selection, tie_break, alpha] = grid.param;
  std::string name =
      selection == SelectionRule::kGreedyMax ? "greedy" : "roulette";
  name += tie_break == TieBreak::kRandom ? "_random" : "_first";
  name += "_alpha";
  name += std::to_string(static_cast<int>(alpha));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WalkKernelBitIdentity,
    ::testing::Combine(::testing::Values(SelectionRule::kGreedyMax,
                                         SelectionRule::kRoulette),
                       ::testing::Values(TieBreak::kRandom, TieBreak::kFirst),
                       ::testing::Values(0.0, 1.0, 2.0)),
    grid_name);

TEST(WalkKernel, MemoRebindsWhenEpsilonOrBetaChanges) {
  // Same workspace, same widths, a different (eta_epsilon, beta) pair: a
  // memo that kept the first pair's values would score every layer with
  // the wrong heuristic. Switching back must rebind again.
  const KernelCase c = make_case(150, /*fractional=*/true, 9);
  WalkWorkspace ws;
  AcoParams params;
  for (const auto& [epsilon, beta] :
       {std::pair{0.1, 3.0}, std::pair{0.7, 3.0}, std::pair{0.7, 2.5},
        std::pair{0.1, 3.0}}) {
    params.eta_epsilon = epsilon;
    params.beta = beta;
    SCOPED_TRACE(::testing::Message()
                 << "eta_epsilon=" << epsilon << " beta=" << beta);
    expect_identical(c, params, 5, ws);
  }
}

TEST(WalkKernel, ByValueOverloadMatchesTheAdvancingOne) {
  const KernelCase c = make_case(40, /*fractional=*/false, 4);
  const AcoParams params;
  WalkWorkspace ws;
  WalkResult by_value;
  perform_walk(c.csr, c.base, c.num_layers, c.tau, params, support::Rng(12),
               ws, by_value);
  support::Rng rng(12);
  WalkResult advancing;
  perform_walk_advancing(c.csr, c.base, c.num_layers, c.tau, params, rng, ws,
                         advancing);
  EXPECT_EQ(by_value.layering, advancing.layering);
  EXPECT_EQ(by_value.moves, advancing.moves);
  EXPECT_FALSE(rng == support::Rng(12));  // the walk drew from the stream
}

}  // namespace
}  // namespace acolay::core
