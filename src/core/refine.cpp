#include "core/refine.hpp"

#include "baselines/promote.hpp"
#include "core/request.hpp"
#include "layering/spans.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace acolay::core {

namespace {

/// Objective of `l` as-is (caller keeps it normalized).
double objective_of(const graph::Digraph& g, const layering::Layering& l,
                    double dummy_width) {
  return layering::layering_objective(g, l,
                                      layering::MetricsOptions{dummy_width});
}

}  // namespace

RefineStats greedy_refine(const graph::Digraph& g, layering::Layering& l,
                          const RefineOptions& opts) {
  ACOLAY_CHECK_MSG(layering::is_valid_layering(g, l),
                   "greedy_refine requires a valid layering: "
                       << layering::validate_layering(g, l));
  RefineStats stats;
  layering::normalize(l);
  const auto n = g.num_vertices();
  if (n == 0) return stats;

  double current = objective_of(g, l, opts.dummy_width);
  stats.objective_before = current;

  for (int pass = 0; pass < opts.max_passes; ++pass) {
    ++stats.passes;
    bool improved = false;
    for (graph::VertexId v = 0; static_cast<std::size_t>(v) < n; ++v) {
      // Span one layer beyond the current top so a vertex can open a new
      // layer when that pays (it rarely does, but the move must be
      // representable).
      const int num_layers = l.max_layer() + 1;
      const auto span = layering::compute_span(g, l, v, num_layers);
      const int home = l.layer(v);
      int best_layer = home;
      double best_objective = current;
      for (int layer = span.lo; layer <= span.hi; ++layer) {
        if (layer == home) continue;
        l.set_layer(v, layer);
        const auto candidate = layering::normalized(l);
        const double objective =
            objective_of(g, candidate, opts.dummy_width);
        if (objective > best_objective + 1e-12) {
          best_objective = objective;
          best_layer = layer;
        }
      }
      l.set_layer(v, best_layer);
      if (best_layer != home) {
        layering::normalize(l);
        current = objective_of(g, l, opts.dummy_width);
        ++stats.moves;
        improved = true;
      }
    }
    if (!improved) break;
  }
  layering::normalize(l);
  stats.objective_after = objective_of(g, l, opts.dummy_width);
  return stats;
}

AcoResult hybrid_layering(const graph::Digraph& g, const AcoParams& params,
                          const RefineOptions& refine_in) {
  support::Stopwatch stopwatch;
  SolveOutcome outcome = solve({.graph = &g, .params = params});
  ACOLAY_CHECK_MSG(outcome.ok(), outcome.message);
  AcoResult result = std::move(outcome.result);
  if (g.num_vertices() == 0) return result;

  RefineOptions refine = refine_in;
  refine.dummy_width = params.dummy_width;
  const layering::MetricsOptions opts{params.dummy_width};

  // Stage 2: hill climbing from the colony's layering.
  layering::Layering climbed = result.layering;
  greedy_refine(g, climbed, refine);

  // Stage 3: node promotion on top (attacks the dummy count).
  layering::Layering promoted = climbed;
  baselines::promote_layering(g, promoted);

  const double base = result.metrics.objective;
  const double climbed_f = layering::layering_objective(g, climbed, opts);
  const double promoted_f = layering::layering_objective(g, promoted, opts);
  if (promoted_f >= climbed_f && promoted_f > base) {
    result.layering = std::move(promoted);
  } else if (climbed_f > base) {
    result.layering = std::move(climbed);
  }
  result.metrics = layering::compute_metrics(g, result.layering, opts);
  result.seconds = stopwatch.elapsed_seconds();
  return result;
}

}  // namespace acolay::core
