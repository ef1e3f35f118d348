// Post-search refinement — the paper's "directions for further research"
// (§IX) point at combining the colony with stronger exploitation. Two
// refiners are provided:
//
//   greedy_refine: steepest-ascent hill climbing on the paper's objective
//     f = 1/(H+W): repeatedly move single vertices within their layer
//     spans, applying the best strictly-improving move until a local
//     optimum. Escapes the colony's frozen equilibrium (the argmax walk
//     stops moving after ~3 tours; see EXPERIMENTS.md).
//
//   promote_refine: Nikolov–Tarassov node promotion (baselines/promote)
//     applied to the ant layering — targets the dummy count the walk rule
//     ignores.
//
// hybrid_layering chains colony -> greedy_refine -> promote_refine and
// returns the best-of f. The ablation_hybrid bench quantifies each stage.
#pragma once

#include "core/colony.hpp"
#include "graph/digraph.hpp"
#include "layering/layering.hpp"
#include "layering/metrics.hpp"

namespace acolay::core {

/// What a refinement pass did to the layering.
struct RefineStats {
  int passes = 0;          ///< full vertex sweeps executed
  int moves = 0;           ///< improving moves applied
  double objective_before = 0.0;  ///< f of the input layering
  double objective_after = 0.0;   ///< f of the refined layering
};

/// Tunables of greedy_refine.
struct RefineOptions {
  /// Upper bound on sweeps (each sweep is O(V * span * (V+E))).
  int max_passes = 20;
  double dummy_width = 1.0;  ///< dummy width for the objective (nd_width)
};

/// Hill-climbs `l` in place (l must be a valid layering of g). The result
/// is normalized. Never decreases the objective.
RefineStats greedy_refine(const graph::Digraph& g, layering::Layering& l,
                          const RefineOptions& opts = {});

/// Colony + refinement pipeline. Returns the layering with the best
/// objective among {colony result, +greedy refine, +promotion}.
AcoResult hybrid_layering(const graph::Digraph& g,
                          const AcoParams& params = {},
                          const RefineOptions& refine = {});

}  // namespace acolay::core
