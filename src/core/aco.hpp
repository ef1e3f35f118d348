// Umbrella header for the ACO layering core — include this to use the
// paper's algorithm end to end:
//
//   acolay::core::SolveRequest request;
//   request.graph = &dag;
//   request.params.seed = 42;
//   acolay::core::SolveOutcome outcome = acolay::core::solve(request);
//   // outcome.ok(); outcome.result.layering / .metrics / .trace
//
// core::BatchSolver (core/batch.hpp) solves many requests concurrently
// and core::IncrementalSolver (core/incremental.hpp) re-solves one graph
// after edits; core/request.hpp describes all three entry points.
#pragma once

#include "core/ant.hpp"       // IWYU pragma: export
#include "core/colony.hpp"    // IWYU pragma: export
#include "core/params.hpp"    // IWYU pragma: export
#include "core/pheromone.hpp" // IWYU pragma: export
#include "core/request.hpp"   // IWYU pragma: export
#include "core/stretch.hpp"   // IWYU pragma: export
