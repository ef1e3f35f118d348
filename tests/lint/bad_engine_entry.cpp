// lint-fixture: src/harness/bad_engine_entry.cpp
//
// Rule: single-engine-entry. Outside the three solve verbs' own files
// (core::solve, BatchSolver, IncrementalSolver) nothing calls the colony
// engine directly; callers go through a verb.
#include "core/colony.hpp"
#include "core/request.hpp"

namespace acolay::harness {

core::AcoResult bypasses_admission(const graph::Digraph& g,
                                   const graph::CsrView& csr,
                                   core::ColonyWorkspace& ws) {
  core::AcoResult result = core::run_colony(g, csr, {}, ws, nullptr);  // lint-expect: single-engine-entry
  core::run_tours(g, csr, {}, result.layering, 1, ws, nullptr, result);  // lint-expect: single-engine-entry
  // Mentioning run_colony( in a comment is fine: comments are stripped.
  // lint:allow-next-line(single-engine-entry) -- fixture: suppressed form
  result = core::run_colony(g, csr, {}, ws, nullptr);
  return result;
}

core::AcoResult through_a_verb(const graph::Digraph& g) {
  return core::solve({.graph = &g}).result;  // the sanctioned path
}

}  // namespace acolay::harness
