#include "core/request.hpp"

#include <optional>
#include <utility>

#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "graph/cycle_removal.hpp"
#include "support/thread_pool.hpp"

namespace acolay::core {

const char* cycle_policy_name(CyclePolicy policy) {
  switch (policy) {
    case CyclePolicy::kReject:
      return "reject";
    case CyclePolicy::kGreedyReverse:
      return "greedy_reverse";
    case CyclePolicy::kAcoFas:
      return "aco_fas";
  }
  return "reject";
}

const char* admission_error_code(AdmissionError error) {
  switch (error) {
    case AdmissionError::kNone:
      return "ok";
    case AdmissionError::kCycle:
      return "cycle";
    case AdmissionError::kBadParam:
      return "bad_param";
    case AdmissionError::kBadRequest:
      return "bad_request";
    case AdmissionError::kOverloaded:
      return "overloaded";
    case AdmissionError::kDeadlineExpired:
      return "deadline_expired";
    case AdmissionError::kInternal:
      return "internal";
    case AdmissionError::kUnknownFingerprint:
      return "unknown_fingerprint";
  }
  return "internal";
}

std::string aco_params_error(const AcoParams& params) {
  // Each bound's message is its own source text, so the wire reports
  // exactly the expression that failed.
#define ACOLAY_PARAM_BOUND(expr) \
  if (!(expr)) return "ACOLAY_CHECK failed: (" #expr ")"
  ACOLAY_PARAM_BOUND(params.num_ants >= 1);
  ACOLAY_PARAM_BOUND(params.num_tours >= 0);
  ACOLAY_PARAM_BOUND(params.alpha >= 0.0);
  ACOLAY_PARAM_BOUND(params.beta >= 0.0);
  ACOLAY_PARAM_BOUND(params.rho >= 0.0 && params.rho <= 1.0);
  ACOLAY_PARAM_BOUND(params.dummy_width >= 0.0);
  ACOLAY_PARAM_BOUND(params.eta_epsilon > 0.0);
  // Ranges the run would only trip over mid-search (PheromoneMatrix /
  // deposit / clamp contract checks) fail here instead, so every entry
  // point rejects them at admission.
  ACOLAY_PARAM_BOUND(params.tau0 > 0.0);
  ACOLAY_PARAM_BOUND(params.deposit >= 0.0);
  ACOLAY_PARAM_BOUND(params.tau_min <= params.tau_max);
#undef ACOLAY_PARAM_BOUND
  return {};
}

AdmissionError validate_request(const SolveRequest& request,
                                std::string* message) {
  if (message != nullptr) message->clear();
  if (request.graph == nullptr) {
    if (message != nullptr) *message = "request carries no graph";
    return AdmissionError::kBadRequest;
  }
  if (request.cycle_policy == CyclePolicy::kReject &&
      !graph::is_dag(*request.graph)) {
    if (message != nullptr) *message = "graph is not a DAG";
    return AdmissionError::kCycle;
  }
  std::string error = aco_params_error(request.params);
  if (!error.empty()) {
    if (message != nullptr) *message = std::move(error);
    return AdmissionError::kBadParam;
  }
  return AdmissionError::kNone;
}

void resolve_cycles(const graph::Digraph& g, CyclePolicy policy,
                    std::uint64_t seed, CycleResolution& out) {
  out.owned = graph::Digraph();
  out.reversed_edges.clear();
  if (policy == CyclePolicy::kReject || graph::is_dag(g)) {
    out.graph = &g;
    return;
  }
  graph::AcyclicResult acyclic;
  if (policy == CyclePolicy::kGreedyReverse) {
    acyclic = graph::make_acyclic(g);
  } else {
    graph::FasOptions options;
    options.seed = seed;
    acyclic = graph::make_acyclic_aco(g, options);
  }
  out.owned = std::move(acyclic.dag);
  out.reversed_edges = std::move(acyclic.reversed_edges);
  out.graph = &out.owned;
}

SolveOutcome solve(const SolveRequest& request) {
  SolveOutcome outcome;
  outcome.error = validate_request(request, &outcome.message);
  if (!outcome.ok()) return outcome;
  CycleResolution phase0;
  resolve_cycles(*request.graph, request.cycle_policy, request.params.seed,
                 phase0);
  outcome.reversed_edges = std::move(phase0.reversed_edges);
  const graph::Digraph& g = *phase0.graph;
  // One frozen CSR snapshot serves every walk and metrics evaluation of
  // the run: the ants only read the topology.
  const graph::CsrView csr(g);
  // Serial ants need no pool: a one-worker pool would create and join an
  // OS thread that parallel_for's single-thread shortcut never uses.
  std::optional<support::ThreadPool> pool;
  const int threads = request.params.num_threads;
  if (threads != 1 && g.num_vertices() > 0) {
    pool.emplace(threads <= 0 ? 0 : static_cast<std::size_t>(threads));
  }
  ColonyWorkspace ws;
  outcome.result = run_colony(g, csr, request.params, ws,
                              pool ? &*pool : nullptr, request.warm_tau);
  return outcome;
}

}  // namespace acolay::core
