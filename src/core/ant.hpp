// The Ant (paper §IV-E, §VI): a stochastic constructive agent that builds
// one layering per tour by visiting every vertex in random order and
// re-assigning it to a layer from its layer span using the random
// proportional rule (Eq. (1)):
//
//   p(v, l) = tau(v,l)^alpha * eta(v,l)^beta
//             / sum over l' in span(v) of tau(v,l')^alpha * eta(v,l')^beta
//
// with dynamic heuristic eta(v, l) = 1 / (eta_epsilon + W(l)) — the
// desirability of a layer falls with its current width, dummy contributions
// included (paper §IV-D: "the heuristic value eta_ij = 1/w_ij where w_ij is
// the width of a layer").
//
// Per paper §VI the ant owns copies of the tour-base layering and layer
// widths; after each move it applies Algorithm 5 to the widths (see
// layering/layer_widths.hpp) and refreshes the layer spans of the moved
// vertex's neighbours (Alg. 4 lines 9–11). eta is evaluated directly from
// the width profile rather than materialised as a matrix — the two are
// equivalent and this avoids O(V * L) refreshes.
//
// Cost model of the walk (every lever below is bit-identical to the naive
// evaluation, pinned by tests/core_ant_kernel_test.cpp):
//  * eta(l)^beta lives in a per-layer cache, refreshed only for the layers
//    a move changes (the inclusive range between the old and new layer).
//  * For a general beta (the production beta = 3) each refresh would call
//    std::pow. Widths take few distinct values, so the ant keeps an exact
//    memo keyed on the width's bit pattern (EtaPowMemo): a hit returns the
//    very double std::pow produced for that width.
//  * The candidate scan is fused: each score tau^alpha * eta^beta is
//    computed once and folded straight into the greedy argmax (max and
//    ties in the same pass) or, for the roulette rule, into the running
//    total in the same index order the sequential draw needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "core/pheromone.hpp"
#include "graph/csr.hpp"
#include "graph/digraph.hpp"
#include "layering/layer_widths.hpp"
#include "layering/layering.hpp"
#include "layering/metrics.hpp"
#include "layering/spans.hpp"
#include "support/rng.hpp"

namespace acolay::core {

/// Outcome of one ant's walk.
struct WalkResult {
  /// The layering in the *stretched* layer space (may contain empty
  /// layers) — this is what seeds the next tour.
  layering::Layering layering;
  /// Metrics of the compacted (normalized) layering, the paper's
  /// evaluation space.
  layering::LayeringMetrics metrics;
  /// f = 1 / (H + W) of the compacted layering (Alg. 4 line 13).
  double objective = 0.0;
  /// Number of vertices whose layer changed during the walk.
  int moves = 0;
};

/// Exact memo of eta(w)^beta = pow(1 / (eta_epsilon + w), beta) for a
/// general exponent: a direct-mapped table keyed on the width's exact bit
/// pattern, so a hit returns the identical double std::pow produced for
/// that width. Bound to one (eta_epsilon, beta) pair at a time — binding a
/// different pair, or growing the table, invalidates every slot — so a
/// stale value can never be served. Only the walk's general-beta path uses
/// it (core/ant.cpp); beta in {0, 1} needs no pow at all.
struct EtaPowMemo {
  /// One cached width -> eta^beta mapping.
  struct Slot {
    std::uint64_t width_bits = 0;  ///< bit pattern of the width
    double eta_pow = 0.0;          ///< pow(1 / (epsilon + width), beta)
  };

  /// Slot-count cap, sized from measurement: walks over DAGs with
  /// n = 300..1000 (stretched to L = n) see 15–170 distinct widths on
  /// average and at most 572. With 256 slots (4 KiB per ant) 0.8% of
  /// lookups miss; 512 slots would cut that to 0.2% for twice the memory,
  /// which buys no measurable walk time.
  static constexpr std::size_t kMaxSlots = 256;

  std::vector<Slot> slots;  ///< power-of-two table (empty until reserved)
  int shift = 64;           ///< 64 - log2(slots.size()): hash to index
  bool bound = false;       ///< slots hold values for the pair below
  double epsilon = 0.0;     ///< eta_epsilon the slots were computed with
  double beta = 0.0;        ///< beta the slots were computed with

  /// Grows the table for walks over `num_layers` layers: twice the layer
  /// count (a walk's distinct widths rarely exceed it), rounded up to a
  /// power of two, capped at kMaxSlots. Never shrinks.
  void reserve(std::size_t num_layers);
};

/// The ant's reusable working state: the paper-§VI per-ant copies (layer
/// widths, layer spans) plus every scratch buffer the walk and its metrics
/// evaluation need. Owned by the colony (one per ant slot) and reused
/// across all tours, so that after the first tour a walk performs zero
/// heap allocation: every buffer is reset in place at its high-water size.
struct WalkWorkspace {
  layering::LayerWidths widths;   ///< per-ant Alg. 5 width profile
  layering::SpanTable spans;      ///< per-ant layer spans (Alg. 4 l. 9–11)
  layering::MetricsWorkspace metrics;  ///< fused-metrics scratch
  std::vector<std::int32_t> order;       ///< vertex visiting order
  std::vector<double> scores;            ///< roulette candidate scores
  std::vector<double> eta_term;          ///< per-layer eta^beta cache
  std::vector<int> ties;                 ///< argmax tie layers
  std::vector<std::uint8_t> bfs_seen;    ///< BFS scratch (VertexOrder::kBfs)
  std::vector<graph::VertexId> bfs_queue;  ///< BFS frontier scratch
  EtaPowMemo eta_memo;                   ///< exact general-beta pow memo

  /// Pre-grows every buffer for walks over graphs of up to `num_vertices`
  /// vertices and `num_layers` layers (the batch solver sizes worker
  /// workspaces to the largest admitted graph). Lives here so a new
  /// scratch member cannot be forgotten in a far-away reservation list.
  void reserve(std::size_t num_vertices, std::size_t num_layers) {
    widths.reserve(static_cast<int>(num_layers));
    spans.reserve(num_vertices);
    metrics.reserve(num_layers);
    order.reserve(num_vertices);
    scores.reserve(num_layers);
    eta_term.reserve(num_layers);
    ties.reserve(num_layers);
    bfs_seen.reserve(num_vertices);
    bfs_queue.reserve(num_vertices);
    eta_memo.reserve(num_layers);
  }
};

/// Executes one walk. `base` must be a valid layering of g within
/// [1, num_layers]; `tau` is the shared pheromone matrix (read-only during
/// the tour). The rng is taken by value: each (tour, ant) pair gets its own
/// forked stream, making the colony's result independent of thread
/// scheduling.
WalkResult perform_walk(const graph::Digraph& g,
                        const layering::Layering& base, int num_layers,
                        const PheromoneMatrix& tau, const AcoParams& params,
                        support::Rng rng);

/// Allocation-free variant over a frozen CSR view: all working state lives
/// in `ws`, and the walk writes into `result` (whose buffers are likewise
/// reused). Bit-identical to the Digraph overload for the same inputs; the
/// workspace carries nothing across calls that can change a result (buffer
/// capacity, and the exact eta^beta memo, whose hits equal recomputation).
void perform_walk(const graph::CsrView& g, const layering::Layering& base,
                  int num_layers, const PheromoneMatrix& tau,
                  const AcoParams& params, support::Rng rng,
                  WalkWorkspace& ws, WalkResult& result);

/// The same walk drawing from the caller's generator in place: on return
/// `rng` sits exactly where the walk left the stream. The by-value
/// overload above forwards here; tests use it to pin the walk's sequence
/// of random draws, not just its layering.
void perform_walk_advancing(const graph::CsrView& g,
                            const layering::Layering& base, int num_layers,
                            const PheromoneMatrix& tau,
                            const AcoParams& params, support::Rng& rng,
                            WalkWorkspace& ws, WalkResult& result);

}  // namespace acolay::core
