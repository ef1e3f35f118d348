#include "core/ant.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "graph/algorithms.hpp"

namespace acolay::core {

namespace {

/// How to evaluate x^e in the scoring loop. alpha and beta are almost
/// always 0 or 1 in at least one term (the paper's production setting is
/// alpha=1), where std::pow is pure overhead: pow(x, 0) == 1 and
/// pow(x, 1) == x exactly, so the fast paths are bit-identical.
enum class PowMode { kZero, kOne, kGeneral };

PowMode pow_mode(double exponent) {
  if (exponent == 0.0) return PowMode::kZero;
  if (exponent == 1.0) return PowMode::kOne;
  return PowMode::kGeneral;
}

inline double pow_by_mode(double x, double exponent, PowMode mode) {
  switch (mode) {
    case PowMode::kZero:
      return 1.0;
    case PowMode::kOne:
      return x;
    case PowMode::kGeneral:
      break;
  }
  // lint:allow-next-line(no-pow-in-inner-loop) -- this IS the sanctioned
  // general case behind the fast paths; every other caller goes through
  // pow_by_mode, the per-layer eta^beta cache or its exact memo.
  return std::pow(x, exponent);
}

/// eta(w)^beta for a layer of width w — the one expression every eta term
/// (cached, memoised or recomputed) is evaluated with.
inline double eta_pow(double width, double epsilon, double beta,
                      PowMode mode) {
  return pow_by_mode(1.0 / (epsilon + width), beta, mode);
}

/// Binds the memo to (epsilon, beta) for a walk over `num_layers` layers.
/// A new pair (or a grown table) invalidates every slot by re-seeding it
/// with the empty-layer width 0.0 and its exact value, so every slot is
/// always a valid mapping and lookups need no "empty" sentinel.
void bind_memo(EtaPowMemo& memo, double epsilon, double beta,
               int num_layers) {
  memo.reserve(static_cast<std::size_t>(num_layers));
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  if (memo.bound && same_bits(memo.epsilon, epsilon) &&
      same_bits(memo.beta, beta)) {
    return;
  }
  const EtaPowMemo::Slot empty_layer{
      std::bit_cast<std::uint64_t>(0.0),
      eta_pow(0.0, epsilon, beta, PowMode::kGeneral)};
  std::fill(memo.slots.begin(), memo.slots.end(), empty_layer);
  memo.bound = true;
  memo.epsilon = epsilon;
  memo.beta = beta;
}

/// eta(width)^beta through the memo: a Fibonacci hash of the width's bit
/// pattern picks the slot; a miss recomputes and overwrites it.
inline double memo_lookup(EtaPowMemo& memo, double width) {
  const auto bits = std::bit_cast<std::uint64_t>(width);
  EtaPowMemo::Slot& slot =
      memo.slots[static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ULL) >>
                                          memo.shift)];
  if (slot.width_bits != bits) {
    slot.width_bits = bits;
    slot.eta_pow = eta_pow(width, memo.epsilon, memo.beta, PowMode::kGeneral);
  }
  return slot.eta_pow;
}

/// One vertex's candidate scan inputs, hoisted out of the layer loop. All
/// arrays are indexed from layer 1 at element 0.
struct ScanInput {
  const double* tau;    ///< the vertex's pheromone row
  const double* eta;    ///< per-layer eta^beta cache
  const double* width;  ///< the ant's per-layer width profile
  int lo;               ///< first candidate layer (the span's lo)
  int hi;               ///< last candidate layer (the span's hi)
  int current;          ///< the vertex's layer (always feasible)
  double vertex_width;  ///< the vertex's own width
  double max_width;     ///< layer capacity (paper §IV-C), when capped
  double alpha;         ///< pheromone exponent
};

/// The fused candidate scans, specialised on the loop invariants (alpha's
/// pow fast path and whether a layer capacity applies) so the per-layer
/// body is a load, a multiply and a compare.
template <PowMode kAlpha, bool kCapped>
struct Scan {
  /// Optional neighbourhood capacity (paper §IV-C): a layer the vertex
  /// would overfill is skipped; its current layer is always feasible.
  static bool skipped(const ScanInput& in, int layer) {
    return kCapped && layer != in.current &&
           in.width[layer - 1] + in.vertex_width > in.max_width;
  }

  static double score(const ScanInput& in, int layer) {
    return pow_by_mode(in.tau[layer - 1], in.alpha, kAlpha) *
           in.eta[layer - 1];
  }

  /// Greedy rule: scores every candidate and folds it into the argmax in
  /// the same pass. Writes the layers tying for the maximum to `ties` (in
  /// layer order) and returns the maximum. A skipped layer would score 0,
  /// which can never win once any score is positive, so it is left out;
  /// a non-positive return means no admissible candidate.
  static double greedy(const ScanInput& in, int* ties,
                       std::size_t& num_ties) {
    double best = 0.0;
    num_ties = 0;
    for (int layer = in.lo; layer <= in.hi; ++layer) {
      if (skipped(in, layer)) continue;
      const double s = score(in, layer);
      if (s > best) {
        best = s;
        ties[0] = layer;
        num_ties = 1;
      } else if (s == best) {
        ties[num_ties++] = layer;
      }
    }
    return best;
  }

  /// Roulette rule: writes every candidate's score (0 when skipped) to
  /// `scores` and accumulates their total in the same index order the
  /// sequential draw sums in. Returns whether any score is positive.
  static bool roulette(const ScanInput& in, double* scores, double& total) {
    total = 0.0;
    bool any_candidate = false;
    for (int layer = in.lo; layer <= in.hi; ++layer) {
      const double s = skipped(in, layer) ? 0.0 : score(in, layer);
      scores[layer - in.lo] = s;
      total += s;
      any_candidate = any_candidate || s > 0.0;
    }
    return any_candidate;
  }
};

/// The scan pair for one walk's loop invariants.
struct ScanKernels {
  double (*greedy)(const ScanInput&, int*, std::size_t&);
  bool (*roulette)(const ScanInput&, double*, double&);
};

template <PowMode kAlpha>
ScanKernels kernels_for(bool capped) {
  if (capped) return {Scan<kAlpha, true>::greedy, Scan<kAlpha, true>::roulette};
  return {Scan<kAlpha, false>::greedy, Scan<kAlpha, false>::roulette};
}

ScanKernels kernels_for(PowMode alpha_mode, bool capped) {
  switch (alpha_mode) {
    case PowMode::kZero:
      return kernels_for<PowMode::kZero>(capped);
    case PowMode::kOne:
      return kernels_for<PowMode::kOne>(capped);
    case PowMode::kGeneral:
      break;
  }
  return kernels_for<PowMode::kGeneral>(capped);
}

}  // namespace

void EtaPowMemo::reserve(std::size_t num_layers) {
  const std::size_t wanted = std::min(
      kMaxSlots, std::bit_ceil(std::max<std::size_t>(2 * num_layers, 16)));
  if (wanted <= slots.size()) return;
  slots.assign(wanted, Slot{});
  shift = 64 - std::countr_zero(wanted);
  bound = false;
}

void perform_walk(const graph::CsrView& g, const layering::Layering& base,
                  int num_layers, const PheromoneMatrix& tau,
                  const AcoParams& params, support::Rng rng,
                  WalkWorkspace& ws, WalkResult& result) {
  perform_walk_advancing(g, base, num_layers, tau, params, rng, ws, result);
}

void perform_walk_advancing(const graph::CsrView& g,
                            const layering::Layering& base, int num_layers,
                            const PheromoneMatrix& tau,
                            const AcoParams& params, support::Rng& rng,
                            WalkWorkspace& ws, WalkResult& result) {
  const auto n = g.num_vertices();
  result.layering = base;
  result.metrics = {};
  result.objective = 0.0;
  result.moves = 0;
  if (n == 0) return;

  // The ant's private working state (paper §VI: performWalk "initialises
  // ... its own copy of the layer widths data structure"), rebuilt in
  // place inside the reusable workspace.
  ws.widths.reset(g, result.layering, num_layers, params.dummy_width);
  ws.spans.reset(g, result.layering, num_layers);

  // Vertex visiting order: a fresh random permutation (paper §IV-A: "each
  // ant is placed on a randomly selected vertex ... the next one is chosen
  // by the ant again randomly") or a BFS sweep from a random start (the
  // §IV-D alternative).
  if (params.order == VertexOrder::kBfs) {
    graph::bfs_order_into(g, static_cast<graph::VertexId>(rng.index(n)),
                          ws.order, ws.bfs_seen, ws.bfs_queue);
  } else {
    ws.order.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      ws.order[i] = static_cast<std::int32_t>(i);
    }
    rng.shuffle(ws.order);
  }

  const PowMode alpha_mode = pow_mode(params.alpha);
  const PowMode beta_mode = pow_mode(params.beta);

  // Per-layer heuristic cache: eta(l)^beta depends only on the layer's
  // current width, so it is computed once per layer here and refreshed for
  // just the layers a move touches — instead of per (vertex, candidate
  // layer) pair. A general beta goes through the exact memo, so std::pow
  // runs once per distinct width rather than once per refresh. Identical
  // doubles flow through the identical expression, so every score is bit
  // for bit what the uncached evaluation produced.
  const bool memoised = beta_mode == PowMode::kGeneral;
  if (memoised) {
    bind_memo(ws.eta_memo, params.eta_epsilon, params.beta, num_layers);
  }
  const auto eta_of = [&](int layer) {
    const double width = ws.widths.width_unchecked(layer);
    return memoised ? memo_lookup(ws.eta_memo, width)
                    : eta_pow(width, params.eta_epsilon, params.beta,
                              beta_mode);
  };
  const auto layers = static_cast<std::size_t>(num_layers);
  ws.eta_term.resize(layers);
  for (int layer = 1; layer <= num_layers; ++layer) {
    ws.eta_term[static_cast<std::size_t>(layer - 1)] = eta_of(layer);
  }

  const bool greedy = params.selection == SelectionRule::kGreedyMax;
  const ScanKernels scan = kernels_for(alpha_mode, params.max_width > 0.0);
  ws.ties.resize(layers);
  if (!greedy) ws.scores.resize(layers);
  ScanInput in{};
  in.eta = ws.eta_term.data();
  in.width = ws.widths.profile().data();
  in.max_width = params.max_width;
  in.alpha = params.alpha;

  for (const auto vertex_index : ws.order) {
    const auto v = static_cast<graph::VertexId>(vertex_index);
    const auto span = ws.spans.span(v);
    const int current = result.layering.layer(v);
    in.tau = tau.row(v).data();
    in.lo = span.lo;
    in.hi = span.hi;
    in.current = current;
    in.vertex_width = g.width(v);

    int chosen = current;
    bool drawn = false;
    if (!greedy) {
      double total = 0.0;
      if (!scan.roulette(in, ws.scores.data(), total)) continue;
      if (total > 0.0) {
        const std::span<const double> scores(
            ws.scores.data(), static_cast<std::size_t>(span.size()));
        // Presummed overload: skips weighted_index's validation re-scan.
        chosen = span.lo + static_cast<int>(rng.weighted_index(scores, total));
        drawn = true;
      }
      // A total that is not positive (a NaN score) falls back to the
      // greedy argmax, which sees the same scores and ties.
    }
    if (!drawn) {
      std::size_t num_ties = 0;
      const double best = scan.greedy(in, ws.ties.data(), num_ties);
      if (!(best > 0.0)) continue;  // nothing admissible: keep current
      chosen = (num_ties == 1 || params.tie_break == TieBreak::kFirst)
                   ? ws.ties[0]
                   : ws.ties[rng.index(num_ties)];
    }

    if (chosen != current) {
      ws.widths.apply_move(g, v, current, chosen);
      result.layering.set_layer(v, chosen);
      ws.spans.refresh_around(g, result.layering, v);
      ++result.moves;
      // A move of v between layers `current` and `chosen` changes only the
      // widths inside that inclusive range (Alg. 5): refresh their cached
      // eta terms.
      const int lo = std::min(current, chosen);
      const int hi = std::max(current, chosen);
      for (int layer = lo; layer <= hi; ++layer) {
        ws.eta_term[static_cast<std::size_t>(layer - 1)] = eta_of(layer);
      }
    }
  }

  // Objective on the compacted layering (paper §VI note: empty middle
  // layers are removed before the layering is evaluated) — fused and
  // copy-free: the compaction is a remap inside the metrics scan.
  result.metrics = layering::compute_metrics(
      g, result.layering, layering::MetricsOptions{params.dummy_width},
      ws.metrics, /*compact=*/true);
  result.objective = result.metrics.objective;
}

WalkResult perform_walk(const graph::Digraph& g,
                        const layering::Layering& base, int num_layers,
                        const PheromoneMatrix& tau, const AcoParams& params,
                        support::Rng rng) {
  const graph::CsrView csr(g);
  WalkWorkspace ws;
  WalkResult result;
  perform_walk(csr, base, num_layers, tau, params, rng, ws, result);
  return result;
}

}  // namespace acolay::core
