// Incremental re-layering latency: core::IncrementalSolver update() against
// a cold full-budget core::solve re-solve of the same post-delta graph. Four
// random-DAG bases in the calibrated size range (n = 12..30, the range the
// version-1 tolerance constants in core/incremental.hpp were measured
// over) each evolve through an 8-delta gen::random_edit_script; the warm
// path carries pheromone/base/CSR state across each delta while the cold
// path rebuilds a colony from scratch, so the per-update latency ratio
// isolates what the incremental machinery buys on identical work.
//
// Both paths run serial colonies with fixed seeds, so every quality series
// is deterministic and gated: the warm/cold mean objectives (the
// equal-or-better-within-tolerance contract, claims below), the per-step
// worst ratio against kIncrementalStepTolerance, and the refreeze-kind
// routing counts (a pure function of the scripts — drift means deltas
// started taking a different CSR path).
//
// The headline >= 3x claim is a latency *ratio*, not an absolute time —
// the median over seven interleaved passes of cold total / warm total:
// both sides are measured in the same process on the same hardware and the
// warm path does structurally less work (update_tours = 3 of
// num_tours = 10, stagnation-stopped, no CSR/pheromone cold start), so the
// ratio is stable where absolute timings are not. It carries quality kind
// deliberately — the smoke gate fails if the incremental path ever loses
// its reason to exist. Measured 3.3-3.6x at calibration, and a median of
// 3.3-3.4x once the fused walk kernel cut both sides' colony time.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/colony.hpp"
#include "core/incremental.hpp"
#include "gen/edit_script.hpp"
#include "gen/random_dag.hpp"
#include "graph/delta.hpp"
#include "graph/digraph.hpp"
#include "suites/suites.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

namespace acolay::bench {

harness::Suite relayer_latency_suite() {
  harness::Suite suite;
  suite.name = "relayer_latency";
  suite.description =
      "IncrementalSolver warm update() vs cold full-budget re-solve over "
      "4 x 8-delta edit scripts: per-update latency, gated >= 3x speedup "
      "and warm-quality-within-tolerance";
  suite.run = [](const harness::SuiteContext& ctx,
                 harness::SuiteOutput& output) {
    core::AcoParams params = ctx.config.aco;
    params.record_trace = false;
    params.num_threads = 1;  // serial both sides: the ratio is the point

    // The evolving instances: one base per size in the calibrated range,
    // forked deterministically off the configured seed so the whole
    // workload is a pure function of the bench config.
    constexpr std::size_t kNumBases = 4;
    constexpr int kBaseSizes[kNumBases] = {12, 18, 24, 30};
    support::Rng root(params.seed + 0x1e1a7e5u);
    output.graphs = kNumBases;

    struct Instance {
      graph::Digraph base;
      std::vector<graph::GraphDelta> script;
      core::AcoParams params;
    };
    std::vector<Instance> instances;
    for (std::size_t b = 0; b < kNumBases; ++b) {
      support::Rng rng = root.fork(static_cast<std::uint64_t>(b));
      gen::GnmParams shape;
      shape.num_vertices = static_cast<std::size_t>(kBaseSizes[b]);
      shape.num_edges = 2 * shape.num_vertices;
      Instance instance;
      instance.base = gen::random_dag(shape, rng);
      gen::EditScriptParams script_params;  // defaults: 8 deltas, 2 ops
      instance.script =
          gen::random_edit_script(instance.base, script_params, rng);
      instance.params = params;
      instance.params.seed = params.seed + 100 * static_cast<std::uint64_t>(b);
      instances.push_back(std::move(instance));
    }

    harness::Series timing{"update_latency_seconds", "base",
                           harness::SeriesKind::kTiming, {}, {}};
    harness::SeriesColumn warm_latency{"warm_update", {}, {}};
    harness::SeriesColumn cold_latency{"cold_resolve", {}, {}};

    harness::Series quality{"mean_objective", "base",
                            harness::SeriesKind::kQuality, {}, {}};
    harness::SeriesColumn warm_objective{"warm", {}, {}};
    harness::SeriesColumn cold_objective{"cold", {}, {}};

    double warm_objective_sum = 0.0;
    double cold_objective_sum = 0.0;
    double worst_step_ratio = 1.0;
    std::size_t total_updates = 0;
    std::size_t refreeze_counts[3] = {0, 0, 0};  // widths/patched/full

    // The speed-up is the median over kRepetitions passes of the
    // per-pass ratio (cold total / warm total). Warm and cold alternate
    // step by step inside a pass, so machine noise hits both sides of one
    // ratio alike; the median then discards a pass that noise still
    // skewed. Every pass replays identical deterministic work, so the
    // quality series come from the first pass.
    constexpr int kRepetitions = 7;
    std::vector<support::Accumulator> warm_step(kNumBases);
    std::vector<support::Accumulator> cold_step(kNumBases);
    std::vector<double> speedups;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const bool record = rep == 0;
      double pass_warm = 0.0;
      double pass_cold = 0.0;
      for (std::size_t b = 0; b < kNumBases; ++b) {
        const Instance& instance = instances[b];
        // Warm path: one solver carries state across the whole script.
        // The initial solve() is the cold start both paths share and
        // stays untimed — the suite measures steady-state update latency.
        core::IncrementalSolver incremental(instance.base, instance.params);
        ACOLAY_CHECK_MSG(incremental.solve().ok(),
                         "relayer_latency: base solve failed");

        // Cold path: mirror the evolving graph and re-solve from scratch.
        graph::Digraph mirror = instance.base;

        double warm_seconds = 0.0;
        double cold_seconds = 0.0;
        double warm_sum = 0.0;
        double cold_sum = 0.0;
        for (const graph::GraphDelta& delta : instance.script) {
          support::Stopwatch warm_watch;
          const core::SolveOutcome& warm = incremental.update(delta);
          warm_seconds += warm_watch.elapsed_seconds();
          ACOLAY_CHECK_MSG(warm.ok(), "relayer_latency: update rejected: "
                                          << warm.message);

          ACOLAY_CHECK(graph::apply_delta(mirror, delta).empty());
          support::Stopwatch cold_watch;
          const core::AcoResult cold = solve_dag(mirror, instance.params);
          cold_seconds += cold_watch.elapsed_seconds();

          if (!record) continue;
          refreeze_counts[static_cast<int>(incremental.last_refreeze())]++;
          warm_sum += warm.result.metrics.objective;
          cold_sum += cold.metrics.objective;
          if (cold.metrics.objective > 0.0) {
            worst_step_ratio = std::min(
                worst_step_ratio,
                warm.result.metrics.objective / cold.metrics.objective);
          }
          ++total_updates;
        }

        const double steps = static_cast<double>(instance.script.size());
        warm_step[b].add(warm_seconds / steps);
        cold_step[b].add(cold_seconds / steps);
        pass_warm += warm_seconds;
        pass_cold += cold_seconds;
        if (record) {
          const std::string label = "n=" + std::to_string(kBaseSizes[b]);
          quality.x.push_back(label);
          warm_objective.mean.push_back(warm_sum / steps);
          warm_objective.stddev.push_back(0.0);
          cold_objective.mean.push_back(cold_sum / steps);
          cold_objective.stddev.push_back(0.0);
          warm_objective_sum += warm_sum;
          cold_objective_sum += cold_sum;
        }
      }
      speedups.push_back(pass_cold / pass_warm);
    }

    for (std::size_t b = 0; b < kNumBases; ++b) {
      timing.x.push_back("n=" + std::to_string(kBaseSizes[b]));
      warm_latency.mean.push_back(warm_step[b].mean());
      warm_latency.stddev.push_back(warm_step[b].stddev());
      cold_latency.mean.push_back(cold_step[b].mean());
      cold_latency.stddev.push_back(cold_step[b].stddev());
    }

    timing.columns.push_back(std::move(warm_latency));
    timing.columns.push_back(std::move(cold_latency));
    output.series.push_back(std::move(timing));
    quality.columns.push_back(std::move(warm_objective));
    quality.columns.push_back(std::move(cold_objective));
    output.series.push_back(std::move(quality));

    // Refreeze routing is a pure function of the scripts: any drift means
    // deltas started taking a different CSR path than the one measured.
    harness::Series routing{"refreeze_kinds", "path",
                            harness::SeriesKind::kQuality, {}, {}};
    routing.x = {"widths_only", "patched", "full"};
    routing.columns.push_back(harness::SeriesColumn{
        "updates",
        {static_cast<double>(refreeze_counts[0]),
         static_cast<double>(refreeze_counts[1]),
         static_cast<double>(refreeze_counts[2])},
        {0.0, 0.0, 0.0}});
    output.series.push_back(std::move(routing));

    const double mean_warm =
        warm_objective_sum / static_cast<double>(total_updates);
    const double mean_cold =
        cold_objective_sum / static_cast<double>(total_updates);

    // The headline: quality kind on purpose (see the file comment) so the
    // smoke gate trips if the warm path stops paying for itself.
    output.add_claim("warm update >= 3x faster than cold re-solve",
                     support::quantile(speedups, 0.5), ">=", 3.0, 0.0);
    // The version-1 tolerance contract of core/incremental.hpp, evaluated
    // on deterministic objective series.
    output.add_claim("warm mean objective within mean tolerance of cold",
                     mean_warm, ">=",
                     (1.0 - core::kIncrementalMeanTolerance) * mean_cold, 0.0);
    output.add_claim("every update within step tolerance of cold",
                     worst_step_ratio, ">=",
                     1.0 - core::kIncrementalStepTolerance, 0.0);
  };
  return suite;
}

}  // namespace acolay::bench
