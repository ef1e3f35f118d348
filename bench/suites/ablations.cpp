// Design-choice ablations as acolay_bench suites:
//   ablation-stretch   — stretch strategy (paper §V-A, Figs. 1 vs 2);
//   ablation-selection — action-choice rule / alpha-beta degeneracies
//                        (paper §IV-D);
//   ablation-hybrid    — post-search refinement stages (paper §IX
//                        direction, core/refine).
//
// Unlike the old standalone binaries (which accumulated under a mutex in
// scheduling order), every (variant, graph) measurement is stored by index
// and reduced serially, so the emitted numbers are bit-identical for any
// --threads value — the property the CI determinism gate asserts.
#include <string>
#include <vector>

#include "baselines/longest_path.hpp"
#include "core/colony.hpp"
#include "core/refine.hpp"
#include "layering/metrics.hpp"
#include "suites/suites.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace acolay::bench {
namespace {

using harness::SeriesKind;
using harness::SuiteContext;
using harness::SuiteOutput;

/// One (variant, graph) measurement.
struct Sample {
  double objective = 0.0;
  double width = 0.0;
  double height = 0.0;
  double dummies = 0.0;
  double runtime_ms = 0.0;
};

/// Serial per-variant reduction of the indexed samples into one series per
/// metric (x = variant names, a single "value" column).
void emit_series(SuiteOutput& output,
                 const std::vector<std::string>& variant_names,
                 const std::vector<std::vector<Sample>>& samples,
                 bool with_dummies, bool with_runtime) {
  struct Metric {
    const char* name;
    double Sample::* field;
    SeriesKind kind;
    bool enabled;
  };
  const std::vector<Metric> metrics{
      {"objective", &Sample::objective, SeriesKind::kQuality, true},
      {"width", &Sample::width, SeriesKind::kQuality, true},
      {"height", &Sample::height, SeriesKind::kQuality, true},
      {"dummies", &Sample::dummies, SeriesKind::kQuality, with_dummies},
      {"runtime_ms", &Sample::runtime_ms, SeriesKind::kTiming,
       with_runtime},
  };
  for (const auto& metric : metrics) {
    if (!metric.enabled) continue;
    auto& series = output.add_series(metric.name, "variant", metric.kind);
    series.x = variant_names;
    harness::SeriesColumn column;
    column.name = "value";
    for (const auto& variant_samples : samples) {
      support::Accumulator acc;
      for (const auto& sample : variant_samples) {
        acc.add(sample.*(metric.field));
      }
      column.mean.push_back(acc.mean());
      column.stddev.push_back(acc.stddev());
    }
    series.columns.push_back(std::move(column));
  }
}

double variant_mean(const std::vector<Sample>& samples,
                    double Sample::* field) {
  support::Accumulator acc;
  for (const auto& sample : samples) acc.add(sample.*field);
  return acc.mean();
}

harness::Suite make_stretch_suite() {
  harness::Suite suite;
  suite.name = "ablation-stretch";
  suite.description = "stretch strategy ablation (paper Fig. 1 vs Fig. 2)";
  suite.run = [](const SuiteContext& ctx, SuiteOutput& output) {
    const auto& corpus = ctx.corpus();
    const std::vector<std::pair<core::StretchMode, std::string>> modes{
        {core::StretchMode::kBetweenLayers, "between-layers (Fig. 2)"},
        {core::StretchMode::kTopBottom, "top/bottom (Fig. 1)"},
        {core::StretchMode::kNone, "no stretch"},
    };
    std::vector<std::vector<Sample>> samples(
        modes.size(), std::vector<Sample>(corpus.graphs.size()));
    support::parallel_for(
        static_cast<std::size_t>(std::max(ctx.config.num_threads, 0)),
        modes.size() * corpus.graphs.size(), [&](std::size_t task) {
          const std::size_t mi = task / corpus.graphs.size();
          const std::size_t gi = task % corpus.graphs.size();
          core::AcoParams params = ctx.config.aco;
          params.stretch = modes[mi].first;
          params.seed = ctx.config.aco.seed + 3000 + gi;
          params.num_threads = 1;
          params.record_trace = false;
          const auto result = solve_dag(corpus.graphs[gi], params);
          auto& sample = samples[mi][gi];
          sample.objective = result.metrics.objective;
          sample.width = result.metrics.width_incl_dummies;
          sample.height = static_cast<double>(result.metrics.height);
          sample.dummies = static_cast<double>(result.metrics.dummy_count);
        });
    output.graphs = corpus.graphs.size();
    std::vector<std::string> names;
    for (const auto& mode : modes) names.push_back(mode.second);
    emit_series(output, names, samples, /*with_dummies=*/true,
                /*with_runtime=*/false);
    output.add_claim(
        "between-layers beats no-stretch (wider search space pays off)",
        variant_mean(samples[0], &Sample::objective), ">=",
        variant_mean(samples[2], &Sample::objective));
    output.add_claim("between-layers >= top/bottom",
                     variant_mean(samples[0], &Sample::objective), ">=",
                     variant_mean(samples[1], &Sample::objective),
                     0.02 * variant_mean(samples[1], &Sample::objective));
  };
  return suite;
}

harness::Suite make_selection_suite() {
  harness::Suite suite;
  suite.name = "ablation-selection";
  suite.description =
      "selection rule / alpha-beta degeneracy ablation (paper §IV-D)";
  suite.run = [](const SuiteContext& ctx, SuiteOutput& output) {
    const auto& corpus = ctx.corpus();
    struct Variant {
      std::string name;
      core::AcoParams params;
    };
    std::vector<Variant> variants;
    {
      core::AcoParams base = ctx.config.aco;  // alpha=1, beta=3, greedy
      variants.push_back({"paper default (a=1,b=3, greedy)", base});
      core::AcoParams roulette = base;
      roulette.selection = core::SelectionRule::kRoulette;
      variants.push_back({"roulette selection", roulette});
      core::AcoParams no_pheromone = base;
      no_pheromone.alpha = 0.0;
      variants.push_back({"alpha=0 (greedy width heuristic)", no_pheromone});
      core::AcoParams no_heuristic = base;
      no_heuristic.beta = 0.0;
      variants.push_back({"beta=0 (pheromone only)", no_heuristic});
      core::AcoParams mmas = base;
      mmas.tau_min = 0.05;
      mmas.tau_max = 5.0;
      variants.push_back({"MAX-MIN clamping [0.05, 5]", mmas});
    }
    std::vector<std::vector<Sample>> samples(
        variants.size(), std::vector<Sample>(corpus.graphs.size()));
    support::parallel_for(
        static_cast<std::size_t>(std::max(ctx.config.num_threads, 0)),
        variants.size() * corpus.graphs.size(), [&](std::size_t task) {
          const std::size_t vi = task / corpus.graphs.size();
          const std::size_t gi = task % corpus.graphs.size();
          core::AcoParams params = variants[vi].params;
          params.seed = ctx.config.aco.seed + 4000 + gi;
          params.num_threads = 1;
          params.record_trace = false;
          const auto result = solve_dag(corpus.graphs[gi], params);
          auto& sample = samples[vi][gi];
          sample.objective = result.metrics.objective;
          sample.width = result.metrics.width_incl_dummies;
          sample.height = static_cast<double>(result.metrics.height);
        });
    output.graphs = corpus.graphs.size();
    std::vector<std::string> names;
    for (const auto& variant : variants) names.push_back(variant.name);
    emit_series(output, names, samples, /*with_dummies=*/false,
                /*with_runtime=*/false);
    output.add_claim(
        "default beats pheromone-only (beta=0 'rather poor')",
        variant_mean(samples[0], &Sample::objective), ">=",
        variant_mean(samples[3], &Sample::objective));
    output.add_claim("pheromone helps over pure greedy (a=1 vs a=0)",
                     variant_mean(samples[0], &Sample::objective), ">=",
                     variant_mean(samples[2], &Sample::objective),
                     0.02 * variant_mean(samples[2], &Sample::objective));
  };
  return suite;
}

harness::Suite make_hybrid_suite() {
  harness::Suite suite;
  suite.name = "ablation-hybrid";
  suite.description =
      "post-search refinement ablation (paper §IX direction)";
  suite.run = [](const SuiteContext& ctx, SuiteOutput& output) {
    const auto& corpus = ctx.corpus();
    enum Variant { kColony, kHybrid, kClimberOnly, kVariantCount };
    const std::vector<std::string> names{"colony (paper)",
                                        "colony + climb + promote",
                                        "hill climb from LPL"};
    std::vector<std::vector<Sample>> samples(
        kVariantCount, std::vector<Sample>(corpus.graphs.size()));
    support::parallel_for(
        static_cast<std::size_t>(std::max(ctx.config.num_threads, 0)),
        corpus.graphs.size() * kVariantCount, [&](std::size_t task) {
          const auto variant = static_cast<Variant>(task % kVariantCount);
          const std::size_t gi = task / kVariantCount;
          const auto& g = corpus.graphs[gi];
          core::AcoParams params = ctx.config.aco;
          params.seed = ctx.config.aco.seed + 5000 + gi;
          params.num_threads = 1;
          params.record_trace = false;
          support::Stopwatch stopwatch;
          layering::Layering layering;
          switch (variant) {
            case kColony:
              layering = solve_dag(g, params).layering;
              break;
            case kHybrid:
              layering = core::hybrid_layering(g, params).layering;
              break;
            case kClimberOnly: {
              layering = baselines::longest_path_layering(g);
              core::greedy_refine(g, layering);
              break;
            }
            default:
              return;
          }
          const double ms = stopwatch.elapsed_ms();
          const auto metrics = layering::compute_metrics(g, layering);
          auto& sample = samples[variant][gi];
          sample.objective = metrics.objective;
          sample.width = metrics.width_incl_dummies;
          sample.height = static_cast<double>(metrics.height);
          sample.dummies = static_cast<double>(metrics.dummy_count);
          sample.runtime_ms = ms;
        });
    output.graphs = corpus.graphs.size();
    emit_series(output, names, samples, /*with_dummies=*/true,
                /*with_runtime=*/true);
    output.add_claim(
        "hybrid >= plain colony (refinement can only help)",
        variant_mean(samples[kHybrid], &Sample::objective), ">=",
        variant_mean(samples[kColony], &Sample::objective));
    output.add_claim(
        "hybrid >= pure hill climbing (colony adds value)",
        variant_mean(samples[kHybrid], &Sample::objective), ">=",
        variant_mean(samples[kClimberOnly], &Sample::objective),
        0.02 * variant_mean(samples[kClimberOnly], &Sample::objective));
  };
  return suite;
}

}  // namespace

std::vector<harness::Suite> ablation_suites() {
  return {make_stretch_suite(), make_selection_suite(),
          make_hybrid_suite()};
}

}  // namespace acolay::bench
