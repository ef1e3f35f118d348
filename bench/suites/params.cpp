// The paper §VIII parameter tuning sweeps as acolay_bench suites:
//   param-alpha-beta  — the 5x5 (alpha, beta) grid ("best results ... for
//                       alpha = 3 and beta = 5, followed closely by
//                       alpha = 1, beta = 3");
//   param-dummy-width — the nd_width 0.1..1.2 sweep ("best ... nd_width =
//                       1.1 closely followed by nd_width = 1").
//
// Parallelism is across sweep cells; each cell accumulates its graphs
// serially, so the emitted means are independent of --threads.
#include <cmath>
#include <string>
#include <vector>

#include "core/colony.hpp"
#include "layering/metrics.hpp"
#include "suites/suites.hpp"
#include "support/stats.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace acolay::bench {
namespace {

using harness::SeriesKind;
using harness::SuiteContext;
using harness::SuiteOutput;

harness::Suite make_alpha_beta_suite() {
  harness::Suite suite;
  suite.name = "param-alpha-beta";
  suite.description = "alpha/beta 5x5 tuning grid (paper §VIII)";
  suite.run = [](const SuiteContext& ctx, SuiteOutput& output) {
    const auto& corpus = ctx.corpus();
    struct Cell {
      int alpha = 0;
      int beta = 0;
      support::Accumulator objective;
      support::Accumulator runtime_ms;
    };
    std::vector<Cell> cells;
    for (int a = 1; a <= 5; ++a) {
      for (int b = 1; b <= 5; ++b) cells.push_back({a, b, {}, {}});
    }
    support::parallel_for(
        static_cast<std::size_t>(std::max(ctx.config.num_threads, 0)),
        cells.size(), [&](std::size_t index) {
          Cell& cell = cells[index];
          for (std::size_t gi = 0; gi < corpus.graphs.size(); ++gi) {
            core::AcoParams params = ctx.config.aco;
            params.alpha = cell.alpha;
            params.beta = cell.beta;
            params.seed = ctx.config.aco.seed + 1000 + gi;
            params.num_threads = 1;
            params.record_trace = false;
            support::Stopwatch stopwatch;
            const auto result = solve_dag(corpus.graphs[gi], params);
            cell.runtime_ms.add(stopwatch.elapsed_ms());
            cell.objective.add(result.metrics.objective);
          }
        });
    output.graphs = corpus.graphs.size();

    // Built locally and pushed whole: a reference returned by add_series
    // is invalidated by the next add_series call.
    harness::Series objective{"objective", "alpha_beta",
                              SeriesKind::kQuality, {}, {}};
    harness::Series runtime{"runtime_ms", "alpha_beta", SeriesKind::kTiming,
                            {}, {}};
    harness::SeriesColumn objective_col{"value", {}, {}};
    harness::SeriesColumn runtime_col{"value", {}, {}};
    for (const auto& cell : cells) {
      const std::string label =
          support::concat("a=", std::to_string(cell.alpha)) +
          support::concat(",b=", std::to_string(cell.beta));
      objective.x.push_back(label);
      runtime.x.push_back(label);
      objective_col.mean.push_back(cell.objective.mean());
      objective_col.stddev.push_back(cell.objective.stddev());
      runtime_col.mean.push_back(cell.runtime_ms.mean());
      runtime_col.stddev.push_back(cell.runtime_ms.stddev());
    }
    objective.columns.push_back(std::move(objective_col));
    runtime.columns.push_back(std::move(runtime_col));
    output.series.push_back(std::move(objective));
    output.series.push_back(std::move(runtime));

    const auto objective_of = [&](int a, int b) {
      return cells[static_cast<std::size_t>((a - 1) * 5 + (b - 1))]
          .objective.mean();
    };
    output.add_claim("beta>0 beats pure pheromone (b=1 col is worst case)",
                     objective_of(1, 3), ">=", objective_of(3, 1));
  };
  return suite;
}

harness::Suite make_dummy_width_suite() {
  harness::Suite suite;
  suite.name = "param-dummy-width";
  suite.description = "nd_width 0.1..1.2 sweep (paper §VIII)";
  suite.run = [](const SuiteContext& ctx, SuiteOutput& output) {
    const auto& corpus = ctx.corpus();
    std::vector<double> widths;
    for (int i = 1; i <= 12; ++i) widths.push_back(0.1 * i);

    struct Cell {
      support::Accumulator objective_native;  ///< scored at its own nd_width
      support::Accumulator objective_ref;     ///< re-scored at nd_width = 1
      support::Accumulator width_ref;
      support::Accumulator runtime_ms;
    };
    std::vector<Cell> cells(widths.size());
    support::parallel_for(
        static_cast<std::size_t>(std::max(ctx.config.num_threads, 0)),
        widths.size(), [&](std::size_t wi) {
          for (std::size_t gi = 0; gi < corpus.graphs.size(); ++gi) {
            core::AcoParams params = ctx.config.aco;
            params.dummy_width = widths[wi];
            params.seed = ctx.config.aco.seed + 2000 + gi;
            params.num_threads = 1;
            params.record_trace = false;
            support::Stopwatch stopwatch;
            const auto result = solve_dag(corpus.graphs[gi], params);
            cells[wi].runtime_ms.add(stopwatch.elapsed_ms());
            cells[wi].objective_native.add(result.metrics.objective);
            const auto ref = layering::compute_metrics(
                corpus.graphs[gi], result.layering,
                layering::MetricsOptions{1.0});
            cells[wi].objective_ref.add(ref.objective);
            cells[wi].width_ref.add(ref.width_incl_dummies);
          }
        });
    output.graphs = corpus.graphs.size();

    struct Metric {
      const char* name;
      support::Accumulator Cell::* field;
      SeriesKind kind;
    };
    const std::vector<Metric> metrics{
        {"objective_native", &Cell::objective_native, SeriesKind::kQuality},
        {"objective_ref", &Cell::objective_ref, SeriesKind::kQuality},
        {"width_ref", &Cell::width_ref, SeriesKind::kQuality},
        {"runtime_ms", &Cell::runtime_ms, SeriesKind::kTiming},
    };
    for (const auto& metric : metrics) {
      auto& series = output.add_series(metric.name, "nd_width", metric.kind);
      harness::SeriesColumn column{"value", {}, {}};
      for (std::size_t wi = 0; wi < widths.size(); ++wi) {
        series.x.push_back(
            support::concat("nd=", support::ConsoleTable::num(widths[wi], 1)));
        const auto& acc = cells[wi].*(metric.field);
        column.mean.push_back(acc.mean());
        column.stddev.push_back(acc.stddev());
      }
      series.columns.push_back(std::move(column));
    }

    const auto ref_of = [&](double nd) {
      for (std::size_t wi = 0; wi < widths.size(); ++wi) {
        if (std::abs(widths[wi] - nd) < 1e-9) {
          return cells[wi].objective_ref.mean();
        }
      }
      return 0.0;
    };
    output.add_claim("nd=1.0 within 10% of nd=1.1 ('closely followed')",
                     ref_of(1.0), "~=", ref_of(1.1), 0.10 * ref_of(1.1));
  };
  return suite;
}

}  // namespace

std::vector<harness::Suite> param_suites() {
  return {make_alpha_beta_suite(), make_dummy_width_suite()};
}

}  // namespace acolay::bench
