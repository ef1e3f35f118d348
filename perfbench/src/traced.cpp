// The traced run (--trace 1): replays one workload's seeded inputs through
// each layer's public functions, records a span around every call from
// here, and derives the per-layer metrics from the spans. Four parts:
//
//   A. the workload's own loop, shortened, with its frame/job spans: queue
//      wait (end-to-end latency minus replayed service time), load
//      generator lag and the daemon's stats counters;
//   B. every distinct request through protocol -> request -> graph ->
//      colony -> protocol in process (the service-time replay), and for a
//      sample of them a step-by-step colony replay that times each walk,
//      each pheromone update and each metrics evaluation;
//   C. a closed-loop probe of the same frames over the socket and through
//      an in-process server::Server, giving the listener's round-trip
//      overhead;
//   D. edit chains through graph::apply_delta, CsrView::refreeze,
//      IncrementalSolver::update and a cold core::solve of each edited
//      graph (serve_edit's own chains; short probe chains cut from the
//      other workloads' graphs).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>

#include "baselines/longest_path.hpp"
#include "bench.hpp"
#include "core/ant.hpp"
#include "core/batch.hpp"
#include "core/colony.hpp"
#include "core/incremental.hpp"
#include "core/stretch.hpp"
#include "gen/edit_script.hpp"
#include "graph/csr.hpp"
#include "layering/metrics.hpp"
#include "server/protocol.hpp"
#include "server/session.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace core = acolay::core;
namespace graph = acolay::graph;
namespace layering = acolay::layering;
namespace server = acolay::server;

namespace {

/// What the step-by-step colony replays measured.
struct ReplayStats {
  double walk_s = 0.0;           ///< summed walk time
  double ant_vertices = 0.0;     ///< summed vertices over walks
  double replay_s = 0.0;         ///< replay time minus the extra metrics calls
  double engine_s = 0.0;         ///< run_colony time of the same graphs
  std::vector<double> tau_bytes; ///< n * L * 8 per replayed graph
  int mismatches = 0;            ///< replays whose best differs from run_colony
};

/// run_colony's steps through their public functions (default-params
/// path: no clamping, no stagnation policy), one span per call. Returns
/// the best objective, which must equal run_colony's.
double replay_colony(const Digraph& g, const graph::CsrView& csr,
                     const AcoParams& params, core::ColonyWorkspace& ws,
                     Tracer& tr, std::uint32_t req, ReplayStats& st) {
  ScopedSpan run(&tr, "colony.replay", req);
  const auto n = g.num_vertices();
  layering::Layering start;
  int num_layers = 1;
  {
    ScopedSpan s(&tr, "colony.init", req);
    const auto lpl = acolay::baselines::longest_path_layering(g);
    auto stretched = core::stretch_layering(g, lpl, params.stretch);
    num_layers = std::max(stretched.num_layers, 1);
    start = std::move(stretched.layering);
    ws.tau.reset(n, num_layers, params.tau0);
  }
  st.tau_bytes.push_back(static_cast<double>(n) * num_layers * 8.0);
  const auto ants = static_cast<std::size_t>(params.num_ants);
  if (ws.ants.size() < ants) ws.ants.resize(ants);
  if (ws.walks.size() < ants) ws.walks.resize(ants);
  acolay::support::Rng root(params.seed);
  layering::Layering base = start;
  double best = 0.0;
  bool have = false;
  const layering::MetricsOptions metric_opts{params.dummy_width};
  for (int tour = 1; tour <= params.num_tours; ++tour) {
    for (std::size_t ant = 0; ant < ants; ++ant) {
      const double t0 = now_s();
      {
        ScopedSpan s(&tr, "colony.walk", req);
        core::perform_walk(csr, base, num_layers, ws.tau, params,
                           root.fork(static_cast<std::uint64_t>(tour), ant),
                           ws.ants[ant], ws.walks[ant]);
      }
      st.walk_s += now_s() - t0;
      st.ant_vertices += static_cast<double>(n);
    }
    std::size_t best_ant = 0;
    for (std::size_t ant = 1; ant < ants; ++ant) {
      if (ws.walks[ant].objective > ws.walks[best_ant].objective) best_ant = ant;
    }
    const core::WalkResult& tour_best = ws.walks[best_ant];
    {
      // The fused evaluation each walk ends with, timed on its own.
      ScopedSpan s(&tr, "metrics.compute", req);
      layering::compute_metrics(csr, tour_best.layering, metric_opts,
                                ws.ants[0].metrics, /*compact=*/true);
    }
    {
      ScopedSpan s(&tr, "colony.tau_update", req);
      ws.tau.update(params.rho, tour_best.layering.raw(),
                    params.deposit * tour_best.objective,
                    -std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity(), nullptr);
    }
    base = tour_best.layering;
    if (!have || tour_best.objective > best) {
      have = true;
      best = tour_best.objective;
    }
  }
  return best;
}

/// Part B's per-request record.
struct Served {
  double service_s = 0.0;  ///< parse + validate + phase0 + freeze + colony + render
  double parse_s = 0.0;
  std::size_t n = 0;
};

/// Part B: every distinct request in process, with spans; a step-by-step
/// colony replay for every `replay_every`-th one.
std::vector<Served> replay_requests(const std::vector<SolveInput>& inputs,
                                    int replay_every, Tracer& tr,
                                    ReplayStats& st,
                                    std::vector<double>& parse_bytes,
                                    std::vector<double>& reversed) {
  std::vector<Served> out;
  core::ColonyWorkspace ws, replay_ws;
  server::RequestLimits limits;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto req = static_cast<std::uint32_t>(i);
    const std::string id = tag("t", i);
    const std::string frame = solve_frame(id, inputs[i]);
    Served s;
    s.n = inputs[i].graph.num_vertices();
    server::ParsedRequest parsed;
    core::SolveRequest request;
    core::CycleResolution phase0;
    graph::CsrView csr;
    core::AcoResult result;
    double engine = 0.0;
    {
      const double t0 = now_s();
      ScopedSpan request_span(&tr, "request", req);
      std::string message;
      core::AdmissionError verdict;
      {
        ScopedSpan span(&tr, "protocol.parse", req);
        verdict = server::parse_request_line(frame, limits, parsed, message);
      }
      s.parse_s = now_s() - t0;
      parse_bytes.push_back(static_cast<double>(frame.size()));
      request.graph = &parsed.graph;
      request.params = parsed.params;
      request.cycle_policy =
          parsed.cycle_policy.value_or(CyclePolicy::kReject);
      if (verdict == core::AdmissionError::kNone) {
        ScopedSpan span(&tr, "request.validate", req);
        verdict = core::validate_request(request, &message);
      }
      if (verdict != core::AdmissionError::kNone) {
        throw std::runtime_error("replayed request " + id +
                                 " rejected: " + message);
      }
      {
        ScopedSpan span(&tr, "request.phase0", req);
        core::resolve_cycles(parsed.graph, request.cycle_policy,
                             request.params.seed, phase0);
      }
      reversed.push_back(static_cast<double>(phase0.reversed_edges.size()));
      {
        ScopedSpan span(&tr, "csr.freeze", req);
        csr = graph::CsrView(*phase0.graph);
      }
      const double c0 = now_s();
      {
        ScopedSpan span(&tr, "colony.run", req);
        result =
            core::run_colony(*phase0.graph, csr, request.params, ws, nullptr);
      }
      engine = now_s() - c0;
      {
        ScopedSpan span(&tr, "protocol.render", req);
        server::render_result_response(id, result, false, -1.0, std::nullopt,
                                       phase0.reversed_edges);
      }
      s.service_s = now_s() - t0;
    }
    if (i % static_cast<std::size_t>(replay_every) == 0) {
      const double r0 = now_s();
      const double best = replay_colony(*phase0.graph, csr, request.params,
                                        replay_ws, tr, req, st);
      st.replay_s += now_s() - r0;
      st.engine_s += engine;
      if (best != result.metrics.objective) ++st.mismatches;
    }
    out.push_back(s);
  }
  return out;
}

/// Part D's measurements.
struct ChainStats {
  std::vector<double> update_s, apply_s, refreeze_s;
  /// Cold solves of every cold_every-th edited graph, and the updates
  /// that produced those graphs (the warm-over-cold pairs).
  std::vector<double> cold_s, paired_update_s;
  std::map<std::string, double> refreeze_kinds;
  std::vector<std::vector<double>> service_s;  ///< per chain: base, deltas
};

/// Part D: each chain's base solved and its deltas applied through the
/// incremental path; a cold core::solve of every `cold_every`-th edited
/// graph for the warm-over-cold ratio. Chain c's spans carry request id
/// req_base + c.
ChainStats replay_chains(const std::vector<EditChain>& chains, int cold_every,
                         std::uint32_t req_base, Tracer& tr) {
  ChainStats out;
  out.refreeze_kinds = {{"widths_only", 0}, {"patched", 0}, {"full", 0}};
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const auto req = req_base + static_cast<std::uint32_t>(c);
    const EditChain& chain = chains[c];
    std::vector<double> service;
    core::IncrementalSolver inc(chain.base.graph, chain.base.params);
    {
      const double t0 = now_s();
      ScopedSpan span(&tr, "incremental.solve", req);
      inc.solve();
      service.push_back(now_s() - t0);
    }
    Digraph local = chain.base.graph;
    graph::CsrView csr(local);
    for (std::size_t j = 0; j < chain.deltas.size(); ++j) {
      const GraphDelta& delta = chain.deltas[j];
      {
        const double t0 = now_s();
        ScopedSpan span(&tr, "delta.apply", req);
        graph::apply_delta(local, delta);
        out.apply_s.push_back(now_s() - t0);
      }
      graph::RefreezeKind kind;
      {
        const double t0 = now_s();
        ScopedSpan span(&tr, "csr.refreeze", req);
        kind = csr.refreeze(local, delta);
        out.refreeze_s.push_back(now_s() - t0);
      }
      out.refreeze_kinds[kind == graph::RefreezeKind::kWidthsOnly ? "widths_only"
                         : kind == graph::RefreezeKind::kPatched  ? "patched"
                                                                   : "full"] += 1;
      const double u0 = now_s();
      {
        ScopedSpan span(&tr, "incremental.update", req);
        inc.update(delta);
      }
      const double update = now_s() - u0;
      service.push_back(update);
      out.update_s.push_back(update);
      if (j % static_cast<std::size_t>(cold_every) == 0) {
        out.paired_update_s.push_back(update);
        core::SolveRequest request;
        request.graph = &local;
        request.params = chain.base.params;
        const double k0 = now_s();
        {
          ScopedSpan span(&tr, "incremental.cold_solve", req);
          core::solve(request);
        }
        out.cold_s.push_back(now_s() - k0);
      }
    }
    out.service_s.push_back(std::move(service));
  }
  return out;
}

/// Probe chains cut from a workload's own DAGs (the workloads without
/// deltas still report the incremental layer on their graph sizes).
std::vector<EditChain> probe_chains(const std::vector<SolveInput>& inputs,
                                    std::size_t count, int deltas,
                                    std::uint64_t seed) {
  std::vector<const SolveInput*> dags;
  for (const auto& in : inputs) {
    if (in.policy == CyclePolicy::kReject && in.graph.num_vertices() >= 150) {
      dags.push_back(&in);
    }
  }
  std::sort(dags.begin(), dags.end(), [](const auto* a, const auto* b) {
    return a->graph.num_vertices() < b->graph.num_vertices();
  });
  acolay::support::Rng rng = acolay::support::Rng(seed).fork(9);
  std::vector<EditChain> out;
  for (std::size_t k = 0; k < std::min(count, dags.size()); ++k) {
    EditChain chain;
    chain.base = *dags[k];
    acolay::gen::EditScriptParams ep;
    ep.num_deltas = deltas;
    chain.deltas = acolay::gen::random_edit_script(chain.base.graph, ep, rng);
    out.push_back(std::move(chain));
  }
  return out;
}

/// Part C: each frame over the socket and through an in-process Server,
/// one at a time; returns rtt - in-process time per frame (seconds).
std::vector<double> listener_probe(const Options& opt,
                                   const std::vector<std::string>& frames,
                                   std::optional<acolay::io::JsonValue>* stats) {
  std::vector<double> overhead;
  std::vector<double> rtt, local;
  {
    Daemon daemon(opt.serve_bin);
    Connection conn(daemon.port());
    for (const auto& f : frames) {
      std::string reply;
      const double t0 = now_s();
      if (!round_trip(conn, f, reply)) break;
      rtt.push_back(now_s() - t0);
    }
    if (stats != nullptr) *stats = fetch_stats(daemon.port(), "probe-stats");
    daemon.stop();
  }
  server::ServeOptions options;
  options.num_threads = kServeThreads;
  server::Server srv(options);
  for (const auto& f : frames) {
    const double t0 = now_s();
    srv.push_line(f);
    while (srv.take_responses().empty()) srv.step();
    local.push_back(now_s() - t0);
  }
  for (std::size_t i = 0; i < std::min(rtt.size(), local.size()); ++i) {
    overhead.push_back(rtt[i] - local[i]);
  }
  return overhead;
}

/// A sequential core::solve loop and one BatchSolver pass over the same
/// requests (outputs compared): per-request solve times into `seq_s`,
/// the workers' busy share and the speedup over the loop.
BatchPass traced_batch(const std::vector<SolveInput>& inputs, Tracer& tr,
                       Report& report, std::vector<double>& seq_s,
                       double& busy_share, double& speedup) {
  const double s0 = now_s();
  const auto reference = sequential_reference(inputs, &seq_s, &tr);
  const double seq_wall = now_s() - s0;
  BatchPass pass = run_batch_pass(inputs, &tr);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    report.attempt();
    if (!same_outcome(pass.outcomes[i], reference[i])) {
      report.failed();
      report.fail("traced batch result differs from sequential core::solve");
    }
  }
  busy_share = sum(seq_s) / (kBatchWorkers * pass.wall_s);
  speedup = seq_wall / pass.wall_s;
  return pass;
}

std::vector<double> to_us(std::vector<double> v) {
  for (double& x : v) x *= 1e6;
  return v;
}

}  // namespace

void run_traced(const Options& opt, Report& report) {
  Tracer tr;
  std::vector<SolveInput> inputs;  // distinct requests of the workload
  std::vector<EditChain> chains;   // edit chains for part D
  std::vector<double> latency_s;   // part A: per frame/job
  std::vector<std::size_t> latency_of;  // the input each latency belongs to
  std::vector<bool> latency_repeat;     // serve_mix: a dedup hit
  std::vector<int> latency_delta;  // serve_edit: delta index (-1 = base)
  std::vector<std::size_t> latency_chain;
  double lag_p99_ms = 0.0;
  std::optional<acolay::io::JsonValue> stats;
  double busy_share = 0.0, speedup = 0.0;
  std::vector<std::string> probe_frames;
  std::vector<double> seq_s;  // batch_large: per-graph sequential solve time

  // --- A: the workload's own loop, traced -------------------------------
  if (opt.workload == "batch_large") {
    inputs = batch_large_inputs(opt.seed);
    const BatchPass pass = traced_batch(inputs, tr, report, seq_s, busy_share,
                                        speedup);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      latency_s.push_back(pass.latency_s[i]);
      latency_of.push_back(i);
    }
    lag_p99_ms = pass.submit_s * 1e3;  // the last job's submission delay
    chains = probe_chains(inputs, 2, 6, opt.seed);
    for (std::size_t i = 0; i < 4; ++i) {
      probe_frames.push_back(solve_frame(tag("p", i), inputs[i]));
    }
  } else if (opt.workload == "serve_mix") {
    const auto corpus = serve_mix_corpus(opt.seed);
    const MixRung rung =
        serve_mix_rung(corpus, opt.seed, kMixReferenceRung,
                       kMixLadder[kMixReferenceRung],
                       mix_rung_frames(kMixReferenceRung, opt.seconds));
    // The reference rung's first segment, on one daemon, and the distinct
    // requests its frames use (a prefix of rung.distinct).
    const std::size_t n = rung.order.size() / kMixSegments;
    const auto used = static_cast<std::size_t>(
        *std::max_element(rung.order.begin(),
                          rung.order.begin() + static_cast<long>(n)) + 1);
    inputs.assign(rung.distinct.begin(),
                  rung.distinct.begin() + static_cast<long>(used));
    {
      Daemon daemon(opt.serve_bin);
      MixRungResult res = new_rung_result(rung, kMixReferenceRung);
      run_mix_segment(daemon.port(), rung, 0, n, res);
      stats = fetch_stats(daemon.port(), "trace-stats");
      daemon.stop();
      check_mix_rung(rung, res, report, n);
      // Time and trace the sent segment's frames.
      std::vector<double> lag;
      std::vector<bool> seen(used, false);
      for (std::size_t i = 0; i < n; ++i) {
        lag.push_back((res.sent[i] - res.due[i]) * 1e3);
        if (res.received[i] < 0) continue;
        const auto j = static_cast<std::size_t>(rung.order[i]);
        latency_s.push_back(res.received[i] - res.due[i]);
        latency_of.push_back(j);
        latency_repeat.push_back(seen[j]);
        seen[j] = true;
        tr.record("wire.frame", res.due[i], res.received[i],
                  static_cast<std::uint32_t>(j));
      }
      lag_p99_ms = quantile(lag, 0.99);
    }
    chains = probe_chains(inputs, 3, 8, opt.seed);
    for (std::size_t i = 0; i < std::min<std::size_t>(48, inputs.size()); ++i) {
      probe_frames.push_back(solve_frame(tag("p", i), inputs[i]));
    }
  } else if (opt.workload == "serve_edit") {
    const auto per_client = serve_edit_chains(
        opt.seed, kEditClients,
        std::max(1, edit_chains_per_client(opt.seconds) / 8), kEditDeltas);
    std::vector<Tracer> client_tracers(per_client.size());
    {
      Daemon daemon(opt.serve_bin);
      const EditRunResult run =
          run_edit_clients(daemon.port(), per_client, client_tracers.data());
      stats = fetch_stats(daemon.port(), "trace-stats");
      daemon.stop();
      check_edit_run(per_client, run, report);
      // Flatten: chain index across clients, as part D replays them.
      std::size_t base_index = 0;
      std::vector<double> gaps;
      for (std::size_t c = 0; c < per_client.size(); ++c) {
        for (const auto& f : run.clients[c].frames) {
          latency_s.push_back(f.latency_s);
          latency_chain.push_back(base_index + f.chain);
          latency_delta.push_back(f.delta);
        }
        base_index += per_client[c].size();
        // The closed-loop client's own delay between a response and the
        // next frame of the same chain.
        const auto& spans = client_tracers[c].spans();
        const auto& frames = run.clients[c].frames;
        for (std::size_t k = 1; k < spans.size() && k < frames.size(); ++k) {
          if (frames[k].chain != frames[k - 1].chain) continue;
          gaps.push_back((spans[k].start - spans[k - 1].end) * 1e3);
        }
      }
      lag_p99_ms = quantile(gaps, 0.99);
      for (const auto& t : client_tracers) tr.absorb(t);
    }
    for (const auto& list : per_client) {
      for (const auto& chain : list) {
        chains.push_back(chain);
        inputs.push_back(chain.base);
      }
    }
    const EditChain& first = chains.front();
    probe_frames.push_back(solve_frame("p-base", first.base));
    std::uint64_t fp = graph::CsrView(first.base.graph).fingerprint();
    Digraph local = first.base.graph;
    for (std::size_t j = 0; j < first.deltas.size(); ++j) {
      probe_frames.push_back(
          delta_frame(tag("p-d", j), fp, first.deltas[j]));
      graph::apply_delta(local, first.deltas[j]);
      fp = graph::CsrView(local).fingerprint();
    }
  } else {
    throw std::runtime_error("unknown workload '" + opt.workload + "'");
  }

  // The batch layer on the serving workloads' own requests (the daemon
  // solves on an embedded BatchSolver).
  if (opt.workload != "batch_large") {
    std::vector<SolveInput> sample(
        inputs.begin(),
        inputs.begin() + static_cast<long>(std::min<std::size_t>(inputs.size(), 256)));
    std::vector<double> unused;
    traced_batch(sample, tr, report, unused, busy_share, speedup);
  }
  const auto batch_submit_us = to_us(tr.durations("batch.submit"));

  // --- B: the service-time replay of every distinct request -------------
  ReplayStats st;
  std::vector<double> parse_bytes, reversed;
  const int replay_every = opt.workload == "serve_mix" ? 4 : 1;
  const auto served =
      replay_requests(inputs, replay_every, tr, st, parse_bytes, reversed);

  // --- C: listener overhead ---------------------------------------------
  std::optional<acolay::io::JsonValue> probe_stats;
  const auto overhead = listener_probe(opt, probe_frames, &probe_stats);
  if (!stats) stats = probe_stats;

  // --- D: incremental chains ----------------------------------------------
  // serve_edit's chains are its requests (ids = chain index, as in parts
  // A and B); elsewhere they are probes with ids of their own.
  const bool edit = opt.workload == "serve_edit";
  const ChainStats cs =
      replay_chains(chains, edit ? 4 : 1, edit ? 0 : 100000, tr);

  // Queue wait: end-to-end latency minus the replayed service time.
  std::vector<double> wait_ms;
  for (std::size_t k = 0; k < latency_s.size(); ++k) {
    double service = 0.0;
    if (opt.workload == "serve_edit") {
      const auto& chain = cs.service_s[latency_chain[k]];
      service = chain[static_cast<std::size_t>(latency_delta[k] + 1)];
    } else if (opt.workload == "batch_large") {
      service = seq_s[latency_of[k]];
    } else {
      // A repeat is answered from the dedup stores: parse, no solve.
      const Served& s = served[latency_of[k]];
      service = latency_repeat[k] ? s.parse_s : s.service_s;
    }
    wait_ms.push_back((latency_s[k] - service) * 1e3);
  }

  // Size buckets: the workload's own median vertex count splits them.
  std::vector<double> sizes;
  for (const auto& s : served) sizes.push_back(static_cast<double>(s.n));
  const double split = median(sizes);
  const auto freeze = tr.durations("csr.freeze");
  const auto colony = tr.durations("colony.run");
  std::vector<double> freeze_small, freeze_large, colony_small, colony_large;
  for (std::size_t i = 0; i < served.size(); ++i) {
    const bool small = static_cast<double>(served[i].n) <= split;
    (small ? freeze_small : freeze_large).push_back(freeze[i] * 1e6);
    (small ? colony_small : colony_large).push_back(colony[i] * 1e3);
  }
  if (colony_large.empty()) {
    colony_large = colony_small;
    freeze_large = freeze_small;
  }

  const double metrics_s = sum(tr.durations("metrics.compute"));
  const double replay_body = st.replay_s - metrics_s;
  double admitted = stats ? stats_count(*stats, "admitted") : 0.0;

  report.note("traced " + opt.workload +
              fmt(": %.0f distinct requests (size split at n=%.0f), %.0f "
                  "colony replays, %.0f edit chains",
                  static_cast<double>(inputs.size()), split,
                  static_cast<double>(tr.durations("colony.replay").size()),
                  static_cast<double>(chains.size())));
  report.note("layer self time (s) over the traced run:");
  for (const char* name :
       {"request", "protocol.parse", "request.validate", "request.phase0",
        "csr.freeze", "colony.run", "protocol.render", "colony.replay",
        "colony.init", "colony.walk", "colony.tau_update", "metrics.compute",
        "delta.apply", "csr.refreeze", "incremental.solve",
        "incremental.update", "incremental.cold_solve", "seq.solve",
        "batch.submit"}) {
    const auto d = tr.durations(name);
    if (d.empty()) continue;
    char line[160];
    std::snprintf(line, sizeof line, "  %-24s spans %7zu  total %10.6f  self %10.6f",
                  name, d.size(), sum(d), tr.self_time(name));
    report.note(line);
  }
  if (st.mismatches > 0) {
    report.note(fmt("note: %.0f colony replays differ from run_colony "
                    "(the engine changed; walk timings are still valid)",
                    st.mismatches));
  }

  report.metric("listener.rtt_overhead_us", median(to_us(overhead)), "us");
  report.metric("protocol.parse_us", median(to_us(tr.durations("protocol.parse"))), "us");
  report.metric("protocol.parse_mb_per_s",
                sum(parse_bytes) / 1e6 / sum(tr.durations("protocol.parse")),
                "MB/s");
  report.metric("protocol.render_us",
                median(to_us(tr.durations("protocol.render"))), "us");
  report.metric("session.queue_wait_p50_ms", quantile(wait_ms, 0.5), "ms");
  report.metric("session.queue_wait_p99_ms", quantile(wait_ms, 0.99), "ms");
  report.metric("session.dedup_hit_share",
                admitted > 0 ? stats_count(*stats, "dedup_hits") / admitted : 0.0,
                "share");
  for (const char* key : {"rejected_overload", "rejected_deadline",
                          "warm_reused", "delta_updates"}) {
    std::string name = "session.";
    name += key;
    report.metric(name, stats ? stats_count(*stats, key) : 0.0, "count");
  }
  report.metric("request.validate_us",
                median(to_us(tr.durations("request.validate"))), "us");
  report.metric("request.phase0_us",
                median(to_us(tr.durations("request.phase0"))), "us");
  report.metric("request.reversed_edges_mean", mean(reversed), "edges");
  report.metric("csr.freeze_us.small", median(freeze_small), "us");
  report.metric("csr.freeze_us.large", median(freeze_large), "us");
  report.metric("csr.refreeze_us", median(to_us(cs.refreeze_s)), "us");
  report.metric("delta.apply_us", median(to_us(cs.apply_s)), "us");
  for (const auto& [kind, count] : cs.refreeze_kinds) {
    std::string name = "csr.refreeze_kind.";
    name += kind;
    report.metric(name, count, "count");
  }
  report.metric("colony.run_ms.small", median(colony_small), "ms");
  report.metric("colony.run_ms.large", median(colony_large), "ms");
  report.metric("colony.walk_us", median(to_us(tr.durations("colony.walk"))), "us");
  report.metric("colony.walk_ant_vertices_per_s", st.ant_vertices / st.walk_s,
                "1/s");
  report.metric("colony.tau_update_us",
                median(to_us(tr.durations("colony.tau_update"))), "us");
  report.metric("colony.walk_share", st.walk_s / replay_body, "share");
  report.metric("colony.tau_bytes", mean(st.tau_bytes), "B-computed");
  report.metric("metrics.compute_us",
                median(to_us(tr.durations("metrics.compute"))), "us");
  report.metric("batch.submit_us", median(batch_submit_us), "us");
  report.metric("batch.worker_busy_share", busy_share, "share");
  report.metric("batch.parallel_speedup", speedup, "x");
  report.metric("incremental.update_ms", median(cs.update_s) * 1e3, "ms");
  report.metric("incremental.warm_over_cold",
                sum(cs.cold_s) / sum(cs.paired_update_s), "x");
  report.metric("loadgen.lag_p99_ms", lag_p99_ms, "ms");
  report.metric("trace.overhead_share",
                st.engine_s > 0 ? replay_body / st.engine_s - 1.0 : 0.0, "share");
  report.metric("colony.replay_mismatches", st.mismatches, "count");

  tr.write(opt.trace_out);
}

}  // namespace perfbench
