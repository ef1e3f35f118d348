// The three workloads, untraced: batch_large (closed-loop BatchSolver),
// serve_mix (open-loop socket ladder) and serve_edit (closed-loop delta
// chains over the socket). Each checks every output it receives.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "core/batch.hpp"
#include "graph/csr.hpp"
#include "layering/layering.hpp"
#include "server/protocol.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace core = acolay::core;
namespace graph = acolay::graph;

// --- batch_large ----------------------------------------------------------------

BatchPass run_batch_pass(const std::vector<SolveInput>& inputs,
                         Tracer* tracer) {
  BatchPass pass;
  const double t_setup = now_s();
  core::BatchOptions options;
  options.num_threads = kBatchWorkers;
  core::BatchSolver solver(options);
  pass.setup_s = now_s() - t_setup;

  const double t0 = now_s();
  std::vector<double> submitted(inputs.size());
  std::vector<core::BatchJobId> ids;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ScopedSpan span(tracer, "batch.submit", static_cast<std::uint32_t>(i));
    const core::SolveRequest request = inputs[i].request();
    submitted[i] = now_s();
    ids.push_back(solver.submit(request));
  }
  pass.submit_s = now_s() - t0;
  // Completion times by polling every millisecond (the caller's view of
  // when a result is available); the sleep keeps the poller off the
  // workers' cores.
  std::vector<double> done(inputs.size(), -1.0);
  std::size_t left = inputs.size();
  while (left > 0) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (done[i] < 0 && solver.poll_outcome(ids[i]) != nullptr) {
        done[i] = now_s();
        --left;
      }
    }
    if (left > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pass.wall_s = now_s() - t0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    pass.latency_s.push_back(done[i] - submitted[i]);
    pass.outcomes.push_back(solver.collect_outcome(ids[i]));
  }
  return pass;
}

std::vector<core::SolveOutcome> sequential_reference(
    const std::vector<SolveInput>& inputs, std::vector<double>* seconds,
    Tracer* tracer) {
  std::vector<core::SolveOutcome> out;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ScopedSpan span(tracer, "seq.solve", static_cast<std::uint32_t>(i));
    const core::SolveRequest request = inputs[i].request();
    const double t0 = now_s();
    out.push_back(core::solve(request));
    if (seconds != nullptr) seconds->push_back(now_s() - t0);
  }
  return out;
}

void run_batch_large(const Options& opt, Report& report) {
  // The solver runs in this process. A fixed mmap threshold makes freed
  // pheromone matrices and workspaces go back to the system, so peak_rss_mb
  // follows live memory instead of what the allocator happened to retain.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const auto inputs = batch_large_inputs(opt.seed);
  // The reference: a plain sequential core::solve loop over the same
  // graphs. Every layering is validated against its graph once here; every
  // batch result must then equal its reference bit for bit.
  const auto reference = sequential_reference(inputs, nullptr, nullptr);
  std::vector<double> objectives;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& r = reference[i];
    if (!r.ok()) {
      report.fail("reference solve rejected graph " + std::to_string(i));
      continue;
    }
    const std::string why =
        acolay::layering::validate_layering(inputs[i].graph, r.result.layering);
    if (!why.empty()) report.fail("graph " + std::to_string(i) + ": " + why);
    objectives.push_back(r.result.metrics.objective);
  }

  std::vector<double> setup, throughput, latency;
  double graphs = 0.0, wall = 0.0;
  const double start = now_s();
  int passes = 0;
  while (passes < 3 || now_s() - start < opt.seconds) {
    BatchPass pass = run_batch_pass(inputs, nullptr);
    ++passes;
    setup.push_back(pass.setup_s);
    throughput.push_back(static_cast<double>(inputs.size()) / pass.wall_s);
    graphs += static_cast<double>(inputs.size());
    wall += pass.wall_s;
    for (double l : pass.latency_s) latency.push_back(l * 1e3);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      report.attempt();
      if (!same_outcome(pass.outcomes[i], reference[i])) {
        report.failed();
        report.fail("batch result " + std::to_string(i) +
                    " differs from sequential core::solve");
      }
    }
  }
  report.note(fmt("batch_large: %.0f graphs (n=300..1000) x %.0f passes, "
                  "%.0f job latency samples, failed_share %.6g",
                  static_cast<double>(inputs.size()), passes,
                  static_cast<double>(latency.size()),
                  static_cast<double>(report.failures()) /
                      static_cast<double>(std::max<std::uint64_t>(
                          report.attempted(), 1))));
  report.metric("setup_s", median(setup), "s");
  report.metric("throughput_rps", median(throughput), "1/s");
  report.metric("latency_p50_ms", quantile(latency, 0.5), "ms");
  report.metric("latency_p99_ms", quantile(latency, 0.99), "ms");
  // A closed batch is saturated by construction: its sustainable rate is
  // the aggregate completion rate.
  report.metric("max_rate_rps", graphs / wall, "1/s");
  report.metric("objective_mean", mean(objectives), "f");
  report.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
}

// --- serving helpers --------------------------------------------------------------

double daemon_setup_s(const Options& opt) {
  std::vector<double> setups;
  for (int k = 0; k < kDaemonLaunches; ++k) {
    Daemon d(opt.serve_bin);
    setups.push_back(d.setup_seconds());
  }
  return median(setups);
}

std::optional<acolay::io::JsonValue> fetch_stats(int port,
                                                 const std::string& id) {
  Connection c(port);
  std::string reply, why;
  if (!round_trip(c, stats_frame(id), reply)) return std::nullopt;
  auto r = parse_response(reply, id, why);
  if (!r || !r->stats) return std::nullopt;
  return r->stats;
}

double stats_count(const acolay::io::JsonValue& stats, const char* key) {
  const auto* v = stats.find(key);
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

// --- serve_mix --------------------------------------------------------------------

MixRungResult new_rung_result(const MixRung& rung, int index) {
  const std::size_t n = rung.order.size();
  MixRungResult out;
  for (std::size_t i = 0; i < n; ++i) {
    std::string id = tag("r", static_cast<std::size_t>(index));
    id += tag("-", i);
    out.ids.push_back(std::move(id));
  }
  out.responses.resize(n);
  out.due.assign(n, 0.0);
  out.sent.assign(n, 0.0);
  out.received.assign(n, -1.0);
  return out;
}

void run_mix_segment(int port, const MixRung& rung, std::size_t begin,
                     std::size_t end, MixRungResult& out) {
  std::vector<std::string> lines;
  for (std::size_t i = begin; i < end; ++i) {
    lines.push_back(solve_frame(
        out.ids[i], rung.distinct[static_cast<std::size_t>(rung.order[i])]));
  }
  Connection conn(port);
  const double t0 = now_s() + 0.02;
  for (std::size_t i = begin; i < end; ++i) {
    out.due[i] = t0 + rung.due[i] - rung.due[begin];
  }
  // One connection: the listener's per-connection pending cap then
  // backpressures through TCP instead of the queue rejecting frames, so
  // overload shows as latency (timed from the schedule), not as errors.
  std::thread receiver([&] {
    for (std::size_t i = begin; i < end; ++i) {
      if (!conn.read_line(out.responses[i], 60.0)) return;
      out.received[i] = now_s();
    }
  });
  for (std::size_t i = begin; i < end; ++i) {
    sleep_until_s(out.due[i]);
    out.sent[i] = now_s();
    if (!conn.send_line(lines[i - begin])) break;
  }
  receiver.join();
  double last = t0;
  std::vector<double> latency;
  for (std::size_t i = begin; i < end; ++i) {
    if (out.received[i] < 0) continue;
    last = std::max(last, out.received[i]);
    latency.push_back(out.received[i] - out.due[i]);
  }
  out.busy_s += last - t0;
  // A growing backlog: the last quarter of the segment waits much longer
  // than the first.
  const std::size_t q = latency.size() / 4;
  if (q > 0) {
    std::vector<double> first(latency.begin(),
                              latency.begin() + static_cast<long>(q));
    std::vector<double> tail(latency.end() - static_cast<long>(q),
                             latency.end());
    out.backlog = out.backlog || median(tail) > 2.0 * median(first) + 0.010;
  }
}

void summarize_rung(MixRungResult& out) {
  std::vector<double> lag;
  out.latency_ms.clear();
  out.missing = 0;
  for (std::size_t i = 0; i < out.due.size(); ++i) {
    lag.push_back((out.sent[i] - out.due[i]) * 1e3);
    if (out.received[i] < 0) {
      ++out.missing;
      continue;
    }
    out.latency_ms.push_back((out.received[i] - out.due[i]) * 1e3);
  }
  out.p50_ms = quantile(out.latency_ms, 0.5);
  out.p99_ms = quantile(out.latency_ms, 0.99);
  out.lag_p99_ms = quantile(lag, 0.99);
  out.achieved_rps =
      static_cast<double>(out.due.size() - out.missing) / out.busy_s;
}

std::vector<double> check_mix_rung(const MixRung& rung,
                                   const MixRungResult& res, Report& report,
                                   std::size_t count) {
  std::vector<double> objectives;
  for (std::size_t i = 0; i < count; ++i) {
    report.attempt();
    const auto& input = rung.distinct[static_cast<std::size_t>(rung.order[i])];
    std::string why;
    if (res.received[i] < 0) {
      report.failed();
      report.fail(res.ids[i] + ": no response");
      continue;
    }
    const auto r = parse_response(res.responses[i], res.ids[i], why);
    if (r && !r->ok) {
      why = "rejected: " + r->error;
    } else if (r) {
      why = check_layering(input.graph, *r);
      if (why.empty() && input.policy == CyclePolicy::kReject &&
          !r->reversed.empty()) {
        why = "a DAG frame reported reversed edges";
      }
    }
    if (!why.empty()) {
      report.failed();
      report.fail(res.ids[i] + ": " + why);
      continue;
    }
    objectives.push_back(r->objective);
  }
  return objectives;
}

void run_serve_mix(const Options& opt, Report& report) {
  const auto corpus = serve_mix_corpus(opt.seed);
  const double setup_s = daemon_setup_s(opt);
  std::vector<acolay::io::JsonValue> stats;
  const auto stop = [&stats](Daemon& d) {
    if (auto s = fetch_stats(d.port(), "mix-stats")) {
      stats.push_back(std::move(*s));
    }
    d.stop();
  };
  const auto passes = [](const MixRungResult& r) {
    return r.missing == 0 && !r.backlog && r.p99_ms <= kMixP99LimitMs;
  };
  // Every attempt, for the output checks; `ladder` points at each rung's
  // result (after a retry, the better attempt).
  std::vector<MixRung> rungs;
  std::vector<MixRungResult> results;
  std::vector<const MixRungResult*> ladder;
  rungs.reserve(2 * std::size(kMixLadder));
  results.reserve(2 * std::size(kMixLadder));

  // The reference rung, in segments on fresh daemons: one daemon's thread
  // placement moves its latencies by up to about 12%, so the reference
  // latencies are the median over daemons.
  rungs.push_back(serve_mix_rung(corpus, opt.seed, kMixReferenceRung,
                                 kMixLadder[kMixReferenceRung],
                                 mix_rung_frames(kMixReferenceRung, opt.seconds)));
  results.push_back(new_rung_result(rungs[0], kMixReferenceRung));
  const std::size_t n_ref = rungs[0].order.size();
  std::vector<double> seg_p50, seg_p99, seg_rss;
  for (int seg = 0; seg < kMixSegments; ++seg) {
    Daemon d(opt.serve_bin);
    const std::size_t begin = n_ref * seg / kMixSegments;
    const std::size_t end = n_ref * (seg + 1) / kMixSegments;
    run_mix_segment(d.port(), rungs[0], begin, end, results[0]);
    std::vector<double> latency;
    for (std::size_t i = begin; i < end; ++i) {
      if (results[0].received[i] >= 0) {
        latency.push_back((results[0].received[i] - results[0].due[i]) * 1e3);
      }
    }
    seg_p50.push_back(quantile(latency, 0.5));
    seg_p99.push_back(quantile(latency, 0.99));
    seg_rss.push_back(d.peak_rss_mb());
    stop(d);
  }
  summarize_rung(results[0]);
  ladder.push_back(&results[0]);

  // The rest of the ladder on one more daemon, until a rung misses the
  // limit twice.
  Daemon daemon(opt.serve_bin);
  int failed_rung = passes(results[0]) ? -1 : 0;
  for (int k = kMixReferenceRung + 1;
       failed_rung < 0 && k < static_cast<int>(std::size(kMixLadder)); ++k) {
    const MixRungResult* best = nullptr;
    for (int attempt = 0; attempt < 2; ++attempt) {
      const int stream = k + attempt * kMixRetryStream;
      rungs.push_back(serve_mix_rung(corpus, opt.seed, stream, kMixLadder[k],
                                     mix_rung_frames(k, opt.seconds)));
      results.push_back(new_rung_result(rungs.back(), stream));
      run_mix_segment(daemon.port(), rungs.back(), 0,
                      rungs.back().order.size(), results.back());
      summarize_rung(results.back());
      const auto& r = results.back();
      if (best == nullptr || r.p99_ms < best->p99_ms) best = &r;
      if (passes(r)) {
        best = &r;
        break;
      }
    }
    ladder.push_back(best);
    if (!passes(*best)) failed_rung = k;
  }
  stop(daemon);
  for (const auto& r : results) {
    // Attempt ids are "r<stream>-<i>"; streams >= kMixRetryStream retry.
    const int stream = std::stoi(r.ids[0].substr(1));
    report.note(fmt("serve_mix rung %.0f rps: p50 %.3f ms p99 %.3f ms, "
                    "achieved %.1f rps, loadgen lag p99 %.3f ms",
                    kMixLadder[stream % kMixRetryStream], r.p50_ms, r.p99_ms,
                    r.achieved_rps, r.lag_p99_ms) +
                (stream >= kMixRetryStream ? " [retry]" : "") +
                (r.backlog ? " [backlog grows]" : ""));
  }

  // Output checks: every response of every attempt. The reference rung's
  // first attempt (results[0]) also yields objective_mean — the same
  // frames on every run of a seed — and a seeded sample of its cold
  // responses must match in-process core::solve byte for byte.
  std::vector<double> reference_objectives;
  for (std::size_t k = 0; k < results.size(); ++k) {
    auto objectives = check_mix_rung(rungs[k], results[k], report,
                                     rungs[k].order.size());
    if (k == 0) reference_objectives = std::move(objectives);
  }
  acolay::support::Rng pick(opt.seed ^ 0x5eedu);
  int checked = 0;
  for (int tries = 0; checked < kDirectSample && tries < 4 * kDirectSample;
       ++tries) {
    const auto i = static_cast<std::size_t>(pick.uniform_int(
        0, static_cast<std::int64_t>(rungs[0].order.size()) - 1));
    std::string why;
    const auto r = parse_response(results[0].responses[i], results[0].ids[i],
                                  why);
    if (!r || !r->ok || r->deduped) continue;
    ++checked;
    why = check_direct(
        results[0].ids[i], results[0].responses[i],
        rungs[0].distinct[static_cast<std::size_t>(rungs[0].order[i])]);
    if (!why.empty()) {
      report.failed();
      report.fail(results[0].ids[i] + ": " + why);
    }
  }
  if (stats.size() != static_cast<std::size_t>(kMixSegments + 1)) {
    report.fail("a daemon did not answer its stats frame");
  }

  // max_rate_rps: the highest rate meeting the p99 limit, interpolated on
  // log(p99) between the last passing rung and the first failing one.
  double max_rate = kMixLadder[ladder.size() - 1];
  if (failed_rung == 0) {
    max_rate = kMixLadder[0] * kMixP99LimitMs /
               std::max(ladder[0]->p99_ms, kMixP99LimitMs);
  } else if (failed_rung > 0) {
    const auto& lo = *ladder[static_cast<std::size_t>(failed_rung - 1)];
    const auto& hi = *ladder[static_cast<std::size_t>(failed_rung)];
    const double p_lo = std::log(std::max(lo.p99_ms, 1e-3));
    // A rung that failed on backlog or missing frames alone counts as
    // twice the limit.
    const double p_hi = std::log(hi.p99_ms > kMixP99LimitMs
                                     ? hi.p99_ms
                                     : 2.0 * kMixP99LimitMs);
    const double p_lim = std::log(kMixP99LimitMs);
    const double frac = p_hi > p_lo ? (p_lim - p_lo) / (p_hi - p_lo) : 1.0;
    max_rate = kMixLadder[failed_rung - 1] +
               std::clamp(frac, 0.0, 1.0) *
                   (kMixLadder[failed_rung] - kMixLadder[failed_rung - 1]);
  }
  const auto& rr = *ladder[kMixReferenceRung];
  if (rr.lag_p99_ms > kMaxLagMs) {
    report.fail(fmt("load generator fell behind at the reference rung "
                    "(lag p99 %.3f ms): run invalid",
                    rr.lag_p99_ms));
  }
  const auto total = [&stats](const char* key) {
    double sum = 0.0;
    for (const auto& s : stats) sum += stats_count(s, key);
    return sum;
  };
  report.note(fmt("daemon stats (all daemons): received %.0f admitted %.0f "
                  "solved %.0f dedup_hits %.0f rejected_overload %.0f",
                  total("received"), total("admitted"), total("solved"),
                  total("dedup_hits"), total("rejected_overload")));
  report.note(fmt("serve_mix: %.0f frames per rung (the %.0f rps reference "
                  "rung: %.0f segments of that), %.0f direct-checked, "
                  "failed_share %.6g",
                  mix_rung_frames(1, opt.seconds),
                  kMixLadder[kMixReferenceRung], kMixSegments, checked,
                  static_cast<double>(report.failures()) /
                      static_cast<double>(std::max<std::uint64_t>(
                          report.attempted(), 1))));
  report.metric("setup_s", setup_s, "s");
  report.metric("throughput_rps", rr.achieved_rps, "1/s");
  for (int seg = 0; seg < kMixSegments; ++seg) {
    report.note(fmt("reference rung, daemon %.0f: p50 %.3f ms p99 %.3f ms",
                    seg, seg_p50[static_cast<std::size_t>(seg)],
                    seg_p99[static_cast<std::size_t>(seg)]));
  }
  // The median over the reference daemons: one daemon's stall or thread
  // placement does not move it.
  report.metric("latency_p50_ms", median(seg_p50), "ms");
  report.metric("latency_p99_ms", median(seg_p99), "ms");
  report.metric("max_rate_rps", max_rate, "1/s");
  report.metric("objective_mean", mean(reference_objectives), "f");
  report.metric("peak_rss_mb", median(seg_rss), "MB");
}

// --- serve_edit -------------------------------------------------------------------

EditRunResult run_edit_clients(int port,
                               const std::vector<std::vector<EditChain>>& chains,
                               Tracer* tracers) {
  EditRunResult out;
  out.clients.resize(chains.size());
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < chains.size(); ++c) {
    threads.emplace_back([&, c] {
      auto& mine = out.clients[c];
      Tracer* tracer = tracers != nullptr ? &tracers[c] : nullptr;
      try {
        Connection conn(port);
        for (std::size_t k = 0; k < chains[c].size(); ++k) {
          // Span ids: the chain's index in client-major order.
          const auto req = static_cast<std::uint32_t>(c * chains[c].size() + k);
          const EditChain& chain = chains[c][k];
          const std::string prefix =
              "c" + std::to_string(c) + "-k" + std::to_string(k);
          std::uint64_t fp = 0;
          for (std::size_t j = 0; j <= chain.deltas.size(); ++j) {
            EditFrame f;
            f.chain = k;
            f.delta = static_cast<int>(j) - 1;
            f.id = prefix + (j == 0 ? "-base" : "-d" + std::to_string(j - 1));
            const std::string line =
                j == 0 ? solve_frame(f.id, chain.base)
                       : delta_frame(f.id, fp, chain.deltas[j - 1]);
            {
              ScopedSpan span(tracer, "wire.frame", req);
              const double sent = now_s();
              if (!round_trip(conn, line, f.response)) {
                mine.broken = true;
                return;
              }
              f.latency_s = now_s() - sent;
            }
            // Re-base on the returned fingerprint (full checks run after
            // the clients finish, off the measured path).
            const auto at = f.response.find("\"fingerprint\":\"");
            if (at == std::string::npos) {
              mine.frames.push_back(std::move(f));
              mine.broken = true;
              return;
            }
            fp = acolay::server::parse_fingerprint_hex(
                     std::string_view(f.response).substr(at + 15, 16))
                     .value_or(0);
            mine.frames.push_back(std::move(f));
          }
          std::string reply;
          if (!round_trip(conn, stats_frame(prefix + "-stats"), reply)) {
            mine.broken = true;
            return;
          }
        }
      } catch (const std::exception&) {
        mine.broken = true;
      }
    });
  }
  for (auto& t : threads) t.join();
  out.wall_s = now_s() - t0;
  return out;
}

std::vector<double> check_edit_run(
    const std::vector<std::vector<EditChain>>& chains,
    const EditRunResult& run, Report& report) {
  std::vector<double> objectives;
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const auto& client = run.clients[c];
    std::size_t expected = 0;
    for (const auto& chain : chains[c]) expected += chain.deltas.size() + 1;
    report.attempt(expected);
    if (client.frames.size() < expected || client.broken) {
      report.failed(expected - std::min(expected, client.frames.size()) +
                    (client.broken ? 1 : 0));
      report.fail("client " + std::to_string(c) + " did not finish its chains");
    }
    Digraph local;
    for (const auto& f : client.frames) {
      const EditChain& chain = chains[c][f.chain];
      if (f.delta < 0) {
        local = chain.base.graph;
      } else {
        const std::string err = acolay::graph::apply_delta(
            local, chain.deltas[static_cast<std::size_t>(f.delta)]);
        if (!err.empty()) report.fail("edit script does not apply: " + err);
      }
      std::string why;
      const auto r = parse_response(f.response, f.id, why);
      if (r && !r->ok) why = "rejected: " + r->error;
      if (r && r->ok) {
        why = check_layering(local, *r);
        if (why.empty() &&
            r->fingerprint != graph::CsrView(local).fingerprint()) {
          why = "fingerprint does not match the edited graph";
        }
      }
      if (!why.empty()) {
        report.failed();
        report.fail(f.id + ": " + why);
        continue;
      }
      objectives.push_back(r->objective);
    }
  }
  return objectives;
}

void run_serve_edit(const Options& opt, Report& report) {
  const auto chains =
      serve_edit_chains(opt.seed, kEditClients,
                        edit_chains_per_client(opt.seconds), kEditDeltas);
  const double setup_s = daemon_setup_s(opt);
  Daemon daemon(opt.serve_bin);
  const EditRunResult run = run_edit_clients(daemon.port(), chains, nullptr);
  const auto stats = fetch_stats(daemon.port(), "edit-stats");
  const double rss = daemon.peak_rss_mb();
  daemon.stop();

  const auto objectives = check_edit_run(chains, run, report);
  std::vector<double> latency;
  for (const auto& client : run.clients) {
    for (const auto& f : client.frames) latency.push_back(f.latency_s * 1e3);
  }
  if (!stats) {
    report.fail("no stats frame after the run");
  } else {
    report.note(fmt("daemon stats: incremental_sessions %.0f delta_updates "
                    "%.0f warm_reused %.0f rejected_invalid %.0f",
                    stats_count(*stats, "incremental_sessions"),
                    stats_count(*stats, "delta_updates"),
                    stats_count(*stats, "warm_reused"),
                    stats_count(*stats, "rejected_invalid")));
  }
  const double rate = static_cast<double>(latency.size()) / run.wall_s;
  report.note(fmt("serve_edit: %.0f clients x %.0f chains x (1 + %.0f deltas), "
                  "%.0f frames in %.3f s",
                  kEditClients, edit_chains_per_client(opt.seconds),
                  kEditDeltas, static_cast<double>(latency.size()),
                  run.wall_s) +
              fmt(", failed_share %.6g",
                  static_cast<double>(report.failures()) /
                      static_cast<double>(std::max<std::uint64_t>(
                          report.attempted(), 1))));
  report.metric("setup_s", setup_s, "s");
  report.metric("throughput_rps", rate, "1/s");
  report.metric("latency_p50_ms", quantile(latency, 0.5), "ms");
  report.metric("latency_p99_ms", quantile(latency, 0.99), "ms");
  // Closed loop: the clients keep the daemon saturated, so the sustainable
  // rate is the completion rate.
  report.metric("max_rate_rps", rate, "1/s");
  report.metric("objective_mean", mean(objectives), "f");
  report.metric("peak_rss_mb", rss, "MB");
}

}  // namespace perfbench
