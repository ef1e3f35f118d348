// Shared pieces of the benchmark: statistics, the result line, the span
// recorder, seeded input generation, frame rendering and output checks.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "gen/edit_script.hpp"
#include "gen/random_dag.hpp"
#include "io/json.hpp"
#include "server/protocol.hpp"
#include "support/rng.hpp"

namespace perfbench {

using acolay::support::Rng;
namespace gen = acolay::gen;
namespace graph = acolay::graph;
namespace core = acolay::core;
namespace io = acolay::io;
namespace server = acolay::server;

void sleep_until_s(double t) {
  const double wait = t - now_s();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double vm_hwm_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

std::string fmt(const char* format, double a, double b, double c, double d,
                double e) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c, d, e);
  return buf;
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Report -------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::fail(const std::string& why) {
  correct_ = false;
  if (failures_.size() < 20) failures_.push_back(why);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

namespace {
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}
}  // namespace

void Report::print() const {
  for (const auto& n : notes_) std::cout << n << '\n';
  for (const auto& f : failures_) std::cout << "FAIL: " << f << '\n';
  for (const auto& m : metrics_) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::fflush(stdout);
  std::string line = "{\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics_[i].name + "\": {\"value\": " +
            number(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
            "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

// --- Tracer -------------------------------------------------------------------

int Tracer::begin(const char* name, std::uint32_t req) {
  Span s;
  s.name = name;
  s.req = req;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start = now_s();
  spans_.push_back(s);
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end = now_s();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::record(const char* name, double start, double end,
                    std::uint32_t req) {
  spans_.push_back({name, start, end, -1, req});
}

void Tracer::absorb(const Tracer& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(s);
  }
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (name == s.name) out.push_back(s.end - s.start);
  }
  return out;
}

double Tracer::self_time(std::string_view name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      total += spans_[i].end - spans_[i].start - child[i];
    }
  }
  return total;
}

void Tracer::write(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream out(path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"i\":" << i << ",\"name\":\"" << s.name << "\",\"start_us\":"
        << number((s.start - t0) * 1e6) << ",\"end_us\":"
        << number((s.end - t0) * 1e6) << ",\"parent\":" << s.parent
        << ",\"req\":" << s.req << "}\n";
  }
}

// --- inputs -------------------------------------------------------------------

Digraph wire_graph(const Digraph& g) {
  Digraph out(g.num_vertices());
  for (const auto& e : g.edges()) out.add_edge(e.source, e.target);
  return out;
}

std::string solve_frame(const std::string& id, const SolveInput& input) {
  io::JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.key("graph").begin_object();
  w.kv("num_vertices", input.graph.num_vertices());
  w.key("edges").begin_array();
  for (const auto& e : input.graph.edges()) {
    w.begin_array().value(e.source).value(e.target).end_array();
  }
  w.end_array();
  w.end_object();
  w.key("params").begin_object();
  w.kv("seed", input.params.seed);
  w.end_object();
  if (input.policy != CyclePolicy::kReject) {
    w.kv("cycle_policy", core::cycle_policy_name(input.policy));
  }
  if (input.warm) w.kv("warm", true);
  w.end_object();
  return w.str();
}

std::string delta_frame(const std::string& id, std::uint64_t base,
                        const GraphDelta& delta) {
  io::JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.key("delta").begin_object();
  w.kv("base", server::fingerprint_hex(base));
  const auto edges = [&w](const char* key, const std::vector<graph::Edge>& es) {
    if (es.empty()) return;
    w.key(key).begin_array();
    for (const auto& e : es) {
      w.begin_array().value(e.source).value(e.target).end_array();
    }
    w.end_array();
  };
  edges("remove_edges", delta.remove_edges);
  if (!delta.remove_vertices.empty()) {
    w.key("remove_vertices").begin_array();
    for (auto v : delta.remove_vertices) w.value(v);
    w.end_array();
  }
  if (!delta.add_vertex_widths.empty()) {
    w.key("add_vertices").begin_array();
    for (double width : delta.add_vertex_widths) w.value(width);
    w.end_array();
  }
  edges("add_edges", delta.add_edges);
  if (!delta.set_widths.empty()) {
    w.key("set_widths").begin_array();
    for (const auto& c : delta.set_widths) {
      w.begin_array().value(c.vertex).value(c.width).end_array();
    }
    w.end_array();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string stats_frame(const std::string& id) {
  return "{\"id\":\"" + id + "\",\"stats\":true}";
}

namespace {

// Distinct per-purpose streams of one run seed.
enum Stream : std::uint64_t { kBatch = 1, kMix = 2, kEdit = 3, kCorpus = 4 };

Digraph family_dag(int family, int n, Rng& rng) {
  const auto nv = static_cast<std::size_t>(n);
  const auto m = static_cast<std::size_t>(std::lround(1.3 * n));
  switch (family % 3) {
    case 0: {
      gen::GnmParams p;
      p.num_vertices = nv;
      p.num_edges = m;
      return gen::random_dag(p, rng);
    }
    case 1: {
      // About 10 vertices per layer; adjacent-layer edges give ~1.1n
      // edges and the scaled long-edge probability ~0.2n more.
      gen::LayeredParams p;
      p.num_layers = std::max(2, n / 10);
      p.min_per_layer = 5;
      p.max_per_layer = 15;
      p.adjacent_edge_prob = 0.11;
      p.long_edge_prob = 0.4 / static_cast<double>(n);
      return gen::random_layered_dag(p, rng);
    }
    default: {
      gen::NorthParams p;
      p.num_vertices = nv;
      p.num_edges = m;
      return gen::random_north_dag(p, rng);
    }
  }
}

/// The k-th point of a golden-ratio (Kronecker) sequence in [0, 1).
double spread_draw(std::uint64_t k, double offset) {
  const double x = offset + static_cast<double>(k) * 0.6180339887498949;
  return x - std::floor(x);
}

}  // namespace

std::vector<SolveInput> batch_large_inputs(std::uint64_t seed) {
  Rng rng = Rng(seed).fork(kBatch);
  constexpr int kPerFamily = 12;
  std::vector<SolveInput> out;
  for (int family = 0; family < 3; ++family) {
    for (int i = 0; i < kPerFamily; ++i) {
      const int n = std::clamp(
          300 + i * 700 / (kPerFamily - 1) +
              static_cast<int>(rng.uniform_int(-20, 20)),
          300, 1000);
      SolveInput in;
      in.graph = wire_graph(family_dag(family, n, rng));
      in.params.seed = seed * 1000 + out.size();
      in.params.record_trace = false;
      out.push_back(std::move(in));
    }
  }
  return out;
}

acolay::gen::Corpus serve_mix_corpus(std::uint64_t seed) {
  gen::CorpusParams p;
  p.seed = Rng(seed).fork(kCorpus)();
  return gen::make_corpus(p);
}

MixRung serve_mix_rung(const acolay::gen::Corpus& corpus, std::uint64_t seed,
                       int rung, double rate, int frames) {
  Rng rng = Rng(seed).fork(kMix, static_cast<std::uint64_t>(rung));
  MixRung out;
  out.rate = rate;
  // The mix is stratified so every seed offers the same load shape: every
  // 5th frame is a medium DAG (20%), and each block of 16 other frames
  // holds 3 exact repeats, 2 small cyclic digraphs and 11 paper-corpus
  // DAGs in a seeded order (15%, 10% and 55% of all frames). Spacing the
  // medium frames keeps the tail from hinging on how a seed happens to
  // bunch them.
  enum Kind { kRepeat, kMedium, kCyclic, kSmall };
  std::uint64_t count[4] = {0, 0, 0, 0};
  double offset[4];
  for (double& o : offset) o = rng.uniform();
  std::vector<Kind> block;
  block.insert(block.end(), 3, kRepeat);
  block.insert(block.end(), 2, kCyclic);
  block.insert(block.end(), 11, kSmall);
  std::size_t next_small = 0;
  // Poisson arrivals conditioned on the rung lasting exactly frames/rate
  // seconds: sorted uniform due times.
  for (int i = 0; i < frames; ++i) {
    out.due.push_back(rng.uniform() * frames / rate);
  }
  std::sort(out.due.begin(), out.due.end());
  for (int i = 0; i < frames; ++i) {
    const int have = static_cast<int>(out.distinct.size());
    Kind kind = kMedium;
    if (i % 5 != 4) {
      if (next_small % block.size() == 0) rng.shuffle(block);
      kind = block[next_small++ % block.size()];
    }
    if (kind == kRepeat && have > 0) {
      // An exact repeat of a recent request: a dedup hit (in flight or in
      // the result cache).
      const int back = static_cast<int>(rng.uniform_int(1, std::min(have, 8)));
      out.order.push_back(have - back);
      continue;
    }
    SolveInput in;
    in.params.seed = (seed << 20) ^ (static_cast<std::uint64_t>(rung) << 16) ^
                     static_cast<std::uint64_t>(have);
    in.params.record_trace = false;
    // Sizes follow a golden-ratio sequence per kind, so every stretch of
    // the stream covers its size range evenly (steadier across seeds than
    // independent draws).
    const double u = spread_draw(count[kind]++, offset[kind]);
    if (kind == kMedium) {
      const int n = 150 + static_cast<int>(u * 151);
      in.graph = wire_graph(family_dag(count[kind] % 2 == 0 ? 0 : 2, n, rng));
    } else if (kind == kCyclic) {
      gen::PlantedCycleParams p;
      p.base.num_vertices = 20 + static_cast<std::size_t>(u * 61);
      p.base.num_edges = p.base.num_vertices * 13 / 10;
      p.num_cycles = static_cast<std::size_t>(rng.uniform_int(2, 4));
      p.cycle_length = static_cast<std::size_t>(rng.uniform_int(3, 5));
      in.graph = wire_graph(gen::random_planted_cycles(p, rng).graph);
      in.policy = rng.bernoulli(0.5) ? CyclePolicy::kGreedyReverse
                                     : CyclePolicy::kAcoFas;
    } else {
      const auto group = static_cast<int>(
          u * static_cast<double>(corpus.num_groups()));
      const auto members = corpus.group_members(group);
      const auto k = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(members.size()) - 1));
      in.graph = wire_graph(corpus.graphs[members[k]]);
    }
    out.distinct.push_back(std::move(in));
    out.order.push_back(have);
  }
  return out;
}

std::vector<std::vector<EditChain>> serve_edit_chains(std::uint64_t seed,
                                                      int clients,
                                                      int chains_per_client,
                                                      int deltas_per_chain) {
  std::vector<std::vector<EditChain>> out(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    Rng rng = Rng(seed).fork(kEdit, static_cast<std::uint64_t>(c));
    for (int k = 0; k < chains_per_client; ++k) {
      EditChain chain;
      const int n = static_cast<int>(rng.uniform_int(150, 300));
      chain.base.graph = wire_graph(family_dag(k % 2 == 0 ? 0 : 2, n, rng));
      chain.base.params.seed = (seed << 20) ^ (static_cast<std::uint64_t>(c) << 12) ^
                               static_cast<std::uint64_t>(k);
      chain.base.params.record_trace = false;
      chain.base.warm = true;
      gen::EditScriptParams ep;
      ep.num_deltas = deltas_per_chain;
      chain.deltas = gen::random_edit_script(chain.base.graph, ep, rng);
      out[static_cast<std::size_t>(c)].push_back(std::move(chain));
    }
  }
  return out;
}

int mix_rung_frames(int rung, double seconds) {
  // The reference rung sends one rung's worth of frames per segment.
  double inv = kMixSegments / kMixLadder[kMixReferenceRung];
  for (double r : kMixLadder) {
    if (r != kMixLadder[kMixReferenceRung]) inv += 1.0 / r;
  }
  const int frames = std::max(100, static_cast<int>(seconds / inv));
  return rung == kMixReferenceRung ? kMixSegments * frames : frames;
}

int edit_chains_per_client(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds * 2.0)));
}

// --- output checks ------------------------------------------------------------

std::optional<Response> parse_response(std::string_view line,
                                       const std::string& id,
                                       std::string& why) {
  auto doc = io::parse_json(line);
  if (!doc || !doc->is_object()) {
    why = "response is not a JSON object";
    return std::nullopt;
  }
  const auto* rid = doc->find("id");
  const auto* status = doc->find("status");
  if (rid == nullptr || !rid->is_string() || rid->as_string() != id) {
    why = "response id does not match request " + id;
    return std::nullopt;
  }
  if (status == nullptr || !status->is_string()) {
    why = "response has no status";
    return std::nullopt;
  }
  Response r;
  if (status->as_string() != "ok") {
    const auto* err = doc->find("error");
    r.error = err != nullptr && err->is_string() ? err->as_string() : "?";
    return r;
  }
  r.ok = true;
  if (const auto* stats = doc->find("stats"); stats != nullptr) {
    r.stats = *stats;
    return r;
  }
  const auto* lay = doc->find("layering");
  const auto* layers = lay != nullptr ? lay->find("layers") : nullptr;
  const auto* met = doc->find("metrics");
  const auto* obj = met != nullptr ? met->find("objective") : nullptr;
  if (layers == nullptr || !layers->is_array() || obj == nullptr ||
      !obj->is_number()) {
    why = "ok response without layering/metrics";
    return std::nullopt;
  }
  for (const auto& v : layers->elements()) {
    r.layers.push_back(static_cast<int>(v.try_int64().value_or(0)));
  }
  r.objective = obj->as_double();
  if (const auto* d = doc->find("deduped"); d != nullptr && d->is_bool()) {
    r.deduped = d->as_bool();
  }
  if (const auto* fp = doc->find("fingerprint"); fp != nullptr) {
    r.fingerprint = server::parse_fingerprint_hex(fp->as_string());
  }
  if (const auto* rev = doc->find("reversed_edges"); rev != nullptr) {
    for (const auto& e : rev->elements()) {
      r.reversed.push_back({static_cast<graph::VertexId>(e[0].as_int64()),
                            static_cast<graph::VertexId>(e[1].as_int64())});
    }
  }
  return r;
}

std::string check_layering(const Digraph& sent, const Response& r) {
  const std::size_t n = sent.num_vertices();
  if (r.layers.size() != n) return "layering has the wrong vertex count";
  for (int layer : r.layers) {
    if (layer < 1 || static_cast<std::size_t>(layer) > std::max<std::size_t>(n, 1)) {
      return "layer out of range";
    }
  }
  auto reversed = r.reversed;
  std::sort(reversed.begin(), reversed.end(),
            [](const graph::Edge& a, const graph::Edge& b) {
              return a.source != b.source ? a.source < b.source
                                          : a.target < b.target;
            });
  std::size_t matched = 0;
  for (const auto& e : sent.edges()) {
    const bool rev = std::binary_search(
        reversed.begin(), reversed.end(), e,
        [](const graph::Edge& a, const graph::Edge& b) {
          return a.source != b.source ? a.source < b.source
                                      : a.target < b.target;
        });
    matched += rev ? 1 : 0;
    const int lu = r.layers[static_cast<std::size_t>(e.source)];
    const int lv = r.layers[static_cast<std::size_t>(e.target)];
    if (rev ? !(lv > lu) : !(lu > lv)) {
      return "edge " + std::to_string(e.source) + "->" +
             std::to_string(e.target) + " violates the layering";
    }
  }
  if (matched != reversed.size()) {
    return "reversed_edges names an edge the input does not have";
  }
  return {};
}

std::string check_direct(const std::string& id, std::string_view line,
                         const SolveInput& input) {
  const core::SolveOutcome outcome = core::solve(input.request());
  if (!outcome.ok()) return "direct solve rejected the request";
  const std::string expected = server::render_result_response(
      id, outcome.result, false, -1.0, std::nullopt, outcome.reversed_edges);
  if (expected != line) return "served result differs from direct core::solve";
  return {};
}

bool same_outcome(const core::SolveOutcome& a, const core::SolveOutcome& b) {
  return a.ok() && b.ok() && a.result.layering == b.result.layering &&
         a.result.metrics.objective == b.result.metrics.objective &&
         a.result.metrics.width_incl_dummies ==
             b.result.metrics.width_incl_dummies &&
         a.result.metrics.height == b.result.metrics.height &&
         a.reversed_edges == b.reversed_edges;
}

}  // namespace perfbench
