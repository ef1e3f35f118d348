// perfbench: the repository benchmark (see perfbench/README.md).
//
// One benchmark binary runs one workload per invocation. Untraced runs
// (--trace 0) measure the end-to-end metrics; traced runs (--trace 1)
// replay the same seeded inputs through each layer's public functions and
// derive the per-layer metrics from spans recorded here, in the
// benchmark's own code. Nothing under src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/params.hpp"
#include "core/request.hpp"
#include "gen/corpus.hpp"
#include "graph/delta.hpp"
#include "graph/digraph.hpp"
#include "io/json_reader.hpp"
#include "layering/layering.hpp"

namespace perfbench {

using acolay::core::AcoParams;
using acolay::core::CyclePolicy;
using acolay::graph::Digraph;
using acolay::graph::GraphDelta;

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string serve_bin;  ///< path of the built acolay_serve
  std::string trace_out;  ///< where the traced run writes its spans
};

// --- time -----------------------------------------------------------------

/// Seconds on the steady clock (arbitrary epoch).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sleeps until steady-clock time `t` (seconds, now_s() epoch).
void sleep_until_s(double t);

/// `prefix` followed by the decimal `i` (frame ids).
inline std::string tag(const char* prefix, std::size_t i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

// --- statistics -------------------------------------------------------------

/// Quantile with linear interpolation between order statistics (the
/// "inclusive" method); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);
double sum(const std::vector<double>& values);

/// printf-style formatting of up to five numbers (report lines).
std::string fmt(const char* format, double a, double b = 0, double c = 0,
                double d = 0, double e = 0);

// --- the result line --------------------------------------------------------

/// Everything one run reports: the correctness verdict, the attempted /
/// failed operation counts and the metrics, printed as the final JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a wrong output or failed operation; the run fails.
  void fail(const std::string& why);
  /// A human-readable line printed above the result line.
  void note(const std::string& line);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void failed(std::uint64_t n = 1) { failed_ += n; }

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failures() const { return failed_; }

  /// Prints the notes, the metric table and the JSON result line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

// --- tracing ----------------------------------------------------------------

/// One recorded span: a call into a layer, timed from the benchmark.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;         ///< index of the enclosing span, -1 at top level
  std::uint32_t req = 0;   ///< request id shared by one request's spans
};

/// In-memory span recorder for one thread. Spans nest by a stack: a span
/// begun while another is open records it as its parent.
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }
  int begin(const char* name, std::uint32_t req);
  void end(int index);
  /// Records a finished top-level span measured elsewhere.
  void record(const char* name, double start, double end, std::uint32_t req);
  /// Appends another thread's spans (parents re-indexed).
  void absorb(const Tracer& other);
  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (seconds) of every span called `name`.
  std::vector<double> durations(std::string_view name) const;
  /// Sum of the self times (duration minus the part covered by direct
  /// children) of every span called `name`.
  double self_time(std::string_view name) const;
  /// Writes the spans as JSON lines (times in microseconds from the first
  /// span's start).
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing (the untraced paths).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint32_t req = 0)
      : tracer_(tracer), index_(tracer ? tracer->begin(name, req) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// --- inputs -----------------------------------------------------------------

/// One solve request as a client holds it: the graph exactly as the server
/// rebuilds it from the frame (edges in frame order, unit widths), the
/// params and the cycle policy.
struct SolveInput {
  Digraph graph;
  AcoParams params;
  CyclePolicy policy = CyclePolicy::kReject;
  bool warm = false;

  /// The in-process request for the same solve (borrows `graph`).
  acolay::core::SolveRequest request() const {
    acolay::core::SolveRequest r;
    r.graph = &graph;
    r.params = params;
    r.cycle_policy = policy;
    return r;
  }
};

/// The graph as the server reconstructs it from a frame carrying `g`'s
/// edges in Digraph::edges() order and no widths.
Digraph wire_graph(const Digraph& g);

/// Solve frame text (no newline).
std::string solve_frame(const std::string& id, const SolveInput& input);
/// Delta frame text against `base` (no newline).
std::string delta_frame(const std::string& id, std::uint64_t base,
                        const GraphDelta& delta);
/// Stats frame text (no newline).
std::string stats_frame(const std::string& id);

/// batch_large: a fixed set of DAGs, n = 300..1000, three generator
/// families (G(n,m) at m = 1.3n, layered, north-like).
std::vector<SolveInput> batch_large_inputs(std::uint64_t seed);

/// serve_mix: one request stream of the open-loop ladder. `distinct`
/// holds the requests; `order[i]` is the distinct request frame i sends
/// (repeats reuse an earlier index); `due[i]` its scheduled offset in
/// seconds from the start of the rung.
struct MixRung {
  double rate = 0.0;
  std::vector<SolveInput> distinct;
  std::vector<int> order;
  std::vector<double> due;
};
MixRung serve_mix_rung(const acolay::gen::Corpus& corpus, std::uint64_t seed,
                       int rung, double rate, int frames);
/// The paper-corpus pool serve_mix draws its small frames from.
acolay::gen::Corpus serve_mix_corpus(std::uint64_t seed);

/// serve_edit: one client's edit chain — a base DAG warm-solved once, then
/// deltas from gen::random_edit_script applied in order.
struct EditChain {
  SolveInput base;
  std::vector<GraphDelta> deltas;
};
std::vector<std::vector<EditChain>> serve_edit_chains(std::uint64_t seed,
                                                      int clients,
                                                      int chains_per_client,
                                                      int deltas_per_chain);

// --- output checks ----------------------------------------------------------

/// A parsed response frame.
struct Response {
  bool ok = false;
  bool deduped = false;
  std::string error;  ///< error code when !ok
  std::vector<int> layers;
  double objective = 0.0;
  std::optional<std::uint64_t> fingerprint;
  std::vector<acolay::graph::Edge> reversed;
  std::optional<acolay::io::JsonValue> stats;  ///< stats frames only
};
/// Parses a response line; nullopt (with `why`) when it is not a valid
/// response frame for `id`.
std::optional<Response> parse_response(std::string_view line,
                                       const std::string& id,
                                       std::string& why);

/// Checks an ok layering against the graph it was sent: every input edge
/// u->v has layer(u) > layer(v) unless Phase 0 reported it reversed (then
/// layer(v) > layer(u)), every reversed edge is an input edge, and every
/// layer lies in [1, height]. Returns an empty string when valid.
std::string check_layering(const Digraph& sent, const Response& r);

/// The served-equals-direct check: a cold (non-deduped) ok response must
/// be byte-identical to the response rendered from an in-process
/// core::solve of the same (graph, params, policy). Returns an empty
/// string when it matches.
std::string check_direct(const std::string& id, std::string_view line,
                         const SolveInput& input);

/// Whether two outcomes carry the same layering, metrics and reversals.
bool same_outcome(const acolay::core::SolveOutcome& a,
                  const acolay::core::SolveOutcome& b);

// --- the daemon and its socket clients --------------------------------------

/// A running acolay_serve in socket mode, launched by the benchmark.
class Daemon {
 public:
  /// Starts `bin --listen 0 --threads kServeThreads` and waits for the
  /// readiness line; throws std::runtime_error on failure.
  explicit Daemon(const std::string& bin);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  /// Launch to readiness line, in seconds.
  double setup_seconds() const { return setup_seconds_; }
  /// The daemon's peak resident set (VmHWM), in MB.
  double peak_rss_mb() const;
  /// SIGTERM, wait for exit, return the daemon's exit status.
  int stop();

 private:
  int pid_ = -1;
  int err_fd_ = -1;
  int port_ = 0;
  double setup_seconds_ = 0.0;
};

/// One blocking client connection to 127.0.0.1:port.
class Connection {
 public:
  explicit Connection(int port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  /// Sends `line` plus a newline; false on error.
  bool send_line(std::string_view line);
  /// Blocks until a full line arrives or `timeout_s` passes.
  bool read_line(std::string& out, double timeout_s);

 private:
  /// Moves a complete buffered line into `out`, if there is one.
  bool pop_line(std::string& out);
  /// Reads once from the socket into the buffer; false on EOF/error.
  bool fill();

  int fd_ = -1;
  std::string buf_;
  std::size_t start_ = 0;
};

/// Sends a frame and waits for its response line (closed loop).
bool round_trip(Connection& c, const std::string& line, std::string& reply,
                double timeout_s = 60.0);

/// Peak resident set (VmHWM) of process `pid`, in MB.
double vm_hwm_mb(const std::string& pid);
/// Peak resident set of this process (getrusage), in MB.
double self_peak_rss_mb();

// --- workloads --------------------------------------------------------------

/// One batch_large pass: a fresh BatchSolver, every graph submitted at
/// once, completion times polled, outcomes collected.
struct BatchPass {
  double setup_s = 0.0;   ///< BatchSolver construction
  double submit_s = 0.0;  ///< all submits (admission + freeze)
  double wall_s = 0.0;    ///< first submit to last completion
  std::vector<double> latency_s;  ///< per job, submit to completion
  std::vector<acolay::core::SolveOutcome> outcomes;
};
BatchPass run_batch_pass(const std::vector<SolveInput>& inputs,
                         Tracer* tracer);
/// A plain sequential core::solve loop; per-solve times into `seconds`.
std::vector<acolay::core::SolveOutcome> sequential_reference(
    const std::vector<SolveInput>& inputs, std::vector<double>* seconds,
    Tracer* tracer);

/// The daemon's stats object, via a stats frame on a fresh connection.
std::optional<acolay::io::JsonValue> fetch_stats(int port,
                                                 const std::string& id);
double stats_count(const acolay::io::JsonValue& stats, const char* key);

/// What one serve_mix rung measured. Frame slots are indexed like the
/// rung's schedule; a rung may be sent in segments, each to its own
/// daemon.
struct MixRungResult {
  std::vector<std::string> ids, responses;
  std::vector<double> due, sent, received;  ///< absolute; received -1 = none
  double busy_s = 0.0;  ///< summed segment spans (start to last response)
  std::vector<double> latency_ms;  ///< from the due time
  double p50_ms = 0, p99_ms = 0, lag_p99_ms = 0, achieved_rps = 0;
  std::size_t missing = 0;
  bool backlog = false;
};
/// Empty slots for every frame of `rung` (ids "r<index>-<i>").
MixRungResult new_rung_result(const MixRung& rung, int index);
/// Median daemon launch-to-readiness time over kDaemonLaunches launches.
double daemon_setup_s(const Options& opt);
/// Sends frames [begin, end) of `rung` on their schedule over one
/// connection and records the responses.
void run_mix_segment(int port, const MixRung& rung, std::size_t begin,
                     std::size_t end, MixRungResult& out);
/// Fills the latency statistics from the recorded slots.
void summarize_rung(MixRungResult& out);
/// Validates the responses to the first `count` frames of a rung; returns
/// the ok objectives.
std::vector<double> check_mix_rung(const MixRung& rung,
                                   const MixRungResult& res, Report& report,
                                   std::size_t count);

/// One serve_edit request frame as a client saw it.
struct EditFrame {
  std::size_t chain = 0;
  int delta = -1;  ///< -1 = the warm base solve
  std::string id, response;
  double latency_s = 0.0;
};
struct EditClientResult {
  std::vector<EditFrame> frames;
  bool broken = false;
};
struct EditRunResult {
  std::vector<EditClientResult> clients;
  double wall_s = 0.0;
};
/// Runs one closed-loop client thread per chain list; `tracers` (one per
/// client, or null) records a span per frame.
EditRunResult run_edit_clients(int port,
                               const std::vector<std::vector<EditChain>>& chains,
                               Tracer* tracers);
/// Validates every response; returns the ok objectives.
std::vector<double> check_edit_run(
    const std::vector<std::vector<EditChain>>& chains,
    const EditRunResult& run, Report& report);

void run_batch_large(const Options& opt, Report& report);
void run_serve_mix(const Options& opt, Report& report);
void run_serve_edit(const Options& opt, Report& report);

/// The traced run: per-layer metrics for `opt.workload`.
void run_traced(const Options& opt, Report& report);

// Workload shape shared by the untraced and traced runs.

/// serve_mix: the fixed arrival-rate ladder (requests/s), the rung whose
/// latencies are reported as latency_p50_ms / latency_p99_ms, and the
/// p99 latency limit that defines max_rate_rps.
inline constexpr double kMixLadder[] = {150, 300, 450, 550,  650,
                                       750, 850, 950, 1050, 1150};
inline constexpr int kMixReferenceRung = 0;
inline constexpr double kMixP99LimitMs = 100.0;
/// A failing rung is retried once on a fresh stream (a single stall of
/// the machine must not end the ladder).
inline constexpr int kMixRetryStream = 64;
/// Frames sent at ladder rung `rung` in a run of `seconds` (sized so the
/// whole ladder takes about that long).
int mix_rung_frames(int rung, double seconds);

/// Daemon launches per serving run that only measure set-up time.
inline constexpr int kDaemonLaunches = 5;
/// serve_mix sends its reference rung in this many segments, one per fresh
/// daemon, and the rest of the ladder to one more.
inline constexpr int kMixSegments = 2;
/// Cold serve_mix responses re-solved in process per run.
inline constexpr int kDirectSample = 32;
/// Load-generator lag (p99) beyond which a serve_mix run is invalid.
inline constexpr double kMaxLagMs = 20.0;
/// Worker threads of the daemon (serving) and of the BatchSolver (batch).
inline constexpr int kServeThreads = 3;
inline constexpr int kBatchWorkers = 4;
/// serve_edit client count and chain shape.
inline constexpr int kEditClients = 4;
inline constexpr int kEditDeltas = 32;
int edit_chains_per_client(double seconds);

}  // namespace perfbench
