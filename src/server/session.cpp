#include "server/session.hpp"

#include <algorithm>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>
#include <utility>

#include "graph/csr.hpp"
#include "io/json.hpp"
#include "support/check.hpp"

namespace acolay::server {

namespace {

using core::AdmissionError;

core::BatchOptions solver_options(const ServeOptions& options,
                                  support::WakeSignal* wake) {
  core::BatchOptions batch;
  batch.num_threads = options.num_threads;
  batch.completion_gate = options.completion_gate;
  batch.wake = wake;
  return batch;
}

/// Adjacency-ORDER-sensitive graph comparison for the dedup guard.
/// Digraph::operator== deliberately sorts adjacency (set equality), which
/// is too weak here: BFS orders and float accumulation depend on the
/// enumeration order, so two set-equal graphs with permuted adjacency can
/// produce different (both correct) results. Sharing between them would
/// break the served-equals-direct bit-identity contract. Labels are
/// ignored — they never influence a solve.
bool same_solve_input(const graph::Digraph& a, const graph::Digraph& b) {
  const std::size_t n = a.num_vertices();
  if (n != b.num_vertices() || a.num_edges() != b.num_edges()) return false;
  for (graph::VertexId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    if (a.width(v) != b.width(v)) return false;
    const auto& sa = a.successors(v);
    const auto& sb = b.successors(v);
    if (!std::equal(sa.begin(), sa.end(), sb.begin(), sb.end())) {
      return false;
    }
  }
  return true;
}

/// The schema-tagged stats object shared by the wire frame and the
/// --stats line (field rendering delegated to the public export hook).
void write_stats_object(io::JsonWriter& w, const ServeStats& stats) {
  w.begin_object();
  append_stats_fields(w, stats);
  w.end_object();
}

}  // namespace

void append_stats_fields(io::JsonWriter& w, const ServeStats& stats) {
  w.kv("schema", std::string(kServeStatsSchema));
  w.kv("received", stats.received);
  w.kv("admitted", stats.admitted);
  w.kv("solved", stats.solved);
  // The shared-vs-cached split depends on whether the duplicate's leader
  // had already completed at probe time — scheduling, not stream,
  // determined. Merged, the count is a pure function of the input.
  w.kv("dedup_hits", stats.dedup_shared + stats.dedup_cached);
  w.kv("warm_reused", stats.warm_reused);
  w.kv("incremental_sessions", stats.incremental_sessions);
  w.kv("delta_updates", stats.delta_updates);
  w.kv("rejected_invalid", stats.rejected_invalid);
  w.kv("rejected_overload", stats.rejected_overload);
  w.kv("rejected_deadline", stats.rejected_deadline);
}

std::string render_stats_response(const std::string& id,
                                  const ServeStats& stats) {
  io::JsonWriter w;
  w.begin_object();
  w.kv("schema", std::string(kServeSchema));
  w.kv("id", id);
  w.kv("status", "ok");
  w.key("stats");
  write_stats_object(w, stats);
  w.end_object();
  return w.str();
}

std::string render_stats_line(const ServeStats& stats) {
  io::JsonWriter w;
  write_stats_object(w, stats);
  return w.str();
}

Server::Server(ServeOptions options)
    : options_(options),
      clock_(options.clock ? std::move(options.clock)
                           : ClockFn([this] {
                               return stopwatch_.elapsed_seconds();
                             })),
      queue_(options.max_queue_depth),
      solver_(solver_options(options, &wake_)) {
  max_inflight_ = options_.max_inflight == 0 ? solver_.num_threads()
                                             : options_.max_inflight;
  if (max_inflight_ == 0) max_inflight_ = 1;
}

void Server::reject(Entry& entry, AdmissionError error, std::string message) {
  entry.outcome.error = error;
  entry.outcome.message = std::move(message);
  entry.state = State::kDone;
}

void Server::push_line(std::string_view line) {
  ++stats_.received;
  // Harvest/dispatch first so the overload check below sees the live
  // queue, not one stale by everything that finished since the last push.
  harvest();
  resolve_held();
  dispatch();

  const std::size_t index = next_emit_ + entries_.size();
  entries_.emplace_back();
  Entry& entry = entries_.back();

  ParsedRequest parsed;
  std::string message;
  const AdmissionError frame_error =
      parse_request_line(line, options_.limits, parsed, message);
  entry.id = parsed.id;  // best-effort echo even for malformed frames
  if (frame_error != AdmissionError::kNone) {
    ++stats_.rejected_invalid;
    reject(entry, frame_error, std::move(message));
    emit();
    return;
  }

  if (parsed.kind == RequestKind::kStats) {
    // Stats frames are the sequencing point: everything that arrived
    // earlier completes (and is answered) first, so the snapshot is a pure
    // function of the input stream — the property the golden transcript
    // diffs. kHeld keeps this entry from emitting mid-drain.
    entry.state = State::kHeld;
    drain();
    entry.canned = render_stats_response(entry.id, stats_);
    entry.state = State::kDone;
    emit();
    return;
  }
  if (parsed.kind == RequestKind::kDelta) {
    // Deltas queue behind earlier deltas and warm-slot claims only;
    // resolve_held() stages this one now unless it must wait for
    // in-flight work (file comment).
    entry.state = State::kHeld;
    held_.push_back(
        Held{index, parsed.base_fingerprint, std::move(parsed.delta)});
    resolve_held();
    emit();
    return;
  }

  // The shared admission gate (the one core::solve and BatchSolver::submit
  // apply): cycles and out-of-range params are rejected here,
  // before the request can occupy a queue slot.
  core::SolveRequest probe;
  probe.graph = &parsed.graph;
  probe.params = parsed.params;
  probe.cycle_policy =
      parsed.cycle_policy.value_or(options_.default_cycle_policy);
  const AdmissionError gate_error = core::validate_request(probe, &message);
  if (gate_error != AdmissionError::kNone) {
    ++stats_.rejected_invalid;
    reject(entry, gate_error, std::move(message));
    emit();
    return;
  }

  if (!queue_.push(index, parsed.priority)) {
    ++stats_.rejected_overload;
    reject(entry, AdmissionError::kOverloaded,
           "request queue is full (max_queue_depth = " +
               std::to_string(queue_.capacity()) + ")");
    emit();
    return;
  }

  entry.graph = std::move(parsed.graph);
  entry.params = parsed.params;
  entry.cycle_policy = probe.cycle_policy;
  entry.priority = parsed.priority;
  entry.warm = parsed.warm && options_.enable_warm;
  // Warm responses carry the fingerprint: it is the handle a later delta
  // frame references (delta sessions seed from warm slots).
  entry.report_fingerprint = entry.warm;
  if (parsed.deadline_seconds > 0.0) {
    entry.deadline_abs = clock_() + parsed.deadline_seconds;
  }
  entry.fingerprint = graph::CsrView(entry.graph).fingerprint();
  entry.state = State::kQueued;
  ++stats_.admitted;
  if (entry.warm) {
    // Its slot is claimed in arrival order, among the held deltas, so the
    // store's membership is what one-at-a-time processing gives.
    held_.push_back(Held{index, entry.fingerprint, {}});
    resolve_held();
  }

  dispatch();
  emit();
}

bool Server::resolve_held() {
  bool progress = false;
  while (!held_.empty()) {
    Held& held = held_.front();
    const bool resolved = entry_at(held.index).warm
                              ? claim_warm_slot(held.base)
                              : resolve_delta(held);
    if (!resolved) break;
    held_.pop_front();
    progress = true;
  }
  return progress;
}

bool Server::resolve_delta(Held& held) {
  Entry& entry = entry_at(held.index);
  // A live session chain first (keyed by its current fingerprint, which
  // stage() already moved on for an update still in flight) …
  IncSession* session = nullptr;
  for (IncSession& s : sessions_) {
    if (s.solver != nullptr && s.fingerprint == held.base) {
      session = &s;
      break;
    }
  }
  if (session != nullptr && session->busy) return false;
  // … otherwise seed a new session from the warm slot the referenced
  // solve wrote back — once every earlier-arrived warm solve of that
  // fingerprint has written back, so the slot holds what one-at-a-time
  // processing would see. The slot keeps its own copy: the warm chain and
  // the delta chain evolve independently from the snapshot point.
  if (session == nullptr && options_.max_incremental_sessions > 0) {
    for (std::size_t j = next_emit_; j < held.index; ++j) {
      const Entry& earlier = entry_at(j);
      if (earlier.warm && earlier.fingerprint == held.base &&
          earlier.state != State::kDone) {
        return false;
      }
    }
    const WarmSlot* slot = find_warm_slot(held.base);
    if (slot != nullptr && slot->has_state) {
      if (sessions_.size() >= options_.max_incremental_sessions) {
        // Never evict a session whose update is in flight: wait for it.
        if (sessions_.front().busy) return false;
        sessions_.pop_front();
      }
      core::AcoParams params = slot->params;
      // Updates run serially inside one pool job; bit-identity across
      // thread counts makes the serial choice invisible in the results.
      params.num_threads = 1;
      // The session inherits the establishing solve's cycle policy, so a
      // cycle-introducing delta is handled the way that solve was (and a
      // cyclic warm graph re-derives the same Phase 0 reversal — same
      // graph, same policy, same seed).
      core::IncrementalOptions inc_options;
      inc_options.cycle_policy = slot->cycle_policy;
      sessions_.emplace_back();
      session = &sessions_.back();
      session->fingerprint = slot->fingerprint;
      session->solver = std::make_unique<core::IncrementalSolver>(
          slot->graph, params, inc_options);
      session->solver->adopt(slot->tau, slot->best);
      ++stats_.incremental_sessions;
    }
  }
  if (session == nullptr) {
    ++stats_.rejected_invalid;
    reject(entry, AdmissionError::kUnknownFingerprint,
           "no warm state for fingerprint " + fingerprint_hex(held.base) +
               " (solve it with \"warm\": true first)");
    return true;
  }

  if (!session->solver->stage(held.edit)) {
    ++stats_.rejected_invalid;
    const core::SolveOutcome& rejected = session->solver->outcome();
    reject(entry, rejected.error, rejected.message);
    return true;
  }
  // Re-key the chain now: the next delta references the NEW fingerprint
  // (which the ok response reports) and may arrive before this update's
  // colony finishes; it then waits on `busy`.
  session->fingerprint = session->solver->fingerprint();
  session->busy = true;
  entry.fingerprint = session->fingerprint;
  entry.report_fingerprint = true;
  entry.job = solver_.submit_update(*session->solver);
  entry.state = State::kInflight;
  updating_.push_back(Update{held.index, session});
  return true;
}

Server::WarmSlot* Server::find_warm_slot(std::uint64_t fingerprint) {
  for (WarmSlot& slot : warm_) {
    if (slot.fingerprint == fingerprint) return &slot;
  }
  return nullptr;
}

bool Server::claim_warm_slot(std::uint64_t fingerprint) {
  if (WarmSlot* slot = find_warm_slot(fingerprint)) {
    ++slot->users;
    return true;
  }
  if (options_.max_warm_slots == 0) return true;  // no slot: runs cold
  if (warm_.size() >= options_.max_warm_slots) {
    // Only the oldest slot may go, and only once no warm solve holds it:
    // erasing anywhere else in the deque, or a busy slot, would dangle the
    // matrix pointer an in-flight warm job writes through. Serially the
    // oldest slot always has gone here, so wait rather than skip it.
    if (warm_.front().users > 0) return false;
    warm_.pop_front();
  }
  warm_.emplace_back();
  warm_.back().fingerprint = fingerprint;
  warm_.back().users = 1;
  return true;
}

bool Server::try_dedup(std::size_t index) {
  Entry& entry = entry_at(index);
  // Warm requests want a fresh evolution step, not somebody else's result,
  // so they neither join nor lead shared solves.
  if (!options_.enable_dedup || entry.warm) return false;
  for (const CacheSlot& slot : cache_) {
    if (slot.fingerprint == entry.fingerprint &&
        slot.params == entry.params &&
        slot.cycle_policy == entry.cycle_policy &&
        same_solve_input(slot.graph, entry.graph)) {
      entry.outcome = slot.outcome;
      entry.deduped = true;
      entry.state = State::kDone;
      ++stats_.dedup_cached;
      return true;
    }
  }
  for (const std::size_t leader : inflight_) {
    const Entry& lead = entry_at(leader);
    if (lead.warm || lead.fingerprint != entry.fingerprint) continue;
    if (lead.params == entry.params &&
        lead.cycle_policy == entry.cycle_policy &&
        same_solve_input(lead.graph, entry.graph)) {
      entry.leader = leader;
      entry.deduped = true;
      entry.state = State::kFollower;
      ++stats_.dedup_shared;
      return true;
    }
  }
  return false;
}

bool Server::dispatch() {
  bool progress = false;
  std::vector<std::size_t> deferred;  // allocates only when one is deferred
  while (inflight_.size() < max_inflight_) {
    const auto popped = queue_.pop();
    if (!popped) break;
    const std::size_t index = *popped;
    Entry& entry = entry_at(index);

    // A warm solve waits for its own slot claim, which resolves only after
    // every earlier held delta: it never overtakes one, since it could
    // rewrite the warm state that delta is about to seed its session
    // from. Set aside and re-queued below, in place — the queue orders by
    // arrival index — so earlier work keeps dispatching.
    if (entry.warm && !held_.empty() && held_.front().index <= index) {
      deferred.push_back(index);
      continue;
    }
    WarmSlot* slot = entry.warm ? find_warm_slot(entry.fingerprint) : nullptr;
    // Deadline shedding happens here, at dispatch: a request that expired
    // while queued is answered without ever running its colony. Dispatched
    // colonies always run to completion (no mid-solve cancellation).
    if (clock_() > entry.deadline_abs) {
      ++stats_.rejected_deadline;
      reject(entry, AdmissionError::kDeadlineExpired,
             "deadline expired before dispatch");
      if (slot != nullptr) --slot->users;
      progress = true;
      continue;
    }
    progress = true;
    if (try_dedup(index)) continue;

    core::SolveRequest request;
    request.graph = &entry.graph;
    request.params = entry.params;
    request.cycle_policy = entry.cycle_policy;
    if (slot != nullptr) {
      // One in-flight warm run per fingerprint: the matrix is written back
      // by the worker, so a second concurrent warm run on the same slot
      // would race. Latecomers run cold, do not write back, and let go of
      // their claim at once.
      if (slot->busy) {
        --slot->users;
      } else {
        slot->busy = true;
        entry.warm_attached = true;
        if (slot->tau.num_vertices() > 0) ++stats_.warm_reused;
        request.warm_tau = &slot->tau;
      }
    }
    entry.job = solver_.submit(request);
    entry.state = State::kInflight;
    inflight_.push_back(index);
  }
  // Popped just now, so the queue has room for every one of them.
  for (const std::size_t index : deferred) {
    queue_.push(index, entry_at(index).priority);
  }
  return progress;
}

bool Server::harvest() {
  bool progress = false;
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    Entry& entry = entry_at(*it);
    if (!solver_.done(entry.job)) {
      ++it;
      continue;
    }
    entry.outcome = solver_.collect_outcome(entry.job);
    entry.state = State::kDone;
    ++stats_.solved;
    if (entry.warm_attached) {
      // Present: a slot with users is never evicted.
      WarmSlot& slot = *find_warm_slot(entry.fingerprint);
      slot.busy = false;
      --slot.users;
      if (entry.outcome.ok()) {
        // Snapshot what a delta session needs (the worker already wrote
        // the final matrix into slot.tau): the graph before emit() sheds
        // it, the best layering, and the solve params the session
        // inherits.
        slot.graph = entry.graph;
        slot.best = entry.outcome.result.layering;
        slot.params = entry.params;
        slot.cycle_policy = entry.cycle_policy;
        slot.has_state = true;
      }
    }

    // Only cold successful solves enter the dedup cache: warm results
    // depend on the slot's history and must never be served to a request
    // that did not opt into that.
    if (options_.enable_dedup && !entry.warm && entry.outcome.ok() &&
        options_.result_cache_capacity > 0) {
      if (cache_.size() >= options_.result_cache_capacity) {
        cache_.erase(cache_.begin());
      }
      CacheSlot slot;
      slot.fingerprint = entry.fingerprint;
      slot.graph = entry.graph;
      slot.params = entry.params;
      slot.cycle_policy = entry.cycle_policy;
      slot.outcome = entry.outcome;
      cache_.push_back(std::move(slot));
    }

    // Followers joined this solve while it was in flight; hand each a copy.
    const std::size_t leader = *it;
    for (Entry& follower : entries_) {
      if (follower.state == State::kFollower && follower.leader == leader) {
        follower.outcome = entry.outcome;
        follower.state = State::kDone;
      }
    }
    it = inflight_.erase(it);
    progress = true;
  }

  for (auto it = updating_.begin(); it != updating_.end();) {
    Entry& entry = entry_at(it->index);
    if (!solver_.done(entry.job)) {
      ++it;
      continue;
    }
    entry.outcome = solver_.collect_outcome(entry.job);
    entry.state = State::kDone;
    IncSession& session = *it->session;
    session.busy = false;
    if (entry.outcome.ok()) {
      ++stats_.delta_updates;
    } else {
      // finish() failed inside the solver (kInternal): the chain's state
      // is unknown, so retire it. Later deltas on its fingerprint are then
      // unknown_fingerprint instead of landing on a half-updated solver.
      ++stats_.rejected_invalid;
      session.solver.reset();
    }
    it = updating_.erase(it);
    progress = true;
  }
  return progress;
}

bool Server::emit() {
  bool progress = false;
  while (!entries_.empty() && entries_.front().state == State::kDone) {
    Entry& entry = entries_.front();
    if (!entry.canned.empty()) {
      responses_.push_back(std::move(entry.canned));
    } else if (entry.outcome.ok()) {
      const double seconds =
          options_.include_timing ? entry.outcome.result.seconds : -1.0;
      responses_.push_back(render_result_response(
          entry.id, entry.outcome.result, entry.deduped, seconds,
          entry.report_fingerprint ? std::optional(entry.fingerprint)
                                   : std::nullopt,
          entry.outcome.reversed_edges));
    } else {
      responses_.push_back(render_error_response(entry.id, entry.outcome.error,
                                                 entry.outcome.message));
    }
    // Answered: nothing refers to this record any more (see entry_at).
    entries_.pop_front();
    ++next_emit_;
    progress = true;
  }
  return progress;
}

bool Server::step() {
  const bool harvested = harvest();
  // Before dispatch: a delta unblocked by this harvest resolves first, so
  // a warm solve deferred behind it can go in the same step.
  const bool resolved = resolve_held();
  const bool dispatched = dispatch();
  const bool emitted = emit();
  return harvested || resolved || dispatched || emitted;
}

void Server::drain() {
  for (;;) {
    const bool moved = step();
    const bool busy = !inflight_.empty() || !updating_.empty();
    if (!busy && queue_.empty() && held_.empty()) break;
    // Every job runs to completion, so waiting on the solver always
    // unblocks the next harvest; with nothing in flight, a held step or a
    // queued solve can always move (a held step only ever waits on
    // in-flight work or on earlier-arrived solves, whose claims have
    // resolved, so they are never deferred).
    ACOLAY_CHECK_MSG(busy || moved, "Server::drain made no progress");
    if (busy) solver_.wait_all();
  }
}

std::vector<std::string> Server::take_responses() {
  std::vector<std::string> out;
  out.swap(responses_);
  return out;
}

std::size_t Server::outstanding() const { return entries_.size(); }

void serve_stream(std::istream& in, std::ostream& out, Server& server) {
  support::WakeSignal& wake = server.wake();
  std::mutex mutex;
  std::deque<std::string> lines;
  bool eof = false;

  // The reader thread only blocks on getline; all serving state stays on
  // this thread, so the Server itself needs no locking.
  std::thread reader([&] {
    std::string line;
    while (std::getline(in, line)) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        lines.push_back(std::move(line));
      }
      wake.notify();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex);
      eof = true;
    }
    wake.notify();
  });

  for (;;) {
    // Snapshot first: a line or a finished job landing after this point
    // bumps the generation, so the wait below cannot miss it.
    const std::uint64_t seen = wake.generation();
    std::deque<std::string> batch;
    bool at_eof = false;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      batch.swap(lines);
      at_eof = eof;
    }
    for (const std::string& line : batch) server.push_line(line);
    const bool moved = server.step();
    const std::vector<std::string> responses = server.take_responses();
    if (!responses.empty()) {
      for (const std::string& response : responses) out << response << '\n';
      // Flush per batch: a request/response client blocks on the reply
      // before sending its next frame.
      out.flush();
    }
    if (at_eof && batch.empty() && server.outstanding() == 0) break;
    if (batch.empty() && !moved) wake.wait(seen);
  }
  reader.join();
}

}  // namespace acolay::server
