#include "service/routing_service.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "encode/registry.h"
#include "symmetry/symmetry.h"

namespace satfr::service {
namespace {

std::uint64_t Micros(double seconds) {
  return seconds <= 0.0 ? 0
                        : static_cast<std::uint64_t>(seconds * 1e6 + 0.5);
}

bool ParseSymmetry(const std::string& name, symmetry::Heuristic* out) {
  if (name == "none" || name == "-") {
    *out = symmetry::Heuristic::kNone;
  } else if (name == "b1") {
    *out = symmetry::Heuristic::kB1;
  } else if (name == "s1") {
    *out = symmetry::Heuristic::kS1;
  } else {
    return false;
  }
  return true;
}

bool ParseSolverPreset(const std::string& name, sat::SolverOptions* out) {
  if (name == "siege" || name.empty()) {
    *out = sat::SolverOptions::SiegeLike();
  } else if (name == "minisat") {
    *out = sat::SolverOptions::MiniSatLike();
  } else {
    return false;
  }
  return true;
}

// Wait-side nap between settle-state polls (the scheduler's Wait does the
// heavy blocking; this only covers the claim->publish window).
constexpr auto kSettleNap = std::chrono::microseconds(100);

}  // namespace

RoutingService::RoutingService(const ServiceOptions& options)
    : options_(options),
      verdicts_(options.verdict_cache),
      instances_(options.instance_cache),
      summaries_(options.summary_slots),
      scheduler_(options.scheduler) {
  obs::MetricsRegistry& m = metrics();
  id_requests_ = m.Counter("service.requests");
  id_session_ops_ = m.Counter("service.session_ops");
  id_summary_hits_ = m.Counter("service.summary_hits");
  id_verdict_hits_ = m.Counter("service.verdict_hits");
  id_instance_hits_ = m.Counter("service.instance_hits");
  id_latency_us_ = m.Histogram("service.latency_us");
  id_queue_us_ = m.Histogram("service.queue_us");
  id_solve_us_ = m.Histogram("service.solve_us");
  id_apply_us_ = m.Histogram("service.apply_us");
}

RoutingService::~RoutingService() = default;

obs::MetricsRegistry& RoutingService::metrics() const {
  return options_.metrics != nullptr ? *options_.metrics
                                     : obs::GlobalMetrics();
}

RoutingService::Ticket RoutingService::NewTicket(RequestKind kind,
                                                 bool is_session_op) {
  mc::MutexLock lock(pending_mutex_);
  const std::uint64_t id = pending_.size();
  pending_.emplace_back();
  pending_.back().response.kind = kind;
  pending_.back().is_session_op = is_session_op;
  return Ticket{id};
}

RoutingService::Pending* RoutingService::PendingRef(std::uint64_t id) const {
  mc::MutexLock lock(pending_mutex_);
  if (id >= pending_.size()) return nullptr;
  // std::deque growth never relocates elements and pending_ is append-only.
  return const_cast<Pending*>(&pending_[static_cast<std::size_t>(id)]);
}

bool RoutingService::ClaimSettle(Pending& pending) {
  int expected = 0;
  return pending.state.compare_exchange_strong(
      expected, 1, std::memory_order_acq_rel, std::memory_order_acquire);
}

void RoutingService::PublishSettle(Pending& pending) {
  pending.response.latency_seconds = pending.submitted.Seconds();
  metrics().Observe(id_latency_us_, Micros(pending.response.latency_seconds));
  pending.state.store(2, std::memory_order_release);
}

RoutingService::Ticket RoutingService::Submit(RouteRequest request) {
  if (request.fingerprint == 0 && request.graph != nullptr) {
    request.fingerprint = FingerprintGraph(*request.graph);
  }
  stat_requests_.fetch_add(1, std::memory_order_relaxed);
  metrics().Add(id_requests_);
  const Ticket ticket = NewTicket(RequestKind::kRoute, false);
  Pending* pending = PendingRef(ticket.id);
  auto shared = std::make_shared<RouteRequest>(std::move(request));
  pending->handle = scheduler_.Submit(
      [this, shared, pending](const mc::Atomic<bool>& cancel) {
        ExecuteRoute(*shared, *pending, cancel);
      },
      shared->priority);
  return ticket;
}

std::vector<RoutingService::Ticket> RoutingService::SubmitBatch(
    std::vector<RouteRequest> requests) {
  std::vector<Ticket> tickets;
  tickets.reserve(requests.size());
  for (RouteRequest& request : requests) {
    tickets.push_back(Submit(std::move(request)));
  }
  return tickets;
}

const Response& RoutingService::Wait(Ticket ticket) {
  static const Response kInvalid = [] {
    Response r;
    r.ok = false;
    r.error = "invalid ticket";
    return r;
  }();
  Pending* pending = PendingRef(ticket.id);
  if (pending == nullptr) return kInvalid;
  if (!pending->is_session_op) {
    const JobStatus status = scheduler_.Wait(pending->handle);
    if (status == JobStatus::kCancelled && ClaimSettle(*pending)) {
      // Cancelled before any worker picked it up (Cancel or shutdown).
      pending->response.cancelled = true;
      pending->response.ok = false;
      pending->response.status = sat::SolveResult::kUnknown;
      pending->response.error = "cancelled before execution";
      PublishSettle(*pending);
    }
  }
  while (pending->state.load(std::memory_order_acquire) != 2) {
    std::this_thread::sleep_for(kSettleNap);
  }
  return pending->response;
}

bool RoutingService::Cancel(Ticket ticket) {
  Pending* pending = PendingRef(ticket.id);
  if (pending == nullptr) return false;
  pending->cancel_requested.store(true, std::memory_order_release);
  if (pending->is_session_op) {
    // The pump observes the flag when it reaches the op.
    return pending->state.load(std::memory_order_acquire) == 0;
  }
  // Scheduler-side: either the job never runs (true) or its stop flag is
  // now set and the in-flight solver aborts cooperatively (false).
  if (scheduler_.Cancel(pending->handle)) {
    if (ClaimSettle(*pending)) {
      pending->response.cancelled = true;
      pending->response.ok = false;
      pending->response.status = sat::SolveResult::kUnknown;
      pending->response.error = "cancelled before execution";
      PublishSettle(*pending);
    }
    return true;
  }
  return false;
}

void RoutingService::Drain() {
  scheduler_.WaitIdle();
  // Settle route tickets whose job was cancelled before running and never
  // waited on (their response would otherwise stay unpublished).
  std::size_t count;
  {
    mc::MutexLock lock(pending_mutex_);
    count = pending_.size();
  }
  for (std::uint64_t id = 0; id < count; ++id) {
    Pending* pending = PendingRef(id);
    if (pending->is_session_op) continue;
    if (scheduler_.StatusOf(pending->handle) == JobStatus::kCancelled &&
        ClaimSettle(*pending)) {
      pending->response.cancelled = true;
      pending->response.ok = false;
      pending->response.error = "cancelled before execution";
      PublishSettle(*pending);
    }
  }
}

void RoutingService::ExecuteRoute(const RouteRequest& request,
                                  Pending& pending,
                                  const mc::Atomic<bool>& cancel) {
  Response& r = pending.response;
  obs::MetricsRegistry& m = metrics();
  m.Observe(id_queue_us_, Micros(pending.submitted.Seconds()));
  do {
    if (request.graph == nullptr || request.width <= 0) {
      r.ok = false;
      r.error = "malformed request: null graph or non-positive width";
      break;
    }
    const std::optional<encode::EncodingSpec> spec =
        encode::FindEncoding(request.encoding);
    if (!spec.has_value()) {
      r.ok = false;
      r.error = "unknown encoding: " + request.encoding;
      break;
    }
    symmetry::Heuristic heuristic;
    if (!ParseSymmetry(request.symmetry, &heuristic)) {
      r.ok = false;
      r.error = "unknown symmetry heuristic: " + request.symmetry;
      break;
    }
    sat::SolverOptions preset;
    if (!ParseSolverPreset(request.solver, &preset)) {
      r.ok = false;
      r.error = "unknown solver preset: " + request.solver;
      break;
    }

    const CacheKey verdict_key{request.fingerprint, request.width,
                               request.encoding, request.symmetry,
                               request.solver};
    const std::uint64_t verdict_hash = verdict_key.Hash();
    if (options_.cache_verdicts) {
      // Fast path: the lock-free summary fully answers UNSAT repeats (no
      // tracks to fetch). 64-bit hash match stands in for key equality —
      // the same tradeoff the summary-table collision policy documents.
      VerdictSummary summary;
      if (summaries_.Probe(verdict_hash, &summary) &&
          static_cast<sat::SolveResult>(summary.status) ==
              sat::SolveResult::kUnsat) {
        r.status = sat::SolveResult::kUnsat;
        r.summary_hit = true;
        r.verdict_hit = true;
        stat_summary_hits_.fetch_add(1, std::memory_order_relaxed);
        m.Add(id_summary_hits_);
        break;
      }
      if (const auto verdict = verdicts_.Lookup(verdict_key)) {
        r.status = verdict->status;
        r.tracks = verdict->tracks;
        r.verdict_hit = true;
        m.Add(id_verdict_hits_);
        break;
      }
    }

    const CacheKey instance_key{request.fingerprint, request.width,
                                request.encoding, request.symmetry,
                                /*solver=*/""};
    std::shared_ptr<const encode::EncodedColoring> instance;
    if (options_.cache_instances) {
      instance = instances_.Lookup(instance_key);
    }
    if (instance != nullptr) {
      r.instance_hit = true;
      m.Add(id_instance_hits_);
    } else if (options_.cache_instances) {
      // Cold encode, materialized once so the next miss on this instance
      // (any solver preset, e.g. a timeout retry) skips it.
      Stopwatch encode_watch;
      const std::vector<graph::VertexId> sequence =
          symmetry::SymmetrySequence(*request.graph, request.width,
                                     heuristic);
      auto fresh = std::make_shared<encode::EncodedColoring>(
          encode::EncodeColoring(*request.graph, request.width, *spec,
                                 sequence));
      r.encode_seconds = encode_watch.Seconds();
      const std::size_t bytes =
          fresh->cnf.ApproxHeapBytes() +
          fresh->vertex_offset.size() * sizeof(int) + sizeof(*fresh);
      instances_.Insert(instance_key, fresh, bytes);
      instance = std::move(fresh);
    }

    flow::DetailedRouteOptions route_options;
    route_options.encoding = *spec;
    route_options.heuristic = heuristic;
    route_options.solver = preset;
    route_options.timeout_seconds = request.timeout_seconds >= 0.0
                                        ? request.timeout_seconds
                                        : options_.timeout_seconds;
    route_options.stop = &cancel;
    route_options.run_label = request.label;
    if (instance != nullptr) route_options.reuse_encoding = instance.get();
    const flow::DetailedRouteResult result =
        flow::RouteDetailedOnGraph(*request.graph, request.width,
                                   route_options);
    r.status = result.status;
    r.tracks = result.tracks;
    if (!result.error.empty()) {
      r.ok = false;
      r.error = result.error;
    }
    r.solve_seconds = result.solve_seconds;
    r.encode_seconds += result.encode_seconds;
    r.cancelled = result.status == sat::SolveResult::kUnknown &&
                  cancel.load(std::memory_order_relaxed);
    m.Observe(id_solve_us_, Micros(result.solve_seconds));

    // kUnknown (timeout / cancel) is a fact about the budget, not the
    // instance — never cache it.
    if (options_.cache_verdicts &&
        result.status != sat::SolveResult::kUnknown) {
      auto entry = std::make_shared<VerdictEntry>();
      entry->status = result.status;
      entry->tracks = result.tracks;
      entry->cold_solve_seconds = result.solve_seconds;
      entry->cold_encode_seconds = r.encode_seconds;
      entry->graph = request.graph;
      const std::size_t bytes =
          sizeof(VerdictEntry) + entry->tracks.size() * sizeof(int);
      verdicts_.Insert(verdict_key, entry, bytes);
      summaries_.Publish(VerdictSummary{
          verdict_hash, static_cast<std::int32_t>(result.status),
          request.width, result.solve_seconds});
    }
  } while (false);
  if (ClaimSettle(pending)) PublishSettle(pending);
}

// --- sessions -------------------------------------------------------------

bool RoutingService::OpenSession(const std::string& client,
                                 std::shared_ptr<const graph::Graph> graph,
                                 int max_width, const std::string& encoding,
                                 const std::string& symmetry,
                                 std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (graph == nullptr) return fail("null graph");
  const std::optional<encode::EncodingSpec> spec =
      encode::FindEncoding(encoding);
  if (!spec.has_value()) return fail("unknown encoding: " + encoding);
  flow::RoutingSessionOptions session_options;
  session_options.encoding = *spec;
  if (!ParseSymmetry(symmetry, &session_options.heuristic)) {
    return fail("unknown symmetry heuristic: " + symmetry);
  }
  session_options.timeout_seconds = options_.timeout_seconds;
  session_options.run_label = client;

  auto session = std::make_shared<Session>();
  session->graph = graph;
  session->affinity = static_cast<int>(
      StableHash64(client) %
      static_cast<std::uint64_t>(scheduler_.num_workers()));
  session->session = std::make_unique<flow::RoutingSession>(
      *graph, max_width, session_options);
  if (!session->session->ok()) return fail(session->session->error());
  {
    mc::MutexLock lock(sessions_mutex_);
    sessions_[client] = std::move(session);
  }
  return true;
}

bool RoutingService::HasSession(const std::string& client) const {
  mc::MutexLock lock(sessions_mutex_);
  return sessions_.count(client) != 0;
}

void RoutingService::CloseSession(const std::string& client) {
  // An in-flight pump holds its own shared_ptr; dropping the map entry
  // only prevents new ops.
  mc::MutexLock lock(sessions_mutex_);
  sessions_.erase(client);
}

RoutingService::Ticket RoutingService::SubmitRipUp(const std::string& client,
                                                   graph::VertexId net) {
  SessionOp op;
  op.kind = RequestKind::kSessionRipUp;
  op.net = net;
  return SubmitSessionOp(client, std::move(op));
}

RoutingService::Ticket RoutingService::SubmitReroute(
    const std::string& client, graph::VertexId net,
    std::vector<graph::VertexId> conflicts) {
  SessionOp op;
  op.kind = RequestKind::kSessionReroute;
  op.net = net;
  op.conflicts = std::move(conflicts);
  return SubmitSessionOp(client, std::move(op));
}

RoutingService::Ticket RoutingService::SubmitSessionSolve(
    const std::string& client, int width) {
  SessionOp op;
  op.kind = RequestKind::kSessionSolve;
  op.width = width;
  return SubmitSessionOp(client, std::move(op));
}

RoutingService::Ticket RoutingService::SubmitSessionOp(
    const std::string& client, SessionOp op) {
  stat_session_ops_.fetch_add(1, std::memory_order_relaxed);
  metrics().Add(id_session_ops_);
  const Ticket ticket = NewTicket(op.kind, /*is_session_op=*/true);
  Pending* pending = PendingRef(ticket.id);
  std::shared_ptr<Session> session;
  {
    mc::MutexLock lock(sessions_mutex_);
    const auto it = sessions_.find(client);
    if (it != sessions_.end()) session = it->second;
  }
  if (session == nullptr) {
    if (ClaimSettle(*pending)) {
      pending->response.ok = false;
      pending->response.error = "no open session for client: " + client;
      PublishSettle(*pending);
    }
    return ticket;
  }
  op.ticket = ticket.id;
  bool need_pump;
  {
    mc::MutexLock lock(session->mutex);
    session->queue.push_back(std::move(op));
    need_pump = !session->pump_scheduled;
    session->pump_scheduled = true;
  }
  if (need_pump) {
    // Deltas outrank fresh routes (priority 1 > default 0): a client
    // blocked on a microsecond apply should not sit behind cold solves.
    scheduler_.Submit(
        [this, session](const mc::Atomic<bool>&) { PumpSession(session); },
        /*priority=*/1, session->affinity);
  }
  return ticket;
}

void RoutingService::PumpSession(const std::shared_ptr<Session>& session) {
  // Single pump per session at a time (pump_scheduled), so the
  // RoutingSession below is touched by exactly one thread here.
  for (;;) {
    SessionOp op;
    {
      mc::MutexLock lock(session->mutex);
      if (session->queue.empty()) {
        // Checked under the same lock submitters hold, so no op can slip
        // in between the emptiness check and the flag reset.
        session->pump_scheduled = false;
        return;
      }
      op = std::move(session->queue.front());
      session->queue.pop_front();
    }
    ExecuteSessionOp(*session, op);
  }
}

void RoutingService::ExecuteSessionOp(Session& session, const SessionOp& op) {
  Pending* pending = PendingRef(op.ticket);
  if (pending == nullptr || !ClaimSettle(*pending)) return;
  Response& r = pending->response;
  obs::MetricsRegistry& m = metrics();
  m.Observe(id_queue_us_, Micros(pending->submitted.Seconds()));
  if (pending->cancel_requested.load(std::memory_order_acquire)) {
    r.cancelled = true;
    r.ok = false;
    r.error = "cancelled before execution";
    PublishSettle(*pending);
    return;
  }
  flow::RoutingSession& routing_session = *session.session;
  switch (op.kind) {
    case RequestKind::kSessionRipUp: {
      Stopwatch apply_watch;
      r.ok = routing_session.RipUp(op.net);
      r.apply_seconds = apply_watch.Seconds();
      if (!r.ok) r.error = routing_session.error();
      m.Observe(id_apply_us_, Micros(r.apply_seconds));
      break;
    }
    case RequestKind::kSessionReroute: {
      Stopwatch apply_watch;
      r.ok = routing_session.Reroute(op.net, op.conflicts);
      r.apply_seconds = apply_watch.Seconds();
      if (!r.ok) r.error = routing_session.error();
      m.Observe(id_apply_us_, Micros(r.apply_seconds));
      break;
    }
    case RequestKind::kSessionSolve: {
      const int width =
          op.width > 0 ? op.width : routing_session.max_width();
      const flow::SessionSolveResult result = routing_session.Solve(width);
      r.status = result.status;
      r.tracks = result.tracks;
      r.solve_seconds = result.solve_seconds;
      if (!result.error.empty()) {
        r.ok = false;
        r.error = result.error;
      }
      m.Observe(id_solve_us_, Micros(result.solve_seconds));
      break;
    }
    case RequestKind::kRoute:
      r.ok = false;
      r.error = "internal: route request in session queue";
      break;
  }
  PublishSettle(*pending);
}

// --- introspection --------------------------------------------------------

ServiceStats RoutingService::stats() const {
  ServiceStats stats;
  stats.scheduler = scheduler_.stats();
  stats.verdicts = verdicts_.stats();
  stats.instances = instances_.stats();
  stats.requests = stat_requests_.load(std::memory_order_relaxed);
  stats.summary_hits = stat_summary_hits_.load(std::memory_order_relaxed);
  stats.session_ops = stat_session_ops_.load(std::memory_order_relaxed);
  {
    mc::MutexLock lock(sessions_mutex_);
    stats.sessions_open = sessions_.size();
  }
  return stats;
}

std::vector<analysis::CoherenceSample> RoutingService::SampleCoherence(
    std::size_t max_samples, std::uint64_t seed) const {
  std::vector<analysis::CoherenceSample> samples;
  for (const auto& entry : verdicts_.Sample(max_samples, seed)) {
    if (entry.value == nullptr || entry.value->graph == nullptr) continue;
    analysis::CoherenceSample sample;
    sample.key = entry.key.ToString();
    sample.cached_verdict = sat::ToString(entry.value->status);
    sample.hit_count = entry.hits;

    flow::DetailedRouteOptions route_options;
    route_options.encoding = encode::GetEncoding(entry.key.encoding);
    symmetry::Heuristic heuristic = symmetry::Heuristic::kNone;
    ParseSymmetry(entry.key.symmetry, &heuristic);
    route_options.heuristic = heuristic;
    sat::SolverOptions preset;
    ParseSolverPreset(entry.key.solver, &preset);
    route_options.solver = preset;
    route_options.timeout_seconds = options_.timeout_seconds;
    route_options.run_label = "coherence:" + entry.key.ToString();
    const flow::DetailedRouteResult fresh = flow::RouteDetailedOnGraph(
        *entry.value->graph, entry.key.width, route_options);
    sample.fresh_verdict = sat::ToString(fresh.status);
    if (entry.value->status == sat::SolveResult::kSat) {
      sample.tracks_checked = true;
      sample.tracks_valid = entry.value->graph->IsProperColoring(
          entry.value->tracks, entry.key.width);
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

}  // namespace satfr::service
