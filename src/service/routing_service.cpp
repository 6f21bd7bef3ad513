#include "service/routing_service.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "encode/registry.h"
#include "flow/detailed_router.h"
#include "symmetry/symmetry.h"

namespace satfr::service {
namespace {

std::uint64_t Micros(double seconds) {
  return seconds <= 0.0 ? 0
                        : static_cast<std::uint64_t>(seconds * 1e6 + 0.5);
}

}  // namespace

RoutingService::RoutingService(const ServiceOptions& options)
    : options_(options),
      verdicts_(options.verdict_cache),
      scheduler_(options.scheduler) {
  obs::MetricsRegistry& m = metrics();
  id_requests_ = m.Counter("service.requests");
  id_session_ops_ = m.Counter("service.session_ops");
  id_verdict_hits_ = m.Counter("service.verdict_hits");
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

std::pair<RoutingService::Ticket, std::shared_ptr<RoutingService::Pending>>
RoutingService::NewTicket(RequestKind kind) {
  auto pending = std::make_shared<Pending>();
  pending->response.kind = kind;
  mc::MutexLock lock(pending_mutex_);
  const Ticket ticket{next_ticket_++};
  pending_.emplace(ticket.id, pending);
  ++unsettled_;
  return {ticket, std::move(pending)};
}

std::shared_ptr<RoutingService::Pending> RoutingService::PendingRef(
    std::uint64_t id) const {
  mc::MutexLock lock(pending_mutex_);
  const auto it = pending_.find(id);
  return it == pending_.end() ? nullptr : it->second;
}

void RoutingService::Settle(Pending& pending) {
  pending.response.latency_seconds = pending.submitted.Seconds();
  metrics().Observe(id_latency_us_, Micros(pending.response.latency_seconds));
  mc::MutexLock lock(pending_mutex_);
  assert(!pending.settled && "a ticket has exactly one settler");
  pending.settled = true;
  --unsettled_;
  settled_cv_.notify_all();
}

void RoutingService::SettleCancelled(Pending& pending) {
  Response& r = pending.response;
  r.cancelled = true;
  r.ok = false;
  r.status = sat::SolveResult::kUnknown;
  r.error = "cancelled before execution";
  Settle(pending);
}

RoutingService::Ticket RoutingService::Submit(RouteRequest request) {
  const std::uint64_t fingerprint =
      request.graph != nullptr ? FingerprintGraph(*request.graph) : 0;
  stat_requests_.fetch_add(1, std::memory_order_relaxed);
  metrics().Add(id_requests_);
  const auto [ticket, pending] = NewTicket(RequestKind::kRoute);
  auto shared = std::make_shared<RouteRequest>(std::move(request));
  pending->job = scheduler_.Submit(
      [this, shared, fingerprint,
       slot = pending](const mc::Atomic<bool>& stop) {
        ExecuteRoute(*shared, fingerprint, *slot, stop);
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

Response RoutingService::Wait(Ticket ticket) {
  mc::MutexLock lock(pending_mutex_);
  const auto it = pending_.find(ticket.id);
  if (it == pending_.end()) {
    Response invalid;
    invalid.ok = false;
    invalid.error = "invalid ticket";
    return invalid;
  }
  // Keep the slot alive across the wait: the entry is erased only here.
  const std::shared_ptr<Pending> pending = it->second;
  while (!pending->settled) settled_cv_.wait(pending_mutex_);
  // By key: submissions during the wait may have rehashed the table.
  pending_.erase(ticket.id);
  // The settler is done with the response once `settled` is published.
  return std::move(pending->response);
}

bool RoutingService::Cancel(Ticket ticket) {
  const std::shared_ptr<Pending> pending = PendingRef(ticket.id);
  if (pending == nullptr) return false;
  if (pending->response.kind == RequestKind::kRoute) {
    // Either the job never runs (true), or its stop flag is now set and the
    // in-flight solver aborts cooperatively (false).
    if (!scheduler_.Cancel(pending->job)) return false;
  } else {
    // A session op is cancellable while it waits in its session's queue;
    // the pump owns it once popped.
    const std::shared_ptr<Session> session = pending->session.lock();
    if (session == nullptr) return false;
    mc::MutexLock lock(session->mutex);
    const auto queued = std::find_if(
        session->queue.begin(), session->queue.end(),
        [&ticket](const SessionOp& op) { return op.ticket == ticket.id; });
    if (queued == session->queue.end()) return false;
    session->queue.erase(queued);
  }
  SettleCancelled(*pending);
  return true;
}

void RoutingService::Drain() {
  scheduler_.WaitIdle();
  mc::MutexLock lock(pending_mutex_);
  while (unsettled_ > 0) settled_cv_.wait(pending_mutex_);
}

void RoutingService::ExecuteRoute(const RouteRequest& request,
                                  std::uint64_t fingerprint, Pending& pending,
                                  const mc::Atomic<bool>& stop) {
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
    const std::optional<symmetry::Heuristic> heuristic =
        symmetry::HeuristicFromName(request.symmetry);
    if (!heuristic.has_value()) {
      r.ok = false;
      r.error = "unknown symmetry heuristic: " + request.symmetry;
      break;
    }
    const std::optional<sat::SolverOptions> preset =
        sat::FindSolverPreset(request.solver);
    if (!preset.has_value()) {
      r.ok = false;
      r.error = "unknown solver preset: " + request.solver;
      break;
    }

    const CacheKey verdict_key{request.graph,    fingerprint,
                               request.width,    request.encoding,
                               request.symmetry, request.solver};
    if (options_.cache_verdicts) {
      if (const auto verdict = verdicts_.Lookup(verdict_key)) {
        r.status = verdict->status;
        r.tracks = verdict->tracks;
        r.verdict_hit = true;
        m.Add(id_verdict_hits_);
        break;
      }
    }

    flow::DetailedRouteOptions route_options;
    route_options.encoding = *spec;
    route_options.heuristic = *heuristic;
    route_options.solver = *preset;
    route_options.timeout_seconds = request.timeout_seconds >= 0.0
                                        ? request.timeout_seconds
                                        : options_.timeout_seconds;
    route_options.stop = &stop;
    route_options.run_label = request.label;
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
    r.encode_seconds = result.encode_seconds;
    r.cancelled = result.status == sat::SolveResult::kUnknown &&
                  stop.load(std::memory_order_relaxed);
    m.Observe(id_solve_us_, Micros(result.solve_seconds));

    // kUnknown (timeout / cancel) is a fact about the budget, not the
    // instance — never cache it.
    if (options_.cache_verdicts &&
        result.status != sat::SolveResult::kUnknown) {
      auto entry = std::make_shared<VerdictEntry>();
      entry->status = result.status;
      entry->tracks = result.tracks;
      const std::size_t bytes =
          sizeof(VerdictEntry) + entry->tracks.size() * sizeof(int);
      verdicts_.Insert(verdict_key, entry, bytes);
    }
  } while (false);
  Settle(pending);
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
  const std::optional<symmetry::Heuristic> heuristic =
      symmetry::HeuristicFromName(symmetry);
  if (!heuristic.has_value()) {
    return fail("unknown symmetry heuristic: " + symmetry);
  }
  flow::RoutingSessionOptions session_options;
  session_options.encoding = *spec;
  session_options.heuristic = *heuristic;
  session_options.timeout_seconds = options_.timeout_seconds;
  session_options.run_label = client;

  auto session = std::make_shared<Session>();
  session->graph = graph;
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
  const auto [ticket, pending] = NewTicket(op.kind);
  std::shared_ptr<Session> session;
  {
    mc::MutexLock lock(sessions_mutex_);
    const auto it = sessions_.find(client);
    if (it != sessions_.end()) session = it->second;
  }
  if (session == nullptr) {
    pending->response.ok = false;
    pending->response.error = "no open session for client: " + client;
    Settle(*pending);
    return ticket;
  }
  pending->session = session;
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
        /*priority=*/1);
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
  // Still held: only Wait releases a ticket, and only once it is settled.
  const std::shared_ptr<Pending> pending = PendingRef(op.ticket);
  Response& r = pending->response;
  obs::MetricsRegistry& m = metrics();
  m.Observe(id_queue_us_, Micros(pending->submitted.Seconds()));
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
  Settle(*pending);
}

// --- introspection --------------------------------------------------------

ServiceStats RoutingService::stats() const {
  ServiceStats stats;
  stats.scheduler = scheduler_.stats();
  stats.verdicts = verdicts_.stats();
  stats.requests = stat_requests_.load(std::memory_order_relaxed);
  stats.session_ops = stat_session_ops_.load(std::memory_order_relaxed);
  {
    mc::MutexLock lock(pending_mutex_);
    stats.tickets_held = pending_.size();
  }
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
    if (entry.value == nullptr || entry.key.graph == nullptr) continue;
    analysis::CoherenceSample sample;
    sample.key = entry.key.ToString();
    sample.cached_verdict = sat::ToString(entry.value->status);
    sample.hit_count = entry.hits;

    flow::DetailedRouteOptions route_options;
    // Every name in a verdict key was resolved before the entry was cached.
    route_options.encoding = encode::GetEncoding(entry.key.encoding);
    route_options.heuristic = *symmetry::HeuristicFromName(entry.key.symmetry);
    route_options.solver = *sat::FindSolverPreset(entry.key.solver);
    route_options.timeout_seconds = options_.timeout_seconds;
    route_options.run_label = "coherence:" + entry.key.ToString();
    const flow::DetailedRouteResult fresh = flow::RouteDetailedOnGraph(
        *entry.key.graph, entry.key.width, route_options);
    sample.fresh_verdict = sat::ToString(fresh.status);
    if (entry.value->status == sat::SolveResult::kSat) {
      sample.tracks_checked = true;
      sample.tracks_valid = entry.key.graph->IsProperColoring(
          entry.value->tracks, entry.key.width);
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

}  // namespace satfr::service
