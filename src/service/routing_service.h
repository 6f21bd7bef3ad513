// The long-lived routing service (DESIGN.md §15): batched asynchronous
// routing queries over a worker pool, answered through one verdict cache,
// with per-client incremental sessions.
//
// Request path:
//
//   1. Verdict-cache hit (one shard mutex) — answers any repeat query.
//   2. Miss — flow::RouteDetailedOnGraph streams the encoder straight into
//      a fresh solver (no intermediate Cnf is built or kept), solves, and
//      the verdict is inserted.
//
// The verdict cache keys on the conflict graph itself (CacheKey), hashed by
// its fingerprint, so a hit is always an answer for an equal graph.
//
// Every miss goes through flow::RouteDetailedOnGraph, so the service
// inherits the flow's telemetry (trace spans, run records, flow.solves) and
// its timeout/stop handling; the scheduler's per-job stop atomic IS the
// solver stop flag.
//
// Sessions: a client that opens a session gets a resident
// flow::RoutingSession. Session ops (rip-up / re-route / solve) are FIFO
// per client — they enter a per-session queue drained by at most one
// "pump" job at a time (priority 1, ahead of fresh routes), so deltas
// apply in order on the warm solver, on whichever worker is free.
// kUnknown answers (timeout / cancel) are never cached.
//
// Every ticket is settled exactly once — its response written, then
// published under one mutex — by the worker that ran it or by the Cancel
// that removed it from its queue. Wait and Drain block on that mutex's
// condition variable; nothing polls. Wait hands the response out by value
// and releases the ticket, so the ticket table holds only tickets nobody
// has collected yet.
#ifndef SATFR_SERVICE_ROUTING_SERVICE_H_
#define SATFR_SERVICE_ROUTING_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/pass.h"
#include "common/stopwatch.h"
#include "flow/routing_session.h"
#include "graph/graph.h"
#include "mc/annotations.h"
#include "mc/shim.h"
#include "obs/metrics.h"
#include "sat/solver.h"
#include "service/cache.h"
#include "service/scheduler.h"

namespace satfr::service {

struct ServiceOptions {
  SchedulerOptions scheduler;
  CacheTierOptions verdict_cache{/*num_shards=*/8,
                                 /*max_entries_per_shard=*/256,
                                 /*max_bytes_per_shard=*/8u << 20};
  bool cache_verdicts = true;
  /// Accepted and ignored: there is no instance tier, every miss streams
  /// its encoding into the solver. Stays only because perfbench's
  /// service_mix still sets it; the benchmark change of ROADMAP item 1
  /// removes that last writer, and this field with it.
  bool cache_instances = true;
  /// Per-request wall-clock budget (overridable per request); <= 0 means
  /// unlimited.
  double timeout_seconds = 0.0;
  /// Metrics sink; null means obs::GlobalMetrics(). Benchmarks point each
  /// phase at its own registry for clean per-phase histograms.
  obs::MetricsRegistry* metrics = nullptr;
};

struct RouteRequest {
  /// Telemetry label (benchmark name); empty is fine.
  std::string label;
  std::shared_ptr<const graph::Graph> graph;
  int width = 0;
  std::string encoding = "muldirect";
  std::string symmetry = "none";
  std::string solver = "siege";  // "siege" or "minisat"
  int priority = 0;
  double timeout_seconds = -1.0;  // < 0: use ServiceOptions::timeout_seconds
};

/// What kind of work a ticket tracks.
enum class RequestKind { kRoute, kSessionRipUp, kSessionReroute, kSessionSolve };

struct Response {
  RequestKind kind = RequestKind::kRoute;
  sat::SolveResult status = sat::SolveResult::kUnknown;
  /// Track assignment; filled on kSat (route: per 2-pin net; session
  /// solve: per net, -1 for inactive nets).
  std::vector<int> tracks;
  /// Submit-to-completion wall time (queueing included).
  double latency_seconds = 0.0;
  double solve_seconds = 0.0;
  double encode_seconds = 0.0;
  /// Session delta ops: emission/apply cost inside the resident solver.
  double apply_seconds = 0.0;
  bool verdict_hit = false;   // answered by the verdict tier
  /// Always false (there is no instance tier). Stays only because
  /// perfbench's service_mix still reads it; the benchmark change of
  /// ROADMAP item 1 removes that last reader, and this field with it.
  bool instance_hit = false;
  bool cancelled = false;
  bool ok = true;             // false: malformed request / session error
  std::string error;
};

struct ServiceStats {
  SchedulerStats scheduler;
  CacheTierStats verdicts;
  /// Always zero (there is no instance tier). Stays only because
  /// perfbench's service_mix still reads `instances.hits`; the benchmark
  /// change of ROADMAP item 1 removes that last reader, and this field
  /// with it.
  CacheTierStats instances;
  std::uint64_t requests = 0;
  /// Always 0: every repeat is answered by the verdict tier. The field stays
  /// only because perfbench's service_mix still reads it; the benchmark
  /// change of ROADMAP item 1 removes that last reader, and this field
  /// with it.
  std::uint64_t summary_hits = 0;
  std::uint64_t session_ops = 0;
  std::uint64_t sessions_open = 0;
  /// Tickets issued but not yet collected by Wait; a ticket nobody waits
  /// on stays held until the service is destroyed.
  std::uint64_t tickets_held = 0;
};

class RoutingService {
 public:
  struct Ticket {
    static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
    std::uint64_t id = kInvalid;
    bool valid() const { return id != kInvalid; }
  };

  explicit RoutingService(const ServiceOptions& options = {});
  /// Drains in-flight work (pending jobs are cancelled by the scheduler).
  ~RoutingService();

  RoutingService(const RoutingService&) = delete;
  RoutingService& operator=(const RoutingService&) = delete;

  /// Enqueues one routing query; never blocks on the solve.
  Ticket Submit(RouteRequest request);
  /// Batch submission: the whole batch is enqueued before any result is
  /// awaited, so N requests share the pool instead of serializing.
  std::vector<Ticket> SubmitBatch(std::vector<RouteRequest> requests);

  /// Blocks until the ticket's work finished (or was cancelled), then
  /// hands out its response and releases the ticket: a second Wait on it
  /// answers "invalid ticket", and Cancel on it returns false.
  Response Wait(Ticket ticket);
  /// Cancels: a queued request or session op never runs (true); a running
  /// route gets its stop flag (the solver aborts at its next check and
  /// reports kUnknown). A running or finished session op is not stopped.
  bool Cancel(Ticket ticket);
  /// Blocks until every submitted ticket is settled and every job has
  /// finished.
  void Drain();

  // --- sessions -----------------------------------------------------------
  /// Opens (or replaces) `client`'s session: encodes `graph` once at
  /// `max_width` into a resident solver, synchronously on the calling
  /// thread; subsequent ops run on the worker pool, one at a time. False
  /// (with *error) when session construction failed.
  bool OpenSession(const std::string& client,
                   std::shared_ptr<const graph::Graph> graph, int max_width,
                   const std::string& encoding, const std::string& symmetry,
                   std::string* error = nullptr);
  bool HasSession(const std::string& client) const;
  void CloseSession(const std::string& client);

  /// FIFO per client: ops apply in submission order on the resident
  /// session.
  Ticket SubmitRipUp(const std::string& client, graph::VertexId net);
  Ticket SubmitReroute(const std::string& client, graph::VertexId net,
                       std::vector<graph::VertexId> conflicts);
  /// `width` <= 0 solves at the session's max width.
  Ticket SubmitSessionSolve(const std::string& client, int width);

  // --- introspection ------------------------------------------------------
  ServiceStats stats() const;
  int num_workers() const { return scheduler_.num_workers(); }

  /// Re-solves up to `max_samples` verdict-cache entries fresh (no cache,
  /// same flow) and reports agreement — the input of the
  /// service-cache-coherence satlint pass. Synchronous on the caller.
  std::vector<analysis::CoherenceSample> SampleCoherence(
      std::size_t max_samples, std::uint64_t seed = 1) const;

 private:
  /// A cached verdict; its key holds the graph it answered for.
  struct VerdictEntry {
    sat::SolveResult status = sat::SolveResult::kUnknown;
    std::vector<int> tracks;
  };

  struct SessionOp {
    RequestKind kind = RequestKind::kSessionSolve;
    graph::VertexId net = 0;
    std::vector<graph::VertexId> conflicts;
    int width = 0;
    std::uint64_t ticket = 0;
  };

  struct Session {
    std::unique_ptr<flow::RoutingSession> session;
    std::shared_ptr<const graph::Graph> graph;
    mc::Mutex mutex;
    std::deque<SessionOp> queue SATFR_GUARDED_BY(mutex);
    bool pump_scheduled SATFR_GUARDED_BY(mutex) = false;
  };

  struct Pending {
    Response response;
    Stopwatch submitted;
    JobScheduler::Handle job;        // route tickets
    std::weak_ptr<Session> session;  // session-op tickets
    // Written once, under pending_mutex_, by the one party that wrote
    // `response`; Wait reads the response only after seeing it.
    bool settled = false;
  };

  obs::MetricsRegistry& metrics() const;
  /// Issues a ticket and returns its slot; the slot is shared so that a
  /// worker or a Cancel holding it outlives the Wait that releases it.
  std::pair<Ticket, std::shared_ptr<Pending>> NewTicket(RequestKind kind);
  /// Null once the ticket was collected by Wait (or was never issued).
  std::shared_ptr<Pending> PendingRef(std::uint64_t id) const;
  /// Records latency metrics and makes the response visible to Wait. The
  /// caller is the ticket's only writer: the worker that ran it, or the
  /// Cancel that removed it from its queue.
  void Settle(Pending& pending);
  /// Settles a ticket removed from its queue before it ran.
  void SettleCancelled(Pending& pending);
  Ticket SubmitSessionOp(const std::string& client, SessionOp op);
  void PumpSession(const std::shared_ptr<Session>& session);
  /// `fingerprint` is FingerprintGraph(*request.graph), taken at Submit.
  void ExecuteRoute(const RouteRequest& request, std::uint64_t fingerprint,
                    Pending& pending, const mc::Atomic<bool>& stop);
  void ExecuteSessionOp(Session& session, const SessionOp& op);

  const ServiceOptions options_;
  ShardedLruCache<VerdictEntry> verdicts_;

  // Guards the ticket table and every ticket's `settled` flag;
  // settled_cv_ is notified under it whenever a ticket settles.
  mutable mc::Mutex pending_mutex_;
  std::condition_variable_any settled_cv_;
  // Issued, not yet collected tickets; Wait erases its ticket's entry.
  std::unordered_map<std::uint64_t, std::shared_ptr<Pending>> pending_
      SATFR_GUARDED_BY(pending_mutex_);
  std::uint64_t next_ticket_ SATFR_GUARDED_BY(pending_mutex_) = 0;
  std::uint64_t unsettled_ SATFR_GUARDED_BY(pending_mutex_) = 0;

  mutable mc::Mutex sessions_mutex_;
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_
      SATFR_GUARDED_BY(sessions_mutex_);

  mc::Atomic<std::uint64_t> stat_requests_{0};
  mc::Atomic<std::uint64_t> stat_session_ops_{0};

  // Resolved once against metrics() (service.* namespace); latencies in µs.
  obs::MetricId id_requests_;
  obs::MetricId id_session_ops_;
  obs::MetricId id_verdict_hits_;
  obs::MetricId id_latency_us_;
  obs::MetricId id_queue_us_;
  obs::MetricId id_solve_us_;
  obs::MetricId id_apply_us_;

  // Last member: workers touch everything above, so the scheduler (and its
  // threads) must be destroyed first.
  JobScheduler scheduler_;
};

}  // namespace satfr::service

#endif  // SATFR_SERVICE_ROUTING_SERVICE_H_
