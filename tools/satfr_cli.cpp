// satfr — command-line front end for the SAT-based FPGA detailed routing
// flow and its building blocks.
//
//   satfr benchmarks                       list the synthetic MCNC suite
//   satfr encodings                        list the registered encodings
//   satfr prove  <benchmark> [opts]        find W*, prove W*-1 unroutable
//   satfr route  <benchmark> --width W     route at a fixed channel width
//   satfr replay <benchmark> <trace>       drive a long-lived incremental
//                                          RoutingSession from a rip-up /
//                                          re-route trace file (see below)
//   satfr export <benchmark> [opts]        write .col / .cnf artifacts
//   satfr solve  <file.cnf> [opts]         run the CDCL solver on DIMACS CNF
//   satfr color  <file.col> --width K      K-color a DIMACS graph via SAT
//   satfr route-file <file.net> [opts]     full flow on a placed-netlist
//                                          file (optionally --routing FILE
//                                          to reuse a saved global routing,
//                                          --save-routing FILE to save one)
//   satfr serve <trace>                    drive the batched routing
//                                          service from a traffic trace
//                                          file (see below); --workers N
//                                          sizes the pool, --selfcheck
//                                          audits the verdict cache against
//                                          fresh solves at shutdown;
//                                          --encoding/--sym (default
//                                          ITE-linear-2+muldirect, s1) apply
//                                          to every route and session,
//                                          --solver (default siege) to every
//                                          route
//
// Common options (an unknown --encoding, --sym or --solver name exits 2):
//   --encoding NAME   (default ITE-linear-2+muldirect; see `satfr encodings`)
//   --sym b1|s1|none  (default s1)
//   --solver siege|minisat  (default siege)
//   --timeout SECONDS (default 300)
//   --width N
//   --selfcheck       (serve only) see serve above; every other command
//                     exits 2 naming the satlint subcommand that lints its
//                     formula (`satlint encode <bench> --width W`,
//                     `satlint col`, `satlint cnf`); route-file has none
//   --dimacs-out FILE (export only) stream the CNF to FILE instead of the
//                     default <benchmark>_w<W>.cnf; the formula goes to
//                     disk clause by clause and is never held in memory
//   --cube            (route --width W only) cube-and-conquer: split the
//                     width into cubes solved by a worker pool with work
//                     stealing. The width searches (prove, route-file) are
//                     monolithic and reject --cube
//   --workers N       (with --cube) worker-pool size (default 4)
//   --cubes N         (with --cube) cube-count target (default 256)
//   --deterministic   (with --cube) pin cube order, disable stealing;
//                     single-worker runs become bit-reproducible
//
// Replay trace format (one event per line; `#` starts a comment):
//   ripup N             deactivate net N (its conflict edges disappear)
//   reroute N p1 p2...  (re-)activate net N conflicting with nets p1 p2...
//   solve [W]           solve the current state at width W (default:
//                       --width, else the benchmark's peak congestion)
// Each delta flips assumptions on the resident solver — nothing is
// re-extracted or re-encoded — and the run ends with a per-delta latency
// summary (p50/p99) plus the session's lifetime counters.
//
// Serve trace format (one event per line; `#` starts a comment):
//   route <benchmark> <width> [k=v...]  submit one routing query; optional
//                       k=v tokens: prio=N (scheduler priority), enc=NAME,
//                       sym=b1|s1|none, solver=siege|minisat override
//                       --encoding/--sym/--solver for this route
//   session <client> <benchmark> [maxwidth]  open an incremental session
//                       for <client> under --encoding/--sym (encoded once;
//                       its ops run in order); maxwidth defaults to the
//                       larger of the DSATUR width and the peak congestion,
//                       as in `replay`
//   ripup <client> <net>                rip up net in the client's session
//   reroute <client> <net> [p1 p2...]   re-route net against partners
//   solve <client> [width]              solve the client's session state
//   wait                                barrier: settle everything queued
//                                       so far and print the results
// Routing queries are submitted asynchronously — everything between two
// `wait` lines runs as one batch on the worker pool. The run ends with a
// throughput/latency summary and the cache hit counters.
//
// Telemetry (all commands; each is independent and off by default):
//   --trace-out FILE  write a Chrome trace_event JSON timeline (open in
//                     Perfetto / chrome://tracing): encode/solve spans per
//                     width, per-restart solver phase sub-spans, cube-worker
//                     swimlanes
//   --report FILE     append one structured JSONL record per solve
//                     (verdict, timings, solver window counters, learnt-DB
//                     shape, cube counters); lint it with
//                     `satlint report FILE`
//   --metrics-out FILE  write the global metrics registry snapshot as JSON
//                     at exit
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/runner.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "cube/cube_solver.h"
#include "encode/registry.h"
#include "flow/conflict_graph.h"
#include "flow/detailed_router.h"
#include "flow/min_width.h"
#include "flow/routing_session.h"
#include "flow/track_checker.h"
#include "graph/coloring_bounds.h"
#include "graph/dimacs_col.h"
#include "netlist/mcnc_suite.h"
#include "netlist/netlist_io.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "route/global_router.h"
#include "route/routing_io.h"
#include "sat/clause_sink.h"
#include "sat/dimacs.h"
#include "sat/solver.h"
#include "service/routing_service.h"
#include "symmetry/symmetry.h"

namespace {

using namespace satfr;

struct CliOptions {
  std::string encoding = "ITE-linear-2+muldirect";
  std::string sym = "s1";
  std::string solver = "siege";
  // The three names above, resolved by ParseArgs.
  encode::EncodingSpec encoding_spec;
  symmetry::Heuristic heuristic = symmetry::Heuristic::kS1;
  sat::SolverOptions solver_options;
  std::string routing_file;
  std::string save_routing_file;
  std::string dimacs_out;
  std::string trace_out;
  std::string metrics_out;
  std::string report;
  double timeout = 300.0;
  int width = -1;
  bool selfcheck = false;
  bool cube = false;
  int workers = 4;
  int cubes = 256;
  bool deterministic = false;
  std::vector<std::string> positional;
};

[[noreturn]] void Usage() {
  std::fprintf(
      stderr,
      "usage: satfr "
      "<benchmarks|encodings|prove|route|replay|export|solve|color|serve> "
      "[args]\n"
      "  see the header of tools/satfr_cli.cpp or README.md for details\n");
  std::exit(2);
}

CliOptions ParseArgs(int argc, char** argv) {
  CliOptions opts;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    // A malformed number exits 2 naming the flag; argv[i] is the value
    // next() just consumed.
    auto bad_value = [&](const char* expected) {
      std::fprintf(stderr, "%s: '%s' is not %s\n", arg.c_str(), argv[i],
                   expected);
      std::exit(2);
    };
    auto next_int = [&](int min_value = std::numeric_limits<int>::min()) {
      const std::optional<int> value = ParseInt(next(), min_value);
      if (!value) {
        bad_value(min_value == 1 ? "an integer >= 1" : "an integer");
      }
      return *value;
    };
    if (arg == "--encoding") {
      opts.encoding = next();
    } else if (arg == "--sym") {
      opts.sym = next();
    } else if (arg == "--solver") {
      opts.solver = next();
    } else if (arg == "--timeout") {
      const std::optional<double> timeout = ParseDouble(next());
      if (!timeout) bad_value("a number of seconds");
      opts.timeout = *timeout;
    } else if (arg == "--width") {
      opts.width = next_int();
    } else if (arg == "--routing") {
      opts.routing_file = next();
    } else if (arg == "--save-routing") {
      opts.save_routing_file = next();
    } else if (arg == "--dimacs-out") {
      opts.dimacs_out = next();
    } else if (arg == "--trace-out") {
      opts.trace_out = next();
    } else if (arg == "--metrics-out") {
      opts.metrics_out = next();
    } else if (arg == "--report") {
      opts.report = next();
    } else if (arg == "--selfcheck") {
      opts.selfcheck = true;
    } else if (arg == "--cube") {
      opts.cube = true;
    } else if (arg == "--workers") {
      opts.workers = next_int(1);
    } else if (arg == "--cubes") {
      opts.cubes = next_int(1);
    } else if (arg == "--deterministic") {
      opts.deterministic = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      Usage();
    } else {
      opts.positional.push_back(arg);
    }
  }
  // Name-valued flags resolve here, once, so no command can abort or fall
  // back to a default on a name it does not know.
  auto unknown_name = [](const char* flag, const std::string& value,
                         const char* expected) {
    std::fprintf(stderr, "%s: unknown name '%s' (expected %s)\n", flag,
                 value.c_str(), expected);
    std::exit(2);
  };
  if (const auto spec = encode::FindEncoding(opts.encoding)) {
    opts.encoding_spec = *spec;
  } else {
    unknown_name("--encoding", opts.encoding,
                 "a name listed by `satfr encodings`");
  }
  if (const auto heuristic = symmetry::HeuristicFromName(opts.sym)) {
    opts.heuristic = *heuristic;
  } else {
    unknown_name("--sym", opts.sym, "b1, s1 or none");
  }
  if (const auto preset = sat::FindSolverPreset(opts.solver)) {
    opts.solver_options = *preset;
  } else {
    unknown_name("--solver", opts.solver, "siege or minisat");
  }
  return opts;
}

flow::DetailedRouteOptions ToRouteOptions(const CliOptions& opts) {
  flow::DetailedRouteOptions route;
  route.encoding = opts.encoding_spec;
  route.heuristic = opts.heuristic;
  route.solver = opts.solver_options;
  route.timeout_seconds = opts.timeout;
  if (!opts.positional.empty()) route.run_label = opts.positional[0];
  return route;
}

// Installs the global telemetry sinks for the process (when requested) and
// flushes the file-shaped ones at scope exit. Commands just pull
// GlobalTrace()/GlobalReport() — a run without these flags costs them two
// null loads per solve.
class TelemetrySession {
 public:
  explicit TelemetrySession(const CliOptions& opts)
      : trace_path_(opts.trace_out), metrics_path_(opts.metrics_out) {
    if (!trace_path_.empty()) {
      trace_ = std::make_unique<obs::TraceWriter>();
      obs::SetGlobalTrace(trace_.get());
    }
    if (!opts.report.empty()) {
      report_ = std::make_unique<obs::RunReportWriter>(opts.report);
      if (!report_->ok()) {
        std::fprintf(stderr, "cannot open report file '%s'\n",
                     opts.report.c_str());
        report_.reset();
      } else {
        obs::SetGlobalReport(report_.get());
      }
    }
  }

  ~TelemetrySession() {
    obs::SetGlobalTrace(nullptr);
    obs::SetGlobalReport(nullptr);
    std::string error;
    if (trace_ != nullptr && !trace_->WriteFile(trace_path_, &error)) {
      std::fprintf(stderr, "trace write failed: %s\n", error.c_str());
    }
    if (!metrics_path_.empty() &&
        !obs::WriteJsonFile(metrics_path_,
                            obs::GlobalMetrics().Snapshot().ToJson(),
                            &error)) {
      std::fprintf(stderr, "metrics write failed: %s\n", error.c_str());
    }
    if (report_ != nullptr) {
      std::fprintf(stderr, "report: %zu record(s) -> %s\n",
                   report_->records_written(), report_->path().c_str());
    }
  }

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::unique_ptr<obs::TraceWriter> trace_;
  std::unique_ptr<obs::RunReportWriter> report_;
};

// Cube-and-conquer is an explicit backend for one fixed width; the width
// searches are monolithic. Returns the exit code for a rejected --cube.
int RejectCube(const char* command) {
  std::fprintf(stderr,
               "satfr %s: --cube is not supported here; the cube backend "
               "is `satfr route <bench> --width W --cube`\n",
               command);
  return 2;
}

// --selfcheck audits the service's verdict cache; the formula linters are
// satlint's. Returns the exit code for a rejected --selfcheck.
int RejectSelfcheck(const std::string& command) {
  if (command == "route-file") {
    std::fprintf(stderr,
                 "satfr route-file: --selfcheck is a `serve` option; satlint "
                 "lints a benchmark name, a .col or a .cnf, and a "
                 "placed-netlist file has no lint entry point yet\n");
    return 2;
  }
  const char* lint = "satlint encode <bench> --width W";
  if (command == "color") lint = "satlint col <file.col> --width K";
  if (command == "solve") lint = "satlint cnf <file.cnf>";
  if (command == "replay") lint = "satlint encode <bench> --grouped";
  std::fprintf(stderr,
               "satfr %s: --selfcheck is a `serve` option; lint the "
               "formula with `%s`\n",
               command.c_str(), lint);
  return 2;
}

// Prints a failed model check; true when there was one.
bool ReportError(const std::string& error) {
  if (error.empty()) return false;
  std::printf("INTERNAL ERROR: %s\n", error.c_str());
  return true;
}

struct LoadedBenchmark {
  fpga::Arch arch{1};
  route::GlobalRouting routing;
  graph::Graph conflict;
  int peak = 0;
};

LoadedBenchmark LoadBenchmark(const std::string& name) {
  const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark(name);
  LoadedBenchmark loaded;
  loaded.arch = fpga::Arch(bench.params.grid_size);
  const fpga::DeviceGraph device(loaded.arch);
  loaded.routing =
      route::RouteGlobally(device, bench.netlist, bench.placement);
  loaded.conflict = flow::BuildConflictGraph(loaded.arch, loaded.routing);
  loaded.peak = route::PeakCongestion(loaded.arch, loaded.routing);
  return loaded;
}

// The max width of a session opened without an explicit one (`replay`,
// and `serve`'s `session` op): the DSATUR width, which certifies that a
// routing exists, and never below `floor` (the requested width, else the
// peak congestion). A solve at the session's max width therefore answers
// SAT and decodes a model.
int SessionMaxWidth(const graph::Graph& conflict, int floor) {
  return std::max(
      {1, floor, graph::NumColorsUsed(graph::DsaturColoring(conflict))});
}

int CmdBenchmarks() {
  std::printf("%-12s %6s %6s %10s\n", "name", "grid", "nets", "2-pin");
  for (const std::string& name : netlist::AllBenchmarkNames()) {
    const netlist::McncBenchmark bench =
        netlist::GenerateMcncBenchmark(name);
    std::printf("%-12s %6d %6d %10d\n", name.c_str(),
                bench.params.grid_size, bench.netlist.num_nets(),
                bench.netlist.NumTwoPinConnections());
  }
  return 0;
}

int CmdEncodings() {
  for (const encode::EncodingSpec& spec : encode::AllEncodings()) {
    const encode::DomainEncoding d13 = EncodeDomain(spec, 13);
    std::printf("%-26s  levels=%zu  vars@K13=%d\n", spec.name.c_str(),
                spec.levels.size(), d13.num_vars);
  }
  return 0;
}

int CmdProve(const CliOptions& opts) {
  if (opts.positional.empty()) Usage();
  if (opts.cube) return RejectCube("prove");
  const LoadedBenchmark loaded = LoadBenchmark(opts.positional[0]);
  flow::MinWidthOptions mw;
  mw.route = ToRouteOptions(opts);
  const flow::MinWidthResult result =
      flow::FindMinimumWidthOnGraph(loaded.conflict, loaded.peak, mw);
  if (ReportError(result.error)) return 1;
  if (result.min_width < 0) {
    std::printf("TIMEOUT before establishing W*\n");
    return 1;
  }
  std::printf("W* = %d (lower bound %d, optimality %s)\n", result.min_width,
              result.lower_bound,
              result.proven_optimal ? "proven" : "open");
  std::printf("SAT at W*:   %.3fs   UNSAT at W*-1: %.3fs\n",
              result.routable.TotalSeconds(),
              result.unroutable.TotalSeconds());
  return 0;
}

// Hot-path and inprocessing counters, one line each. Zero-activity lines
// are elided so solvers running with features disabled stay quiet.
void PrintSolverDetail(const sat::SolverStats& s) {
  std::printf("watch: %llu inspections, %llu blocker hits (%.1f%%)\n",
              static_cast<unsigned long long>(s.watch_inspections),
              static_cast<unsigned long long>(s.blocker_hits),
              100.0 * s.BlockerHitRate());
  if (s.gc_runs > 0 || s.tier_promotions > 0 || s.tier_demotions > 0) {
    std::printf("db: %llu gc runs, %llu tier promotions, %llu demotions\n",
                static_cast<unsigned long long>(s.gc_runs),
                static_cast<unsigned long long>(s.tier_promotions),
                static_cast<unsigned long long>(s.tier_demotions));
  }
  if (s.clauses_vivified > 0 || s.clauses_strengthened > 0) {
    std::printf("inprocess: %llu clauses vivified (-%llu lits), "
                "%llu strengthened\n",
                static_cast<unsigned long long>(s.clauses_vivified),
                static_cast<unsigned long long>(s.lits_removed_vivify),
                static_cast<unsigned long long>(s.clauses_strengthened));
  }
}

// Routes one fixed width through the cube-and-conquer pool and prints the
// pool-specific statistics (the monolithic path prints solver detail
// instead; a pool's merged counters aggregate CPU across workers).
int CmdRouteCube(const CliOptions& opts, const LoadedBenchmark& loaded) {
  cube::CubeSolveOptions cube_options;
  cube_options.pool.num_workers = opts.workers;
  cube_options.pool.deterministic = opts.deterministic;
  cube_options.gen.target_cubes = opts.cubes;
  cube_options.solver = opts.solver_options;
  cube_options.timeout_seconds = opts.timeout;
  if (!opts.positional.empty()) cube_options.run_label = opts.positional[0];
  const cube::CubeSolveResult result = cube::SolveColoringWithCubes(
      loaded.conflict, opts.width, opts.encoding_spec, opts.heuristic,
      cube_options);
  if (ReportError(result.error)) return 1;
  std::printf("%s in %.3fs (%zu cubes: %zu resolved, %zu stolen, "
              "%zu+%zu pruned)\n",
              sat::ToString(result.status), result.wall_seconds,
              result.num_cubes, result.cubes_resolved, result.cubes_stolen,
              result.pruned_conflict, result.pruned_symmetry);
  std::printf("pool: %llu conflicts, %llu propagations\n",
              static_cast<unsigned long long>(result.solver_stats.conflicts),
              static_cast<unsigned long long>(
                  result.solver_stats.propagations));
  for (std::size_t w = 0; w < result.worker_loads.size(); ++w) {
    const cube::CubeWorkerPool::WorkerLoad& load = result.worker_loads[w];
    std::printf("worker %zu: %.3fs busy, %zu cube(s), %zu steal(s)\n", w,
                load.busy_seconds, load.cubes, load.steals);
  }
  if (result.status == sat::SolveResult::kSat) {
    std::string error;
    if (!flow::ValidateTrackAssignment(loaded.arch, loaded.routing,
                                       result.colors, opts.width, &error)) {
      std::printf("INTERNAL ERROR: %s\n", error.c_str());
      return 1;
    }
    std::printf("track assignment validated (winning cube %d).\n",
                result.winning_cube);
  }
  return result.status == sat::SolveResult::kUnknown ? 1 : 0;
}

int CmdRoute(const CliOptions& opts) {
  if (opts.positional.empty() || opts.width < 1) Usage();
  const LoadedBenchmark loaded = LoadBenchmark(opts.positional[0]);
  if (opts.cube) return CmdRouteCube(opts, loaded);
  const auto result = flow::RouteDetailedOnGraph(loaded.conflict, opts.width,
                                                 ToRouteOptions(opts));
  if (ReportError(result.error)) return 1;
  std::printf("%s in %.3fs (%d vars, %zu clauses, %llu conflicts)\n",
              sat::ToString(result.status), result.TotalSeconds(),
              result.cnf_vars, result.cnf_clauses,
              static_cast<unsigned long long>(
                  result.solver_stats.conflicts));
  std::printf("stats: %llu propagations (%llu binary, %.2f Mprops/s)\n",
              static_cast<unsigned long long>(
                  result.solver_stats.propagations),
              static_cast<unsigned long long>(
                  result.solver_stats.binary_propagations),
              result.solver_stats.PropagationsPerSecond() / 1e6);
  PrintSolverDetail(result.solver_stats);
  if (result.status == sat::SolveResult::kSat) {
    std::string error;
    if (!flow::ValidateTrackAssignment(loaded.arch, loaded.routing,
                                       result.tracks, opts.width, &error)) {
      std::printf("INTERNAL ERROR: %s\n", error.c_str());
      return 1;
    }
    std::printf("track assignment validated.\n");
  }
  return result.status == sat::SolveResult::kUnknown ? 1 : 0;
}

int CmdExport(const CliOptions& opts) {
  if (opts.positional.empty()) Usage();
  const std::string name = opts.positional[0];
  const LoadedBenchmark loaded = LoadBenchmark(name);
  const int width = opts.width > 0 ? opts.width : loaded.peak;
  const std::string col_path = name + ".col";
  graph::WriteDimacsColFile(loaded.conflict, col_path,
                            {"satfr conflict graph: " + name});
  const auto sequence =
      symmetry::SymmetrySequence(loaded.conflict, width, opts.heuristic);
  // Stream the encoder straight to disk: the formula is never materialized,
  // so exports are bounded by the file size rather than memory.
  const std::string cnf_path =
      opts.dimacs_out.empty() ? name + "_w" + std::to_string(width) + ".cnf"
                              : opts.dimacs_out;
  std::ofstream cnf_out(cnf_path, std::ios::binary);
  if (!cnf_out) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", cnf_path.c_str());
    return 2;
  }
  sat::StreamingDimacsSink sink(
      cnf_out, {"satfr: " + name + " W=" + std::to_string(width) +
                " encoding=" + opts.encoding + " sym=" + opts.sym});
  encode::EncodeColoringToSink(loaded.conflict, width, opts.encoding_spec,
                               sequence, sink);
  if (!sink.Finish()) {
    std::fprintf(stderr, "write to '%s' failed\n", cnf_path.c_str());
    return 2;
  }
  std::printf("wrote %s (%d vertices, %zu edges) and %s (%d vars, %llu "
              "clauses)\n",
              col_path.c_str(), loaded.conflict.num_vertices(),
              loaded.conflict.num_edges(), cnf_path.c_str(), sink.num_vars(),
              static_cast<unsigned long long>(sink.num_clauses()));
  return 0;
}

int CmdSolve(const CliOptions& opts) {
  if (opts.positional.empty()) Usage();
  const auto cnf = sat::ParseDimacsFile(opts.positional[0]);
  if (!cnf) {
    std::fprintf(stderr, "cannot parse '%s'\n", opts.positional[0].c_str());
    return 2;
  }
  const Deadline deadline = Deadline::After(opts.timeout);
  sat::Solver solver(opts.solver_options);
  sat::SolveResult result = sat::SolveResult::kUnsat;
  if (solver.AddCnf(*cnf)) result = solver.Solve(deadline);
  std::printf("%s (%llu conflicts, %llu decisions)\n",
              sat::ToString(result),
              static_cast<unsigned long long>(solver.stats().conflicts),
              static_cast<unsigned long long>(solver.stats().decisions));
  std::printf("stats: %llu propagations (%llu binary, %.2f Mprops/s)\n",
              static_cast<unsigned long long>(solver.stats().propagations),
              static_cast<unsigned long long>(
                  solver.stats().binary_propagations),
              solver.stats().PropagationsPerSecond() / 1e6);
  PrintSolverDetail(solver.stats());
  return result == sat::SolveResult::kUnknown ? 1 : 0;
}

int CmdColor(const CliOptions& opts) {
  if (opts.positional.empty() || opts.width < 1) Usage();
  const auto g = graph::ParseDimacsColFile(opts.positional[0]);
  if (!g) {
    std::fprintf(stderr, "cannot parse '%s'\n", opts.positional[0].c_str());
    return 2;
  }
  const auto result =
      flow::RouteDetailedOnGraph(*g, opts.width, ToRouteOptions(opts));
  if (ReportError(result.error)) return 1;
  std::printf("%d-coloring: %s\n", opts.width, sat::ToString(result.status));
  for (std::size_t v = 0; v < result.tracks.size(); ++v) {
    std::printf("v%zu %d\n", v + 1, result.tracks[v]);
  }
  return result.status == sat::SolveResult::kUnknown ? 1 : 0;
}

int CmdRouteFile(const CliOptions& opts) {
  if (opts.positional.empty()) Usage();
  if (opts.cube) return RejectCube("route-file");
  std::string error;
  const auto parsed =
      netlist::ParsePlacedNetlistFile(opts.positional[0], &error);
  if (!parsed) {
    std::fprintf(stderr, "netlist: %s\n", error.c_str());
    return 2;
  }
  const fpga::Arch arch(parsed->params.grid_size);
  route::GlobalRouting routing;
  if (!opts.routing_file.empty()) {
    const auto loaded =
        route::ParseGlobalRoutingFile(opts.routing_file, &error);
    if (!loaded) {
      std::fprintf(stderr, "routing: %s\n", error.c_str());
      return 2;
    }
    if (loaded->grid_size != arch.grid_size()) {
      std::fprintf(stderr, "routing grid %d != netlist grid %d\n",
                   loaded->grid_size, arch.grid_size());
      return 2;
    }
    routing = loaded->routing;
    if (!route::ValidateGlobalRouting(arch, parsed->placement, routing,
                                      &error)) {
      std::fprintf(stderr, "routing invalid: %s\n", error.c_str());
      return 2;
    }
  } else {
    const fpga::DeviceGraph device(arch);
    routing = route::RouteGlobally(device, parsed->netlist,
                                   parsed->placement);
  }
  if (!opts.save_routing_file.empty()) {
    if (!route::WriteGlobalRoutingFile(arch, routing,
                                       opts.save_routing_file)) {
      std::fprintf(stderr, "cannot write '%s'\n",
                   opts.save_routing_file.c_str());
      return 2;
    }
    std::printf("saved global routing to %s\n",
                opts.save_routing_file.c_str());
  }
  const graph::Graph conflict = flow::BuildConflictGraph(arch, routing);
  const int peak = route::PeakCongestion(arch, routing);
  std::printf("circuit %s: %zu 2-pin nets, peak congestion %d\n",
              parsed->params.name.c_str(), routing.NumTwoPinNets(), peak);
  if (opts.width > 0) {
    const auto result = flow::RouteDetailedOnGraph(conflict, opts.width,
                                                   ToRouteOptions(opts));
    if (ReportError(result.error)) return 1;
    std::printf("W=%d: %s in %.3fs\n", opts.width,
                sat::ToString(result.status), result.TotalSeconds());
    return result.status == sat::SolveResult::kUnknown ? 1 : 0;
  }
  flow::MinWidthOptions mw;
  mw.route = ToRouteOptions(opts);
  const auto result = flow::FindMinimumWidthOnGraph(conflict, peak, mw);
  if (ReportError(result.error)) return 1;
  if (result.min_width < 0) {
    std::printf("TIMEOUT before establishing W*\n");
    return 1;
  }
  std::printf("W* = %d (optimality %s)\n", result.min_width,
              result.proven_optimal ? "proven" : "open");
  return 0;
}

// Nearest-rank percentile: the ceil(p * n)-th smallest sample (1-based),
// the rank obs::MetricSnapshot::ApproxPercentile uses, so the p50 of an
// even count is the lower median. Sorts a copy of the sample.
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

// Drives a RoutingSession from a trace file: `ripup N`, `reroute N p...`,
// `solve [W]`, `#` comments. The whole run uses one resident solver — the
// closing summary proves it (full encodes stays 1, extractions stay 0) and
// gives the per-delta latency distribution.
int CmdReplay(const CliOptions& opts) {
  if (opts.positional.size() < 2) Usage();
  const std::string name = opts.positional[0];
  const std::string trace_path = opts.positional[1];
  std::ifstream trace(trace_path);
  if (!trace) {
    std::fprintf(stderr, "cannot open trace '%s'\n", trace_path.c_str());
    return 2;
  }
  const LoadedBenchmark loaded = LoadBenchmark(name);
  const int default_width = opts.width > 0 ? opts.width : loaded.peak;
  const int max_width = SessionMaxWidth(loaded.conflict, default_width);

  flow::RoutingSessionOptions session_options;
  session_options.encoding = opts.encoding_spec;
  session_options.heuristic = opts.heuristic;
  session_options.solver = opts.solver_options;
  session_options.timeout_seconds = opts.timeout;
  session_options.run_label = name;

  Stopwatch encode_watch;
  flow::RoutingSession session(loaded.conflict, max_width, session_options);
  if (!session.ok()) {
    std::fprintf(stderr, "session: %s\n", session.error().c_str());
    return 2;
  }
  std::printf("session: %d nets, %zu conflict edges, max width %d, "
              "encoded once in %.3fs\n",
              session.num_nets(), loaded.conflict.num_edges(), max_width,
              encode_watch.Seconds());

  std::vector<double> delta_seconds;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(trace, line)) {
    ++line_no;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream in(line);
    std::string op;
    if (!(in >> op)) continue;  // blank / comment-only line
    auto trace_error = [&](const std::string& message) {
      std::fprintf(stderr, "%s:%zu: %s\n", trace_path.c_str(), line_no,
                   message.c_str());
      return 1;
    };
    if (op == "ripup") {
      graph::VertexId net = -1;
      if (!(in >> net)) return trace_error("ripup needs a net id");
      Stopwatch watch;
      if (!session.RipUp(net)) return trace_error(session.error());
      delta_seconds.push_back(watch.Seconds());
      std::printf("ripup %d: %.0fus\n", net, delta_seconds.back() * 1e6);
    } else if (op == "reroute") {
      graph::VertexId net = -1;
      if (!(in >> net)) return trace_error("reroute needs a net id");
      std::vector<graph::VertexId> partners;
      for (graph::VertexId u = 0; in >> u;) partners.push_back(u);
      Stopwatch watch;
      if (!session.Reroute(net, partners)) {
        return trace_error(session.error());
      }
      delta_seconds.push_back(watch.Seconds());
      std::printf("reroute %d (%zu conflicts): %.0fus\n", net,
                  partners.size(), delta_seconds.back() * 1e6);
    } else if (op == "solve") {
      int width = default_width;
      in >> width;  // optional; keeps the default when absent
      const flow::SessionSolveResult result = session.Solve(width);
      if (!result.error.empty()) return trace_error(result.error);
      std::printf("solve W=%d: %s in %.3fs%s\n", width,
                  sat::ToString(result.status), result.solve_seconds,
                  result.witness ? " [witness]" : "");
    } else {
      return trace_error("unknown trace op '" + op + "'");
    }
  }

  const flow::SessionStats& stats = session.session_stats();
  std::printf("deltas: %llu applied (%llu groups emitted, %llu retired, "
              "%llu partner edges detached, %llu clauses)\n",
              static_cast<unsigned long long>(stats.deltas_applied),
              static_cast<unsigned long long>(stats.groups_emitted),
              static_cast<unsigned long long>(stats.groups_retired),
              static_cast<unsigned long long>(stats.partner_detachments),
              static_cast<unsigned long long>(stats.delta_clauses));
  if (!delta_seconds.empty()) {
    std::printf("delta latency: p50 %.0fus, p99 %.0fus over %zu deltas\n",
                Percentile(delta_seconds, 0.50) * 1e6,
                Percentile(delta_seconds, 0.99) * 1e6,
                delta_seconds.size());
  }
  std::printf("solves: %llu answered, %llu witness answer(s), %llu witness "
              "edge(s) checked\n",
              static_cast<unsigned long long>(stats.solves),
              static_cast<unsigned long long>(stats.witness_answers),
              static_cast<unsigned long long>(stats.witness_edges_checked));
  std::printf("incremental contract: %llu full encode(s), %llu graph "
              "re-extraction(s)\n",
              static_cast<unsigned long long>(stats.full_encodes),
              static_cast<unsigned long long>(stats.graph_extractions));
  return 0;
}

int CmdServe(const CliOptions& opts) {
  if (opts.positional.empty()) Usage();
  const std::string trace_path = opts.positional[0];
  std::ifstream trace(trace_path);
  if (!trace) {
    std::fprintf(stderr, "cannot open trace '%s'\n", trace_path.c_str());
    return 2;
  }

  service::ServiceOptions service_options;
  service_options.scheduler.num_workers = opts.workers;
  service_options.timeout_seconds = opts.timeout;
  service::RoutingService svc(service_options);
  std::printf("serve: %d worker(s), trace %s\n", svc.num_workers(),
              trace_path.c_str());

  // Benchmarks load lazily, once, and their conflict graphs are shared: the
  // service keys its caches on the graph itself, so a shared pointer makes
  // every repeat's key compare a pointer instead of two edge lists.
  std::unordered_map<std::string, std::shared_ptr<const graph::Graph>> graphs;
  std::unordered_map<std::string, int> session_widths;
  auto graph_for = [&](const std::string& name)
      -> std::shared_ptr<const graph::Graph> {
    const auto it = graphs.find(name);
    if (it != graphs.end()) return it->second;
    const LoadedBenchmark loaded = LoadBenchmark(name);
    auto shared = std::make_shared<graph::Graph>(loaded.conflict);
    graphs.emplace(name, shared);
    session_widths.emplace(name,
                           SessionMaxWidth(loaded.conflict, loaded.peak));
    return shared;
  };

  struct Outstanding {
    service::RoutingService::Ticket ticket;
    std::string what;
  };
  std::vector<Outstanding> outstanding;
  std::vector<double> route_latency;
  std::size_t routes = 0, session_ops = 0, failures = 0;
  Stopwatch wall;

  auto settle = [&]() {
    for (const Outstanding& out : outstanding) {
      const service::Response& r = svc.Wait(out.ticket);
      if (!r.ok) {
        ++failures;
        std::printf("%s: error: %s\n", out.what.c_str(), r.error.c_str());
        continue;
      }
      if (r.kind == service::RequestKind::kRoute) {
        route_latency.push_back(r.latency_seconds);
        std::printf("%s: %s in %.0fus%s%s\n", out.what.c_str(),
                    sat::ToString(r.status), r.latency_seconds * 1e6,
                    r.verdict_hit ? " [verdict]" : "",
                    r.cancelled ? " [cancelled]" : "");
      } else if (r.kind == service::RequestKind::kSessionSolve) {
        std::printf("%s: %s in %.0fus%s\n", out.what.c_str(),
                    sat::ToString(r.status), r.latency_seconds * 1e6,
                    r.witness ? " [witness]" : "");
      } else {
        std::printf("%s: %.0fus\n", out.what.c_str(), r.apply_seconds * 1e6);
      }
    }
    outstanding.clear();
  };

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(trace, line)) {
    ++line_no;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream in(line);
    std::string op;
    if (!(in >> op)) continue;
    auto trace_error = [&](const std::string& message) {
      std::fprintf(stderr, "%s:%zu: %s\n", trace_path.c_str(), line_no,
                   message.c_str());
      return 1;
    };
    if (op == "route") {
      std::string bench;
      int width = -1;
      if (!(in >> bench >> width) || width < 1) {
        return trace_error("route needs '<benchmark> <width>'");
      }
      service::RouteRequest request;
      request.label = bench;
      request.graph = graph_for(bench);
      request.width = width;
      request.encoding = opts.encoding;
      request.symmetry = opts.sym;
      request.solver = opts.solver;
      for (std::string kv; in >> kv;) {
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos) {
          return trace_error("route option '" + kv + "' is not key=value");
        }
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        if (key == "prio") {
          const std::optional<int> priority = ParseInt(value);
          if (!priority) {
            return trace_error("prio '" + value + "' is not an integer");
          }
          request.priority = *priority;
        } else if (key == "enc") {
          request.encoding = value;
        } else if (key == "sym") {
          request.symmetry = value;
        } else if (key == "solver") {
          request.solver = value;
        } else {
          return trace_error("unknown route option '" + key + "'");
        }
      }
      ++routes;
      outstanding.push_back({svc.Submit(std::move(request)),
                             bench + " W=" + std::to_string(width)});
    } else if (op == "session") {
      std::string client, bench;
      if (!(in >> client >> bench)) {
        return trace_error("session needs '<client> <benchmark>'");
      }
      const std::shared_ptr<const graph::Graph> g = graph_for(bench);
      int max_width = 0;
      if (!(in >> max_width)) max_width = session_widths[bench];
      std::string error;
      if (!svc.OpenSession(client, g, max_width, opts.encoding, opts.sym,
                           &error)) {
        return trace_error("session '" + client + "': " + error);
      }
      std::printf("session %s: %s at max width %d\n", client.c_str(),
                  bench.c_str(), max_width);
    } else if (op == "ripup") {
      std::string client;
      graph::VertexId net = -1;
      if (!(in >> client >> net)) {
        return trace_error("ripup needs '<client> <net>'");
      }
      ++session_ops;
      outstanding.push_back({svc.SubmitRipUp(client, net),
                             client + " ripup " + std::to_string(net)});
    } else if (op == "reroute") {
      std::string client;
      graph::VertexId net = -1;
      if (!(in >> client >> net)) {
        return trace_error("reroute needs '<client> <net>'");
      }
      std::vector<graph::VertexId> partners;
      for (graph::VertexId u = 0; in >> u;) partners.push_back(u);
      ++session_ops;
      outstanding.push_back(
          {svc.SubmitReroute(client, net, std::move(partners)),
           client + " reroute " + std::to_string(net)});
    } else if (op == "solve") {
      std::string client;
      if (!(in >> client)) return trace_error("solve needs '<client>'");
      int width = 0;
      in >> width;  // 0: the session solves at its max width
      ++session_ops;
      outstanding.push_back({svc.SubmitSessionSolve(client, width),
                             client + " solve"});
    } else if (op == "wait") {
      settle();
    } else {
      return trace_error("unknown trace op '" + op + "'");
    }
  }
  settle();
  svc.Drain();
  const double elapsed = wall.Seconds();

  const service::ServiceStats stats = svc.stats();
  std::printf("served %zu route(s), %zu session op(s) in %.3fs (%.1f "
              "requests/s), %zu failure(s)\n",
              routes, session_ops, elapsed,
              elapsed > 0 ? (routes + session_ops) / elapsed : 0.0,
              failures);
  if (!route_latency.empty()) {
    std::printf("route latency: p50 %.0fus, p95 %.0fus, p99 %.0fus\n",
                Percentile(route_latency, 0.50) * 1e6,
                Percentile(route_latency, 0.95) * 1e6,
                Percentile(route_latency, 0.99) * 1e6);
  }
  std::printf("verdict cache: %llu/%llu hit(s), %llu resident\n",
              static_cast<unsigned long long>(stats.verdicts.hits),
              static_cast<unsigned long long>(stats.verdicts.lookups),
              static_cast<unsigned long long>(stats.verdicts.entries));

  if (opts.selfcheck) {
    const std::vector<analysis::CoherenceSample> samples =
        svc.SampleCoherence(/*max_samples=*/8);
    analysis::AnalysisInput input;
    input.coherence_samples = &samples;
    const analysis::AnalysisReport lint =
        analysis::MakeDefaultRunner().Run(input);
    std::printf("selfcheck: %zu verdict(s) re-solved\n%s", samples.size(),
                analysis::FormatText(lint).c_str());
    if (lint.Count(analysis::Severity::kError) > 0) return 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage();
  const std::string command = argv[1];
  const CliOptions opts = ParseArgs(argc, argv);
  if (opts.selfcheck && command != "serve") return RejectSelfcheck(command);
  const TelemetrySession telemetry(opts);
  if (command == "benchmarks") return CmdBenchmarks();
  if (command == "encodings") return CmdEncodings();
  if (command == "prove") return CmdProve(opts);
  if (command == "route") return CmdRoute(opts);
  if (command == "replay") return CmdReplay(opts);
  if (command == "export") return CmdExport(opts);
  if (command == "solve") return CmdSolve(opts);
  if (command == "color") return CmdColor(opts);
  if (command == "route-file") return CmdRouteFile(opts);
  if (command == "serve") return CmdServe(opts);
  Usage();
}
