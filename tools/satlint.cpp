// satlint — static analysis over the flow's artifacts: DIMACS CNF files,
// DIMACS .col conflict graphs, and in-process encoding runs.
//
//   satlint passes                    list the registered passes
//   satlint cnf <file.cnf>            lint a DIMACS CNF file
//   satlint col <file.col> [opts]     lint a DIMACS graph; with --width K
//                                     also encode it and lint the CNF
//   satlint encode <benchmark> [opts] build the MCNC benchmark's conflict
//                                     graph, encode, and lint the result
//   satlint report <file.jsonl>       lint a `satfr --report` run report
//                                     (telemetry-consistency: observer
//                                     totals vs solver-window stats)
//   satlint sources <file...>         scan source files (mc-coverage: the
//                                     lock-free layers must route atomics
//                                     and mutexes through the mc:: shim)
//
// Options:
//   --encoding NAME|all|evaluated
//                         encoding to check ("all" = every registered
//                         encoding from encode::registry, "evaluated" = the
//                         paper's 14; default ITE-linear-2+muldirect)
//   --sym b1|s1|none      symmetry-breaking heuristic (default s1)
//   --width K             colors / tracks (default: peak congestion)
//   --grouped             (col/encode) encode through the net-grouped
//                         streaming path (encode::EncodeColoringGrouped)
//                         instead of the flat one, and run the
//                         net-group-hygiene pass over the activation-
//                         literal structure
//   --json                machine-readable report
//   --disable PASS        disable a pass by name (repeatable)
//   --severity PASS=LVL   force a pass to info|warning|error (repeatable)
//
// Exit status: 0 = no error-severity findings, 1 = errors found,
// 2 = usage or I/O problem.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/runner.h"
#include "common/strings.h"
#include "encode/csp_to_cnf.h"
#include "encode/net_group.h"
#include "obs/run_report.h"
#include "encode/registry.h"
#include "flow/conflict_graph.h"
#include "fpga/device_graph.h"
#include "graph/dimacs_col.h"
#include "netlist/mcnc_suite.h"
#include "route/global_router.h"
#include "route/global_routing.h"
#include "sat/dimacs.h"
#include "symmetry/symmetry.h"

namespace {

using namespace satfr;

struct LintOptions {
  std::string encoding = "ITE-linear-2+muldirect";
  std::string sym = "s1";
  symmetry::Heuristic heuristic = symmetry::Heuristic::kS1;  // from `sym`
  int width = -1;
  bool json = false;
  bool grouped = false;
  std::vector<std::string> disabled;
  std::vector<std::pair<std::string, analysis::Severity>> severities;
  std::vector<std::string> positional;
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: satlint <passes|cnf|col|encode|report|sources>"
               " [args]\n"
               "  satlint cnf <file.cnf>\n"
               "  satlint col <file.col> [--width K]\n"
               "  satlint encode <benchmark> [--width K]\n"
               "  satlint report <file.jsonl>\n"
               "  satlint sources <file...>\n"
               "options: --encoding NAME|all|evaluated  --sym b1|s1|none"
               "  --json  --grouped\n"
               "         --disable PASS  --severity PASS=info|warning|error\n"
               "  see the header of tools/satlint.cpp or README.md\n");
  std::exit(2);
}

std::optional<analysis::Severity> ParseSeverity(const std::string& name) {
  if (name == "info") return analysis::Severity::kInfo;
  if (name == "warning") return analysis::Severity::kWarning;
  if (name == "error") return analysis::Severity::kError;
  return std::nullopt;
}

LintOptions ParseArgs(int argc, char** argv) {
  LintOptions opts;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--encoding") {
      opts.encoding = next();
    } else if (arg == "--sym") {
      opts.sym = next();
      const std::optional<symmetry::Heuristic> heuristic =
          symmetry::HeuristicFromName(opts.sym);
      if (!heuristic) {
        std::fprintf(stderr,
                     "--sym: unknown name '%s' (expected b1, s1 or none)\n",
                     opts.sym.c_str());
        std::exit(2);
      }
      opts.heuristic = *heuristic;
    } else if (arg == "--width") {
      const std::string text = next();
      const std::optional<int> width = ParseInt(text);
      if (!width) {
        std::fprintf(stderr, "--width: '%s' is not an integer\n",
                     text.c_str());
        std::exit(2);
      }
      opts.width = *width;
    } else if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--grouped") {
      opts.grouped = true;
    } else if (arg == "--disable") {
      opts.disabled.push_back(next());
    } else if (arg == "--severity") {
      const std::string spec = next();
      const std::size_t eq = spec.find('=');
      const auto severity =
          eq == std::string::npos
              ? std::nullopt
              : ParseSeverity(spec.substr(eq + 1));
      if (!severity) {
        std::fprintf(stderr, "bad --severity '%s'\n", spec.c_str());
        Usage();
      }
      opts.severities.emplace_back(spec.substr(0, eq), *severity);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      Usage();
    } else {
      opts.positional.push_back(arg);
    }
  }
  return opts;
}

analysis::AnalysisRunner MakeRunner(const LintOptions& opts) {
  analysis::AnalysisRunner runner = analysis::MakeDefaultRunner();
  for (const std::string& pass : opts.disabled) {
    analysis::PassConfig config;
    config.enabled = false;
    if (!runner.Configure(pass, config)) {
      std::fprintf(stderr, "unknown pass '%s'\n", pass.c_str());
      Usage();
    }
  }
  for (const auto& [pass, severity] : opts.severities) {
    analysis::PassConfig config;
    config.severity = severity;
    if (!runner.Configure(pass, config)) {
      std::fprintf(stderr, "unknown pass '%s'\n", pass.c_str());
      Usage();
    }
  }
  return runner;
}

/// Runs the pipeline, prints the report, and returns the exit status.
int RunAndReport(const analysis::AnalysisRunner& runner,
                 const analysis::AnalysisInput& input,
                 const LintOptions& opts, const std::string& banner) {
  const analysis::AnalysisReport report = runner.Run(input);
  if (!banner.empty() && !opts.json) std::printf("== %s\n", banner.c_str());
  std::fputs((opts.json ? analysis::FormatJson(report)
                        : analysis::FormatText(report))
                 .c_str(),
             stdout);
  return report.HasErrors() ? 1 : 0;
}

/// Encodings selected by --encoding: "all" covers every registered encoding
/// (derived from the registry, so extensions are linted automatically),
/// "evaluated" the paper's 14, anything else a single name.
std::vector<std::string> SelectedEncodings(const std::string& encoding) {
  if (encoding == "all") return encode::AllEncodingNames();
  if (encoding == "evaluated") return encode::EvaluatedEncodingNames();
  return {encoding};
}

/// Encodes `g` with every requested encoding and lints each result.
int LintEncodings(const graph::Graph& g, int width, const LintOptions& opts,
                  const route::GlobalRouting* routing) {
  const std::vector<std::string> names = SelectedEncodings(opts.encoding);
  const analysis::AnalysisRunner runner = MakeRunner(opts);
  const std::vector<graph::VertexId> sequence =
      symmetry::SymmetrySequence(g, width, opts.heuristic);
  int status = 0;
  for (const std::string& name : names) {
    const auto spec = encode::FindEncoding(name);
    if (!spec) {
      std::fprintf(stderr, "unknown encoding '%s'\n", name.c_str());
      return 2;
    }
    analysis::AnalysisInput input;
    input.conflict_graph = &g;
    input.spec = &*spec;
    input.symmetry_sequence = &sequence;
    input.routing = routing;
    std::string banner =
        name + " K=" + std::to_string(width) + " sym=" + opts.sym;
    // Both arms materialize into `cnf`/`encoded` declared out here so the
    // pointers stay valid through RunAndReport.
    sat::Cnf grouped_cnf;
    std::optional<encode::EncodedColoring> encoded;
    encode::NetGroupTable group_table;
    if (opts.grouped) {
      sat::CnfCollectorSink collector(grouped_cnf);
      encode::NetGroupedSink grouped(collector);
      encode::EncodeColoringGrouped(g, width, *spec, sequence, grouped);
      grouped.Finish();
      group_table = grouped.table();
      input.cnf = &grouped_cnf;
      input.net_groups = &group_table;
      banner += " grouped";
    } else {
      encoded.emplace(encode::EncodeColoring(g, width, *spec, sequence));
      input.cnf = &encoded->cnf;
      input.encoded = &*encoded;
    }
    if (RunAndReport(runner, input, opts, banner) != 0) status = 1;
  }
  return status;
}

int CmdPasses() {
  const analysis::AnalysisRunner runner = analysis::MakeDefaultRunner();
  for (const auto& pass : runner.passes()) {
    std::printf("%-26s %-8s %s\n",
                std::string(pass->name()).c_str(),
                analysis::ToString(pass->default_severity()),
                std::string(pass->description()).c_str());
  }
  return 0;
}

int CmdCnf(const LintOptions& opts) {
  if (opts.positional.empty()) Usage();
  const auto cnf = sat::ParseDimacsFile(opts.positional[0]);
  if (!cnf) {
    std::fprintf(stderr, "cannot parse '%s'\n", opts.positional[0].c_str());
    return 2;
  }
  analysis::AnalysisInput input;
  input.cnf = &*cnf;
  return RunAndReport(MakeRunner(opts), input, opts, opts.positional[0]);
}

int CmdCol(const LintOptions& opts) {
  if (opts.positional.empty()) Usage();
  const auto g = graph::ParseDimacsColFile(opts.positional[0]);
  if (!g) {
    std::fprintf(stderr, "cannot parse '%s'\n", opts.positional[0].c_str());
    return 2;
  }
  if (opts.width < 1) {
    analysis::AnalysisInput input;
    input.conflict_graph = &*g;
    return RunAndReport(MakeRunner(opts), input, opts, opts.positional[0]);
  }
  return LintEncodings(*g, opts.width, opts, /*routing=*/nullptr);
}

int CmdEncode(const LintOptions& opts) {
  if (opts.positional.empty()) Usage();
  const netlist::McncBenchmark bench =
      netlist::GenerateMcncBenchmark(opts.positional[0]);
  const fpga::Arch arch(bench.params.grid_size);
  const fpga::DeviceGraph device(arch);
  const route::GlobalRouting routing =
      route::RouteGlobally(device, bench.netlist, bench.placement);
  const graph::Graph conflict = flow::BuildConflictGraph(arch, routing);
  const int width =
      opts.width > 0 ? opts.width : route::PeakCongestion(arch, routing);
  return LintEncodings(conflict, width, opts, &routing);
}

int CmdReport(const LintOptions& opts) {
  if (opts.positional.empty()) Usage();
  std::vector<obs::RunRecord> records;
  std::string error;
  if (!obs::LoadRunReport(opts.positional[0], &records, &error)) {
    std::fprintf(stderr, "cannot load '%s': %s\n",
                 opts.positional[0].c_str(), error.c_str());
    return 2;
  }
  analysis::AnalysisInput input;
  input.run_records = &records;
  const std::string banner = opts.positional[0] + " (" +
                             std::to_string(records.size()) + " record(s))";
  return RunAndReport(MakeRunner(opts), input, opts, banner);
}

int CmdSources(const LintOptions& opts) {
  if (opts.positional.empty()) Usage();
  std::vector<analysis::SourceFile> sources;
  for (const std::string& path : opts.positional) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
      return 2;
    }
    std::ostringstream content;
    content << in.rdbuf();
    sources.push_back({path, content.str()});
  }
  analysis::AnalysisInput input;
  input.sources = &sources;
  const std::string banner =
      std::to_string(sources.size()) + " source file(s)";
  return RunAndReport(MakeRunner(opts), input, opts, banner);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage();
  const std::string command = argv[1];
  const LintOptions opts = ParseArgs(argc, argv);
  if (command == "passes") return CmdPasses();
  if (command == "cnf") return CmdCnf(opts);
  if (command == "col") return CmdCol(opts);
  if (command == "encode") return CmdEncode(opts);
  if (command == "report") return CmdReport(opts);
  if (command == "sources") return CmdSources(opts);
  Usage();
}
