#include "obs/run_report.h"

#include <atomic>
#include <string_view>
#include <utility>

namespace satfr::obs {

namespace {

std::uint64_t GetU64(const JsonValue& obj, std::string_view key,
                     std::uint64_t fallback = 0) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_number() ? v->AsUint() : fallback;
}

double GetDouble(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_number() ? v->AsDouble() : 0.0;
}

std::string GetString(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : std::string();
}

}  // namespace

void RunRecord::SetSolverWindow(const sat::SolverStats& window) {
  propagations = window.propagations;
  binary_propagations = window.binary_propagations;
  conflicts = window.conflicts;
  decisions = window.decisions;
  restarts = window.restarts;
  learned = window.learned;
  removed = window.removed;
  lbd_histogram.assign(window.lbd_histogram,
                       window.lbd_histogram +
                           sat::SolverStats::kLbdHistogramSize);
}

JsonValue RunRecord::ToJson() const {
  JsonObject o;
  o.emplace_back("instance", JsonValue(instance));
  o.emplace_back("phase", JsonValue(phase));
  o.emplace_back("encoding", JsonValue(encoding));
  o.emplace_back("symmetry", JsonValue(symmetry));
  o.emplace_back("width", JsonValue(width));
  o.emplace_back("cube_workers", JsonValue(cube_workers));
  o.emplace_back("verdict", JsonValue(verdict));
  o.emplace_back("coloring_seconds", JsonValue(coloring_seconds));
  o.emplace_back("encode_seconds", JsonValue(encode_seconds));
  o.emplace_back("solve_seconds", JsonValue(solve_seconds));
  o.emplace_back("total_seconds", JsonValue(total_seconds));
  o.emplace_back("cnf_vars", JsonValue(cnf_vars));
  o.emplace_back("cnf_clauses", JsonValue(cnf_clauses));

  JsonObject solver;
  solver.emplace_back("propagations", JsonValue(propagations));
  solver.emplace_back("binary_propagations", JsonValue(binary_propagations));
  solver.emplace_back("conflicts", JsonValue(conflicts));
  solver.emplace_back("decisions", JsonValue(decisions));
  solver.emplace_back("restarts", JsonValue(restarts));
  solver.emplace_back("learned", JsonValue(learned));
  solver.emplace_back("removed", JsonValue(removed));
  o.emplace_back("solver", JsonValue(std::move(solver)));

  JsonObject db;
  db.emplace_back("core", JsonValue(learnts_core));
  db.emplace_back("tier2", JsonValue(learnts_tier2));
  db.emplace_back("local", JsonValue(learnts_local));
  JsonArray lbd;
  lbd.reserve(lbd_histogram.size());
  for (const std::uint64_t b : lbd_histogram) lbd.emplace_back(b);
  db.emplace_back("lbd_histogram", JsonValue(std::move(lbd)));
  db.emplace_back("peak_clause_memory_bytes",
                  JsonValue(peak_clause_memory_bytes));
  o.emplace_back("learnt_db", JsonValue(std::move(db)));

  if (deltas_applied != 0 || groups_retired != 0 || phase == "session") {
    JsonObject session;
    session.emplace_back("deltas_applied", JsonValue(deltas_applied));
    session.emplace_back("groups_retired", JsonValue(groups_retired));
    session.emplace_back("witness", JsonValue(witness));
    o.emplace_back("session", JsonValue(std::move(session)));
  }

  JsonObject cube;
  cube.emplace_back("cubes", JsonValue(cubes));
  cube.emplace_back("stolen", JsonValue(cubes_stolen));
  o.emplace_back("cube", JsonValue(std::move(cube)));

  if (has_observed) {
    JsonObject observed;
    observed.emplace_back("propagations", JsonValue(observed_propagations));
    observed.emplace_back("conflicts", JsonValue(observed_conflicts));
    observed.emplace_back("restarts", JsonValue(observed_restarts));
    observed.emplace_back("learned", JsonValue(observed_learned));
    observed.emplace_back("bcp_seconds", JsonValue(observed_bcp_seconds));
    observed.emplace_back("analyze_seconds",
                          JsonValue(observed_analyze_seconds));
    observed.emplace_back("inprocess_seconds",
                          JsonValue(observed_inprocess_seconds));
    o.emplace_back("observed", JsonValue(std::move(observed)));
  }
  return JsonValue(std::move(o));
}

bool RunRecord::FromJson(const JsonValue& value, RunRecord* record,
                         std::string* error) {
  if (!value.is_object()) {
    if (error != nullptr) *error = "run record is not a JSON object";
    return false;
  }
  RunRecord r;
  r.instance = GetString(value, "instance");
  r.phase = GetString(value, "phase");
  r.encoding = GetString(value, "encoding");
  r.symmetry = GetString(value, "symmetry");
  r.width = static_cast<int>(GetU64(value, "width"));
  r.cube_workers = static_cast<int>(GetU64(value, "cube_workers"));
  r.verdict = GetString(value, "verdict");
  r.coloring_seconds = GetDouble(value, "coloring_seconds");
  r.encode_seconds = GetDouble(value, "encode_seconds");
  r.solve_seconds = GetDouble(value, "solve_seconds");
  r.total_seconds = GetDouble(value, "total_seconds");
  r.cnf_vars = GetU64(value, "cnf_vars");
  r.cnf_clauses = GetU64(value, "cnf_clauses");
  if (const JsonValue* solver = value.Find("solver")) {
    r.propagations = GetU64(*solver, "propagations");
    r.binary_propagations = GetU64(*solver, "binary_propagations");
    r.conflicts = GetU64(*solver, "conflicts");
    r.decisions = GetU64(*solver, "decisions");
    r.restarts = GetU64(*solver, "restarts");
    r.learned = GetU64(*solver, "learned");
    r.removed = GetU64(*solver, "removed");
  }
  if (const JsonValue* db = value.Find("learnt_db")) {
    r.learnts_core = GetU64(*db, "core");
    r.learnts_tier2 = GetU64(*db, "tier2");
    r.learnts_local = GetU64(*db, "local");
    if (const JsonValue* lbd = db->Find("lbd_histogram");
        lbd != nullptr && lbd->is_array()) {
      for (const JsonValue& b : lbd->AsArray()) {
        r.lbd_histogram.push_back(b.is_number() ? b.AsUint() : 0);
      }
    }
    r.peak_clause_memory_bytes = GetU64(*db, "peak_clause_memory_bytes");
  }
  if (const JsonValue* session = value.Find("session")) {
    r.deltas_applied = GetU64(*session, "deltas_applied");
    r.groups_retired = GetU64(*session, "groups_retired");
    const JsonValue* witness = session->Find("witness");
    r.witness = witness != nullptr && witness->is_bool() && witness->AsBool();
  }
  if (const JsonValue* cube = value.Find("cube")) {
    r.cubes = GetU64(*cube, "cubes");
    r.cubes_stolen = GetU64(*cube, "stolen");
  }
  if (const JsonValue* observed = value.Find("observed")) {
    r.has_observed = true;
    r.observed_propagations = GetU64(*observed, "propagations");
    r.observed_conflicts = GetU64(*observed, "conflicts");
    r.observed_restarts = GetU64(*observed, "restarts");
    r.observed_learned = GetU64(*observed, "learned");
    r.observed_bcp_seconds = GetDouble(*observed, "bcp_seconds");
    r.observed_analyze_seconds = GetDouble(*observed, "analyze_seconds");
    r.observed_inprocess_seconds = GetDouble(*observed, "inprocess_seconds");
  }
  *record = std::move(r);
  return true;
}

RunReportWriter::RunReportWriter(const std::string& path)
    : path_(path), out_(path, std::ios::binary) {
  ok_ = static_cast<bool>(out_);
}

void RunReportWriter::Append(const RunRecord& record) {
  if (!ok_) return;
  const std::string line = record.ToJson().Dump();
  mc::MutexLock lock(mutex_);
  out_ << line << '\n';
  out_.flush();
  ++records_;
}

std::size_t RunReportWriter::records_written() const {
  mc::MutexLock lock(mutex_);
  return records_;
}

bool LoadRunReport(const std::string& path, std::vector<RunRecord>* records,
                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue value;
    std::string parse_error;
    if (!ParseJson(line, &value, &parse_error)) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(line_no) + ": " + parse_error;
      }
      return false;
    }
    RunRecord record;
    if (!RunRecord::FromJson(value, &record, &parse_error)) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(line_no) + ": " + parse_error;
      }
      return false;
    }
    records->push_back(std::move(record));
  }
  return true;
}

namespace {
std::atomic<RunReportWriter*> g_report{nullptr};
}  // namespace

RunReportWriter* GlobalReport() {
  return g_report.load(std::memory_order_acquire);
}

void SetGlobalReport(RunReportWriter* writer) {
  g_report.store(writer, std::memory_order_release);
}

}  // namespace satfr::obs
