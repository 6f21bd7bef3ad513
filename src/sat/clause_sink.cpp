#include "sat/clause_sink.h"

#include <cassert>
#include <charconv>
#include <ostream>

#include "sat/solver.h"

namespace satfr::sat {

// ---------------------------------------------------------------- SolverSink

SolverSink::SolverSink(Solver& solver) : solver_(solver) {
  num_vars_ = solver.num_vars();
}

void SolverSink::EnsureVars(int n) {
  ClauseSink::EnsureVars(n);
  solver_.EnsureVars(n);
}

void SolverSink::DoEmit(const Lit* lits, std::size_t n) {
  // Keep draining after a refutation: Solver::AddClause is a cheap no-op
  // once okay() is false, and encoders need not special-case mid-stream
  // unsatisfiability.
  ok_ = solver_.AddClause(lits, n) && ok_;
}

bool SolverSink::Finish() { return ok_ && solver_.okay(); }

// ------------------------------------------------------- StreamingDimacsSink

namespace {

// Width of the reserved header fields. 10 digits cover any var/clause count
// representable in the 32-bit literal encoding.
constexpr int kHeaderFieldWidth = 10;

void AppendInt(std::string& buffer, long long value) {
  char digits[24];
  const auto [end, ec] =
      std::to_chars(digits, digits + sizeof(digits), value);
  assert(ec == std::errc());
  (void)ec;
  buffer.append(digits, end);
}

}  // namespace

StreamingDimacsSink::StreamingDimacsSink(
    std::ostream& out, const std::vector<std::string>& comments)
    : out_(out) {
  for (const std::string& comment : comments) {
    out_ << "c " << comment << '\n';
  }
  header_pos_ = static_cast<std::streamoff>(out_.tellp());
  // Reserve a fixed-width header to back-patch in Finish(); DIMACS readers
  // skip the extra spaces.
  out_ << "p cnf ";
  for (int field = 0; field < 2; ++field) {
    for (int i = 0; i < kHeaderFieldWidth; ++i) out_.put(' ');
    out_.put(field == 0 ? ' ' : '\n');
  }
  buffer_.reserve(1 << 16);
}

void StreamingDimacsSink::DoEmit(const Lit* lits, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    AppendInt(buffer_, lits[i].ToDimacs());
    buffer_.push_back(' ');
  }
  buffer_.append("0\n");
  if (buffer_.size() >= (1u << 16)) FlushBuffer();
}

void StreamingDimacsSink::FlushBuffer() {
  out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
}

bool StreamingDimacsSink::Finish() {
  assert(!finished_ && "Finish() must be called exactly once");
  finished_ = true;
  FlushBuffer();
  if (!out_ || header_pos_ < 0) return false;
  const std::streamoff end = static_cast<std::streamoff>(out_.tellp());
  // Back-patch the reserved header with the real counts, right-aligned
  // within the fixed-width fields.
  std::string header = "p cnf ";
  std::string field = std::to_string(num_vars_);
  assert(static_cast<int>(field.size()) <= kHeaderFieldWidth);
  header.append(static_cast<std::size_t>(kHeaderFieldWidth) - field.size(),
                ' ');
  header += field;
  header.push_back(' ');
  field = std::to_string(num_clauses_);
  assert(static_cast<int>(field.size()) <= kHeaderFieldWidth);
  header.append(static_cast<std::size_t>(kHeaderFieldWidth) - field.size(),
                ' ');
  header += field;
  out_.seekp(header_pos_);
  if (!out_) return false;  // unseekable stream (e.g. a pipe)
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  out_.seekp(end);
  out_.flush();
  return static_cast<bool>(out_);
}

}  // namespace satfr::sat
