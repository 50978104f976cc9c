#include "dna/fasta.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/fsio.hpp"

namespace pima::dna {
namespace {

// Deterministic substitute for an ambiguous call: cycles A,C,G,T by position
// so repeated runs produce identical sequences.
Base substitute_base(std::size_t pos) {
  static constexpr Base kCycle[4] = {Base::A, Base::C, Base::G, Base::T};
  return kCycle[pos % 4];
}

// IUPAC nucleotide ambiguity codes (everything sequencers legitimately
// emit beyond ACGT, plus U for RNA-style input and '-'/'.' gap characters
// some aligners leave in). These are subject to AmbiguityPolicy; anything
// else in a sequence line is a hard format error.
bool is_ambiguity_char(char c) {
  switch (c) {
    case 'N': case 'n': case 'U': case 'u': case 'R': case 'r':
    case 'Y': case 'y': case 'S': case 's': case 'W': case 'w':
    case 'K': case 'k': case 'M': case 'm': case 'B': case 'b':
    case 'D': case 'd': case 'H': case 'h': case 'V': case 'v':
    case '-': case '.':
      return true;
    default:
      return false;
  }
}

[[noreturn]] void fail_at(const std::string& source, std::size_t line,
                          const std::string& msg) {
  throw InputFormatError(source + ":" + std::to_string(line) + ": " + msg);
}

// Appends `line` to `seq`; returns false if the record must be skipped.
bool append_bases(Sequence& seq, const std::string& line,
                  AmbiguityPolicy policy, const std::string& source,
                  std::size_t line_no) {
  for (const char c : line) {
    if (c == '\r' || c == ' ' || c == '\t') continue;
    if (is_valid_char(c)) {
      seq.push_back(from_char(c));
    } else if (is_ambiguity_char(c)) {
      switch (policy) {
        case AmbiguityPolicy::kSkipRecord:
          return false;
        case AmbiguityPolicy::kSubstitute:
          seq.push_back(substitute_base(seq.size()));
          break;
        case AmbiguityPolicy::kThrow:
          fail_at(source, line_no,
                  std::string("ambiguous nucleotide '") + c +
                      "' rejected by policy");
      }
    } else {
      // Outside the IUPAC alphabet entirely: binary junk, digits, stray
      // '>' glued mid-line… never valid under any policy.
      const bool printable = c >= 0x20 && c < 0x7f;
      const std::string shown =
          printable ? std::string(1, c)
                    : "\\x" + std::to_string(static_cast<unsigned char>(c));
      fail_at(source, line_no,
              "invalid character '" + shown + "' in sequence data");
    }
  }
  return true;
}

}  // namespace

std::vector<Record> read_fasta(std::istream& in, AmbiguityPolicy policy,
                               const std::string& source) {
  std::vector<Record> records;
  std::string line;
  Record current;
  bool in_record = false;
  bool skip = false;
  std::size_t line_no = 0;
  std::size_t header_line = 0;   ///< line of the open record's '>'
  std::size_t data_lines = 0;    ///< sequence lines seen for the open record

  auto flush = [&] {
    // A header followed by no sequence lines at all is a truncated record
    // (policy-skipped records had data — they don't count as truncated).
    if (in_record && data_lines == 0)
      fail_at(source, header_line, "truncated record '" + current.id +
                                       "': header with no sequence");
    if (in_record && !skip && !current.seq.empty())
      records.push_back(std::move(current));
    current = Record{};
    skip = false;
    data_lines = 0;
  };

  while (std::getline(in, line)) {
    ++line_no;
    // Tolerate CRLF: strip one trailing '\r' before classifying the line.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '>') {
      flush();
      in_record = true;
      header_line = line_no;
      current.id = line.substr(1);
      while (!current.id.empty() && current.id.back() == ' ')
        current.id.pop_back();
    } else if (!in_record) {
      fail_at(source, line_no, "sequence data before first '>' header");
    } else {
      ++data_lines;
      if (!skip &&
          !append_bases(current.seq, line, policy, source, line_no))
        skip = true;
    }
  }
  flush();
  if (!in_record)
    fail_at(source, line_no == 0 ? 1 : line_no,
            "no FASTA records found (empty input)");
  return records;
}

std::vector<Record> read_fasta_file(const std::string& path,
                                    AmbiguityPolicy policy) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open FASTA file: " + path);
  return read_fasta(in, policy, path);
}

std::vector<Record> read_fastq(std::istream& in, AmbiguityPolicy policy,
                               const std::string& source) {
  std::vector<Record> records;
  std::string header, bases, plus, qual;
  std::size_t line_no = 0;
  auto next = [&](std::string& out) {
    if (!std::getline(in, out)) return false;
    ++line_no;
    if (!out.empty() && out.back() == '\r') out.pop_back();
    return true;
  };
  while (next(header)) {
    if (header.empty()) continue;
    if (header[0] != '@')
      fail_at(source, line_no, "FASTQ record must start with '@'");
    const std::size_t record_line = line_no;
    if (!next(bases) || !next(plus) || !next(qual))
      fail_at(source, line_no, "truncated FASTQ record: " + header);
    if (plus.empty() || plus[0] != '+')
      fail_at(source, record_line + 2, "FASTQ separator must be '+'");
    if (qual.size() != bases.size())
      fail_at(source, record_line + 3,
              "FASTQ quality length mismatch: " + header);
    Record rec;
    rec.id = header.substr(1);
    if (append_bases(rec.seq, bases, policy, source, record_line + 1))
      records.push_back(std::move(rec));
  }
  if (line_no == 0)
    fail_at(source, 1, "no FASTQ records found (empty input)");
  return records;
}

void write_fasta(std::ostream& out, const std::vector<Record>& records,
                 std::size_t line_width) {
  PIMA_CHECK(line_width > 0, "line width must be positive");
  for (const auto& rec : records) {
    out << '>' << rec.id << '\n';
    const std::string s = rec.seq.to_string();
    for (std::size_t i = 0; i < s.size(); i += line_width)
      out << s.substr(i, line_width) << '\n';
  }
}

void write_fasta_file(const std::string& path,
                      const std::vector<Record>& records,
                      std::size_t line_width) {
  std::ostringstream out;
  write_fasta(out, records, line_width);
  fsio::atomic_write_file(path, out.str(), "artifact");
}

}  // namespace pima::dna
