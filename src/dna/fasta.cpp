#include "dna/fasta.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/fsio.hpp"

namespace pima::dna {
namespace {

// IUPAC nucleotide ambiguity codes (everything sequencers legitimately
// emit beyond ACGT, plus U for RNA-style input and '-'/'.' gap characters
// some aligners leave in). These drop the record; anything else in a
// sequence line is a hard format error.
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

// Appends `line`'s bases to `seq`; returns false if the line holds an
// ambiguity code, so the record must be skipped. Every character is
// checked either way.
bool append_bases(Sequence& seq, const std::string& line,
                  const std::string& source, std::size_t line_no) {
  bool unambiguous = true;
  for (const char c : line) {
    if (c == '\r' || c == ' ' || c == '\t') continue;
    if (is_valid_char(c)) {
      seq.push_back(from_char(c));
    } else if (is_ambiguity_char(c)) {
      unambiguous = false;
    } else {
      // Outside the IUPAC alphabet entirely: binary junk, digits, stray
      // '>' glued mid-line… never valid.
      const bool printable = c >= 0x20 && c < 0x7f;
      const std::string shown =
          printable ? std::string(1, c)
                    : "\\x" + std::to_string(static_cast<unsigned char>(c));
      fail_at(source, line_no,
              "invalid character '" + shown + "' in sequence data");
    }
  }
  return unambiguous;
}

}  // namespace

std::vector<Record> read_fasta(std::istream& in, const std::string& source) {
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
    // (skipped ambiguous records had data — they don't count as truncated).
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
      if (!append_bases(current.seq, line, source, line_no)) skip = true;
    }
  }
  flush();
  if (!in_record)
    fail_at(source, line_no == 0 ? 1 : line_no,
            "no FASTA records found (empty input)");
  return records;
}

std::vector<Record> read_fasta_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open FASTA file: " + path);
  return read_fasta(in, path);
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
