// Minimal FASTA reading and writing.
//
// The paper samples reads from the NCBI chr14 FASTA; our examples and tests
// exchange data in the same format. A record holding 'N' (or another IUPAC
// ambiguity code) is skipped whole, as assemblers drop ambiguous reads.
//
// Parsing is hardened against malformed input: truncated records (a header
// with no sequence), sequence data before any header, empty files, and
// characters outside the IUPAC nucleotide alphabet raise InputFormatError
// with source:line context instead of crashing or silently mis-parsing.
// CRLF line endings and blank lines are tolerated everywhere.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "dna/sequence.hpp"

namespace pima::dna {

/// One FASTA record: id line (without '>') and the sequence.
struct Record {
  std::string id;
  Sequence seq;
};

/// Parses FASTA text from a stream. Multi-line sequences are supported.
/// A record with an IUPAC ambiguity code (N, R, Y, …) is dropped; a
/// character outside the IUPAC nucleotide alphabet raises InputFormatError
/// in any record. `source` names the stream in InputFormatError messages
/// ("source:line").
std::vector<Record> read_fasta(std::istream& in,
                               const std::string& source = "<fasta>");

/// Parses FASTA from a file path. Throws IoError if the file cannot be
/// opened, InputFormatError if it is empty or malformed.
std::vector<Record> read_fasta_file(const std::string& path);

/// Writes records as FASTA with the given line width.
void write_fasta(std::ostream& out, const std::vector<Record>& records,
                 std::size_t line_width = 70);

/// Writes records as a FASTA file through fsio::atomic_write_file (site
/// "artifact"): a reader sees the old file or the whole new one. Throws
/// IoError when the file cannot be written.
void write_fasta_file(const std::string& path,
                      const std::vector<Record>& records,
                      std::size_t line_width = 70);

}  // namespace pima::dna
