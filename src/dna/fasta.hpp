// Minimal FASTA / FASTQ reading and writing.
//
// The paper samples reads from the NCBI chr14 FASTA; our examples and tests
// exchange data in the same formats. 'N' (and other IUPAC ambiguity codes)
// are policy-controlled: skip the record or substitute a deterministic base —
// mirroring how assemblers preprocess ambiguous calls.
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

/// One FASTA/FASTQ record: id line (without '>'/'@') and the sequence.
struct Record {
  std::string id;
  Sequence seq;
};

/// What to do with IUPAC ambiguity codes (N, R, Y, …) while parsing.
/// Characters outside the IUPAC nucleotide alphabet are never subject to
/// policy — they always raise InputFormatError.
enum class AmbiguityPolicy {
  kSkipRecord,      ///< drop the whole record (assembler default for reads)
  kSubstitute,      ///< replace with a base derived from the position
  kThrow,           ///< reject the file (InputFormatError)
};

/// Parses FASTA text from a stream. Multi-line sequences are supported.
/// `source` names the stream in InputFormatError messages ("source:line").
std::vector<Record> read_fasta(std::istream& in,
                               AmbiguityPolicy policy = AmbiguityPolicy::kSkipRecord,
                               const std::string& source = "<fasta>");

/// Parses FASTA from a file path. Throws IoError if the file cannot be
/// opened, InputFormatError if it is empty or malformed.
std::vector<Record> read_fasta_file(const std::string& path,
                                    AmbiguityPolicy policy = AmbiguityPolicy::kSkipRecord);

/// Parses FASTQ text (4-line records; quality line is validated for length
/// and discarded — the simulator models error-free sampling separately).
std::vector<Record> read_fastq(std::istream& in,
                               AmbiguityPolicy policy = AmbiguityPolicy::kSkipRecord,
                               const std::string& source = "<fastq>");

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
