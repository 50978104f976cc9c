#include "dna/fasta.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"

namespace pima::dna {
namespace {

TEST(Fasta, ParsesSingleRecord) {
  std::istringstream in(">chr1 test\nACGT\nACGT\n");
  const auto recs = read_fasta(in);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].id, "chr1 test");
  EXPECT_EQ(recs[0].seq.to_string(), "ACGTACGT");
}

TEST(Fasta, ParsesMultipleRecords) {
  std::istringstream in(">a\nAC\n>b\nGGTT\n>c\nA\n");
  const auto recs = read_fasta(in);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[1].id, "b");
  EXPECT_EQ(recs[1].seq.to_string(), "GGTT");
}

TEST(Fasta, SkipsBlankLinesAndCarriageReturns) {
  std::istringstream in(">a\r\nAC\r\n\nGT\r\n");
  const auto recs = read_fasta(in);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].seq.to_string(), "ACGT");
}

TEST(Fasta, SkipRecordPolicyDropsAmbiguous) {
  std::istringstream in(">good\nACGT\n>bad\nACNT\n>good2\nTTTT\n");
  const auto recs = read_fasta(in);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].id, "good");
  EXPECT_EQ(recs[1].id, "good2");
}

TEST(Fasta, MalformedInputTable) {
  // Fuzz-style table over malformed inputs: every row must throw
  // InputFormatError (never crash, never silently return records).
  const char* kMalformed[] = {
      "",                          // empty file
      "\n\r\n\n",                  // blank lines only
      "ACGT\n>r\nACGT\n",          // data before the first header
      ">only-header\n",            // truncated record: header, no data
      ">a\nACGT\n>trunc\n",        // truncated final record
      ">a\nAC*GT\n",               // illegal character (not IUPAC)
      ">a\nACGT\x01\n",            // non-printable byte in data
      ">a\nacgq\n",                // lowercase non-IUPAC
      ">a\nNA*T\n",                // illegal character after an ambiguity
      ">a\nACNT\nAC*T\n",          // ...and on a later line of the record
  };
  for (const char* text : kMalformed) {
    std::istringstream in(text);
    EXPECT_THROW(read_fasta(in), InputFormatError) << "input: " << text;
  }
  // Errors carry source:line context for operators.
  std::istringstream in(">r\nACGT\nAC*T\n");
  try {
    read_fasta(in);
    FAIL() << "expected InputFormatError";
  } catch (const InputFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("<fasta>:3"), std::string::npos)
        << e.what();
  }
}

TEST(Fasta, CrlfAndAmbiguityCodesAccepted) {
  // CRLF endings and the full IUPAC ambiguity set are tolerated (an
  // ambiguous record is dropped; it is never a format error).
  std::istringstream in(">r1\r\nACGT\r\n>r2\r\nRYSWKM\r\n>r3\r\nACGT\r\n");
  const auto recs = read_fasta(in);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].id, "r1");
  EXPECT_EQ(recs[1].id, "r3");
}

TEST(Fasta, WriteReadRoundTrip) {
  std::vector<Record> recs;
  recs.push_back({"alpha", Sequence::from_string("ACGTACGTACGT")});
  recs.push_back({"beta", Sequence::from_string("TT")});
  std::ostringstream out;
  write_fasta(out, recs, 5);  // exercise line wrapping
  std::istringstream in(out.str());
  const auto back = read_fasta(in);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, "alpha");
  EXPECT_EQ(back[0].seq, recs[0].seq);
  EXPECT_EQ(back[1].seq, recs[1].seq);
}

TEST(Fasta, MissingFileThrows) {
  EXPECT_THROW(read_fasta_file("/nonexistent/path.fa"), IoError);
}

}  // namespace
}  // namespace pima::dna
