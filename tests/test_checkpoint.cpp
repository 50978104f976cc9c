// Tests of the checkpoint snapshot format: round-trip fidelity, atomic
// write hygiene, and — the point of the CRC — detection of every
// single-byte corruption anywhere in the file.
#include "runtime/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/error.hpp"

namespace pima::runtime {
namespace {

std::string temp_path(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

CheckpointFingerprint sample_fingerprint() {
  CheckpointFingerprint f;
  f.k = 17;
  f.hash_shards = 16;
  f.use_multiplicity = true;
  f.rows = 512;
  f.compute_rows = 8;
  f.columns = 256;
  f.subarrays_per_mat = 16;
  f.mats_per_bank = 4;
  f.banks = 2;
  f.fault_variation = 0.1;
  f.fault_seed = 2020;
  f.fault_retention = 1e-6;
  f.fault_weak_rows = 0.02;
  f.recovery_mode = 1;
  return f;
}

PipelineSnapshot sample_snapshot(std::uint32_t stages = 3) {
  PipelineSnapshot s;
  s.fingerprint = sample_fingerprint();
  s.stages_done = stages;
  s.hashmap = {.time_ns = 123.5, .serial_ns = 456.25, .energy_pj = 7.75,
               .commands = 1000, .subarrays_used = 16};
  s.debruijn = {.time_ns = 23.0, .serial_ns = 46.0, .energy_pj = 1.5,
                .commands = 200, .subarrays_used = 8};
  s.traverse = {.time_ns = 11.0, .serial_ns = 22.0, .energy_pj = 0.5,
                .commands = 100, .subarrays_used = 4};
  s.fault_stats.injected = 7;
  s.fault_stats.detected = 5;
  s.fault_stats.retried = 3;
  s.kmer_entries = {{assembly::Kmer(0b0011, 2), 4},
                    {assembly::Kmer(0b1100, 2), 1},
                    {assembly::Kmer(0b0110, 2), 9}};
  return s;
}

TEST(Checkpoint, RoundTripReproducesEveryField) {
  const std::string path = temp_path("ckpt_roundtrip.ckpt");
  const PipelineSnapshot original = sample_snapshot();
  save_checkpoint(path, original);
  const PipelineSnapshot loaded = load_checkpoint(path);
  EXPECT_EQ(loaded, original);
  // Atomic write leaves no temp litter behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(Checkpoint, PartialStageSnapshotsRoundTrip) {
  const std::string path = temp_path("ckpt_partial.ckpt");
  for (std::uint32_t stage : {1u, 2u}) {
    PipelineSnapshot s = sample_snapshot(stage);
    s.traverse = {};
    if (stage < 2) s.debruijn = {};
    save_checkpoint(path, s);
    EXPECT_EQ(load_checkpoint(path), s) << "stage " << stage;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsIoErrorNotCorruption) {
  EXPECT_THROW(load_checkpoint("/nonexistent/dir/pipeline.ckpt"), IoError);
}

TEST(Checkpoint, EverySingleByteFlipIsDetected) {
  const std::string path = temp_path("ckpt_flip.ckpt");
  save_checkpoint(path, sample_snapshot());
  const std::string good = slurp(path);
  ASSERT_GT(good.size(), 24u);
  // Flip one byte at a time — header, length, CRC and payload alike — and
  // demand a typed rejection at every position. A load must never return a
  // snapshot from a damaged file.
  for (std::size_t pos = 0; pos < good.size(); ++pos) {
    for (const char mask : {char(0x01), char(0xff)}) {
      std::string bad = good;
      bad[pos] = static_cast<char>(bad[pos] ^ mask);
      spit(path, bad);
      EXPECT_THROW(load_checkpoint(path), CorruptCheckpointError)
          << "undetected flip of byte " << pos;
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncationAtAnyLengthIsDetected) {
  const std::string path = temp_path("ckpt_trunc.ckpt");
  save_checkpoint(path, sample_snapshot());
  const std::string good = slurp(path);
  for (std::size_t len = 0; len < good.size(); ++len) {
    spit(path, good.substr(0, len));
    EXPECT_THROW(load_checkpoint(path), CorruptCheckpointError)
        << "undetected truncation to " << len << " bytes";
  }
  // Trailing garbage is rejected too.
  spit(path, good + "x");
  EXPECT_THROW(load_checkpoint(path), CorruptCheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, VersionMismatchRejected) {
  const std::string path = temp_path("ckpt_version.ckpt");
  save_checkpoint(path, sample_snapshot());
  const std::string good = slurp(path);
  // The previous format version (its fingerprint also pinned the device
  // count) and an unknown future one are both refused, naming the version.
  for (const std::uint32_t version :
       {kCheckpointVersion - 1, kCheckpointVersion + 1}) {
    std::string bytes = good;
    bytes[8] = static_cast<char>(version);  // version u32 LSB
    spit(path, bytes);
    try {
      load_checkpoint(path);
      FAIL() << "expected CorruptCheckpointError for version " << version;
    } catch (const CorruptCheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, FingerprintMismatchesRejectedWithFieldName) {
  const PipelineSnapshot snap = sample_snapshot();
  const struct {
    const char* field;
    void (*mutate)(CheckpointFingerprint&);
  } kCases[] = {
      {"k", [](CheckpointFingerprint& f) { f.k = 21; }},
      {"hash_shards", [](CheckpointFingerprint& f) { f.hash_shards = 8; }},
      {"device geometry", [](CheckpointFingerprint& f) { f.rows = 1024; }},
      {"fault seed", [](CheckpointFingerprint& f) { f.fault_seed = 1; }},
      {"recovery mode",
       [](CheckpointFingerprint& f) { f.recovery_mode = 2; }},
  };
  for (const auto& c : kCases) {
    CheckpointFingerprint current = sample_fingerprint();
    c.mutate(current);
    try {
      validate_compatible(snap, current);
      FAIL() << "expected mismatch on " << c.field;
    } catch (const CorruptCheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
  }
  // Matching fingerprints pass.
  EXPECT_NO_THROW(validate_compatible(snap, sample_fingerprint()));
}

TEST(Checkpoint, StageCountOutOfRangeRejected) {
  const std::string path = temp_path("ckpt_stage.ckpt");
  PipelineSnapshot s = sample_snapshot();
  s.stages_done = 4;  // save doesn't validate; load must
  save_checkpoint(path, s);
  EXPECT_THROW(load_checkpoint(path), CorruptCheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, Crc32MatchesIeeeReferenceVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

}  // namespace
}  // namespace pima::runtime
