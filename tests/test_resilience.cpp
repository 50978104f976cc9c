// End-to-end run resilience: a run killed mid-pipeline (literally SIGKILL,
// no destructors) resumes from its stage checkpoint and reproduces the
// uninterrupted run bit-for-bit — contigs, per-stage DeviceStats,
// FaultStats — for both serial and parallel engines. Plus the resume
// contract's refusal paths.
#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <string>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "dna/genome.hpp"
#include "test_support.hpp"

namespace pima::core {
namespace {

namespace fs = std::filesystem;
using test_support::expect_bit_identical;

dram::Geometry pipeline_geometry() {
  dram::Geometry g;
  g.rows = 512;
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 16;
  g.mats_per_bank = 4;
  g.banks = 2;
  return g;
}

std::vector<dna::Sequence> workload_reads() {
  dna::GenomeParams gp;
  gp.length = 700;
  gp.repeat_count = 0;
  dna::ReadSamplerParams rp;
  rp.coverage = 6.0;
  rp.read_length = 70;
  return dna::sample_reads(dna::generate_genome(gp), rp);
}

PipelineOptions base_options(std::size_t threads) {
  PipelineOptions opt;
  opt.k = 15;
  opt.hash_shards = 8;
  opt.threads = threads;
  return opt;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("pima_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// Forks a child that runs the pipeline with checkpointing and SIGKILLs
// itself the instant the snapshot for `kill_after_stage` is durable —
// the hardest crash there is: no stack unwinding, no flushes. Then
// resumes in-process and compares against the golden uninterrupted run.
void kill_and_resume(std::size_t kill_threads, std::size_t resume_threads,
                     std::uint32_t kill_after_stage,
                     std::size_t devices = 1) {
  const auto reads = workload_reads();
  const std::string dir =
      fresh_dir("kill_s" + std::to_string(kill_after_stage) + "_t" +
                std::to_string(kill_threads) + "_" +
                std::to_string(resume_threads) + "_d" +
                std::to_string(devices));

  // Golden: uninterrupted, no checkpointing at all, sharded like the
  // killed run.
  PipelineOptions golden_opt = base_options(resume_threads);
  golden_opt.devices = devices;
  dram::Device golden_dev(pipeline_geometry());
  const auto golden = run_pipeline(golden_dev, reads, golden_opt);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: die the moment the target stage's checkpoint hits disk.
    PipelineOptions opt = base_options(kill_threads);
    opt.devices = devices;
    opt.checkpoint_dir = dir;
    opt.on_checkpoint = [&](std::uint32_t stage, const std::string&) {
      if (stage == kill_after_stage) raise(SIGKILL);
    };
    try {
      dram::Device dev(pipeline_geometry());
      (void)run_pipeline(dev, reads, opt);
    } catch (...) {
    }
    _exit(42);  // reaching here means the kill never fired
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Resume — possibly at a different thread count than the killed run; the
  // runtime's determinism contract makes that legal.
  PipelineOptions opt = base_options(resume_threads);
  opt.devices = devices;
  opt.checkpoint_dir = dir;
  opt.resume = true;
  dram::Device dev(pipeline_geometry());
  const auto resumed = run_pipeline(dev, reads, opt);
  expect_bit_identical(resumed, golden);
  fs::remove_all(dir);
}

TEST(Resilience, KillAfterStage1ResumesBitIdenticalSerial) {
  kill_and_resume(/*kill_threads=*/1, /*resume_threads=*/1, 1);
}

TEST(Resilience, KillAfterStage1ResumesBitIdenticalParallel) {
  kill_and_resume(/*kill_threads=*/4, /*resume_threads=*/4, 1);
}

TEST(Resilience, KillAfterStage2ResumesAcrossThreadCounts) {
  // Checkpointed at 4 channels, resumed at 1 — the fingerprint
  // deliberately excludes the channel count.
  kill_and_resume(/*kill_threads=*/4, /*resume_threads=*/1, 2);
}

TEST(Resilience, KillShardedRunResumesAcrossThreadCounts) {
  // A 4-device sharded run killed after stage 1 and resumed at a
  // different per-device channel count: the fingerprint pins neither
  // devices nor threads, and the resumed output must still be
  // bit-identical to the uninterrupted sharded run.
  kill_and_resume(/*kill_threads=*/2, /*resume_threads=*/1, 1,
                  /*devices=*/4);
}

TEST(Resilience, ResumeAtAnotherDeviceCountMatchesGolden) {
  // The snapshot's (shard, slot)-ordered table and stage stats are the
  // same for every device count and transport, so a 4-device snapshot
  // resumes at one device, or at two isolated workers, bit-identically.
  const auto reads = workload_reads();
  const std::string dir = fresh_dir("resume_devices");

  dram::Device golden_dev(pipeline_geometry());
  const auto golden = run_pipeline(golden_dev, reads, base_options(1));

  PipelineOptions record = base_options(1);
  record.devices = 4;
  record.checkpoint_dir = dir;
  record.on_checkpoint = [&](std::uint32_t stage, const std::string& path) {
    fs::copy_file(path, dir + "/stage" + std::to_string(stage) + ".ckpt",
                  fs::copy_options::overwrite_existing);
  };
  dram::Device record_dev(pipeline_geometry());
  expect_bit_identical(run_pipeline(record_dev, reads, record), golden);

  for (const bool isolate : {false, true}) {
    for (const std::uint32_t stage : {1u, 2u}) {
      SCOPED_TRACE("isolate=" + std::to_string(isolate) +
                   " stage=" + std::to_string(stage));
      fs::copy_file(dir + "/stage" + std::to_string(stage) + ".ckpt",
                    dir + "/pipeline.ckpt",
                    fs::copy_options::overwrite_existing);
      PipelineOptions resume = base_options(1);
      resume.devices = isolate ? 2 : 1;
      resume.isolate = isolate;
      resume.checkpoint_dir = dir;
      resume.resume = true;
      dram::Device dev(pipeline_geometry());
      expect_bit_identical(run_pipeline(dev, reads, resume), golden);
    }
  }
  fs::remove_all(dir);
}

TEST(Resilience, ResumeFromEveryStageBoundaryMatchesGolden) {
  // No crash needed: capture the snapshot after each stage, then re-run
  // from each one and demand the golden result every time.
  const auto reads = workload_reads();
  const std::string dir = fresh_dir("stagewise");

  dram::Device golden_dev(pipeline_geometry());
  const auto golden = run_pipeline(golden_dev, reads, base_options(1));

  PipelineOptions record = base_options(1);
  record.checkpoint_dir = dir;
  record.on_checkpoint = [&](std::uint32_t stage, const std::string& path) {
    fs::copy_file(path, dir + "/stage" + std::to_string(stage) + ".ckpt",
                  fs::copy_options::overwrite_existing);
  };
  dram::Device record_dev(pipeline_geometry());
  const auto recorded = run_pipeline(record_dev, reads, record);
  expect_bit_identical(recorded, golden);  // checkpointing is observation-free

  for (std::uint32_t stage : {1u, 2u, 3u}) {
    fs::copy_file(dir + "/stage" + std::to_string(stage) + ".ckpt",
                  dir + "/pipeline.ckpt",
                  fs::copy_options::overwrite_existing);
    PipelineOptions resume = base_options(1);
    resume.checkpoint_dir = dir;
    resume.resume = true;
    dram::Device dev(pipeline_geometry());
    const auto resumed = run_pipeline(dev, reads, resume);
    expect_bit_identical(resumed, golden);
  }
  fs::remove_all(dir);
}

TEST(Resilience, ResumeWithTheOtherWalkRecomputesTheContigs) {
  // The snapshot holds the table and the stage stats, not the contigs, so
  // the walk is no part of the fingerprint: a stage-3 snapshot resumes
  // under either walk, takes every stage's stats from the snapshot and
  // walks the rebuilt graph. Planted repeats make the two walks differ.
  dna::GenomeParams gp;
  gp.length = 900;
  gp.repeat_length = 60;
  gp.repeat_count = 4;
  dna::ReadSamplerParams rp;
  rp.coverage = 6.0;
  rp.read_length = 70;
  const auto reads = dna::sample_reads(dna::generate_genome(gp), rp);
  for (const bool euler : {false, true}) {
    SCOPED_TRACE(euler ? "unitigs -> euler" : "euler -> unitigs");
    const std::string dir = fresh_dir("walk_flip");
    PipelineOptions record = base_options(1);
    record.euler_contigs = !euler;
    record.checkpoint_dir = dir;
    dram::Device record_dev(pipeline_geometry());
    const auto recorded = run_pipeline(record_dev, reads, record);
    const runtime::PipelineSnapshot snap =
        runtime::load_checkpoint(dir + "/pipeline.ckpt");
    ASSERT_EQ(snap.stages_done, 3u);

    PipelineOptions golden_opt = base_options(1);
    golden_opt.euler_contigs = euler;
    dram::Device golden_dev(pipeline_geometry());
    const auto golden = run_pipeline(golden_dev, reads, golden_opt);

    PipelineOptions resume = golden_opt;
    resume.checkpoint_dir = dir;
    resume.resume = true;
    dram::Device dev(pipeline_geometry());
    const auto resumed = run_pipeline(dev, reads, resume);
    expect_bit_identical(resumed, golden);
    EXPECT_NE(resumed.contigs, recorded.contigs) << "the walks agree";
    EXPECT_EQ(resumed.hashmap.device, snap.hashmap);
    EXPECT_EQ(resumed.debruijn.device, snap.debruijn);
    EXPECT_EQ(resumed.traverse.device, snap.traverse);
    fs::remove_all(dir);
  }
}

TEST(Resilience, ResumeWithoutSnapshotStartsFresh) {
  const auto reads = workload_reads();
  const std::string dir = fresh_dir("fresh");
  dram::Device golden_dev(pipeline_geometry());
  const auto golden = run_pipeline(golden_dev, reads, base_options(1));

  PipelineOptions opt = base_options(1);
  opt.checkpoint_dir = dir;
  opt.resume = true;  // nothing to resume from — must simply run
  dram::Device dev(pipeline_geometry());
  expect_bit_identical(run_pipeline(dev, reads, opt), golden);
  fs::remove_all(dir);
}

TEST(Resilience, ResumeWithMismatchedConfigRejected) {
  const auto reads = workload_reads();
  const std::string dir = fresh_dir("mismatch");
  {
    PipelineOptions opt = base_options(1);
    opt.checkpoint_dir = dir;
    dram::Device dev(pipeline_geometry());
    (void)run_pipeline(dev, reads, opt);
  }
  PipelineOptions other = base_options(1);
  other.k = 17;  // not the checkpointed run's k
  other.checkpoint_dir = dir;
  other.resume = true;
  dram::Device dev(pipeline_geometry());
  EXPECT_THROW((void)run_pipeline(dev, reads, other), CorruptCheckpointError);
  fs::remove_all(dir);
}

TEST(Resilience, ResumeWithFaultInjectionRefused) {
  // Fault streams' RNG positions are not checkpointed, so a faulty run can
  // never resume bit-identically — it must refuse loudly, not drift.
  const auto reads = workload_reads();
  const std::string dir = fresh_dir("faulty");
  PipelineOptions opt = base_options(1);
  opt.checkpoint_dir = dir;
  opt.resume = true;
  opt.fault.variation = 0.10;
  opt.recovery.mode = runtime::RecoveryMode::kRetry;
  dram::Device dev(pipeline_geometry());
  EXPECT_THROW((void)run_pipeline(dev, reads, opt), SimulationError);
  fs::remove_all(dir);
}

TEST(Resilience, FaultFreeRecoveryModeStillCheckpoints) {
  // recovery != off with faults off draws no randomness, so checkpointed
  // overhead-measurement runs stay resumable.
  const auto reads = workload_reads();
  const std::string dir = fresh_dir("recovery_on");
  PipelineOptions opt = base_options(1);
  opt.recovery.mode = runtime::RecoveryMode::kRetry;
  dram::Device golden_dev(pipeline_geometry());
  const auto golden = run_pipeline(golden_dev, reads, opt);

  PipelineOptions record = opt;
  record.checkpoint_dir = dir;
  record.on_checkpoint = [&](std::uint32_t stage, const std::string&) {
    if (stage == 1) raise(SIGKILL);  // replaced by fork below
  };
  // Run the interrupted half in a child so SIGKILL cannot take the test
  // runner down with it.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    try {
      dram::Device dev(pipeline_geometry());
      (void)run_pipeline(dev, reads, record);
    } catch (...) {
    }
    _exit(42);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  PipelineOptions resume = opt;
  resume.checkpoint_dir = dir;
  resume.resume = true;
  dram::Device dev(pipeline_geometry());
  expect_bit_identical(run_pipeline(dev, reads, resume), golden);
  fs::remove_all(dir);
}

TEST(Resilience, PipelineWatchdogQuiescentOnHealthyRun) {
  // PipelineOptions::stall_timeout_ms arms the engine watchdog (the
  // stall-detection path itself is exercised in test_runtime); an armed
  // watchdog over a healthy run must change nothing.
  const auto reads = workload_reads();
  PipelineOptions opt = base_options(4);
  opt.stall_timeout_ms = 10000.0;  // generous: healthy tasks finish in µs
  dram::Device dev(pipeline_geometry());
  const auto result = run_pipeline(dev, reads, opt);
  dram::Device ref_dev(pipeline_geometry());
  expect_bit_identical(result, run_pipeline(ref_dev, reads, base_options(4)));
}

}  // namespace
}  // namespace pima::core
