// The PIM-Assembler execution pipeline (paper Fig. 5): k-mer analysis →
// de Bruijn construction → traversal, run end-to-end on the functional DRAM
// model with per-stage time/energy roll-ups.
//
// This is the bit-accurate counterpart of the paper's behavioural
// simulator: it produces real contigs (verifiable against the reference
// genome) *and* the exact command mix each stage issued, which the
// full-scale cost model (cost_model.hpp) scales to the paper's chr14
// workload.
//
// All DRAM work is submitted through the multi-channel runtime
// (runtime::Engine): the hash shards, the graph sub-arrays and the
// partition's edge blocks are sharded over per-chip channel executors.
// `PipelineOptions::threads` picks the channel count; every output —
// contigs, graph, per-stage DeviceStats — is bit-identical for any value,
// because work routing is a pure function of the target sub-array.
// One stage body serves both transports (pipeline.cpp, DESIGN.md §15): the
// in-process device shard, or — with `isolate` — the same shard in one
// pima_devd worker process; outputs are identical either way.
// Run resilience: with PipelineOptions::checkpoint_dir set, the pipeline
// writes a versioned, checksummed snapshot (runtime/checkpoint.hpp) at
// every stage boundary — atomically, so a crash at any instant leaves a
// loadable file. `resume` skips the device work a snapshot already covers,
// rebuilds the graph and the contigs from its table, and provably
// reproduces the uninterrupted run bit-for-bit (contigs, per-stage
// DeviceStats, FaultStats) for fault-free configurations; fault-injected
// runs cannot resume because per-sub-array RNG stream positions are not
// part of the snapshot. `stall_timeout_ms` arms the engine watchdog so a
// wedged channel worker surfaces as EngineStalledError instead of hanging
// the run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "assembly/assembler.hpp"
#include "assembly/debruijn.hpp"
#include "core/pim_hash_table.hpp"
#include "dram/device.hpp"
#include "dram/fault.hpp"
#include "dram/isa.hpp"
#include "runtime/cancel.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/recovery.hpp"

namespace pima::core {

struct PipelineOptions {
  std::size_t k = 16;
  /// Sub-arrays for the hash table; must be below the device's sub-array
  /// count (the graph is stored after them), else PreconditionError.
  std::size_t hash_shards = 4;
  bool use_multiplicity = false;   ///< Euler over edge multiplicities
  bool euler_contigs = true;       ///< Euler walks vs unitigs
  /// Runtime channel executors: the run has one engine of this many
  /// channels, in process and in the isolated worker alike. 1 =
  /// single-threaded fallback (tasks run inline on the caller, the
  /// pre-runtime behaviour); 0 = one channel per hardware thread. Channel
  /// c serves the sub-arrays whose flat index is ≡ c (mod channels). Every
  /// output (contigs, per-stage DeviceStats, model-class metrics,
  /// checkpoints) is bit-identical for any value, so it is not part of the
  /// checkpoint fingerprint: a resume may change it.
  std::size_t threads = 1;
  /// Process isolation (runtime/procpool.hpp, DESIGN.md §15): run the
  /// device shard in one `pima_devd` child process under the
  /// fault-tolerant supervisor. A crashed/stalled/chaos-killed worker is
  /// restarted and journal-replayed, so the outputs stay bit-identical to
  /// the in-process run — including runs where the worker died mid-stage.
  /// The resume record stays `<checkpoint_dir>/pipeline.ckpt` alone, so
  /// an isolated run resumes an in-process snapshot and vice versa. When
  /// the restart budget runs out the pipeline reruns on the in-process
  /// DeviceShard: a logged `pool.fallback` event and a
  /// pima_pool_fallbacks_total count, same outputs.
  /// Incompatible with fault injection and recovery: those are simulated
  /// state the init request does not carry.
  bool isolate = false;
  struct IsolateOptions {
    /// pima_devd binary; empty = $PIMA_DEVD_PATH, then alongside the
    /// running executable.
    std::string devd_path;
    /// Total worker restarts allowed before the in-process rerun.
    std::size_t restart_budget = 3;
  } isolate_opts;
  /// Stochastic fault injection (Table I calibrated). Defaults to
  /// fault-free: every output stays bit-identical to the unfaulted build.
  dram::FaultConfig fault;
  /// Verify-retry/vote recovery for the critical in-array ops. Engaged
  /// when faults are enabled or the mode is not kOff (so recovery overhead
  /// can be measured at zero fault rate).
  runtime::RecoveryOptions recovery;
  /// Captures every DRAM command the pipeline issues as per-sub-array
  /// instruction programs (Device::enable_tracing via the engine),
  /// returned as PipelineResult::trace — e.g. `pima_asm pim-run
  /// --dump-trace` → `pima_fuzz --replay` for oracle verification.
  bool capture_trace = false;
  /// Directory for stage-boundary snapshots. Empty disables checkpointing.
  /// The snapshot file is `<checkpoint_dir>/pipeline.ckpt`, rewritten
  /// atomically after each completed stage.
  std::string checkpoint_dir;
  /// Resume from `<checkpoint_dir>/pipeline.ckpt` if it exists: completed
  /// stages take their stats from the snapshot and skip their device work,
  /// and the run's outputs are bit-identical to the uninterrupted run. The
  /// contigs are recomputed, so `euler_contigs` may differ. Requires
  /// checkpoint_dir; a missing snapshot file simply starts fresh. Resume is
  /// refused (SimulationError) when fault injection is enabled — the fault
  /// streams' RNG positions are not part of the snapshot.
  bool resume = false;
  /// Per-task watchdog deadline forwarded to EngineOptions::stall_timeout_ms
  /// (0 = unsupervised). A wedged channel worker surfaces as
  /// EngineStalledError instead of hanging the run.
  double stall_timeout_ms = 0.0;
  /// Periodic progress reporting on stderr (reads/s, k-mers/s, ETA, live
  /// fault counters), sampled from the telemetry registry every this many
  /// seconds. 0 disables the reporter thread.
  double progress_interval_s = 0.0;
  /// Test hook: invoked after each stage snapshot has been durably written
  /// (stage number 1..3, path of the snapshot file). The kill-and-resume
  /// crash test SIGKILLs itself from here.
  std::function<void(std::uint32_t stage, const std::string& path)>
      on_checkpoint;
  /// Cooperative cancellation (runtime/cancel.hpp). Polled per read in the
  /// k-mer stream, per program slice in construction/traversal, and at
  /// every stage boundary; a triggered token raises CancelledError on the
  /// controller thread. Checkpoints already written stay valid, so a
  /// cancelled run resumes like a crashed one. Null = not cancellable.
  const runtime::CancelToken* cancel = nullptr;
};

/// Per-stage roll-up (device stats snapshot over the stage's commands).
struct StageStats {
  dram::DeviceStats device;
  const char* name = "";
};

struct PipelineResult {
  std::vector<dna::Sequence> contigs;
  assembly::ContigStats contig_stats;
  assembly::DeBruijnGraph graph;   ///< the traversed de Bruijn graph
  StageStats hashmap;
  StageStats debruijn;
  StageStats traverse;
  std::size_t distinct_kmers = 0;
  /// Fault-aware execution roll-up (all zero on a fault-free run with
  /// recovery off). `injected` counts raw bit flips the fault model
  /// applied; the rest count the recovery layer's responses.
  runtime::FaultStats fault_stats;
  /// With capture_trace: the replayable AAP program, every sub-array's
  /// capture appended in logical flat order — identical for every device
  /// count and transport (the isolated worker dies with the run, so its
  /// traces are harvested here). Empty when capture_trace is off.
  dram::Program trace;

  dram::DeviceStats total() const;
};

/// Runs the full pipeline on `device`. The device's sub-array contents and
/// stats are consumed (stats cleared per stage).
PipelineResult run_pipeline(dram::Device& device,
                            const std::vector<dna::Sequence>& reads,
                            const PipelineOptions& options);

}  // namespace pima::core
