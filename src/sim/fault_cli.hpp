// Shared fault-plan CLI surface: one source of truth for the flag names,
// burst presets, and oracle-mode spellings used by mtm_sim, mtm_replay, and
// the fuzzer's tuple keys (crash / recover / min-alive / burst / degrade /
// oracle / oracle-every). Tools must not hand-roll these — the whole point
// is that a tuple recorded by the fuzzer, a --case override in mtm_replay,
// and an mtm_sim invocation can never drift apart.
#pragma once

#include <cstdint>
#include <string>

#include "core/cancel.hpp"
#include "core/cli.hpp"
#include "harness/net_transport.hpp"
#include "harness/storage.hpp"
#include "sim/byzantine.hpp"
#include "sim/faults.hpp"
#include "sim/scheduler.hpp"

namespace mtm::obs {
class MetricRegistry;
}  // namespace mtm::obs

namespace mtm {

/// Help-text fragment for the shared flags, formatted to line up with the
/// two-column option blocks the tools print.
const char* fault_flags_help();

/// Burst link-loss presets: 0 = off, 1 = mild, 2 = harsh, 3 = lingering
/// (long symmetric dwell times with near-total loss while BAD). Presets
/// (not raw Gilbert–Elliott parameters) keep fuzz tuples shrinkable and CLI
/// flags terse; the parameter values are pinned here forever because
/// recorded fuzz tuples reference them by number.
inline constexpr int kBurstPresetMax = 3;

/// Maps a preset id to its channel; throws std::invalid_argument outside
/// [0, kBurstPresetMax]. Preset 0 returns a disabled channel.
GilbertElliott burst_preset(int preset);

/// Parses the oracle-mode names ("none" | "random" | "min-holder" |
/// "leader" — the to_string(CrashTargeting) spellings); throws
/// std::invalid_argument on anything else.
CrashTargeting parse_crash_targeting(const std::string& name);

/// Parses the partition-mode names ("none" | "one-shot" | "periodic" |
/// "flapping" — the to_string(PartitionMode) spellings); throws
/// std::invalid_argument on anything else.
PartitionMode parse_partition_mode(const std::string& name);

/// Parses the Byzantine behavior names ("spoof" | "equivocate" | "silent" |
/// "replay" | "mix" — the to_string(ByzBehavior) spellings); throws
/// std::invalid_argument on anything else.
ByzBehavior parse_byz_behavior(const std::string& name);

/// Consumes the shared fault flags from `args` and returns a validated
/// FaultPlanConfig. The plan seed is left at its default — callers derive
/// per-trial seeds (see harness/experiment.cpp). Contradictory flag sets
/// (--recover without any crash mechanism, partition parameters without a
/// --partition mode, --partition-period outside periodic mode) are rejected
/// with a one-line std::invalid_argument.
FaultPlanConfig parse_fault_flags(const CliArgs& args);

/// Consumes the shared Byzantine flags (--byz, --byz-mode, --byz-spoof-uid,
/// --byz-tag) and returns a validated ByzantinePlanConfig. Behavior flags
/// without --byz > 0 are rejected with a one-line std::invalid_argument.
ByzantinePlanConfig parse_byz_flags(const CliArgs& args);

/// Harness-resilience knobs consumed by SweepRunner (harness/sweep.hpp):
/// crash-safe journaling/resume, per-trial watchdog deadlines, and the
/// retry/backoff/quarantine policy on top of them. Defined here, beside the
/// other shared CLI surfaces, so every tool spells the flags identically.
struct ResilienceOptions {
  /// Journal file for crash-safe per-trial results; empty disables
  /// journaling (and with it, resume).
  std::string journal_path;
  /// Open journal_path as an existing journal and skip every trial it
  /// already holds, instead of truncating it. The journal's manifest
  /// fingerprint must match this run's (JournalError with a manifest diff
  /// otherwise) — trial seeds derive only from (master seed, trial index),
  /// so the merged aggregates are byte-identical to an uninterrupted run.
  bool resume = false;
  /// Wall-clock budget per trial attempt (watchdog); 0 disables deadlines.
  std::uint64_t trial_deadline_ms = 0;
  /// Extra attempts for a deadline-killed trial before it is quarantined.
  std::uint32_t retries = 0;
  /// First retry sleeps this long; retry k sleeps backoff_ms << (k-1).
  std::uint64_t backoff_ms = 25;
  /// Also retry trials that censored (hit max_rounds) without a deadline
  /// kill. Off by default: censoring is deterministic in the seed, so a
  /// retry only helps when the censoring came from environmental load
  /// interacting with a deadline, not from the simulation itself.
  bool retry_censored = false;
  /// Append-durability policy for the journal (--journal-fsync): when do
  /// appended records reach stable storage? record = every append, batch:N
  /// = every N appends (default batch:8), none = only at checkpoints.
  JournalFsyncPolicy journal_fsync;
  /// Storage backend the journal writes through; null means
  /// default_storage(). Not a CLI flag — tools wire a FaultyStorage (or a
  /// metrics-counting PosixStorage) in after parsing --storage-chaos-*.
  Storage* storage = nullptr;
  /// Process-wide interrupt token (harness/interrupt.hpp interrupt_token());
  /// null means SIGINT/SIGTERM are not observed cooperatively. Not a CLI
  /// flag — tools set it after install_interrupt_handler().
  const CancelToken* interrupt = nullptr;
};

/// Help-text fragment for the resilience flags.
const char* resilience_flags_help();

/// Consumes the shared resilience flags (--journal, --resume,
/// --trial-deadline-ms, --retries, --backoff-ms, --retry-censored,
/// --journal-fsync). Contradictions are rejected with a one-line
/// std::invalid_argument: --journal with --resume (one file cannot be both
/// fresh and resumed), --retries without --trial-deadline-ms (nothing
/// would ever be retried), --backoff-ms or --retry-censored without
/// --retries (no retry budget to shape), and --journal-fsync without a
/// journal (no appends to make durable).
ResilienceOptions parse_resilience_flags(const CliArgs& args);

/// Help-text fragment for the storage-chaos flags.
const char* storage_chaos_flags_help();

/// Consumes the shared storage-chaos flags (--storage-chaos-torn,
/// --storage-chaos-eio, --storage-chaos-fsync-fail,
/// --storage-chaos-enospc-after, --storage-chaos-crash-after,
/// --storage-chaos-seed) and returns the FaultyStorage plan. Contradictions
/// are rejected with a one-line std::invalid_argument: any chaos flag
/// without a journal (--journal or --resume; the journal path is what the
/// faults harden), any chaos flag with a fabric role (the op clock is
/// per-process; forked/remote workers would each count their own),
/// probabilities outside [0, 1), and --storage-chaos-seed without an
/// enabled fault.
StorageFaultConfig parse_storage_chaos_flags(const CliArgs& args,
                                             const ResilienceOptions& resilience,
                                             bool fabric_role);

/// Distributed-fabric knobs consumed by FabricRunner (harness/fabric.hpp):
/// how many worker processes to fork, the lease/heartbeat timing, and the
/// deterministic chaos schedule. `workers == 0` (the default) means the
/// fabric is off and tools take their single-process SweepRunner path.
struct FabricOptions {
  /// Worker processes to fork; 0 disables the fabric entirely.
  std::size_t workers = 0;
  /// Lease lifetime: a worker that neither heartbeats nor delivers a result
  /// for strictly longer than this loses the lease and its incomplete
  /// trials return to the queue.
  std::uint64_t lease_ms = 10000;
  /// Heartbeat period; 0 derives lease_ms / 4 (renew well before expiry).
  std::uint64_t heartbeat_ms = 0;
  /// Max trials granted per lease (all from the same sweep point).
  std::size_t lease_batch = 4;
  /// Times a single (point, trial) may be requeued (lease expiry or worker
  /// death) before the coordinator quarantines it with a fabricated
  /// censored record instead of retrying forever.
  std::uint32_t max_requeues = 8;
  /// Chaos hook: SIGKILL this many workers at deterministic points in the
  /// result stream (never the last one alive). 0 disables chaos.
  std::size_t chaos_kills = 0;
  /// Seed of the chaos schedule (which workers die, and when).
  std::uint64_t chaos_seed = 1;
  /// Each worker journals its own trials to journal_path + ".w<index>" in
  /// addition to the coordinator's merged journal — the shards feed
  /// mtm_bench_validate's permutation check. Requires a journal path.
  bool worker_shards = false;
  /// The watchdog/retry/journal policy every worker applies in-process —
  /// identical to the single-process path so results can never diverge.
  ResilienceOptions resilience;
  /// Optional sink for fabric.* counters and the heartbeat latency
  /// histogram. Not a CLI flag — tools wire their registry in.
  obs::MetricRegistry* metrics = nullptr;

  // --- network fabric (mtm-fabric/2, TCP multi-host) ---

  /// Coordinator: bind a TCP listener at host:port and accept remote
  /// workers instead of forking local ones ("" disables). Port 0 binds an
  /// ephemeral port (printed by the tools).
  std::string listen;
  /// Worker: dial a remote coordinator at host:port and run trials for it
  /// ("" disables). Mutually exclusive with listen and workers.
  std::string connect;
  /// Coordinator: per-peer heartbeat-liveness deadline — a network worker
  /// silent for strictly longer than this is declared dead (TCP half-open
  /// connections never EOF). 0 derives 2 * lease_ms in listen mode and
  /// disables liveness on a forked fabric (EOF is death there).
  std::uint64_t liveness_ms = 0;
  /// Worker: per-attempt dial timeout / total attempts / capped-exponential
  /// backoff shape for --connect and every reconnect.
  std::uint64_t net_connect_timeout_ms = 5000;
  std::uint64_t net_reconnect_attempts = 8;
  std::uint64_t net_backoff_ms = 50;
  std::uint64_t net_backoff_max_ms = 2000;
  /// Worker: deterministic wire-fault injection on this worker's sends
  /// (drop/truncate/reorder/duplicate/delay + forced sever; see
  /// harness/net_transport.hpp). All-zero disables the decorator.
  WireFaultConfig net_chaos;
};

/// Help-text fragment for the fabric flags.
const char* fabric_flags_help();

/// Consumes the shared fabric flags (--workers, --lease-ms, --heartbeat-ms,
/// --lease-batch, --max-requeues, --chaos-kill-workers, --chaos-seed,
/// --worker-shards, --listen, --connect, --liveness-ms, --net-*,
/// --net-chaos-*) and folds in an already-parsed ResilienceOptions.
/// Contradictions are rejected with a one-line std::invalid_argument: any
/// fabric flag without a fabric role (--workers >= 1, --listen, or
/// --connect), --chaos-seed without --chaos-kill-workers,
/// --chaos-kill-workers >= --workers (the schedule never kills the last
/// worker), --worker-shards without a journal, --heartbeat-ms >= --lease-ms
/// (the lease would expire between beats), --listen with --connect or
/// --workers (one process, one role), --chaos-kill-workers with --listen
/// (remote workers have no local pid to SIGKILL), --worker-shards with
/// --listen (shards are written worker-side; pass it to --connect
/// workers), --net-chaos-*/--net-*
/// dial knobs without --connect (they shape the worker's wire),
/// --net-chaos-seed without any net fault enabled, and
/// --liveness-ms without --listen or <= the effective heartbeat period.
FabricOptions parse_fabric_flags(const CliArgs& args,
                                 const ResilienceOptions& resilience);

/// Help-text fragment for the scheduler flags.
const char* scheduler_flags_help();

/// Consumes the shared scheduler flags (--scheduler=sync|event,
/// --scheduler-threads, --latency-dist, --latency-mean, --clock-drift) and
/// returns a validated SchedulerSpec. Contradictions are rejected with a
/// one-line std::invalid_argument: --latency-dist/--latency-mean/
/// --clock-drift without --scheduler=event (the sync round loop delivers
/// everything within the round), --scheduler-threads with --scheduler=event
/// (the event scheduler is sequential), and --latency-dist without a
/// nonzero --latency-mean (the distribution would never be sampled).
SchedulerSpec parse_scheduler_flags(const CliArgs& args);

}  // namespace mtm
