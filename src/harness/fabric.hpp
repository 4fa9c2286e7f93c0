// Distributed sweep fabric: coordinator/worker trial leasing with
// crash-tolerant, byte-identical aggregation (schema mtm-fabric/2).
//
// A single SweepRunner process is the unit of correctness in this repo; the
// fabric is how a sweep outgrows one process without giving any of that up.
// The coordinator owns the merged trial journal and leases batches of
// (point, trial) work to worker processes; workers execute each trial with
// the exact same code path as an in-process sweep (execute_sweep_trial) and
// stream checksummed journal-record lines back. Merged aggregates are
// byte-identical to a single-process run because:
//
//   * trial seeds derive only from (master seed, trial index) — never from
//     which worker ran the trial or when;
//   * results land in (point, trial) slots of the same SweepLedger that
//     SweepRunner uses, so arrival order cannot reorder aggregation;
//   * duplicate deliveries (a lease expired, the trial was re-granted, and
//     then BOTH executions reported) resolve first-wins per key, the rule
//     the ledger applies to resumed journals too.
//
// Robustness model:
//
//   * every lease carries a deadline; workers renew it by heartbeat or by
//     delivering results. A lease that goes strictly past its deadline is
//     expired and its incomplete trials return to the front of the queue;
//   * a dead worker (SIGKILL, OOM, chaos) is detected by transport EOF;
//     its leases expire immediately and the sweep drains on the remaining
//     workers. If ALL workers die, the coordinator stops granting and
//     reports a partial (interrupted) sweep — completed points stay valid;
//   * results arriving after their lease expired ("late results") are
//     discarded deterministically unless the key is still unfilled — a
//     stale lease id never overwrites anything;
//   * a (point, trial) requeued more than max_requeues times is presumed
//     poisonous to workers and is quarantined with a fabricated censored
//     record, mirroring the watchdog's quarantine of poison seeds;
//   * SIGINT/SIGTERM on the coordinator is forwarded to every live worker
//     (harness/interrupt.hpp), which flush shard journals and exit; the
//     coordinator drains, checkpoints, and reports partial;
//   * --chaos-kill-workers SIGKILLs workers at deterministic points in the
//     result stream (seeded schedule, never the last worker alive) so CI
//     can prove the drain + requeue path keeps aggregates byte-identical.
//
// One protocol for every worker, forked or remote. Each worker mints a
// nonzero session id and stamps it, with a per-connection sequence number
// starting at 1, on every line it sends. Its hello proves the manifest
// fingerprint; the coordinator severs a hello without a session or with a
// different fingerprint, and a sequence window drops unsequenced and
// wire-duplicated lines. The welcome tells the worker its slot index, which
// names its shard journal. Workers heartbeat every heartbeat period, with
// or without a lease: a beat renews the current lease and proves the peer
// is alive.
//
// The only rule that differs between the two fabric forms is the
// transport's own. On a forked fabric (AF_UNIX socketpairs, no listener)
// EOF is death: the worker's leases are requeued at once. On a listening
// fabric (TCP) EOF only marks the worker disconnected. It may redial,
// re-hello with its session and resume its live leases in the same slot,
// replaying its unretired results. A half-open TCP connection never EOFs,
// so death there is declared by a per-peer heartbeat-liveness deadline in
// LeaseTable.
//
// Transport is a small interface (harness/net_transport.hpp): production
// workers are forked children on an AF_UNIX stream socketpair or remote
// processes dialing in over TCP; tests drive the same coordinator and
// worker loops over in-memory loopback transports (make_loopback_transport)
// with an injected clock, and FaultyTransport injects deterministic wire
// faults under all of it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/checkpoint.hpp"
#include "harness/net_transport.hpp"
#include "harness/sweep.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_cli.hpp"

namespace mtm {

inline constexpr const char* kFabricSchemaVersion = "mtm-fabric/2";

/// Fabric protocol, transport, or spawn failure.
class FabricError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

/// One mtm-fabric/2 message (a single JSONL line on the wire). The protocol
/// is deliberately tiny — seven message types and no negotiation:
///
///   worker -> coordinator: hello, heartbeat, result, bye
///   coordinator -> worker: welcome, lease, shutdown
///
/// There is no lease-done message: the coordinator retires a lease the
/// moment the last of its trials' results arrives, so a protocol state
/// cannot drift from the data that defines it.
struct FabricMessage {
  enum class Type {
    kHello,
    kLease,
    kHeartbeat,
    kResult,
    kShutdown,
    kBye,
    kWelcome,  ///< coordinator ack of hello: assigns/confirms worker index
  };

  Type type = Type::kHello;
  std::uint64_t worker = 0;  ///< sender/addressee worker index
  std::uint64_t lease = 0;   ///< lease id (kLease, kHeartbeat, kResult)
  std::uint64_t point = 0;   ///< sweep-point index of the lease's trials
  std::vector<std::uint64_t> trials;  ///< granted trial indices (kLease)
  /// Sender's steady-clock ms at send time; the coordinator's heartbeat
  /// latency histogram is (receive - sent), clamped at 0 (the clocks share
  /// CLOCK_MONOTONIC on one machine, but tests inject fake time).
  std::uint64_t sent_ms = 0;
  /// kResult payload: one checksummed journal_record_line — the wire reuses
  /// the journal's serialization and checksum verbatim, so a corrupt
  /// result line is rejected by the same code that rejects journal rot.
  std::string record;
  /// The worker's session id, nonzero. A reconnecting worker re-hellos
  /// with the same session and the coordinator transplants the new
  /// connection into its old slot.
  std::uint64_t session = 0;
  /// Per-connection-send monotone sequence number, starting at 1; a line
  /// with seq 0 is dropped. Freshly stamped on every transmission,
  /// including replays, so the receiver's window only ever discards lines
  /// duplicated by the WIRE, never replayed results.
  std::uint64_t seq = 0;
  /// kHello: manifest_fingerprint of the worker's RunManifest; the
  /// coordinator refuses a mismatched worker before granting it work.
  std::string fingerprint;
};

const char* to_string(FabricMessage::Type type);

/// One JSONL line for `message` (no trailing newline) and its inverse;
/// parse throws FabricError on malformed lines or unknown types/fields.
std::string encode_fabric_message(const FabricMessage& message);
FabricMessage parse_fabric_message(const std::string& line);

/// Receiver-side duplicate suppression for wire-duplicated/reordered lines:
/// a 64-deep sliding bitmap over sequence numbers. accept(seq) returns true
/// exactly once per seq value >= 1 and never for 0, which counts as seen
/// from the start. Reset on reconnect — each connection numbers its sends
/// from 1.
struct SeqWindow {
  std::uint64_t last = 0;      ///< highest seq accepted
  std::uint64_t window = 0;    ///< bit k set = (last - 1 - k) seen
  static constexpr std::uint64_t kDepth = 64;

  bool accept(std::uint64_t seq) {
    if (seq > last) {
      const std::uint64_t shift = seq - last;
      window = shift >= kDepth ? 0 : (window << shift) | (1ull << (shift - 1));
      last = seq;
      return true;
    }
    const std::uint64_t back = last - seq;
    if (back == 0) return false;           // exact duplicate of newest
    if (back > kDepth) return false;       // beyond window: presumed stale
    const std::uint64_t bit = 1ull << (back - 1);
    if (window & bit) return false;
    window |= bit;
    return true;
  }

  void reset() { last = 0; window = 0; }
};

// ---------------------------------------------------------------------------
// LeaseTable
// ---------------------------------------------------------------------------

/// Pure lease bookkeeping — every operation takes the current time as a
/// parameter, so expiry edge cases (heartbeat exactly at the deadline, a
/// result one tick late) are deterministic and unit-testable without
/// sleeping. Lease ids are monotonically increasing and never reused; a
/// message carrying a retired/expired id is recognizably stale forever.
class LeaseTable {
 public:
  /// liveness_ms > 0 arms per-peer heartbeat-liveness deadlines: a peer
  /// that neither heartbeats nor delivers for strictly longer than
  /// liveness_ms is reported by lifeless_peers(). This — not EOF — is how
  /// worker death is declared on a network fabric, because a TCP half-open
  /// connection never EOFs. 0 disables (forked workers die by EOF).
  explicit LeaseTable(std::uint64_t lease_ms, std::uint64_t liveness_ms = 0);

  struct Expired {
    std::uint64_t id = 0;
    std::uint64_t worker = 0;
    /// (point, trial) keys granted but not completed before expiry.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> incomplete;
  };

  /// Grants `trials` of `point` to `worker`; the lease deadline is
  /// now_ms + lease_ms. Returns the new lease id (ids start at 1).
  std::uint64_t grant(std::uint64_t worker, std::uint64_t point,
                      std::vector<std::uint64_t> trials, std::uint64_t now_ms);

  /// Heartbeat: pushes the deadline to now_ms + lease_ms. False for an
  /// unknown, retired, or already-expired lease (the worker lost it).
  bool renew(std::uint64_t id, std::uint64_t now_ms);

  enum class CompleteStatus {
    kAccepted,        ///< result recorded, lease renewed, lease still open
    kCompletedLease,  ///< result recorded and it was the lease's last trial
    kStale,           ///< unknown/expired/retired lease, or key not granted
  };

  /// Records (point, trial) as delivered under lease `id`. Accepting a
  /// result also renews the lease — data is the strongest heartbeat.
  CompleteStatus complete(std::uint64_t id, std::uint64_t point,
                          std::uint64_t trial, std::uint64_t now_ms);

  /// Expires every lease whose deadline is STRICTLY before now_ms — a
  /// heartbeat arriving exactly at the deadline still renews. Expired
  /// leases are retired; their incomplete keys are returned for requeue.
  std::vector<Expired> expire(std::uint64_t now_ms);

  /// Immediately expires all of `worker`'s open leases (worker death).
  std::vector<Expired> expire_worker(std::uint64_t worker);

  /// Marks `worker` as heard-from at now_ms (hello, heartbeat, or result).
  /// No-op when liveness is disabled.
  void note_peer_alive(std::uint64_t worker, std::uint64_t now_ms);

  /// Peers whose last sign of life is STRICTLY more than liveness_ms before
  /// now_ms — a heartbeat landing exactly at the deadline still counts, the
  /// same edge rule as lease expiry. Reported peers are dropped from the
  /// liveness table (death is declared once); callers expire their leases.
  std::vector<std::uint64_t> lifeless_peers(std::uint64_t now_ms);

  /// Forgets `worker`'s liveness state (clean shutdown / EOF-declared
  /// death) so it cannot be re-reported.
  void drop_peer(std::uint64_t worker);

  std::size_t open_leases() const noexcept { return open_.size(); }
  std::uint64_t liveness_ms() const noexcept { return liveness_ms_; }

 private:
  struct Lease {
    std::uint64_t id = 0;
    std::uint64_t worker = 0;
    std::uint64_t point = 0;
    std::uint64_t deadline_ms = 0;
    std::vector<std::uint64_t> pending;  // trials not yet completed
  };

  std::uint64_t lease_ms_;
  std::uint64_t liveness_ms_;
  std::uint64_t next_id_ = 1;
  std::vector<Lease> open_;
  /// worker -> last heard-from time (only when liveness_ms_ > 0).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> last_alive_;
};

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// A worker's session: its identity towards the coordinator plus, for a
/// TCP worker, the redial factory that lets the session outlive a
/// connection.
struct FabricWorkerSession {
  /// Session id, nonzero and unique per worker process; the coordinator
  /// refuses a hello with session 0.
  std::uint64_t id = 0;
  /// When the transport breaks (send failure or EOF), the worker calls
  /// reconnect() — which should block through its own backoff schedule and
  /// return nullptr only when the coordinator is truly unreachable — then
  /// re-hellos with the same session and resends the unacknowledged
  /// results of its current lease. Empty for a socketpair worker, whose
  /// EOF means the coordinator is gone.
  std::function<std::unique_ptr<Transport>()> reconnect;
  /// Give up after this many successful reconnects (runaway guard).
  std::uint64_t max_reconnects = 32;
  /// Observed reconnect count, for the caller to export as a stat.
  std::uint64_t reconnects = 0;
};

/// Runs the worker side of the protocol over `transport` until shutdown,
/// interrupt, or the coordinator is gone: hello with the session and the
/// manifest fingerprint, then for each lease execute its trials via
/// execute_sweep_trial (the SweepRunner inner loop — same watchdog, retry,
/// backoff, and quarantine policy) and send one result per trial. A
/// background thread heartbeats every options.heartbeat_ms, renewing the
/// current lease, and re-hellos until the welcome arrives. Leases are
/// served as they arrive; the welcome only sets the worker's slot index.
/// With options.worker_shards, every completed trial is also appended to
/// the worker's own shard journal (<journal_path>.w<slot index>), giving
/// the validator an independent per-worker record set to check against the
/// merged journal.
///
/// Returns a process exit code: 0 (clean shutdown), kInterruptExitCode
/// (interrupt observed), 1 (coordinator vanished).
int run_fabric_worker(std::unique_ptr<Transport> transport,
                      const std::vector<SweepPoint>& points,
                      const obs::RunManifest& manifest,
                      const FabricOptions& options,
                      FabricWorkerSession& session);

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Fabric-level robustness accounting, exported to the metric registry
/// (fabric.* counters) and printed by the tools.
struct FabricStats {
  std::uint64_t leases_granted = 0;
  std::uint64_t leases_completed = 0;
  std::uint64_t leases_expired = 0;
  /// Leases still open at shutdown (drained away, not failed).
  std::uint64_t leases_aborted = 0;
  std::uint64_t trials_requeued = 0;
  std::uint64_t late_results_discarded = 0;
  std::uint64_t duplicate_results_discarded = 0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t chaos_kills = 0;
  std::uint64_t heartbeats = 0;
  /// Trials quarantined at the fabric level (max_requeues exhausted).
  std::uint64_t fabric_quarantined = 0;
  /// Successful session-resuming reconnects.
  std::uint64_t reconnects = 0;
  /// Workers declared dead by the heartbeat-liveness deadline (half-open
  /// connections; EOF deaths are counted in worker_deaths only).
  std::uint64_t liveness_deaths = 0;
  /// Lines discarded by the per-connection sequence window (wire dups and
  /// unsequenced lines).
  std::uint64_t stale_seq_discarded = 0;
  /// Hellos refused for a missing session or a mismatched manifest
  /// fingerprint.
  std::uint64_t manifest_rejects = 0;
};

/// One worker as the coordinator sees it: its message channel plus, for
/// forked workers, the pid to reap (and for chaos to SIGKILL). pid < 0
/// marks an in-process (test) worker — chaos then severs the transport.
struct WorkerEndpoint {
  std::unique_ptr<Transport> transport;
  pid_t pid = -1;
};

/// The coordinator: grants leases and drives expiry/requeue/chaos; the
/// merged journal, result slots and report are SweepRunner's SweepLedger.
/// Single-threaded; the clock is injectable so tests can replay expiry
/// schedules deterministically.
class FabricCoordinator {
 public:
  using Clock = std::function<std::uint64_t()>;  ///< monotonic ms

  /// Throws JournalError on an unusable/mismatched journal, FabricError on
  /// invalid options. `clock` defaults to the steady clock.
  FabricCoordinator(const obs::RunManifest& manifest, FabricOptions options,
                    Clock clock = nullptr);

  /// Runs `points` across `workers` and returns the same SweepReport a
  /// SweepRunner over the same points would produce (modulo the
  /// executed/resumed split, which reflects who did the work). Reaps forked
  /// workers before returning; no orphans survive this call.
  ///
  /// With a listener, additional workers may dial in at any time (workers
  /// may then start empty); EOF then only disconnects a worker, which may
  /// reconnect and resume, and death is declared by the liveness deadline
  /// (effective liveness defaults to 2 * lease_ms on a listener fabric when
  /// options.liveness_ms is 0). Without one, EOF is death.
  SweepReport run(const std::vector<SweepPoint>& points,
                  std::vector<WorkerEndpoint> workers,
                  FabricListener* listener = nullptr);

  const FabricStats& stats() const noexcept { return stats_; }

 private:
  FabricOptions options_;
  Clock clock_;
  SweepLedger ledger_;
  FabricStats stats_;
  /// Expected hello fingerprint (manifest_fingerprint of the coordinator's
  /// manifest; remote workers rebuilt theirs from the same flags, and
  /// manifests carry no timestamps, so equality is exact).
  std::string manifest_fingerprint_;
};

// ---------------------------------------------------------------------------
// FabricRunner: fork-based production entry point
// ---------------------------------------------------------------------------

/// Drop-in distributed SweepRunner: forks options.workers worker processes
/// connected over AF_UNIX socketpairs and runs the coordinator in this
/// process. Fork (not exec) because SweepPoint bodies are std::function
/// closures; call run() before creating any threads. Workers get their own
/// process group (a terminal Ctrl-C reaches only the coordinator, which
/// forwards it — see harness/interrupt.hpp) and, on Linux, PDEATHSIG so a
/// SIGKILLed coordinator cannot leak orphans.
class FabricRunner {
 public:
  /// Validates options (workers >= 1 or a listen address, chaos_kills <
  /// workers, worker_shards needs a journal path) — throws FabricError on
  /// violations. With options.listen set, binds the TCP listener here (so
  /// bound_port() is valid before run() blocks — tools print it for
  /// workers to dial); throws TransportError when the bind fails.
  FabricRunner(const obs::RunManifest& manifest, FabricOptions options);

  /// Forks the workers, runs the coordinator, reaps everything. With
  /// options.listen set, accepts remote workers instead of forking —
  /// workers are remote processes running run_fabric_net_worker
  /// (mtm_soak/mtm_sim --connect).
  SweepReport run(const std::vector<SweepPoint>& points);

  const FabricStats& stats() const noexcept { return stats_; }
  /// Actual bound port in listen mode (resolves an ephemeral :0 bind).
  std::uint16_t bound_port() const noexcept { return bound_port_; }

 private:
  obs::RunManifest manifest_;
  FabricOptions options_;
  FabricStats stats_;
  std::unique_ptr<TcpListener> listener_;
  std::uint16_t bound_port_ = 0;
};

// ---------------------------------------------------------------------------
// Network worker entry point
// ---------------------------------------------------------------------------

/// Runs one TCP worker process: dials options.connect with backoff + seeded
/// jitter, wraps the connection in a FaultyTransport when any --net-chaos-*
/// is set (chaos seed re-derived per connection attempt so reconnect fault
/// schedules stay deterministic), rebuilds nothing — `points` and
/// `manifest` must be constructed from the same CLI flags as the
/// coordinator's (manifests carry no timestamps, so equal flags give equal
/// fingerprints, which the hello presents for verification). Returns a
/// process exit code like run_fabric_worker; 1 also covers "could not
/// connect". Exports fabric.reconnects to options.metrics when set.
int run_fabric_net_worker(const std::vector<SweepPoint>& points,
                          const obs::RunManifest& manifest,
                          const FabricOptions& options);

}  // namespace mtm
