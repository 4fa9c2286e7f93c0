// The abstract execution surface of the simulator (ROADMAP item 2).
//
// A Scheduler owns the execution of a protocol over a dynamic topology and
// exposes it round-by-round: step() advances virtual time by one *global
// round window* and everything observable (telemetry, traces, invariant
// checks, stabilization polling) is sampled at window boundaries. Two
// implementations ship:
//
//  * SyncScheduler (= Engine, sim/engine.hpp): the paper's synchronous
//    round loop on the SoA/CSR hot path. One step() is exactly one model
//    round for every node. This is the default and reproduces every
//    pre-split golden, trace, and bench fingerprint byte-identically.
//
//  * EventScheduler (sim/event_scheduler.hpp): a seeded discrete-event
//    queue in which each node runs its own round clock with per-node drift
//    and messages travel over per-edge latency distributions. One step()
//    drains the event queue through one nominal round window, so the
//    synchronous observers (run_until_stabilized, InvariantMonitor, trace
//    sinks) keep working unchanged while the execution underneath is truly
//    asynchronous (paper Section VIII's R5 setting as real asynchrony
//    rather than staggered activations).
//
// Construction goes through make_scheduler(), which dispatches on
// EngineConfig::scheduler (a SchedulerSpec). SchedulerSpec is also the one
// place execution parallelism is configured (SchedulerSpec::threads, set
// from TrialControls::scheduler and --scheduler-threads).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "sim/model.hpp"

namespace mtm::obs {
class TraceSink;
struct PhaseProfile;
}  // namespace mtm::obs

namespace mtm {

class ByzantinePlan;
class DynamicGraphProvider;
struct EngineConfig;
class FaultPlan;
class InvariantMonitor;
class Protocol;
class Telemetry;

/// Which execution model runs the protocol.
enum class SchedulerKind : std::uint8_t {
  kSync,   ///< synchronous round loop (the paper's model; the default)
  kEvent,  ///< discrete-event queue with latency + clock drift
};

/// Per-edge message latency distribution of the event scheduler. Latency is
/// measured in units of the nominal round period (1.0 = one round) and is a
/// pure hash of (seed, edge, transmission count) — no delay matrix is
/// stored, so the model scales to millions of nodes.
enum class LatencyDist : std::uint8_t {
  kConstant,     ///< every delivery takes exactly `latency_mean` rounds
  kUniform,      ///< uniform on [0, 2 * latency_mean)
  kExponential,  ///< exponential with mean `latency_mean`
};

/// How to execute the simulation. Owned by EngineConfig; threaded through
/// TrialControls and the CLI (--scheduler / --scheduler-threads /
/// --latency-dist / --latency-mean / --clock-drift).
struct SchedulerSpec {
  SchedulerKind kind = SchedulerKind::kSync;
  /// Execution parallelism. Sync mode: intra-round shard count (1 =
  /// sequential, 0 = one shard per hardware thread). Event mode is
  /// inherently sequential and requires 1.
  std::size_t threads = 1;
  /// Event mode only: per-edge delivery latency distribution and its mean
  /// in round periods. latency_mean = 0 with kConstant degrades to
  /// same-window delivery.
  LatencyDist latency_dist = LatencyDist::kConstant;
  double latency_mean = 0.0;
  /// Event mode only: per-node clock drift. Node u's round period is
  /// T * (1 + drift * h(u)) with h(u) a seeded hash in [-1, 1), so drift
  /// 0.05 means clocks run up to 5% fast or slow. Must be in [0, 0.5).
  double clock_drift = 0.0;

  friend bool operator==(const SchedulerSpec&, const SchedulerSpec&) = default;
};

/// Throws std::invalid_argument on out-of-range values or contradictory
/// combinations (latency/drift on a sync spec, threads != 1 on an event
/// spec). make_scheduler and both engine constructors call this.
void validate(const SchedulerSpec& spec);

const char* to_string(SchedulerKind kind);
const char* to_string(LatencyDist dist);
/// Parse "sync"/"event" and "constant"/"uniform"/"exponential"; throw
/// std::invalid_argument (with the offending token) on anything else.
SchedulerKind parse_scheduler_kind(std::string_view text);
LatencyDist parse_latency_dist(std::string_view text);

/// The abstract scheduler. Every accessor an observer needs (telemetry,
/// protocol, activity, fault/Byzantine plans) lives here so the runner
/// stack, the invariant monitor, and the differential checker work against
/// any implementation. The zero-perturbation observability contract of
/// sim/engine.hpp (trace sinks / phase profiles / invariant monitors change
/// no simulation result) binds every implementation.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Advances one global round window. For the sync scheduler this is one
  /// model round; for the event scheduler it drains all events with
  /// timestamps inside the window.
  virtual void step() = 0;

  /// Runs `count` additional round windows.
  void run_rounds(Round count) {
    for (Round i = 0; i < count; ++i) step();
  }

  virtual Round rounds_executed() const noexcept = 0;
  virtual NodeId node_count() const noexcept = 0;
  virtual const EngineConfig& config() const noexcept = 0;
  virtual const Telemetry& telemetry() const noexcept = 0;
  virtual Protocol& protocol() noexcept = 0;
  virtual const Protocol& protocol() const noexcept = 0;

  /// True if node u has activated by the last executed round window and is
  /// not currently crashed.
  virtual bool node_active(NodeId u) const = 0;

  /// The round in which every node is active per the configured activation
  /// schedule (fault-plan recoveries do not move it).
  virtual Round all_active_round() const noexcept = 0;

  /// The fault plan state, or nullptr when no fault dimension is enabled.
  virtual const FaultPlan* fault_plan() const noexcept = 0;
  /// The Byzantine plan, or nullptr when no adversary is configured.
  virtual const ByzantinePlan* byzantine_plan() const noexcept = 0;

  /// Observability attachments (non-owning; nullptr detaches). Same
  /// zero-perturbation contract as sim/engine.hpp.
  virtual void set_trace_sink(obs::TraceSink* sink) noexcept = 0;
  virtual void set_phase_profile(obs::PhaseProfile* profile) noexcept = 0;
  virtual void set_invariant_monitor(InvariantMonitor* monitor) noexcept = 0;
};

/// Builds the scheduler selected by config.scheduler.kind. `topology` and
/// `protocol` must outlive the returned scheduler. Validates the spec.
std::unique_ptr<Scheduler> make_scheduler(DynamicGraphProvider& topology,
                                          Protocol& protocol,
                                          EngineConfig config);

}  // namespace mtm
