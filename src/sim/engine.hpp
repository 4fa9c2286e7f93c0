// The mobile telephone model round engine (paper Section III).
//
// One Engine::step() executes a full model round:
//   1. advertise — each active node picks a b-bit tag (validated);
//   2. scan      — each active node gets a view of its active neighbors'
//                  ids and tags;
//   3. decide    — each active node either sends one proposal (to a
//                  neighbor in its view) or elects to receive;
//   4. resolve   — each receiving node with incoming proposals accepts one
//                  chosen uniformly at random (a node that sent a proposal
//                  cannot accept one);
//   5. exchange  — each connected pair trades one bounded payload each way;
//   6. finish    — per-node end-of-round hook.
//
// Classical-telephone mode (paper Section I / related work) removes the
// one-connection bound: every proposal connects, and a node may take part in
// any number of connections in a round. It exists so benchmarks can compare
// against the classical model the paper contrasts with.
//
// Asynchronous activation (paper Section VIII): a node with activation round
// a_u is invisible before round a_u (not scanned, cannot act); its protocol
// callbacks receive the node-local round r - a_u + 1.
//
// Fault plans (sim/faults.hpp) extend the round with a phase 0: node
// crashes/recoveries and the adversarial crash oracle apply before
// advertising; burst/degradation link faults apply to established
// connections right after the i.i.d. failure-injection check. A crashed
// node is treated exactly like a not-yet-activated one; a recovered node
// re-enters through the activation machinery with its local rounds
// restarting at 1. Partition schedules block cross-class edges at scan
// time, so partitioned neighbors are mutually invisible (no tag seen, no
// proposal possible) until the window heals.
//
// Byzantine plans (sim/byzantine.hpp) rewrite what honest nodes observe
// from misbehaving ones: advertised tags are filtered per observer during
// scan, and payloads are transformed or withheld during exchange. The
// protocol object itself stays honest; only the engine-side observation
// lies.
//
// Single-trial scale (ROADMAP north star, n = 10^6..10^7): the hot path
// runs on structure-of-arrays scratch (sim/round_arena.hpp) — flat tag /
// decision / winner arrays and a CSR inbox rebuilt in place each round —
// instead of per-node heap containers. On top of that layout the engine can
// shard nodes across an internal thread pool WITHIN a round
// (EngineConfig::scheduler.threads): advertise, scan/decide, proposal
// resolution, and finish run per-shard, while inbox assembly uses a
// deterministic shard-blocked counting sort and everything order-sensitive
// (telemetry counting, fault-plan link draws, payload exchange) runs as a
// sequential cross-shard reduction in ascending node order.
//
// Determinism is free, not bolted on: the canonical RNG layout (see
// testing/reference_engine.hpp) gives every node its own stream and pins
// only per-stream draw order, never cross-node interleaving. A shard owns
// its nodes' streams outright, so the sharded execution makes exactly the
// draws the sequential one makes — results are bit-identical at every
// shard and thread count, and identical to the seed engine's goldens.
// Sharding engages only when the protocol opts in via
// Protocol::parallel_phases_safe(); otherwise the engine silently runs
// sequentially.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace_sink.hpp"
#include "sim/byzantine.hpp"
#include "sim/dynamic_graph.hpp"
#include "sim/faults.hpp"
#include "sim/protocol.hpp"
#include "sim/round_arena.hpp"
#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"

namespace mtm {

class InvariantMonitor;

/// How a receiving node selects among incoming proposals. The paper
/// (Section III) notes "there are different ways to model how v selects a
/// proposal to accept" and adopts uniform randomness "for simplicity";
/// the alternatives let experiments probe how much the analyses depend on
/// that choice (the Section VI good-edge argument needs the uniform case).
enum class AcceptancePolicy {
  kUniformRandom,  ///< the paper's model (default)
  kSmallestId,     ///< deterministic: lowest-id proposer wins
  kLargestId,      ///< deterministic: highest-id proposer wins
};

struct EngineConfig {
  /// Tag length b >= 0 (paper Section III). Tags are validated to fit.
  int tag_bits = 0;
  /// Classical telephone model: unbounded accepts, senders may also receive.
  bool classical_mode = false;
  /// Master seed; all node streams derive deterministically from it.
  std::uint64_t seed = 1;
  /// Per-node activation rounds (>= 1). Empty means "all activate in
  /// round 1" (the synchronized-start setting of Sections VI–VII).
  std::vector<Round> activation_rounds;
  /// Record per-round telemetry (costs memory on long runs).
  bool record_rounds = false;
  /// Failure injection: probability that an ESTABLISHED connection drops
  /// before any payload is exchanged (models flaky radio links; the real
  /// services the model abstracts — Multipeer Connectivity et al. — lose
  /// connections routinely). Both endpoints simply see a wasted round.
  /// The paper's algorithms are monotone, so they tolerate any p < 1;
  /// failure-injection tests and benches quantify the slowdown.
  double connection_failure_prob = 0.0;
  /// Receiver-side proposal selection (see AcceptancePolicy).
  AcceptancePolicy acceptance = AcceptancePolicy::kUniformRandom;
  /// Node churn, burst link loss, partition schedules, and adversarial
  /// crash oracles (see sim/faults.hpp). Disabled by default; a disabled
  /// plan is byte-identical to no plan (no extra randomness is drawn).
  FaultPlanConfig faults;
  /// Byzantine node behaviors (see sim/byzantine.hpp). Disabled by
  /// default; selection and equivocation coins are pure hashes, so honest
  /// nodes' RNG streams are untouched whatever the setting.
  ByzantinePlanConfig byzantine;
  /// How to execute: scheduler kind, execution threads, and the event
  /// scheduler's latency/drift model (see sim/scheduler.hpp). For the sync
  /// scheduler, scheduler.threads is the intra-round shard count: 1
  /// (default) runs sequentially with no pool; 0 means one shard per
  /// hardware thread. Sharded results are bit-identical to sequential ones
  /// at any value — per-node RNG streams ARE the shard streams — but
  /// sharding only engages when the protocol declares
  /// Protocol::parallel_phases_safe(); otherwise the engine silently runs
  /// sequentially (check shard_count()).
  SchedulerSpec scheduler;
};

class Engine : public Scheduler {
 public:
  /// Engine keeps references to `topology` and `protocol`; both must outlive
  /// it. Calls protocol.init() with per-node RNG streams. The config's
  /// scheduler spec must be (or default to) SchedulerKind::kSync — event
  /// execution lives in EventScheduler; use make_scheduler() to dispatch.
  Engine(DynamicGraphProvider& topology, Protocol& protocol,
         EngineConfig config);

  /// Executes one round of the model.
  void step() override;

  Round rounds_executed() const noexcept override { return round_; }
  NodeId node_count() const noexcept override { return node_count_; }
  const EngineConfig& config() const noexcept override { return config_; }
  const Telemetry& telemetry() const noexcept override { return telemetry_; }
  Protocol& protocol() noexcept override { return protocol_; }
  const Protocol& protocol() const noexcept override { return protocol_; }

  /// True if node u has activated by the *last executed* round and is not
  /// currently crashed.
  bool node_active(NodeId u) const override;

  /// The round in which every node is active (max activation round of the
  /// configured schedule; fault-plan recoveries do not move it).
  Round all_active_round() const noexcept override {
    return all_active_round_;
  }

  /// The fault plan state, or nullptr when no fault dimension is enabled.
  const FaultPlan* fault_plan() const noexcept override {
    return fault_plan_.get();
  }

  /// The Byzantine plan, or nullptr when no adversary is configured.
  const ByzantinePlan* byzantine_plan() const noexcept override {
    return byz_plan_.get();
  }

  /// Effective intra-round shard count: 1 when running sequentially
  /// (requested threads <= 1, or the protocol did not opt in via
  /// parallel_phases_safe). Tests assert on this to prove the parallel
  /// path actually engaged.
  std::size_t shard_count() const noexcept { return shard_count_; }

  /// Bytes of per-round scratch currently reserved by the arena (the
  /// shrink policy returns slack after a degree spike; see
  /// sim/round_arena.hpp).
  std::size_t scratch_reserved_bytes() const noexcept {
    return arena_->reserved_bytes();
  }

  /// Observability attachments (both non-owning, both nullptr by default;
  /// pass nullptr to detach). Zero-perturbation contract: attaching either
  /// changes NO simulation result — trace events carry only deterministic
  /// values (round numbers, counter deltas, node ids) and phase timers only
  /// write wall-clock totals into the external profile; neither touches the
  /// engine's RNG streams, telemetry counters, or protocol state. The
  /// differential test in tests/obs/test_zero_perturbation.cpp enforces it.
  void set_trace_sink(obs::TraceSink* sink) noexcept override {
    trace_sink_ = sink;
  }
  void set_phase_profile(obs::PhaseProfile* profile) noexcept override {
    phase_profile_ = profile;
  }

  /// Runtime invariant monitor (sim/invariants.hpp; non-owning, nullptr
  /// detaches). Called once at the end of every step() with the engine and
  /// the round's graph. The monitor obeys the same zero-perturbation
  /// contract as the trace sink: it only reads deterministic state, so
  /// attaching it changes no simulation result. In fail-fast mode it may
  /// throw InvariantViolation out of step().
  void set_invariant_monitor(InvariantMonitor* monitor) noexcept override {
    invariant_monitor_ = monitor;
  }

 private:
  bool active_in(NodeId u, Round r) const {
    return r >= activation_[u] && (fault_plan_ == nullptr || fault_plan_->alive(u));
  }
  Round local_round(NodeId u, Round r) const {
    return r - activation_[u] + 1;
  }
  void apply_faults(Round r);
  void exchange(NodeId u, NodeId v, Round global_round);

  /// Runs body(shard, lo, hi) over the static node shards: inline on the
  /// caller when shard_count_ == 1 (no pool, no std::function, no
  /// allocation), else fanned across the engine's pool with one task per
  /// shard and a full barrier (parallel_for rethrows worker exceptions).
  template <typename F>
  void run_sharded(F&& body);

  // Per-shard phase bodies. `plain` marks the fast path taken when no
  // fault plan, no adversary, and every node has activated: activity and
  // visibility checks vanish from the inner loops.
  void advertise_range(Round r, bool plain, NodeId lo, NodeId hi);
  void scan_decide_range(const Graph& graph, Round r, bool plain,
                         std::size_t shard, NodeId lo, NodeId hi,
                         obs::PhaseProfile* profile);
  void build_inboxes();
  void resolve_range(bool plain, NodeId lo, NodeId hi);
  void reduce_and_exchange(Round r);

  /// Folds the per-shard scan/decide profiles into the attached profile at
  /// the phase barrier (parallel mode only; no-op when unattached).
  void merge_shard_profiles();

  DynamicGraphProvider& topology_;
  Protocol& protocol_;
  EngineConfig config_;
  NodeId node_count_;
  Round round_ = 0;
  Round all_active_round_ = 1;
  Tag tag_limit_;  // 2^b (0 means only tag 0 is legal... see ctor)
  std::vector<Round> activation_;
  std::vector<Rng> node_rngs_;
  std::unique_ptr<FaultPlan> fault_plan_;  // null when faults are disabled
  std::unique_ptr<ByzantinePlan> byz_plan_;  // null when no adversary
  Telemetry telemetry_;
  obs::TraceSink* trace_sink_ = nullptr;       // non-owning
  obs::PhaseProfile* phase_profile_ = nullptr; // non-owning
  InvariantMonitor* invariant_monitor_ = nullptr;  // non-owning

  // Intra-round sharding (see class comment). shard_count_ == 1 means the
  // pool is never created and every phase runs inline on the caller.
  std::size_t shard_count_ = 1;
  std::vector<std::pair<NodeId, NodeId>> shard_ranges_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<obs::PhaseProfile> shard_profiles_;

  // Per-round scratch, reused across steps (see sim/round_arena.hpp).
  std::unique_ptr<RoundArena> arena_;
};

/// The synchronous scheduler IS the engine: the alias states the post-split
/// role without perturbing a single byte of the hot path (goldens, traces,
/// and bench fingerprints stay identical by construction).
using SyncScheduler = Engine;

}  // namespace mtm
