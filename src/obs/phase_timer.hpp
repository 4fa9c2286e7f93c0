// Wall-clock phase timers for the engine's round phases.
//
// One Engine::step() is the paper's six-phase round (advertise, scan,
// decide, resolve, exchange, finish) plus the PR-2 fault phase in front.
// A PhaseProfile accumulates wall-clock nanoseconds per phase across an
// execution, answering "where does a round's time go" — the number every
// optimization PR needs before touching a hot path.
//
// Timings are non-deterministic by nature, so they are quarantined here:
// a PhaseProfile is attached to an engine from the outside
// (Engine::set_phase_profile), lives outside the deterministic simulation
// state, and never appears in trace events or golden pins. Attaching or
// detaching a profile cannot change any simulation result.
//
// PhaseProfile is not thread-safe: use one profile per writer. A sharded
// engine (EngineConfig::scheduler.threads > 1) keeps one private profile
// per shard for the per-node scan/decide timers and merges them into the
// attached profile at phase barriers, so parallel totals are summed CPU
// time while coordinator-level phases remain wall time (see
// docs/OBSERVABILITY.md).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

#include "obs/json.hpp"

namespace mtm::obs {

enum class Phase : std::uint8_t {
  kFaults = 0,  ///< fault-plan churn + crash oracle (phase 0)
  kAdvertise,
  kScan,     ///< scan + decide views are built here
  kDecide,
  kResolve,  ///< proposal resolution into connections
  kExchange, ///< payload exchange over established connections
  kFinish,   ///< end-of-round protocol hooks
  // Sharded-execution phases, recorded only when the engine runs with
  // intra-round parallelism (EngineConfig::scheduler.threads > 1); both
  // stay zero in sequential runs, where their work is billed to kResolve
  // exactly as before.
  kShardBuild,   ///< engine.shard.build — deterministic CSR inbox assembly
  kShardReduce,  ///< engine.shard.reduce — sequential cross-shard reduction
  // Event-scheduler phases (sim/event_scheduler.hpp), recorded only in
  // event mode; both stay zero under the sync scheduler.
  kEventQueue,     ///< engine.event.queue — priority-queue maintenance
  kEventDispatch,  ///< engine.event.dispatch — event handler execution
};

inline constexpr std::size_t kPhaseCount = 11;

const char* phase_name(Phase phase);

struct PhaseProfile {
  std::array<std::uint64_t, kPhaseCount> total_ns{};
  std::array<std::uint64_t, kPhaseCount> calls{};
  std::uint64_t rounds = 0;

  void add(Phase phase, std::uint64_t ns) noexcept {
    const auto i = static_cast<std::size_t>(phase);
    total_ns[i] += ns;
    ++calls[i];
  }

  std::uint64_t total() const noexcept;
  /// Fraction of the summed phase time spent in `phase` (0 when untimed).
  double fraction(Phase phase) const noexcept;
  void merge(const PhaseProfile& other) noexcept;
  void reset() noexcept;

  /// {"unit": "ns", "rounds": R, "total_ns": T,
  ///  "per_phase": [{"phase", "total_ns", "calls", "fraction"}...]}.
  JsonValue to_json() const;
};

/// RAII phase timer: records elapsed steady-clock time into `profile` on
/// destruction. A null profile makes construction and destruction no-ops
/// (the clock is not even read), so un-instrumented runs pay one branch.
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(PhaseProfile* profile, Phase phase) noexcept
      : profile_(profile), phase_(phase) {
    if (profile_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

  ~ScopedPhaseTimer() {
    if (profile_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    profile_->add(phase_, static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  }

 private:
  PhaseProfile* profile_;
  Phase phase_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace mtm::obs
