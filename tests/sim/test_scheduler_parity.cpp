// Scheduler API split (sim/scheduler.hpp): SyncScheduler parity and the
// SchedulerSpec surface.
//
// The split's contract is that the sync path did not move: a scheduler
// built through make_scheduler() with the default (sync) spec IS the
// pre-split Engine, so every golden, trace, and fingerprint is reproduced
// byte-identically by construction. These tests pin that — plus the spec
// validation and the CLI contradiction rejections — so the
// one-way-to-configure invariant cannot silently regress.
#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "core/cli.hpp"
#include "graph/generators.hpp"
#include "protocols/blind_gossip.hpp"
#include "protocols/classical.hpp"
#include "sim/engine.hpp"
#include "sim/event_scheduler.hpp"
#include "sim/fault_cli.hpp"
#include "sim/runner.hpp"
#include "sim/scheduler.hpp"
#include "testing/differential.hpp"

namespace mtm {
namespace {

CliArgs make_args(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

/// A deliberately busy configuration: staggered starts, failure injection,
/// and node churn, so the parity check covers every draw site.
EngineConfig busy_config(std::uint64_t seed) {
  EngineConfig cfg;
  cfg.seed = seed;
  cfg.record_rounds = true;
  cfg.connection_failure_prob = 0.2;
  cfg.activation_rounds = {1, 1, 2, 3, 1, 5, 1, 2, 1, 4, 1, 1};
  cfg.faults.crash_prob = 0.05;
  cfg.faults.recovery_prob = 0.5;
  cfg.faults.seed = derive_seed(seed, {0xfa});
  return cfg;
}

/// Telemetry + protocol-state fingerprint after `rounds` rounds.
std::uint64_t run_fingerprint(Scheduler& scheduler, Round rounds) {
  scheduler.run_rounds(rounds);
  const Telemetry& t = scheduler.telemetry();
  std::uint64_t h = mix64(t.proposals());
  h = mix64(h ^ t.connections());
  h = mix64(h ^ t.failed_connections());
  h = mix64(h ^ t.fault_dropped());
  h = mix64(h ^ t.crashes());
  h = mix64(h ^ t.recoveries());
  h = mix64(h ^ t.payload_uids());
  h = mix64(h ^ testing::protocol_state_hash(scheduler.protocol().unwrap(),
                                             scheduler.node_count()));
  return h;
}

TEST(SchedulerParity, MakeSchedulerSyncIsEngineByteForByte) {
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    const Graph g = make_star_line(3, 3);
    const EngineConfig cfg = busy_config(seed);

    StaticGraphProvider topo_a(g);
    BlindGossip proto_a(BlindGossip::shuffled_uids(g.node_count(), seed));
    Engine engine(topo_a, proto_a, cfg);

    StaticGraphProvider topo_b(g);
    BlindGossip proto_b(BlindGossip::shuffled_uids(g.node_count(), seed));
    const auto scheduler = make_scheduler(topo_b, proto_b, cfg);

    EXPECT_EQ(run_fingerprint(engine, 64), run_fingerprint(*scheduler, 64));
    EXPECT_EQ(engine.telemetry().per_round().back().connections,
              scheduler->telemetry().per_round().back().connections);
  }
}

TEST(SchedulerParity, ClassicalModeParity) {
  const Graph g = make_clique(10);
  EngineConfig cfg;
  cfg.seed = 77;
  cfg.classical_mode = true;
  cfg.connection_failure_prob = 0.3;

  StaticGraphProvider topo_a(g);
  ClassicalGossip proto_a(BlindGossip::shuffled_uids(g.node_count(), 77));
  Engine engine(topo_a, proto_a, cfg);

  StaticGraphProvider topo_b(g);
  ClassicalGossip proto_b(BlindGossip::shuffled_uids(g.node_count(), 77));
  const auto scheduler = make_scheduler(topo_b, proto_b, cfg);

  EXPECT_EQ(run_fingerprint(engine, 32), run_fingerprint(*scheduler, 32));
}

TEST(SchedulerSpec, ValidateRejectsContradictorySpecs) {
  SchedulerSpec sync;
  sync.latency_mean = 1.0;
  EXPECT_THROW(validate(sync), std::invalid_argument);  // latency on sync

  SchedulerSpec drifty;
  drifty.clock_drift = 0.1;
  EXPECT_THROW(validate(drifty), std::invalid_argument);  // drift on sync

  SchedulerSpec event;
  event.kind = SchedulerKind::kEvent;
  event.threads = 4;
  EXPECT_THROW(validate(event), std::invalid_argument);  // parallel event

  SchedulerSpec bad_drift;
  bad_drift.kind = SchedulerKind::kEvent;
  bad_drift.clock_drift = 0.5;
  EXPECT_THROW(validate(bad_drift), std::invalid_argument);  // drift >= 0.5
}

TEST(SchedulerSpec, EngineRequiresSyncKindEventSchedulerRequiresEvent) {
  const Graph g = make_clique(4);
  EngineConfig cfg;
  cfg.scheduler.kind = SchedulerKind::kEvent;
  {
    StaticGraphProvider topo(g);
    BlindGossip proto(BlindGossip::shuffled_uids(4, 1));
    EXPECT_THROW(Engine(topo, proto, cfg), ContractError);
  }
  cfg.scheduler.kind = SchedulerKind::kSync;
  {
    StaticGraphProvider topo(g);
    BlindGossip proto(BlindGossip::shuffled_uids(4, 1));
    EXPECT_THROW(EventScheduler(topo, proto, cfg), ContractError);
  }
}

TEST(SchedulerCli, ParsesEventFlags) {
  const SchedulerSpec spec = parse_scheduler_flags(
      make_args({"--scheduler=event", "--latency-dist=exponential",
                 "--latency-mean=0.5", "--clock-drift=0.1"}));
  EXPECT_EQ(spec.kind, SchedulerKind::kEvent);
  EXPECT_EQ(spec.latency_dist, LatencyDist::kExponential);
  EXPECT_DOUBLE_EQ(spec.latency_mean, 0.5);
  EXPECT_DOUBLE_EQ(spec.clock_drift, 0.1);
  EXPECT_EQ(spec.threads, 1u);
}

TEST(SchedulerCli, DefaultIsSyncAndEngineThreadsStillWorks) {
  EXPECT_EQ(parse_scheduler_flags(make_args({})).kind, SchedulerKind::kSync);
  EXPECT_EQ(parse_scheduler_flags(make_args({"--scheduler-threads=4"})).threads,
            4u);
}

TEST(SchedulerCli, ContradictionsRejected) {
  // Event-only flags without --scheduler=event.
  EXPECT_THROW(parse_scheduler_flags(make_args({"--latency-mean=0.5"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_flags(make_args({"--clock-drift=0.1"})),
               std::invalid_argument);
  // A distribution that would never be sampled.
  EXPECT_THROW(parse_scheduler_flags(make_args(
                   {"--scheduler=event", "--latency-dist=uniform"})),
               std::invalid_argument);
  // Parallel event scheduling.
  EXPECT_THROW(parse_scheduler_flags(make_args(
                   {"--scheduler=event", "--scheduler-threads=4"})),
               std::invalid_argument);
  // Unknown spellings.
  EXPECT_THROW(parse_scheduler_flags(make_args({"--scheduler=fancy"})),
               std::invalid_argument);
}

TEST(SchedulerCli, KindAndDistRoundTrip) {
  EXPECT_EQ(parse_scheduler_kind(to_string(SchedulerKind::kSync)),
            SchedulerKind::kSync);
  EXPECT_EQ(parse_scheduler_kind(to_string(SchedulerKind::kEvent)),
            SchedulerKind::kEvent);
  for (const LatencyDist dist :
       {LatencyDist::kConstant, LatencyDist::kUniform,
        LatencyDist::kExponential}) {
    EXPECT_EQ(parse_latency_dist(to_string(dist)), dist);
  }
  EXPECT_THROW(parse_scheduler_kind("async"), std::invalid_argument);
  EXPECT_THROW(parse_latency_dist("gauss"), std::invalid_argument);
}

}  // namespace
}  // namespace mtm
