// Pins the shard-stream seed derivation forever.
//
// The sharded engine derives NO new RNG streams: a shard simply owns the
// contiguous node range [lo, hi) of the canonical per-node streams
// make_node_streams(seed, n), and every order-sensitive draw happens in
// the sequential cross-shard reduction. That is the whole determinism
// argument, and it makes "same seed, any shard count" a testable property:
// the execution fingerprint below must be identical for every value of
// scheduler.threads, including 0 (auto = one shard per hardware thread,
// whatever the host has).
//
// The literal fingerprints at the bottom pin the derivation across
// refactors, the same way test_rng.cpp pins the raw stream values and
// test_runner.cpp pins trial_seed. If a change to the engine or RNG layout
// flips one of these constants, every archived BENCH/RESULTS artifact
// stops being reproducible — bump them only with a changelog entry saying
// so.
#include <gtest/gtest.h>

#include <cstdint>

#include "graph/generators.hpp"
#include "protocols/blind_gossip.hpp"
#include "sim/dynamic_graph.hpp"
#include "sim/engine.hpp"

namespace mtm {
namespace {

constexpr NodeId kNodes = 96;
constexpr Round kRounds = 48;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Folds every observable of a short BlindGossip execution — total and
/// per-round telemetry plus the final leader map — into one word.
std::uint64_t execution_fingerprint(std::uint64_t seed, std::size_t threads) {
  Rng graph_rng(seed ^ 0x717e5ULL);
  StaticGraphProvider topology(make_random_regular(kNodes, 6, graph_rng));
  BlindGossip protocol(BlindGossip::shuffled_uids(kNodes, seed));

  EngineConfig config;
  config.seed = seed;
  config.connection_failure_prob = 0.1;
  config.record_rounds = true;
  config.scheduler.threads = threads;
  Engine engine(topology, protocol, config);
  engine.run_rounds(kRounds);

  const Telemetry& t = engine.telemetry();
  std::uint64_t h = 0;
  h = mix(h, t.proposals());
  h = mix(h, t.connections());
  h = mix(h, t.failed_connections());
  h = mix(h, t.wasted_rounds());
  h = mix(h, t.payload_uids());
  for (const RoundStats& rs : t.per_round()) {
    h = mix(h, rs.proposals);
    h = mix(h, rs.connections);
    h = mix(h, rs.dropped);
  }
  for (NodeId u = 0; u < kNodes; ++u) h = mix(h, protocol.leader_of(u));
  return h;
}

TEST(ShardDeterminism, FingerprintInvariantAcrossShardCounts) {
  const std::uint64_t want = execution_fingerprint(0x5eedULL, 1);
  for (std::size_t threads : {std::size_t{2}, std::size_t{3}, std::size_t{5},
                              std::size_t{8}, std::size_t{16},
                              std::size_t{0}}) {
    EXPECT_EQ(execution_fingerprint(0x5eedULL, threads), want)
        << "threads=" << threads;
  }
}

TEST(ShardDeterminism, DistinctSeedsDiverge) {
  // Sanity that the fingerprint actually has resolution.
  EXPECT_NE(execution_fingerprint(0x5eedULL, 1),
            execution_fingerprint(0x5eedULL + 1, 1));
}

TEST(ShardDeterminism, PinnedFingerprints) {
  // PINNED: the shard-stream derivation contract. See the file comment
  // before touching these literals.
  EXPECT_EQ(execution_fingerprint(0x5eedULL, 4), 0xc31c5384e92268b2ULL);
  EXPECT_EQ(execution_fingerprint(1, 4), 0x715968cb595c1005ULL);
}

}  // namespace
}  // namespace mtm
