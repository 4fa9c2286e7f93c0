#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/assert.hpp"
#include "sim/invariants.hpp"

namespace mtm {

Engine::Engine(DynamicGraphProvider& topology, Protocol& protocol,
               EngineConfig config)
    : topology_(topology),
      protocol_(protocol),
      config_(std::move(config)),
      node_count_(topology.node_count()) {
  validate(config_.scheduler);
  MTM_REQUIRE_MSG(config_.scheduler.kind == SchedulerKind::kSync,
                  "Engine is the synchronous scheduler; use make_scheduler() "
                  "to construct the scheduler kind the config selects");
  MTM_REQUIRE(config_.tag_bits >= 0 && config_.tag_bits <= 63);
  MTM_REQUIRE(config_.connection_failure_prob >= 0.0 &&
              config_.connection_failure_prob < 1.0);
  tag_limit_ = Tag{1} << config_.tag_bits;  // b = 0 -> only tag 0 is legal

  if (config_.activation_rounds.empty()) {
    activation_.assign(node_count_, 1);
  } else {
    MTM_REQUIRE_MSG(
        config_.activation_rounds.size() == node_count_,
        "activation_rounds must have one entry per node (got " +
            std::to_string(config_.activation_rounds.size()) + " for " +
            std::to_string(node_count_) + " nodes)");
    activation_ = config_.activation_rounds;
    for (NodeId u = 0; u < node_count_; ++u) {
      MTM_REQUIRE_MSG(activation_[u] >= 1,
                      "activation rounds start at 1 (node " +
                          std::to_string(u) + " has activation round " +
                          std::to_string(activation_[u]) + ")");
      all_active_round_ = std::max(all_active_round_, activation_[u]);
    }
  }

  validate(config_.faults);
  if (config_.faults.enabled()) {
    fault_plan_ = std::make_unique<FaultPlan>(config_.faults, node_count_);
  }
  validate(config_.byzantine);
  if (config_.byzantine.enabled()) {
    byz_plan_ = std::make_unique<ByzantinePlan>(config_.byzantine,
                                                node_count_, tag_limit_);
  }

  node_rngs_ = make_node_streams(config_.seed, node_count_);
  protocol_.init(node_count_, node_rngs_);

  // Intra-round sharding: static contiguous node ranges, one worker per
  // shard. Engages only when requested AND the protocol's per-node
  // callbacks are declared reentrant; the silent sequential fallback keeps
  // every protocol runnable under any configuration.
  std::size_t requested = config_.scheduler.threads == 0
                              ? ThreadPool::default_thread_count()
                              : config_.scheduler.threads;
  if (requested > 1 && protocol_.parallel_phases_safe() && node_count_ > 0) {
    shard_count_ = std::min<std::size_t>(requested, node_count_);
  }
  shard_ranges_.reserve(shard_count_);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const auto lo = static_cast<NodeId>(
        static_cast<std::uint64_t>(node_count_) * s / shard_count_);
    const auto hi = static_cast<NodeId>(
        static_cast<std::uint64_t>(node_count_) * (s + 1) / shard_count_);
    shard_ranges_.emplace_back(lo, hi);
  }
  if (shard_count_ > 1) {
    pool_ = std::make_unique<ThreadPool>(shard_count_);
    shard_profiles_.resize(shard_count_);
  }

  arena_ = std::make_unique<RoundArena>(node_count_, shard_count_,
                                        /*with_tags=*/tag_limit_ > 1);
}

template <typename F>
void Engine::run_sharded(F&& body) {
  if (shard_count_ == 1) {
    body(std::size_t{0}, NodeId{0}, node_count_);
    return;
  }
  parallel_for(*pool_, shard_count_, [&](std::size_t s) {
    body(s, shard_ranges_[s].first, shard_ranges_[s].second);
  });
}

// Phase 0 — apply the fault plan: recoveries, random crashes, and the
// adversarial oracle, each notifying the protocol through its hooks. A
// recovered node re-enters via the activation machinery (activation reset
// to the current round, so its local rounds restart at 1).
void Engine::apply_faults(Round r) {
  const auto activated = [this, r](NodeId u) { return r >= activation_[u]; };
  const auto eligible = [this, &activated](NodeId u) {
    return fault_plan_->alive(u) && activated(u);
  };
  fault_plan_->round_start(
      r, activated,
      [this, &eligible] {
        return select_crash_target(config_.faults.targeting, protocol_,
                                   node_count_, eligible,
                                   fault_plan_->oracle_rng());
      },
      [this, r](NodeId u) {
        protocol_.on_crash(u);
        telemetry_.count_crash();
        if (trace_sink_ != nullptr) {
          trace_sink_->emit(obs::TraceEvent("crash", r).with("node", std::uint64_t{u}));
        }
      },
      [this, r](NodeId u) {
        activation_[u] = r;
        protocol_.on_restart(u, node_rngs_[u]);
        telemetry_.count_recovery();
        if (trace_sink_ != nullptr) {
          trace_sink_->emit(obs::TraceEvent("recover", r).with("node", std::uint64_t{u}));
        }
      });
}

bool Engine::node_active(NodeId u) const {
  MTM_REQUIRE(u < node_count_);
  return active_in(u, round_);
}

void Engine::exchange(NodeId u, NodeId v, Round global_round) {
  // Snapshot BOTH payloads before delivering either: the model's connection
  // is an interactive exchange of current state, so neither endpoint may
  // observe the other's post-delivery update (matters for protocols whose
  // payload depends on mutable state, e.g. pairwise averaging).
  Payload from_u = protocol_.make_payload(u, v, local_round(u, global_round));
  Payload from_v = protocol_.make_payload(v, u, local_round(v, global_round));
  // Byzantine senders may rewrite or withhold their payload; the honest
  // make_payload calls above still happen (protocol state stays honest and
  // the stale-replay snapshot tracks what an honest node would have sent).
  // Telemetry counts UIDs actually delivered over the wire.
  bool u_sends = true;
  bool v_sends = true;
  if (byz_plan_ != nullptr) {
    from_u = byz_plan_->outgoing_payload(u, v, from_u);
    from_v = byz_plan_->outgoing_payload(v, u, from_v);
    u_sends = !byz_plan_->suppresses_payload(u);
    v_sends = !byz_plan_->suppresses_payload(v);
  }
  if (u_sends) {
    telemetry_.count_payload_uids(from_u.uid_count());
    protocol_.receive_payload(v, u, from_u, local_round(v, global_round));
  }
  if (v_sends) {
    telemetry_.count_payload_uids(from_v.uid_count());
    protocol_.receive_payload(u, v, from_v, local_round(u, global_round));
  }
}

// Phase 1 — advertise. When b = 0 the tag array does not exist: the
// validated tag is provably 0 and the scan phase fabricates it, removing a
// full store+gather of n words per round from the b = 0 protocols.
void Engine::advertise_range(Round r, bool plain, NodeId lo, NodeId hi) {
  RoundArena& arena = *arena_;
  const bool store_tags = tag_limit_ > 1;
  for (NodeId u = lo; u < hi; ++u) {
    if (!plain && !arena.active[u]) continue;
    const Tag tag = protocol_.advertise(u, local_round(u, r), node_rngs_[u]);
    MTM_ENSURE_MSG(tag < tag_limit_, "protocol advertised more than b bits");
    if (store_tags) arena.tags[u] = tag;
  }
}

// Phases 2 + 3 — scan and decide. Views contain only active neighbors: an
// unactivated device is not discoverable. The two phases share one loop
// (the shard's view buffer is reused scratch), so the phase timers nest per
// node: view construction bills to scan, the protocol callback to decide.
void Engine::scan_decide_range(const Graph& graph, Round r, bool plain,
                               std::size_t shard, NodeId lo, NodeId hi,
                               obs::PhaseProfile* profile) {
  RoundArena& arena = *arena_;
  RoundArena::Shard& scratch = arena.shards[shard];
  NeighborInfo* const view = scratch.view.data();
  const bool zero_tags = tag_limit_ == 1;  // b = 0: every honest tag is 0
  std::uint64_t proposals = 0;
  for (NodeId u = lo; u < hi; ++u) {
    if (!plain && !arena.active[u]) {
      arena.decisions[u] = Decision::receive();
      continue;
    }
    std::size_t len = 0;
    {
      obs::ScopedPhaseTimer timer(profile, obs::Phase::kScan);
      if (plain) {
        if (zero_tags) {
          for (NodeId v : graph.neighbors(u)) view[len++] = NeighborInfo{v, 0};
        } else {
          for (NodeId v : graph.neighbors(u)) {
            view[len++] = NeighborInfo{v, arena.tags[v]};
          }
        }
      } else {
        for (NodeId v : graph.neighbors(u)) {
          if (!arena.active[v]) continue;
          // Partition windows make cross-class neighbors mutually invisible.
          if (fault_plan_ != nullptr && fault_plan_->edge_blocked(u, v)) {
            continue;
          }
          // Byzantine advertisers may show this observer a different tag.
          const Tag honest = zero_tags ? Tag{0} : arena.tags[v];
          const Tag tag = byz_plan_ != nullptr
                              ? byz_plan_->observed_tag(v, u, r, honest)
                              : honest;
          view[len++] = NeighborInfo{v, tag};
        }
      }
    }
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kDecide);
    const Decision d = protocol_.decide(u, local_round(u, r),
                                        std::span<const NeighborInfo>(view, len),
                                        node_rngs_[u]);
    if (d.is_send()) {
      bool in_view = false;
      for (std::size_t i = 0; i < len; ++i) in_view |= (view[i].id == d.target);
      MTM_ENSURE_MSG(in_view, "proposal target must be an active neighbor");
      ++proposals;
    }
    arena.decisions[u] = d;
  }
  scratch.proposals = proposals;
}

// CSR inbox assembly: a shard-blocked counting sort over the decisions.
// Shard s counts its own senders per target, an exclusive prefix sum in
// (target major, shard minor) order turns counts into write cursors, and
// each shard scatters its senders in ascending id. Because shard ranges
// partition the id space in order, inbox[v]'s segment ends up sorted by
// proposer id globally — exactly the order the sequential engine (and the
// ReferenceEngine oracle) produces. Inactive nodes hold Decision::receive(),
// so no activity re-check is needed here.
void Engine::build_inboxes() {
  RoundArena& arena = *arena_;
  const std::size_t shards = shard_count_;
  run_sharded([&](std::size_t s, NodeId lo, NodeId hi) {
    std::uint32_t* const counts = arena.shards[s].counts.data();
    std::fill(counts, counts + node_count_, 0u);
    for (NodeId u = lo; u < hi; ++u) {
      const Decision& d = arena.decisions[u];
      if (d.is_send()) ++counts[d.target];
    }
  });
  if (shards == 1) {
    std::uint32_t* const counts = arena.shards[0].counts.data();
    std::uint32_t pos = 0;
    for (NodeId v = 0; v < node_count_; ++v) {
      arena.inbox_start[v] = pos;
      const std::uint32_t c = counts[v];
      counts[v] = pos;
      pos += c;
    }
    arena.inbox_start[node_count_] = pos;
  } else {
    // Parallel exclusive prefix sum over the (target, shard) grid: shard
    // blocks sum their rows, the tiny per-block scan runs sequentially,
    // then each block lays out its rows' cursors independently.
    run_sharded([&](std::size_t b, NodeId lo, NodeId hi) {
      std::uint32_t total = 0;
      for (NodeId v = lo; v < hi; ++v) {
        for (std::size_t s = 0; s < shards; ++s) {
          total += arena.shards[s].counts[v];
        }
      }
      arena.shard_base[b] = total;
    });
    std::uint32_t base = 0;
    for (std::size_t b = 0; b < shards; ++b) {
      const std::uint32_t total = arena.shard_base[b];
      arena.shard_base[b] = base;
      base += total;
    }
    arena.inbox_start[node_count_] = base;
    run_sharded([&](std::size_t b, NodeId lo, NodeId hi) {
      std::uint32_t pos = arena.shard_base[b];
      for (NodeId v = lo; v < hi; ++v) {
        arena.inbox_start[v] = pos;
        for (std::size_t s = 0; s < shards; ++s) {
          std::uint32_t& cursor = arena.shards[s].counts[v];
          const std::uint32_t c = cursor;
          cursor = pos;
          pos += c;
        }
      }
    });
  }
  run_sharded([&](std::size_t s, NodeId lo, NodeId hi) {
    std::uint32_t* const cursor = arena.shards[s].counts.data();
    for (NodeId u = lo; u < hi; ++u) {
      const Decision& d = arena.decisions[u];
      if (d.is_send()) arena.inbox[cursor[d.target]++] = u;
    }
  });
}

// Phase 4, pass one — per-node resolution. Every draw here comes from the
// accepting node's OWN stream (the canonical layout), so shards can run
// this concurrently and land on exactly the sequential engine's values.
// Order-sensitive work (telemetry, plan-stream link faults, exchange) is
// deferred to reduce_and_exchange.
void Engine::resolve_range(bool plain, NodeId lo, NodeId hi) {
  RoundArena& arena = *arena_;
  const double fail_p = config_.connection_failure_prob;
  if (config_.classical_mode) {
    // Classical telephone model: every proposal connects; only the i.i.d.
    // failure coin is drawn, one per inbox entry in inbox order. The coins
    // are batched per inbox segment: the acceptor's generator state is
    // hoisted into locals for the whole segment and the Bernoulli test runs
    // in the integer domain (Rng::bernoulli_threshold) — same single draw
    // per entry, so the stream is bit-identical to per-call bernoulli().
    if (fail_p <= 0.0) return;
    const std::uint64_t threshold = Rng::bernoulli_threshold(fail_p);
    for (NodeId v = lo; v < hi; ++v) {
      const std::uint32_t begin = arena.inbox_start[v];
      const std::uint32_t end = arena.inbox_start[v + 1];
      if (begin == end) continue;
      Xoshiro256 gen = node_rngs_[v].generator();
      for (std::uint32_t i = begin; i < end; ++i) {
        arena.drop[i] = (gen() >> 11) < threshold ? 1 : 0;
      }
      node_rngs_[v].generator() = gen;
    }
    return;
  }
  // Mobile telephone model: a node that sent a proposal cannot accept one;
  // a receiving node accepts one incoming proposal per the acceptance
  // policy (inbox segments are sorted by proposer id, so the deterministic
  // policies are O(1) lookups).
  const std::uint64_t threshold =
      fail_p > 0.0 ? Rng::bernoulli_threshold(fail_p) : 0;
  for (NodeId v = lo; v < hi; ++v) {
    arena.winner[v] = kNoProposer;
    if (!plain && !arena.active[v]) continue;
    if (arena.decisions[v].is_send()) continue;
    const std::uint32_t begin = arena.inbox_start[v];
    const std::uint32_t len = arena.inbox_start[v + 1] - begin;
    if (len == 0) continue;
    NodeId u = 0;
    switch (config_.acceptance) {
      case AcceptancePolicy::kUniformRandom:
        u = arena.inbox[begin + static_cast<std::uint32_t>(
                                    node_rngs_[v].uniform(len))];
        break;
      case AcceptancePolicy::kSmallestId:
        u = arena.inbox[begin];
        break;
      case AcceptancePolicy::kLargestId:
        u = arena.inbox[begin + len - 1];
        break;
    }
    arena.winner[v] = u;
    arena.drop[v] =
        (fail_p > 0.0 &&
         (node_rngs_[v].generator()() >> 11) < threshold) ? 1 : 0;
  }
}

// Phases 4 (second pass) + 5 — the sequential cross-shard reduction, in
// ascending acceptor order: telemetry counting, the fault plan's link-fault
// draws (which consume the plan's own streams and therefore must stay in
// canonical order), and the payload exchanges.
void Engine::reduce_and_exchange(Round r) {
  RoundArena& arena = *arena_;
  const bool link_faults =
      fault_plan_ != nullptr && config_.faults.has_link_faults();
  const double fail_p = config_.connection_failure_prob;
  if (config_.classical_mode) {
    for (NodeId v = 0; v < node_count_; ++v) {
      const std::uint32_t begin = arena.inbox_start[v];
      const std::uint32_t end = arena.inbox_start[v + 1];
      for (std::uint32_t i = begin; i < end; ++i) {
        const NodeId u = arena.inbox[i];
        telemetry_.count_connection();
        if (fail_p > 0.0 && arena.drop[i] != 0) {
          telemetry_.count_failed_connection();
          continue;
        }
        if (link_faults && fault_plan_->connection_lost(v, u)) {
          telemetry_.count_fault_drop();
          continue;
        }
        obs::ScopedPhaseTimer timer(phase_profile_, obs::Phase::kExchange);
        exchange(u, v, r);
      }
    }
    return;
  }
  for (NodeId v = 0; v < node_count_; ++v) {
    const NodeId u = arena.winner[v];
    if (u == kNoProposer) continue;
    telemetry_.count_connection();
    if (arena.drop[v] != 0) {
      telemetry_.count_failed_connection();
      continue;
    }
    if (link_faults && fault_plan_->connection_lost(v, u)) {
      telemetry_.count_fault_drop();
      continue;
    }
    obs::ScopedPhaseTimer timer(phase_profile_, obs::Phase::kExchange);
    exchange(u, v, r);
  }
}

void Engine::merge_shard_profiles() {
  if (phase_profile_ == nullptr) return;
  for (obs::PhaseProfile& shard_profile : shard_profiles_) {
    phase_profile_->merge(shard_profile);
    shard_profile.reset();
  }
}

void Engine::step() {
  const Round r = ++round_;
  const Graph& graph = topology_.graph_at(r);
  MTM_ENSURE_MSG(graph.node_count() == node_count_,
                 "topology node count changed mid-execution");
  RoundArena& arena = *arena_;
  arena.begin_round(graph.max_degree());

  telemetry_.begin_round(r, config_.record_rounds);

  // Snapshot the execution totals so the round trace event can report this
  // round's deltas (purely derived from deterministic state).
  const std::uint64_t proposals_before = telemetry_.proposals();
  const std::uint64_t connections_before = telemetry_.connections();
  const std::uint64_t dropped_before = telemetry_.dropped();
  const std::uint64_t crashes_before = telemetry_.crashes();
  const std::uint64_t recoveries_before = telemetry_.recoveries();

  // 0. Faults: churn and the crash oracle apply before anyone advertises.
  if (fault_plan_ != nullptr) {
    obs::ScopedPhaseTimer timer(phase_profile_, obs::Phase::kFaults);
    apply_faults(r);
  }

  // Round execution plan: the "plain" path covers the steady state (no
  // fault plan, no adversary, everyone activated), where activity and
  // visibility checks vanish from every inner loop. active_in() draws
  // nothing, so precomputing activity bytes changes no result.
  const bool plain =
      fault_plan_ == nullptr && byz_plan_ == nullptr && r >= all_active_round_;
  std::uint32_t active_count = 0;
  if (plain) {
    active_count = node_count_;
  } else {
    for (NodeId u = 0; u < node_count_; ++u) {
      const bool a = active_in(u, r);
      arena.active[u] = a ? 1 : 0;
      active_count += a ? 1u : 0u;
    }
  }
  telemetry_.set_active_nodes(active_count);

  const bool sharded = shard_count_ > 1;

  // 1. Advertise: each active node selects its b-bit tag for the round.
  {
    obs::ScopedPhaseTimer timer(phase_profile_, obs::Phase::kAdvertise);
    run_sharded([&](std::size_t, NodeId lo, NodeId hi) {
      advertise_range(r, plain, lo, hi);
    });
  }

  // 2 + 3. Scan and decide (per-node timers inside; in sharded mode each
  // shard times into its private profile, merged at the barrier).
  run_sharded([&](std::size_t s, NodeId lo, NodeId hi) {
    obs::PhaseProfile* profile =
        sharded ? (phase_profile_ != nullptr ? &shard_profiles_[s] : nullptr)
                : phase_profile_;
    scan_decide_range(graph, r, plain, s, lo, hi, profile);
  });
  if (sharded) merge_shard_profiles();
  {
    std::uint64_t proposals = 0;
    for (const RoundArena::Shard& shard : arena.shards) {
      proposals += shard.proposals;
    }
    telemetry_.count_proposals(proposals);
  }

  // 4 + 5. Resolve proposals into connections and exchange payloads.
  // Sequentially the two phases share one block: exchange() calls carry
  // their own timers and resolve is billed the remainder, so the phases
  // stay disjoint and their fractions sum to 1 — same bookkeeping as ever.
  // In sharded mode the block splits three ways: inbox assembly bills to
  // shard.build, the parallel per-node resolution to resolve, and the
  // sequential reduction (minus its exchanges) to shard.reduce.
  if (!sharded) {
    std::uint64_t exchange_ns_before = 0;
    std::chrono::steady_clock::time_point resolve_start{};
    if (phase_profile_ != nullptr) {
      exchange_ns_before = phase_profile_->total_ns[static_cast<std::size_t>(
          obs::Phase::kExchange)];
      resolve_start = std::chrono::steady_clock::now();
    }
    build_inboxes();
    resolve_range(plain, 0, node_count_);
    reduce_and_exchange(r);
    if (phase_profile_ != nullptr) {
      const auto block = std::chrono::steady_clock::now() - resolve_start;
      const auto block_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(block).count());
      const std::uint64_t exchange_ns =
          phase_profile_->total_ns[static_cast<std::size_t>(
              obs::Phase::kExchange)] -
          exchange_ns_before;
      phase_profile_->add(obs::Phase::kResolve,
                          block_ns > exchange_ns ? block_ns - exchange_ns : 0);
    }
  } else {
    {
      obs::ScopedPhaseTimer timer(phase_profile_, obs::Phase::kShardBuild);
      build_inboxes();
    }
    {
      obs::ScopedPhaseTimer timer(phase_profile_, obs::Phase::kResolve);
      run_sharded([&](std::size_t, NodeId lo, NodeId hi) {
        resolve_range(plain, lo, hi);
      });
    }
    std::uint64_t exchange_ns_before = 0;
    std::chrono::steady_clock::time_point reduce_start{};
    if (phase_profile_ != nullptr) {
      exchange_ns_before = phase_profile_->total_ns[static_cast<std::size_t>(
          obs::Phase::kExchange)];
      reduce_start = std::chrono::steady_clock::now();
    }
    reduce_and_exchange(r);
    if (phase_profile_ != nullptr) {
      const auto block = std::chrono::steady_clock::now() - reduce_start;
      const auto block_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(block).count());
      const std::uint64_t exchange_ns =
          phase_profile_->total_ns[static_cast<std::size_t>(
              obs::Phase::kExchange)] -
          exchange_ns_before;
      phase_profile_->add(obs::Phase::kShardReduce,
                          block_ns > exchange_ns ? block_ns - exchange_ns : 0);
    }
  }

  // 6. End-of-round hook.
  {
    obs::ScopedPhaseTimer timer(phase_profile_, obs::Phase::kFinish);
    run_sharded([&](std::size_t, NodeId lo, NodeId hi) {
      for (NodeId u = lo; u < hi; ++u) {
        if (plain || arena.active[u]) {
          protocol_.finish_round(u, local_round(u, r));
        }
      }
    });
  }
  telemetry_.end_round();
  if (phase_profile_ != nullptr) ++phase_profile_->rounds;

  if (trace_sink_ != nullptr) {
    obs::TraceEvent event("round", r);
    event.with("active", std::uint64_t{active_count})
        .with("proposals", telemetry_.proposals() - proposals_before)
        .with("connections", telemetry_.connections() - connections_before)
        .with("dropped", telemetry_.dropped() - dropped_before)
        .with("crashes", telemetry_.crashes() - crashes_before)
        .with("recoveries", telemetry_.recoveries() - recoveries_before);
    trace_sink_->emit(event);
  }

  // Runtime safety checks observe the finished round last, so they see the
  // same post-round state a caller polling the engine would. May throw
  // InvariantViolation in fail-fast mode.
  if (invariant_monitor_ != nullptr) {
    invariant_monitor_->observe_round(*this, graph);
  }
}

}  // namespace mtm
