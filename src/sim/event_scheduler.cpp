#include "sim/event_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/assert.hpp"
#include "sim/invariants.hpp"

namespace mtm {

namespace {

// Hash-key tags for the scheduler's pure draws (drift, phase offsets, and
// per-transmission latencies). Arbitrary distinct constants.
constexpr std::uint64_t kDriftTag = 0x64726966;    // "drif"
constexpr std::uint64_t kPhaseTag = 0x70686173;    // "phas"
constexpr std::uint64_t kLatencyTag = 0x6c61746e;  // "latn"

// Upper bound on a single latency draw, in round periods: keeps the
// exponential tail from scheduling deliveries absurdly far out (a message
// 1024 rounds late is lost for every protocol in the repo anyway).
constexpr double kMaxLatencyRounds = 1024.0;

double unit_from(std::uint64_t x) noexcept {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

EventScheduler::EventScheduler(DynamicGraphProvider& topology,
                               Protocol& protocol, EngineConfig config)
    : topology_(topology),
      protocol_(protocol),
      config_(std::move(config)),
      node_count_(topology.node_count()) {
  validate(config_.scheduler);
  MTM_REQUIRE_MSG(config_.scheduler.kind == SchedulerKind::kEvent,
                  "EventScheduler requires SchedulerKind::kEvent; use "
                  "make_scheduler() to dispatch on the config");
  MTM_REQUIRE(config_.tag_bits >= 0 && config_.tag_bits <= 63);
  MTM_REQUIRE(config_.connection_failure_prob >= 0.0 &&
              config_.connection_failure_prob < 1.0);
  tag_limit_ = Tag{1} << config_.tag_bits;
  async_seed_ = derive_seed(config_.seed, {0x6576656e74ULL});  // "event"

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

  // Per-node round clocks: drifted period plus a seeded phase offset inside
  // the node's activation round, so rounds interleave even at zero drift.
  period_.resize(node_count_);
  local_round_.assign(node_count_, 0);
  decision_.assign(node_count_, Decision::receive());
  last_ad_tick_.assign(node_count_, kNeverTick);
  last_tag_.assign(node_count_, 0);
  inbox_.resize(node_count_);
  const double drift = config_.scheduler.clock_drift;
  for (NodeId u = 0; u < node_count_; ++u) {
    const double h = 2.0 * hash_unit(kDriftTag, u, 0) - 1.0;
    const double factor = 1.0 + drift * h;
    period_[u] = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::llround(factor * static_cast<double>(kTicksPerRound))));
    const auto offset = static_cast<std::uint64_t>(
        hash_unit(kPhaseTag, u, 0) * static_cast<double>(kTicksPerRound));
    const std::uint64_t first =
        (activation_[u] - 1) * kTicksPerRound + offset;
    push(first, EventKind::kNodeRound, u, u);
  }
}

void EventScheduler::push(std::uint64_t tick, EventKind kind, NodeId a,
                          NodeId b, const Payload& payload) {
  Event event;
  event.tick = tick;
  event.seq = next_seq_++;
  event.kind = kind;
  event.a = a;
  event.b = b;
  event.payload = payload;
  queue_.push(event);
  ++events_enqueued_;
}

double EventScheduler::hash_unit(std::uint64_t tag, std::uint64_t a,
                                 std::uint64_t b) const {
  return unit_from(derive_seed(async_seed_, {tag, a, b}));
}

std::uint64_t EventScheduler::latency_ticks(NodeId a, NodeId b,
                                            std::uint64_t nonce) const {
  const double mean = config_.scheduler.latency_mean;
  if (mean <= 0.0) return 0;
  double rounds = mean;
  switch (config_.scheduler.latency_dist) {
    case LatencyDist::kConstant:
      break;
    case LatencyDist::kUniform:
      rounds = 2.0 * mean *
               unit_from(derive_seed(async_seed_, {kLatencyTag, a, b, nonce}));
      break;
    case LatencyDist::kExponential:
      rounds = -mean *
               std::log(1.0 - unit_from(derive_seed(
                                  async_seed_, {kLatencyTag, a, b, nonce})));
      break;
  }
  rounds = std::min(rounds, kMaxLatencyRounds);
  return static_cast<std::uint64_t>(rounds *
                                    static_cast<double>(kTicksPerRound));
}

bool EventScheduler::node_active(NodeId u) const {
  MTM_REQUIRE(u < node_count_);
  return active_now(u, round_);
}

// Phase 0 — window-start fault application: identical hook order to the
// sync engine, plus the event-mode cleanup a crash implies (pending inbox
// and the stale advertisement vanish with the node).
void EventScheduler::apply_faults(Round r) {
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
        inbox_[u].clear();
        last_ad_tick_[u] = kNeverTick;
        decision_[u] = Decision::receive();
        if (trace_sink_ != nullptr) {
          trace_sink_->emit(
              obs::TraceEvent("crash", r).with("node", std::uint64_t{u}));
        }
      },
      [this, r](NodeId u) {
        activation_[u] = r;
        local_round_[u] = 0;
        protocol_.on_restart(u, node_rngs_[u]);
        telemetry_.count_recovery();
        if (trace_sink_ != nullptr) {
          trace_sink_->emit(
              obs::TraceEvent("recover", r).with("node", std::uint64_t{u}));
        }
      });
}

// Established-connection bookkeeping: snapshot both payloads NOW (the
// model's connection is an interactive exchange; neither endpoint may see
// the other's post-delivery update), then ship each snapshot over the edge
// with its own latency draw.
void EventScheduler::connect(NodeId proposer, NodeId acceptor,
                             std::uint64_t now) {
  Payload from_p = protocol_.make_payload(proposer, acceptor,
                                          local_round_[proposer]);
  Payload from_a = protocol_.make_payload(acceptor, proposer,
                                          local_round_[acceptor]);
  bool p_sends = true;
  bool a_sends = true;
  if (byz_plan_ != nullptr) {
    from_p = byz_plan_->outgoing_payload(proposer, acceptor, from_p);
    from_a = byz_plan_->outgoing_payload(acceptor, proposer, from_a);
    p_sends = !byz_plan_->suppresses_payload(proposer);
    a_sends = !byz_plan_->suppresses_payload(acceptor);
  }
  if (p_sends) {
    push(now + latency_ticks(proposer, acceptor, events_enqueued_),
         EventKind::kPayload, proposer, acceptor, from_p);
  }
  if (a_sends) {
    push(now + latency_ticks(acceptor, proposer, events_enqueued_),
         EventKind::kPayload, acceptor, proposer, from_a);
  }
}

// Local phase 1 — resolve the proposals that arrived since u's previous
// round against the decision u made then. Inbox order is arrival order
// (deterministic via the queue's total order); draws come from u's own
// canonical stream.
void EventScheduler::resolve_inbox(NodeId u, std::uint64_t now,
                                   Round window) {
  std::vector<NodeId>& inbox = inbox_[u];
  if (inbox.empty()) return;
  if (decision_[u].is_send()) {
    // A node that proposed cannot accept (mobile telephone model); in
    // classical mode senders do accept, so only the MTM path discards.
    if (!config_.classical_mode) {
      inbox.clear();
      return;
    }
  }
  // Proposals from nodes that died while the proposal was in flight are
  // void (pure check, no draws).
  inbox.erase(std::remove_if(inbox.begin(), inbox.end(),
                             [this, window](NodeId p) {
                               return !active_now(p, window);
                             }),
              inbox.end());
  if (inbox.empty()) return;

  const double fail_p = config_.connection_failure_prob;
  const bool link_faults =
      fault_plan_ != nullptr && config_.faults.has_link_faults();
  if (config_.classical_mode) {
    for (NodeId p : inbox) {
      telemetry_.count_connection();
      if (fail_p > 0.0 && node_rngs_[u].bernoulli(fail_p)) {
        telemetry_.count_failed_connection();
        continue;
      }
      if (link_faults && fault_plan_->connection_lost(u, p)) {
        telemetry_.count_fault_drop();
        continue;
      }
      obs::ScopedPhaseTimer timer(phase_profile_, obs::Phase::kExchange);
      connect(p, u, now);
    }
    inbox.clear();
    return;
  }

  NodeId winner = 0;
  switch (config_.acceptance) {
    case AcceptancePolicy::kUniformRandom:
      winner = inbox[static_cast<std::size_t>(
          node_rngs_[u].uniform(inbox.size()))];
      break;
    case AcceptancePolicy::kSmallestId:
      winner = *std::min_element(inbox.begin(), inbox.end());
      break;
    case AcceptancePolicy::kLargestId:
      winner = *std::max_element(inbox.begin(), inbox.end());
      break;
  }
  telemetry_.count_connection();
  if (fail_p > 0.0 && node_rngs_[u].bernoulli(fail_p)) {
    telemetry_.count_failed_connection();
  } else if (link_faults && fault_plan_->connection_lost(u, winner)) {
    telemetry_.count_fault_drop();
  } else {
    obs::ScopedPhaseTimer timer(phase_profile_, obs::Phase::kExchange);
    connect(winner, u, now);
  }
  inbox.clear();
}

// One local round of node u (see the header's phase list).
void EventScheduler::node_round(NodeId u, std::uint64_t now, Round window,
                                const Graph& graph) {
  push(now + period_[u], EventKind::kNodeRound, u, u);
  if (!active_now(u, window)) {
    // A down node's clock keeps ticking, but pending traffic is lost and
    // its stale advertisement is not discoverable.
    inbox_[u].clear();
    last_ad_tick_[u] = kNeverTick;
    return;
  }

  const Round lr = ++local_round_[u];
  resolve_inbox(u, now, window);

  // Advertise: broadcast to each neighbor; arrival is modeled on the
  // scanning side (an advertisement made at t is visible to v once
  // t + latency(u, v) has passed).
  const Tag tag = protocol_.advertise(u, lr, node_rngs_[u]);
  MTM_ENSURE_MSG(tag < tag_limit_, "protocol advertised more than b bits");
  last_tag_[u] = tag;
  last_ad_tick_[u] = now;

  // Scan: a neighbor is visible iff it is up, not partitioned away, and
  // its latest advertisement has propagated across the edge by now.
  view_.clear();
  for (NodeId v : graph.neighbors(u)) {
    if (!active_now(v, window)) continue;
    if (fault_plan_ != nullptr && fault_plan_->edge_blocked(u, v)) continue;
    const std::uint64_t ad = last_ad_tick_[v];
    if (ad == kNeverTick) continue;
    if (ad + latency_ticks(v, u, local_round_[v]) > now) continue;
    const Tag honest = last_tag_[v];
    const Tag seen = byz_plan_ != nullptr
                         ? byz_plan_->observed_tag(v, u, window, honest)
                         : honest;
    view_.push_back(NeighborInfo{v, seen});
  }

  const Decision d = protocol_.decide(
      u, lr, std::span<const NeighborInfo>(view_.data(), view_.size()),
      node_rngs_[u]);
  if (d.is_send()) {
    bool in_view = false;
    for (const NeighborInfo& info : view_) in_view |= (info.id == d.target);
    MTM_ENSURE_MSG(in_view, "proposal target must be an active neighbor");
    telemetry_.count_proposal();
    push(now + latency_ticks(u, d.target, lr), EventKind::kProposal, u,
         d.target);
  }
  decision_[u] = d;

  protocol_.finish_round(u, lr);
}

void EventScheduler::deliver_payload(const Event& event, Round window) {
  const NodeId to = event.b;
  if (!active_now(to, window)) return;  // lost with the downed node
  telemetry_.count_payload_uids(event.payload.uid_count());
  protocol_.receive_payload(to, event.a, event.payload,
                            std::max<Round>(local_round_[to], 1));
}

void EventScheduler::step() {
  const Round r = ++round_;
  const Graph& graph = topology_.graph_at(r);
  MTM_ENSURE_MSG(graph.node_count() == node_count_,
                 "topology node count changed mid-execution");
  telemetry_.begin_round(r, config_.record_rounds);

  const std::uint64_t proposals_before = telemetry_.proposals();
  const std::uint64_t connections_before = telemetry_.connections();
  const std::uint64_t dropped_before = telemetry_.dropped();
  const std::uint64_t crashes_before = telemetry_.crashes();
  const std::uint64_t recoveries_before = telemetry_.recoveries();
  const std::uint64_t dispatched_before = events_dispatched_;

  if (fault_plan_ != nullptr) {
    obs::ScopedPhaseTimer timer(phase_profile_, obs::Phase::kFaults);
    apply_faults(r);
  }

  std::uint32_t active_count = 0;
  for (NodeId u = 0; u < node_count_; ++u) {
    active_count += active_now(u, r) ? 1u : 0u;
  }
  telemetry_.set_active_nodes(active_count);

  // Drain the window [(r-1)·T, r·T): heap maintenance bills to
  // engine.event.queue, handler execution to engine.event.dispatch.
  const std::uint64_t horizon = r * kTicksPerRound;
  while (!queue_.empty() && queue_.top().tick < horizon) {
    Event event;
    {
      obs::ScopedPhaseTimer timer(phase_profile_, obs::Phase::kEventQueue);
      event = queue_.top();
      queue_.pop();
    }
    obs::ScopedPhaseTimer timer(phase_profile_, obs::Phase::kEventDispatch);
    ++events_dispatched_;
    switch (event.kind) {
      case EventKind::kNodeRound:
        node_round(event.a, event.tick, r, graph);
        break;
      case EventKind::kProposal:
        // Proposals to a down or partitioned-away node are lost in flight.
        if (active_now(event.b, r) &&
            !(fault_plan_ != nullptr &&
              fault_plan_->edge_blocked(event.a, event.b))) {
          inbox_[event.b].push_back(event.a);
        }
        break;
      case EventKind::kPayload:
        deliver_payload(event, r);
        break;
    }
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
        .with("recoveries", telemetry_.recoveries() - recoveries_before)
        .with("events", events_dispatched_ - dispatched_before)
        .with("queue", std::uint64_t{queue_.size()});
    trace_sink_->emit(event);
  }

  if (invariant_monitor_ != nullptr) {
    invariant_monitor_->observe_round(*this, graph);
  }
}

}  // namespace mtm
