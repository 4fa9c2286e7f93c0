#include "harness/fabric.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <stop_token>
#include <thread>

#include "core/assert.hpp"
#include "core/rng.hpp"
#include "harness/interrupt.hpp"
#include "obs/manifest.hpp"

namespace mtm {

namespace {

std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A fresh worker session id. Ids must be unique across worker processes
/// and restarts of the same machine; pid + wall-progress + entropy mixed
/// through derive_seed.
std::uint64_t mint_session() {
  std::random_device rd;
  std::uint64_t session = derive_seed(
      static_cast<std::uint64_t>(::getpid()),
      {steady_now_ms(),
       (static_cast<std::uint64_t>(rd()) << 32) ^ static_cast<std::uint64_t>(rd())});
  if (session == 0) session = 1;
  return session;
}

}  // namespace

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

const char* to_string(FabricMessage::Type type) {
  switch (type) {
    case FabricMessage::Type::kHello: return "hello";
    case FabricMessage::Type::kLease: return "lease";
    case FabricMessage::Type::kHeartbeat: return "heartbeat";
    case FabricMessage::Type::kResult: return "result";
    case FabricMessage::Type::kShutdown: return "shutdown";
    case FabricMessage::Type::kBye: return "bye";
    case FabricMessage::Type::kWelcome: return "welcome";
  }
  return "?";
}

std::string encode_fabric_message(const FabricMessage& message) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("schema", obs::JsonValue::string(kFabricSchemaVersion));
  doc.set("type", obs::JsonValue::string(to_string(message.type)));
  doc.set("worker", obs::JsonValue::unsigned_number(message.worker));
  doc.set("lease", obs::JsonValue::unsigned_number(message.lease));
  doc.set("point", obs::JsonValue::unsigned_number(message.point));
  if (!message.trials.empty()) {
    obs::JsonValue trials = obs::JsonValue::array();
    for (const std::uint64_t t : message.trials) {
      trials.push_back(obs::JsonValue::unsigned_number(t));
    }
    doc.set("trials", std::move(trials));
  }
  doc.set("sent_ms", obs::JsonValue::unsigned_number(message.sent_ms));
  if (!message.record.empty()) {
    doc.set("record", obs::JsonValue::string(message.record));
  }
  doc.set("session", obs::JsonValue::unsigned_number(message.session));
  doc.set("seq", obs::JsonValue::unsigned_number(message.seq));
  if (!message.fingerprint.empty()) {
    doc.set("fingerprint", obs::JsonValue::string(message.fingerprint));
  }
  return doc.dump();
}

FabricMessage parse_fabric_message(const std::string& line) {
  obs::JsonValue doc;
  try {
    doc = obs::parse_json(line);
  } catch (const std::invalid_argument& e) {
    throw FabricError(std::string("malformed fabric message: ") + e.what());
  }
  if (!doc.is_object()) throw FabricError("fabric message is not an object");
  const obs::JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kFabricSchemaVersion) {
    throw FabricError("fabric message schema mismatch");
  }
  const obs::JsonValue* type = doc.find("type");
  if (type == nullptr || !type->is_string()) {
    throw FabricError("fabric message missing type");
  }
  FabricMessage message;
  bool known = false;
  for (int t = static_cast<int>(FabricMessage::Type::kHello);
       t <= static_cast<int>(FabricMessage::Type::kWelcome); ++t) {
    const auto candidate = static_cast<FabricMessage::Type>(t);
    if (type->as_string() == to_string(candidate)) {
      message.type = candidate;
      known = true;
      break;
    }
  }
  if (!known) {
    throw FabricError("unknown fabric message type: " + type->as_string());
  }
  const auto u64_field = [&doc](const char* name) -> std::uint64_t {
    const obs::JsonValue* v = doc.find(name);
    return (v != nullptr && v->is_numeric()) ? v->as_u64() : 0;
  };
  message.worker = u64_field("worker");
  message.lease = u64_field("lease");
  message.point = u64_field("point");
  message.sent_ms = u64_field("sent_ms");
  message.session = u64_field("session");
  message.seq = u64_field("seq");
  if (const obs::JsonValue* fp = doc.find("fingerprint");
      fp != nullptr && fp->is_string()) {
    message.fingerprint = fp->as_string();
  }
  if (const obs::JsonValue* trials = doc.find("trials");
      trials != nullptr && trials->is_array()) {
    for (std::size_t i = 0; i < trials->size(); ++i) {
      if (!trials->at(i).is_numeric()) {
        throw FabricError("non-numeric trial index in lease");
      }
      message.trials.push_back(trials->at(i).as_u64());
    }
  }
  if (const obs::JsonValue* record = doc.find("record");
      record != nullptr && record->is_string()) {
    message.record = record->as_string();
  }
  return message;
}

// ---------------------------------------------------------------------------
// LeaseTable
// ---------------------------------------------------------------------------

LeaseTable::LeaseTable(std::uint64_t lease_ms, std::uint64_t liveness_ms)
    : lease_ms_(lease_ms), liveness_ms_(liveness_ms) {
  MTM_REQUIRE(lease_ms >= 1);
}

void LeaseTable::note_peer_alive(std::uint64_t worker, std::uint64_t now_ms) {
  if (liveness_ms_ == 0) return;
  for (auto& [w, t] : last_alive_) {
    if (w == worker) {
      t = std::max(t, now_ms);
      return;
    }
  }
  last_alive_.emplace_back(worker, now_ms);
}

std::vector<std::uint64_t> LeaseTable::lifeless_peers(std::uint64_t now_ms) {
  std::vector<std::uint64_t> dead;
  if (liveness_ms_ == 0) return dead;
  for (std::size_t i = 0; i < last_alive_.size();) {
    // Strictly-past, like lease expiry: a heartbeat landing exactly at the
    // deadline still counts as alive.
    if (now_ms > last_alive_[i].second + liveness_ms_) {
      dead.push_back(last_alive_[i].first);
      last_alive_.erase(last_alive_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  return dead;
}

void LeaseTable::drop_peer(std::uint64_t worker) {
  for (std::size_t i = 0; i < last_alive_.size(); ++i) {
    if (last_alive_[i].first == worker) {
      last_alive_.erase(last_alive_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

std::uint64_t LeaseTable::grant(std::uint64_t worker, std::uint64_t point,
                                std::vector<std::uint64_t> trials,
                                std::uint64_t now_ms) {
  MTM_REQUIRE(!trials.empty());
  Lease lease;
  lease.id = next_id_++;
  lease.worker = worker;
  lease.point = point;
  lease.deadline_ms = now_ms + lease_ms_;
  lease.pending = std::move(trials);
  open_.push_back(std::move(lease));
  return open_.back().id;
}

bool LeaseTable::renew(std::uint64_t id, std::uint64_t now_ms) {
  for (Lease& lease : open_) {
    if (lease.id != id) continue;
    // A renewal arriving exactly at the deadline still succeeds — expiry is
    // strictly-past (see expire()); being late requires being LATE.
    if (now_ms > lease.deadline_ms) return false;
    lease.deadline_ms = now_ms + lease_ms_;
    return true;
  }
  return false;
}

LeaseTable::CompleteStatus LeaseTable::complete(std::uint64_t id,
                                                std::uint64_t point,
                                                std::uint64_t trial,
                                                std::uint64_t now_ms) {
  for (std::size_t i = 0; i < open_.size(); ++i) {
    Lease& lease = open_[i];
    if (lease.id != id) continue;
    if (now_ms > lease.deadline_ms || lease.point != point) {
      return CompleteStatus::kStale;
    }
    const auto it =
        std::find(lease.pending.begin(), lease.pending.end(), trial);
    if (it == lease.pending.end()) return CompleteStatus::kStale;
    lease.pending.erase(it);
    if (lease.pending.empty()) {
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
      return CompleteStatus::kCompletedLease;
    }
    lease.deadline_ms = now_ms + lease_ms_;  // data is the strongest heartbeat
    return CompleteStatus::kAccepted;
  }
  return CompleteStatus::kStale;  // retired or never granted
}

std::vector<LeaseTable::Expired> LeaseTable::expire(std::uint64_t now_ms) {
  std::vector<Expired> expired;
  for (std::size_t i = 0; i < open_.size();) {
    if (now_ms > open_[i].deadline_ms) {
      Expired e;
      e.id = open_[i].id;
      e.worker = open_[i].worker;
      for (const std::uint64_t t : open_[i].pending) {
        e.incomplete.emplace_back(open_[i].point, t);
      }
      expired.push_back(std::move(e));
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  return expired;
}

std::vector<LeaseTable::Expired> LeaseTable::expire_worker(
    std::uint64_t worker) {
  std::vector<Expired> expired;
  for (std::size_t i = 0; i < open_.size();) {
    if (open_[i].worker == worker) {
      Expired e;
      e.id = open_[i].id;
      e.worker = worker;
      for (const std::uint64_t t : open_[i].pending) {
        e.incomplete.emplace_back(open_[i].point, t);
      }
      expired.push_back(std::move(e));
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  return expired;
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

namespace {

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

}  // namespace

int run_fabric_worker(std::unique_ptr<Transport> transport,
                      const std::vector<SweepPoint>& points,
                      const obs::RunManifest& manifest,
                      const FabricOptions& options,
                      FabricWorkerSession& session) {
  MTM_REQUIRE(transport != nullptr);
  const ResilienceOptions& resilience = options.resilience;
  const std::string fingerprint =
      obs::manifest_fingerprint(manifest.to_json());

  // The link: the transport currently carrying the session. A socketpair
  // worker keeps it for life; a TCP worker swaps in a fresh connection on
  // send failure or EOF (reconnect + re-hello + replay). shared_ptr so the
  // receive loop can keep polling a snapshot while the heartbeat thread is
  // mid-reconnect.
  std::mutex link_mutex;
  std::shared_ptr<Transport> link(std::move(transport));
  bool link_dead = false;       // coordinator vanished or unreachable
  bool welcomed = false;        // re-hello until the coordinator's welcome
  std::uint64_t out_seq = 0;    // per-connection, freshly stamped per send
  std::uint64_t index = 0;      // slot index, adopted from the welcome
  std::vector<FabricMessage> replay;  // current lease's unretired results

  std::optional<TrialJournal> shard;
  const auto open_shard = [&] {
    // The slot index names the shard, so it opens at the first welcome.
    if (shard.has_value() || !options.worker_shards ||
        resilience.journal_path.empty()) {
      return;
    }
    const std::string shard_path =
        resilience.journal_path + ".w" + std::to_string(index);
    // On resume the shard keeps accumulating this worker's trials across
    // runs (the permutation check spans all of them); a fresh run truncates.
    if (resilience.resume && file_exists(shard_path)) {
      shard = TrialJournal::open(shard_path, &manifest, resilience.storage,
                                 resilience.journal_fsync);
    } else {
      shard = TrialJournal::create(shard_path, manifest, resilience.storage,
                                   resilience.journal_fsync);
    }
  };

  TrialWatchdog watchdog(
      WatchdogOptions{resilience.trial_deadline_ms, /*poll_ms=*/5});

  // --- send path (all lambdas below take link_mutex themselves) ---

  const auto raw_send = [&](FabricMessage msg) -> bool {
    // link_mutex held by caller. Session/seq are stamped at TRANSMISSION
    // time — a replayed result gets a fresh seq, so the receiver's window
    // only ever discards wire duplicates, never legitimate replays.
    msg.worker = index;
    msg.session = session.id;
    msg.seq = ++out_seq;
    msg.sent_ms = steady_now_ms();
    return link->send_line(encode_fabric_message(msg));
  };

  const auto make_hello = [&] {
    FabricMessage hello;
    hello.type = FabricMessage::Type::kHello;
    hello.fingerprint = fingerprint;
    return hello;
  };

  // Dials a replacement connection (blocking through the factory's backoff
  // schedule), re-hellos with the session id, and replays the current
  // lease's results. link_mutex held. False = coordinator unreachable.
  const auto reconnect_locked = [&]() -> bool {
    while (session.reconnect && session.reconnects < session.max_reconnects) {
      link->sever();
      std::unique_ptr<Transport> fresh = session.reconnect();
      if (fresh == nullptr) break;
      link = std::shared_ptr<Transport>(std::move(fresh));
      out_seq = 0;
      welcomed = false;
      ++session.reconnects;
      if (!raw_send(make_hello())) continue;  // stillborn connection: redial
      bool ok = true;
      for (const FabricMessage& m : replay) {
        if (!raw_send(m)) {
          ok = false;
          break;
        }
      }
      if (ok) return true;
    }
    link_dead = true;
    return false;
  };

  const auto send_msg = [&](const FabricMessage& msg,
                            bool replayable) -> bool {
    std::lock_guard<std::mutex> lock(link_mutex);
    if (link_dead) return false;
    if (replayable) replay.push_back(msg);
    if (raw_send(msg)) return true;
    return reconnect_locked();  // msg is in the replay buffer if it mattered
  };

  send_msg(make_hello(), /*replayable=*/false);

  // The heartbeat thread beats every heartbeat period, with or without a
  // lease: a beat renews the lease the trial loop is executing (lease 0
  // while idle) and is the liveness keepalive that tells a quiet TCP peer
  // from a half-open one. Until the welcome arrives it re-hellos instead,
  // since a hello lost on the wire would otherwise strand the worker. A
  // jthread, so every exit path (exceptions included) stops and joins it.
  std::mutex lease_mutex;
  std::condition_variable_any beat_cv;  // woken only by stop
  std::uint64_t current_lease = 0;  // guarded by lease_mutex
  const std::uint64_t heartbeat_ms = std::max<std::uint64_t>(
      1, options.heartbeat_ms != 0 ? options.heartbeat_ms
                                   : options.lease_ms / 4);
  std::jthread heartbeat([&](std::stop_token stop) {
    std::unique_lock<std::mutex> lock(lease_mutex);
    for (;;) {
      beat_cv.wait_for(lock, stop, std::chrono::milliseconds(heartbeat_ms),
                        [] { return false; });
      if (stop.stop_requested()) return;
      const std::uint64_t lease = current_lease;
      lock.unlock();
      bool need_hello = false;
      {
        std::lock_guard<std::mutex> l(link_mutex);
        need_hello = !welcomed && !link_dead;
      }
      if (need_hello) {
        send_msg(make_hello(), /*replayable=*/false);
      } else {
        FabricMessage beat;
        beat.type = FabricMessage::Type::kHeartbeat;
        beat.lease = lease;
        send_msg(beat, /*replayable=*/false);
      }
      lock.lock();
    }
  });
  const auto set_current_lease = [&](std::uint64_t lease) {
    std::lock_guard<std::mutex> lock(lease_mutex);
    current_lease = lease;
  };

  const CancelToken* interrupt = resilience.interrupt;
  const auto interrupted_now = [interrupt] {
    return interrupt != nullptr && interrupt->cancelled();
  };

  int exit_code = 1;
  for (;;) {
    if (interrupted_now()) {
      exit_code = kInterruptExitCode;
      break;
    }
    std::shared_ptr<Transport> t;
    {
      std::lock_guard<std::mutex> lock(link_mutex);
      if (link_dead) break;  // exit_code = 1: coordinator vanished
      t = link;
    }
    std::string line;
    if (!t->poll_line(&line)) {
      if (t->closed()) {
        std::lock_guard<std::mutex> lock(link_mutex);
        if (link == t) {
          // EOF on the live link: redial (TCP) or give up (socketpair).
          if (!reconnect_locked()) {
            exit_code = 1;
            break;
          }
        }
        continue;  // a sender already swapped in a fresh connection
      }
      t->wait_readable(50);
      continue;
    }
    FabricMessage msg;
    try {
      msg = parse_fabric_message(line);
    } catch (const FabricError&) {
      continue;  // garbage on the wire is the coordinator's bug, not fatal
    }
    if (msg.type == FabricMessage::Type::kWelcome) {
      {
        std::lock_guard<std::mutex> lock(link_mutex);
        welcomed = true;
        index = msg.worker;
      }
      open_shard();
      continue;
    }
    if (msg.type == FabricMessage::Type::kShutdown) {
      exit_code = 0;
      break;
    }
    if (msg.type != FabricMessage::Type::kLease) continue;
    if (msg.point >= points.size()) continue;
    const SweepPoint& point = points[msg.point];

    {
      // A fresh lease retires the previous lease's replay buffer: those
      // results were either completed (coordinator has them) or expired
      // (the grant moved on; a replay would be stale-discarded anyway).
      std::lock_guard<std::mutex> lock(link_mutex);
      replay.clear();
    }
    set_current_lease(msg.lease);
    bool trial_interrupted = false;
    for (const std::uint64_t t_idx : msg.trials) {
      if (t_idx >= point.trials) continue;
      if (interrupted_now()) {
        trial_interrupted = true;
        break;
      }
      const JournalRecord rec = execute_sweep_trial(
          point, msg.point, t_idx, watchdog, resilience, &trial_interrupted);
      if (trial_interrupted) break;
      if (shard.has_value()) shard->append(rec);
      FabricMessage result;
      result.type = FabricMessage::Type::kResult;
      result.lease = msg.lease;
      result.point = msg.point;
      result.record = journal_record_line(rec);
      send_msg(result, /*replayable=*/true);
    }
    set_current_lease(0);
    if (trial_interrupted) {
      exit_code = kInterruptExitCode;
      break;
    }
  }

  heartbeat.request_stop();
  heartbeat.join();
  if (shard.has_value()) shard->checkpoint();
  FabricMessage bye;
  bye.type = FabricMessage::Type::kBye;
  send_msg(bye, /*replayable=*/false);
  return exit_code;
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

namespace {

FabricOptions checked_coordinator_options(FabricOptions options) {
  if (options.lease_ms == 0) throw FabricError("lease_ms must be >= 1");
  if (options.lease_batch == 0) {
    throw FabricError("lease_batch must be >= 1");
  }
  return options;
}

}  // namespace

FabricCoordinator::FabricCoordinator(const obs::RunManifest& manifest,
                                     FabricOptions options, Clock clock)
    : options_(checked_coordinator_options(std::move(options))),
      clock_(clock ? std::move(clock) : [] { return steady_now_ms(); }),
      ledger_(manifest, options_.resilience),
      manifest_fingerprint_(obs::manifest_fingerprint(manifest.to_json())) {}

SweepReport FabricCoordinator::run(const std::vector<SweepPoint>& points,
                                   std::vector<WorkerEndpoint> workers,
                                   FabricListener* listener) {
  if (workers.empty() && listener == nullptr) {
    throw FabricError("fabric needs at least one worker");
  }
  using Key = SweepLedger::Key;

  // Worker death policy, the transport's own rule: on a fork fabric (no
  // listener) socketpair EOF is death, so no liveness deadline is needed.
  // A listener fabric arms the per-peer heartbeat-liveness deadline
  // instead, because a TCP half-open peer never EOFs and an EOF peer may be
  // about to reconnect.
  const std::uint64_t liveness_ms =
      options_.liveness_ms != 0
          ? options_.liveness_ms
          : (listener != nullptr ? 2 * options_.lease_ms : 0);

  const std::vector<Key> pending = ledger_.start(points);
  std::deque<Key> queue(pending.begin(), pending.end());  // grant order

  // Chaos schedule: kill triggers are distinct positions in the result
  // stream, drawn from the first half so the drain path actually has work
  // left to redistribute. Deterministic in (chaos_seed, pending).
  std::vector<std::uint64_t> triggers;
  if (options_.chaos_kills > 0 && !pending.empty()) {
    const std::uint64_t hi = std::max<std::uint64_t>(
        options_.chaos_kills, static_cast<std::uint64_t>(pending.size()) / 2);
    Rng rng(derive_seed(options_.chaos_seed, {0xFABu}));
    std::set<std::uint64_t> picks;
    while (picks.size() < std::min<std::uint64_t>(options_.chaos_kills, hi)) {
      picks.insert(1 + rng.uniform(hi));
    }
    triggers.assign(picks.begin(), picks.end());
  }
  std::size_t next_trigger = 0;
  std::uint64_t results_received = 0;

  struct WorkerState {
    bool alive = true;
    bool ready = false;      // hello received
    bool idle = true;        // no open lease
    bool connected = true;   // transport currently usable (TCP may reconnect)
    std::uint64_t session = 0;  // from the hello
    std::uint64_t out_seq = 0;  // coordinator->worker seq, per connection
    SeqWindow window;           // worker->coordinator wire-dup suppression
  };
  std::vector<WorkerState> state(workers.size());
  std::map<Key, std::uint32_t> requeues;
  LeaseTable leases(options_.lease_ms, liveness_ms);
  // Accepted connections whose hello has not arrived yet (listener only).
  std::vector<std::unique_ptr<Transport>> pending_conns;

  obs::FixedHistogram* hb_hist = nullptr;
  if (options_.metrics != nullptr) {
    hb_hist = &options_.metrics->histogram(
        "fabric.heartbeat_latency_ms",
        obs::FixedHistogram::exponential_bounds(1.0, 2.0, 12));
  }

  const auto alive_workers = [&state] {
    std::size_t n = 0;
    for (const WorkerState& s : state) {
      if (s.alive) ++n;
    }
    return n;
  };

  const auto send_to = [&](std::size_t w, FabricMessage msg) -> bool {
    msg.worker = static_cast<std::uint64_t>(w);
    msg.session = state[w].session;
    msg.seq = ++state[w].out_seq;
    msg.sent_ms = clock_();
    return workers[w].transport->send_line(encode_fabric_message(msg));
  };

  // Welcome assigns/confirms the worker's slot index (and re-acks a
  // re-hello whose first welcome was lost on the wire).
  const auto send_welcome = [&](std::size_t w) {
    FabricMessage welcome;
    welcome.type = FabricMessage::Type::kWelcome;
    (void)send_to(w, welcome);
  };

  const auto reap = [&](std::size_t w) {
    if (workers[w].pid > 0) {
      int status = 0;
      ::waitpid(workers[w].pid, &status, 0);
      unregister_interrupt_child(workers[w].pid);
      workers[w].pid = -1;
    }
  };

  // Lands a worker result or a fabricated quarantine record, first-wins.
  const auto accept = [&](const JournalRecord& rec) {
    if (!ledger_.accept(rec)) ++stats_.duplicate_results_discarded;
  };

  const auto requeue = [&](const Key& key) {
    if (ledger_.filled(key)) return;
    const std::uint32_t count = ++requeues[key];
    if (count > options_.max_requeues) {
      // The trial has now outlived max_requeues leases: treat it like a
      // poison seed and quarantine it with a censored record so the sweep
      // can finish — mirroring the watchdog's retry-exhaustion policy.
      ++stats_.fabric_quarantined;
      JournalRecord rec;
      rec.point = key.first;
      rec.trial = key.second;
      rec.seed = trial_seed(points[key.first].master_seed, key.second);
      rec.attempts = count;
      rec.quarantined = true;
      rec.result.converged = false;
      accept(rec);
      return;
    }
    queue.push_front(key);
    ++stats_.trials_requeued;
  };

  const auto drain_worker_leases = [&](std::size_t w) {
    for (const LeaseTable::Expired& e :
         leases.expire_worker(static_cast<std::uint64_t>(w))) {
      ++stats_.leases_expired;
      for (const Key& key : e.incomplete) requeue(key);
    }
  };

  const auto on_worker_down = [&](std::size_t w, bool chaos, bool clean) {
    if (!state[w].alive) return;
    state[w].alive = false;
    state[w].idle = false;
    state[w].connected = false;
    if (!clean) ++stats_.worker_deaths;
    if (chaos) ++stats_.chaos_kills;
    leases.drop_peer(static_cast<std::uint64_t>(w));
    drain_worker_leases(w);
    reap(w);
  };

  const auto chaos_fire = [&](std::size_t sender) {
    if (!state[sender].alive || alive_workers() <= 1) return;
    if (workers[sender].pid > 0) ::kill(workers[sender].pid, SIGKILL);
    workers[sender].transport->sever();
    on_worker_down(sender, /*chaos=*/true, /*clean=*/false);
  };

  // A hello must carry a session and prove it was built from the same
  // flags: the manifest fingerprint is deterministic (no timestamps), so
  // any mismatch means this worker would compute different trials.
  const auto refuse_hello = [&](const FabricMessage& hello) {
    if (hello.session != 0 && hello.fingerprint == manifest_fingerprint_) {
      return false;
    }
    ++stats_.manifest_rejects;
    return true;
  };

  const auto handle_message = [&](std::size_t w, const FabricMessage& msg,
                                  std::uint64_t now) {
    leases.note_peer_alive(static_cast<std::uint64_t>(w), now);
    switch (msg.type) {
      case FabricMessage::Type::kHello:
        if (refuse_hello(msg)) {
          workers[w].transport->sever();
          on_worker_down(w, /*chaos=*/false, /*clean=*/true);
          break;
        }
        state[w].ready = true;
        state[w].session = msg.session;
        send_welcome(w);
        break;
      case FabricMessage::Type::kHeartbeat: {
        ++stats_.heartbeats;
        (void)leases.renew(msg.lease, now);
        if (hb_hist != nullptr) {
          hb_hist->record(now >= msg.sent_ms
                              ? static_cast<double>(now - msg.sent_ms)
                              : 0.0);
        }
        break;
      }
      case FabricMessage::Type::kResult: {
        JournalRecord rec;
        try {
          rec = parse_journal_record(msg.record);
        } catch (const JournalError&) {
          break;  // checksum-failing result line: drop it, the lease expires
        }
        ++results_received;
        const LeaseTable::CompleteStatus status =
            leases.complete(msg.lease, rec.point, rec.trial, now);
        if (status == LeaseTable::CompleteStatus::kStale) {
          // Deterministic late-result rule: an expired/retired lease never
          // lands data, even if the key is still open — the requeued grant
          // will recompute the identical record from the same seed.
          ++stats_.late_results_discarded;
        } else {
          accept(rec);
          if (status == LeaseTable::CompleteStatus::kCompletedLease) {
            ++stats_.leases_completed;
            state[w].idle = true;
          }
        }
        if (next_trigger < triggers.size() &&
            results_received == triggers[next_trigger]) {
          ++next_trigger;
          chaos_fire(w);
        }
        break;
      }
      case FabricMessage::Type::kBye:
        on_worker_down(w, /*chaos=*/false, /*clean=*/true);
        break;
      default:
        break;
    }
  };

  const auto pump_worker = [&](std::size_t w, std::uint64_t now) {
    if (!state[w].alive || !state[w].connected) return;
    std::string line;
    while (workers[w].transport->poll_line(&line)) {
      FabricMessage msg;
      try {
        msg = parse_fabric_message(line);
      } catch (const FabricError&) {
        continue;  // wire-truncated/garbled line: the parse is the CRC
      }
      if (!state[w].window.accept(msg.seq)) {
        ++stats_.stale_seq_discarded;  // wire-duplicated line
        continue;
      }
      handle_message(w, msg, now);
      if (!state[w].alive || !state[w].connected) return;
    }
    if (workers[w].transport->closed()) {
      if (listener != nullptr) {
        // TCP EOF is a broken connection, not a death: the worker's leases
        // keep running while it redials; the liveness deadline — not EOF —
        // declares it dead if it never comes back.
        state[w].connected = false;
      } else {
        on_worker_down(w, /*chaos=*/false, /*clean=*/false);
      }
    }
  };

  // Adopts a pending connection whose hello just arrived: a session match
  // transplants the connection into the existing slot (reconnect/resume);
  // anything else becomes a new worker slot.
  const auto adopt_hello = [&](std::unique_ptr<Transport> conn,
                               const FabricMessage& msg, std::uint64_t now) {
    if (refuse_hello(msg)) {
      conn->sever();
      return;
    }
    for (std::size_t w = 0; w < state.size(); ++w) {
      if (state[w].session != msg.session) continue;
      // Reconnect: same session, fresh connection. Live leases keep
      // running — the worker replays its unretired results itself. A
      // liveness-declared "dead" worker that comes back is resurrected
      // (its old leases were already requeued; late results under the
      // old ids stay stale).
      //
      // Drain the dying connection first: results that landed just
      // before the break are already in its buffer, and discarding them
      // with the transport would turn a clean resume into a requeue.
      pump_worker(w, now);
      const bool was_alive = state[w].alive;
      workers[w].transport = std::move(conn);
      workers[w].pid = -1;
      state[w].alive = true;
      state[w].ready = true;
      state[w].connected = true;
      if (!was_alive) state[w].idle = true;
      state[w].out_seq = 0;
      state[w].window.reset();
      state[w].window.accept(msg.seq);
      ++stats_.reconnects;
      leases.note_peer_alive(static_cast<std::uint64_t>(w), now);
      send_welcome(w);
      return;
    }
    const std::size_t w = workers.size();
    WorkerEndpoint ep;
    ep.transport = std::move(conn);
    ep.pid = -1;
    workers.push_back(std::move(ep));
    WorkerState fresh;
    fresh.ready = true;
    fresh.session = msg.session;
    fresh.window.accept(msg.seq);
    state.push_back(fresh);
    leases.note_peer_alive(static_cast<std::uint64_t>(w), now);
    send_welcome(w);
  };

  const auto pump_pending = [&](std::uint64_t now) {
    if (listener == nullptr) return;
    while (std::unique_ptr<Transport> conn = listener->accept()) {
      pending_conns.push_back(std::move(conn));
    }
    for (std::size_t i = 0; i < pending_conns.size();) {
      std::string line;
      if (pending_conns[i]->poll_line(&line)) {
        std::unique_ptr<Transport> conn = std::move(pending_conns[i]);
        pending_conns.erase(pending_conns.begin() +
                            static_cast<std::ptrdiff_t>(i));
        FabricMessage msg;
        try {
          msg = parse_fabric_message(line);
        } catch (const FabricError&) {
          conn->sever();  // not a fabric peer
          continue;
        }
        if (msg.type != FabricMessage::Type::kHello) {
          conn->sever();  // protocol requires hello first
          continue;
        }
        adopt_hello(std::move(conn), msg, now);
        continue;
      }
      if (pending_conns[i]->closed()) {
        pending_conns.erase(pending_conns.begin() +
                            static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ++i;
    }
  };

  const CancelToken* interrupt = options_.resilience.interrupt;
  bool interrupted = false;
  std::uint64_t no_worker_since = 0;

  for (;;) {
    const std::uint64_t now = clock_();
    pump_pending(now);
    for (std::size_t w = 0; w < workers.size(); ++w) pump_worker(w, now);

    for (const LeaseTable::Expired& e : leases.expire(now)) {
      ++stats_.leases_expired;
      // The owner lost the lease but is (as far as we know) alive: it gets
      // fresh work, and anything it still sends under the old id is stale.
      if (e.worker < state.size() && state[e.worker].alive) {
        state[e.worker].idle = true;
      }
      for (const Key& key : e.incomplete) requeue(key);
    }

    // Heartbeat-liveness deadline: the ONLY death verdict for half-open
    // connections, which never EOF. Strictly-past semantics match lease
    // expiry; a declared death drains the peer's leases for requeue.
    for (const std::uint64_t w : leases.lifeless_peers(now)) {
      if (w < state.size() && state[w].alive) {
        ++stats_.liveness_deaths;
        workers[w].transport->sever();
        on_worker_down(w, /*chaos=*/false, /*clean=*/false);
      }
    }

    if (ledger_.unfilled() == 0) break;
    if (interrupt != nullptr && interrupt->cancelled()) {
      interrupted = true;
      break;
    }
    if (alive_workers() == 0) {
      if (listener == nullptr) {
        // Total worker loss: stop granting, report the completed prefix as
        // a partial sweep — everything durable is journaled for --resume.
        interrupted = true;
        break;
      }
      // A listener fabric waits out one liveness window for workers to dial
      // (back) in before declaring the sweep stranded.
      if (no_worker_since == 0) no_worker_since = now;
      if (now - no_worker_since > liveness_ms) {
        interrupted = true;
        break;
      }
    } else {
      no_worker_since = 0;
    }

    for (std::size_t w = 0; w < workers.size() && !queue.empty(); ++w) {
      if (!state[w].alive || !state[w].ready || !state[w].idle ||
          !state[w].connected) {
        continue;
      }
      while (!queue.empty() && ledger_.filled(queue.front())) {
        queue.pop_front();
      }
      if (queue.empty()) break;
      const std::uint64_t point = queue.front().first;
      std::vector<std::uint64_t> trials;
      while (!queue.empty() && trials.size() < options_.lease_batch &&
             queue.front().first == point) {
        const Key key = queue.front();
        queue.pop_front();
        if (!ledger_.filled(key)) trials.push_back(key.second);
      }
      const std::uint64_t id =
          leases.grant(static_cast<std::uint64_t>(w), point, trials, now);
      ++stats_.leases_granted;
      FabricMessage grant;
      grant.type = FabricMessage::Type::kLease;
      grant.lease = id;
      grant.point = point;
      grant.trials = std::move(trials);
      if (!send_to(w, std::move(grant))) {
        if (listener != nullptr) {
          // Broken TCP connection, not a death: the lease expires and
          // requeues on its own clock while the worker redials.
          state[w].connected = false;
          state[w].idle = false;
        } else {
          on_worker_down(w, /*chaos=*/false, /*clean=*/false);
        }
        continue;
      }
      state[w].idle = false;
    }

    // Sleep until something is readable (or a short tick for in-memory
    // transports / timer-driven expiry).
    std::vector<struct pollfd> fds;
    for (std::size_t w = 0; w < workers.size(); ++w) {
      if (state[w].alive && state[w].connected &&
          workers[w].transport->fd() >= 0) {
        fds.push_back({workers[w].transport->fd(), POLLIN, 0});
      }
    }
    if (listener != nullptr && listener->fd() >= 0) {
      fds.push_back({listener->fd(), POLLIN, 0});
    }
    for (const std::unique_ptr<Transport>& conn : pending_conns) {
      if (conn->fd() >= 0) fds.push_back({conn->fd(), POLLIN, 0});
    }
    if (!fds.empty()) {
      ::poll(fds.data(), fds.size(), 10);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Shutdown: whatever is still leased is aborted (drained, not failed);
  // give workers a short grace to flush in-flight results and say bye, then
  // hard-stop stragglers.
  stats_.leases_aborted += leases.open_leases();
  next_trigger = triggers.size();  // no chaos during drain
  for (std::size_t w = 0; w < workers.size(); ++w) {
    if (!state[w].alive || !state[w].connected) continue;
    FabricMessage shutdown;
    shutdown.type = FabricMessage::Type::kShutdown;
    (void)send_to(w, shutdown);
  }
  const auto shutdown_stray = [&](Transport& conn) {
    // A worker dialing in (or reconnecting) during the drain gets told to
    // go home instead of being left to redial a corpse.
    FabricMessage shutdown;
    shutdown.type = FabricMessage::Type::kShutdown;
    shutdown.sent_ms = clock_();
    (void)conn.send_line(encode_fabric_message(shutdown));
  };
  const std::uint64_t grace_deadline =
      clock_() + std::min<std::uint64_t>(options_.lease_ms, 2000);
  for (int spin = 0; spin < 100000; ++spin) {
    const std::uint64_t now = clock_();
    if (listener != nullptr) {
      while (std::unique_ptr<Transport> conn = listener->accept()) {
        shutdown_stray(*conn);
      }
      for (const std::unique_ptr<Transport>& conn : pending_conns) {
        shutdown_stray(*conn);
      }
      pending_conns.clear();
    }
    std::size_t alive = 0;
    for (std::size_t w = 0; w < workers.size(); ++w) {
      pump_worker(w, now);
      if (state[w].alive && state[w].connected) ++alive;
    }
    if (alive == 0 || now >= grace_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::size_t w = 0; w < workers.size(); ++w) {
    if (!state[w].alive) continue;
    if (workers[w].pid > 0) ::kill(workers[w].pid, SIGKILL);
    workers[w].transport->sever();
    state[w].alive = false;
    drain_worker_leases(w);
    reap(w);
  }

  SweepReport report = ledger_.finish(interrupted);

  if (options_.metrics != nullptr) {
    obs::MetricRegistry& m = *options_.metrics;
    m.counter("fabric.leases_granted").increment(stats_.leases_granted);
    m.counter("fabric.leases_completed").increment(stats_.leases_completed);
    m.counter("fabric.leases_expired").increment(stats_.leases_expired);
    m.counter("fabric.leases_aborted").increment(stats_.leases_aborted);
    m.counter("fabric.trials_requeued").increment(stats_.trials_requeued);
    m.counter("fabric.late_results_discarded")
        .increment(stats_.late_results_discarded);
    m.counter("fabric.duplicate_results_discarded")
        .increment(stats_.duplicate_results_discarded);
    m.counter("fabric.worker_deaths").increment(stats_.worker_deaths);
    m.counter("fabric.chaos_kills").increment(stats_.chaos_kills);
    m.counter("fabric.heartbeats").increment(stats_.heartbeats);
    m.counter("fabric.quarantined").increment(stats_.fabric_quarantined);
    m.counter("fabric.reconnects").increment(stats_.reconnects);
    m.counter("fabric.liveness_deaths").increment(stats_.liveness_deaths);
    m.counter("fabric.net.stale_seq_discarded")
        .increment(stats_.stale_seq_discarded);
    m.counter("fabric.net.manifest_rejects")
        .increment(stats_.manifest_rejects);
    m.gauge("fabric.workers").set(static_cast<double>(workers.size()));
  }
  return report;
}

// ---------------------------------------------------------------------------
// FabricRunner
// ---------------------------------------------------------------------------

FabricRunner::FabricRunner(const obs::RunManifest& manifest,
                           FabricOptions options)
    : manifest_(manifest), options_(std::move(options)) {
  const bool net = !options_.listen.empty();
  if (options_.workers == 0 && !net) {
    throw FabricError("fabric requires workers >= 1 or a listen address");
  }
  if (net && options_.workers > 0) {
    throw FabricError("listen mode accepts remote workers; workers must be 0");
  }
  if (net && options_.chaos_kills > 0) {
    throw FabricError("chaos kills need forked workers (no pid to SIGKILL)");
  }
  if (net && options_.worker_shards) {
    throw FabricError("worker shards are written worker-side, not in listen mode");
  }
  if (!net && options_.chaos_kills >= options_.workers) {
    throw FabricError(
        "chaos_kills must be < workers (never kill the last worker)");
  }
  if (options_.worker_shards && options_.resilience.journal_path.empty()) {
    throw FabricError("worker shards require a journal path");
  }
  if (options_.heartbeat_ms == 0) {
    options_.heartbeat_ms = std::max<std::uint64_t>(1, options_.lease_ms / 4);
  }
  if (options_.heartbeat_ms >= options_.lease_ms) {
    throw FabricError("heartbeat_ms must be < lease_ms");
  }
  if (net) {
    // Bind now, not in run(): tools print bound_port() between construction
    // and run() so workers know where to dial (matters for ephemeral :0).
    listener_ = std::make_unique<TcpListener>(parse_host_port(options_.listen));
    bound_port_ = listener_->port();
  }
}

SweepReport FabricRunner::run(const std::vector<SweepPoint>& points) {
  if (listener_ != nullptr) {
    // Network coordinator: wait for workers to dial in. No forking — remote
    // workers are their own processes (mtm_soak/mtm_sim --connect)
    // rebuilding identical points from identical flags.
    FabricCoordinator coordinator(manifest_, options_);
    SweepReport report = coordinator.run(points, {}, listener_.get());
    stats_ = coordinator.stats();
    return report;
  }

  // The coordinator (and its journal open/create, which can throw) comes
  // first so a bad resume never forks anything.
  FabricCoordinator coordinator(manifest_, options_);

  std::vector<WorkerEndpoint> endpoints;
  std::vector<int> parent_fds;  // coordinator-side fds a later child must close

  const auto kill_spawned = [&endpoints] {
    for (WorkerEndpoint& ep : endpoints) {
      if (ep.pid > 0) {
        ::kill(ep.pid, SIGKILL);
        int status = 0;
        ::waitpid(ep.pid, &status, 0);
        unregister_interrupt_child(ep.pid);
      }
    }
  };

  for (std::size_t i = 0; i < options_.workers; ++i) {
    int sv[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      kill_spawned();
      throw FabricError("socketpair failed");
    }
    // Fork, not exec: SweepPoint bodies are std::function closures that
    // cannot cross an exec boundary. Callers must not have started threads
    // yet (the coordinator loop is single-threaded by design).
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      kill_spawned();
      throw FabricError("fork failed");
    }
    if (pid == 0) {
      // Child: own process group so a terminal Ctrl-C reaches only the
      // coordinator (which forwards it once, cooperatively); PDEATHSIG so a
      // SIGKILLed coordinator cannot leak orphans.
      ::setpgid(0, 0);
#ifdef __linux__
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
#endif
      reset_interrupt_in_child();
      ::close(sv[0]);
      for (const int fd : parent_fds) ::close(fd);
      int code = 1;
      try {
        FabricWorkerSession session;
        session.id = mint_session();
        code = run_fabric_worker(std::make_unique<StreamTransport>(sv[1]),
                                 points, manifest_, options_, session);
      } catch (...) {
        code = 1;
      }
      std::_Exit(code);
    }
    ::close(sv[1]);
    parent_fds.push_back(sv[0]);
    (void)register_interrupt_child(pid);
    WorkerEndpoint ep;
    ep.transport = std::make_unique<StreamTransport>(sv[0]);
    ep.pid = pid;
    endpoints.push_back(std::move(ep));
  }

  SweepReport report = coordinator.run(points, std::move(endpoints));
  stats_ = coordinator.stats();
  return report;
}

// ---------------------------------------------------------------------------
// Network worker entry point
// ---------------------------------------------------------------------------

int run_fabric_net_worker(const std::vector<SweepPoint>& points,
                          const obs::RunManifest& manifest,
                          const FabricOptions& options) {
  MTM_REQUIRE(!options.connect.empty());
  const HostPort peer = parse_host_port(options.connect);

  FabricWorkerSession session;
  session.id = mint_session();

  TcpConnectOptions dial;
  dial.connect_timeout_ms = options.net_connect_timeout_ms;
  dial.attempts = options.net_reconnect_attempts;
  dial.backoff_ms = options.net_backoff_ms;
  dial.backoff_max_ms = options.net_backoff_max_ms;
  dial.jitter_seed = derive_seed(session.id, {0x6a6974u});

  std::uint64_t connections = 0;
  const auto dial_once = [&, peer]() -> std::unique_ptr<Transport> {
    std::unique_ptr<Transport> t = tcp_connect(peer, dial);
    if (t == nullptr) return nullptr;
    const std::uint64_t conn = connections++;
    if (options.net_chaos.any()) {
      WireFaultConfig cfg = options.net_chaos;
      // Fresh fault stream per connection (deterministic in (seed, conn)),
      // and the forced sever fires on the FIRST connection only — exactly
      // one deterministic reconnect, not an endless sever loop.
      cfg.seed = derive_seed(options.net_chaos.seed, {0x6e6574u, conn});
      if (conn > 0) cfg.sever_after = 0;
      t = std::make_unique<FaultyTransport>(std::move(t), cfg,
                                            options.metrics);
    }
    return t;
  };

  std::unique_ptr<Transport> first = dial_once();
  if (first == nullptr) return 1;  // coordinator unreachable

  session.reconnect = dial_once;
  const int code =
      run_fabric_worker(std::move(first), points, manifest, options, session);
  if (options.metrics != nullptr) {
    options.metrics->counter("fabric.reconnects")
        .increment(session.reconnects);
  }
  return code;
}

}  // namespace mtm
