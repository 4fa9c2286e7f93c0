// Distributed sweep fabric: mtm-fabric/2 protocol round-trips, LeaseTable
// expiry and heartbeat-liveness edge cases, the per-connection sequence
// window, the hello checks, and coordinator/worker end-to-end runs — over
// loopback transports, under deterministic wire faults, through a forced
// mid-lease reconnect, past a half-open (silent) worker, and over real TCP
// with chaos-decorated network workers — all of which must reproduce a
// single-process SweepRunner byte-for-byte.
#include "harness/fabric.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/manifest.hpp"
#include "sweep_fixtures.hpp"

namespace mtm {
namespace {

using namespace fixtures;

/// The wire line a worker would send for (point, trial): the same checksummed
/// journal serialization real workers produce from execute_sweep_trial.
std::string result_line(const std::vector<SweepPoint>& points,
                        std::uint64_t point, std::uint64_t trial) {
  JournalRecord rec;
  rec.point = point;
  rec.trial = trial;
  rec.seed = trial_seed(points[point].master_seed, trial);
  rec.result = synthetic_result(rec.seed);
  rec.attempts = 1;
  return journal_record_line(rec);
}

/// Blocks until the peer sends a message or hangs up; nullopt on hangup.
std::optional<FabricMessage> next_message(Transport& transport) {
  std::string line;
  for (;;) {
    if (transport.poll_line(&line)) return parse_fabric_message(line);
    if (transport.closed()) return std::nullopt;
    transport.wait_readable(50);
  }
}

FabricMessage make_message(FabricMessage::Type type, std::uint64_t worker,
                           std::uint64_t lease = 0) {
  FabricMessage m;
  m.type = type;
  m.worker = worker;
  m.lease = lease;
  return m;
}

std::string fingerprint_of(const obs::RunManifest& manifest) {
  return obs::manifest_fingerprint(manifest.to_json());
}

/// A scripted worker on one connection: every line it sends carries its
/// session and the connection's next sequence number, as run_fabric_worker
/// stamps them.
class ScriptedWorker {
 public:
  ScriptedWorker(Transport& transport, std::uint64_t session)
      : transport_(transport), session_(session) {}

  /// The wire line for `message`, stamped with the next sequence number.
  std::string stamp(FabricMessage message) {
    message.session = session_;
    message.seq = ++seq_;
    return encode_fabric_message(message);
  }
  void send(const FabricMessage& message) {
    (void)transport_.send_line(stamp(message));
  }
  /// Says hello with `manifest`'s fingerprint and consumes the welcome.
  void hello(const obs::RunManifest& manifest) {
    FabricMessage hello = make_message(FabricMessage::Type::kHello, 0);
    hello.fingerprint = fingerprint_of(manifest);
    send(hello);
    const std::optional<FabricMessage> welcome = next_message(transport_);
    ASSERT_TRUE(welcome.has_value());
    ASSERT_EQ(welcome->type, FabricMessage::Type::kWelcome);
  }

 private:
  Transport& transport_;
  std::uint64_t session_;
  std::uint64_t seq_ = 0;
};

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

TEST(FabricMessage, RoundTripsEveryTypeAndField) {
  const FabricMessage::Type types[] = {
      FabricMessage::Type::kHello,     FabricMessage::Type::kLease,
      FabricMessage::Type::kHeartbeat, FabricMessage::Type::kResult,
      FabricMessage::Type::kShutdown,  FabricMessage::Type::kBye,
  };
  for (const FabricMessage::Type type : types) {
    FabricMessage m;
    m.type = type;
    m.worker = 3;
    m.lease = 17;
    m.point = 2;
    m.trials = {5, 6, 7};
    m.sent_ms = 123456;
    m.record = "payload with \"quotes\" and \\ backslashes";
    const FabricMessage back = parse_fabric_message(encode_fabric_message(m));
    EXPECT_EQ(back.type, type) << to_string(type);
    EXPECT_EQ(back.worker, 3u);
    EXPECT_EQ(back.lease, 17u);
    EXPECT_EQ(back.point, 2u);
    EXPECT_EQ(back.trials, m.trials);
    EXPECT_EQ(back.sent_ms, 123456u);
    EXPECT_EQ(back.record, m.record);
  }
}

TEST(FabricMessage, RejectsMalformedAndForeignLines) {
  EXPECT_THROW(parse_fabric_message("not json"), FabricError);
  EXPECT_THROW(parse_fabric_message("[1,2,3]"), FabricError);
  // Wrong or missing schema tag: a journal line must never be mistaken for
  // a protocol message, nor a message from an incompatible fabric version.
  EXPECT_THROW(parse_fabric_message(R"({"type":"hello"})"), FabricError);
  EXPECT_THROW(
      parse_fabric_message(R"({"schema":"mtm-fabric/99","type":"hello"})"),
      FabricError);
  EXPECT_THROW(
      parse_fabric_message(R"({"schema":"mtm-fabric/2","type":"gossip"})"),
      FabricError);
  EXPECT_THROW(parse_fabric_message(R"({"schema":"mtm-fabric/2"})"),
               FabricError);
  EXPECT_THROW(
      parse_fabric_message(
          R"({"schema":"mtm-fabric/2","type":"lease","trials":[1,"x"]})"),
      FabricError);
}

// ---------------------------------------------------------------------------
// LeaseTable edge cases
// ---------------------------------------------------------------------------

TEST(LeaseTable, HeartbeatExactlyAtDeadlineStillRenews) {
  LeaseTable table(100);
  const std::uint64_t id = table.grant(0, 0, {0, 1}, /*now=*/1000);
  ASSERT_EQ(id, 1u);

  // Expiry is strictly past-deadline: at the deadline the lease is alive
  // and a heartbeat landing exactly then renews it.
  EXPECT_TRUE(table.expire(1100).empty());
  EXPECT_TRUE(table.renew(id, 1100));  // deadline is now 1200
  EXPECT_TRUE(table.expire(1200).empty());
  EXPECT_FALSE(table.renew(id, 1201));  // one tick late is late

  const std::vector<LeaseTable::Expired> expired = table.expire(1201);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, id);
  ASSERT_EQ(expired[0].incomplete.size(), 2u);
  EXPECT_EQ(expired[0].incomplete[0], (std::pair<std::uint64_t,
                                                 std::uint64_t>{0, 0}));
  // Once expired the id is retired forever.
  EXPECT_FALSE(table.renew(id, 1201));
  EXPECT_EQ(table.complete(id, 0, 0, 1201), LeaseTable::CompleteStatus::kStale);
  EXPECT_EQ(table.open_leases(), 0u);
}

TEST(LeaseTable, CompleteRenewsRetiresAndDetectsStaleKeys) {
  LeaseTable table(100);
  const std::uint64_t id = table.grant(0, 7, {3, 4}, /*now=*/0);

  // Delivering data renews the deadline (data is the strongest heartbeat).
  EXPECT_EQ(table.complete(id, 7, 3, 90), LeaseTable::CompleteStatus::kAccepted);
  EXPECT_TRUE(table.expire(150).empty());  // deadline moved to 190

  // A key the lease never granted — or already delivered — is stale.
  EXPECT_EQ(table.complete(id, 7, 9, 150), LeaseTable::CompleteStatus::kStale);
  EXPECT_EQ(table.complete(id, 7, 3, 150), LeaseTable::CompleteStatus::kStale);
  EXPECT_EQ(table.complete(id, 8, 4, 150), LeaseTable::CompleteStatus::kStale);

  // The last pending trial retires the lease; afterwards the id is dead.
  EXPECT_EQ(table.complete(id, 7, 4, 185),
            LeaseTable::CompleteStatus::kCompletedLease);
  EXPECT_EQ(table.open_leases(), 0u);
  EXPECT_EQ(table.complete(id, 7, 4, 185), LeaseTable::CompleteStatus::kStale);
  EXPECT_FALSE(table.renew(id, 186));

  // A result one tick past the deadline is stale even with the key pending.
  const std::uint64_t late = table.grant(0, 7, {5}, /*now=*/1000);
  EXPECT_EQ(table.complete(late, 7, 5, 1101),
            LeaseTable::CompleteStatus::kStale);
}

TEST(LeaseTable, ExpireWorkerDrainsOnlyThatWorkerAndIdsNeverRecycle) {
  LeaseTable table(1000);
  const std::uint64_t a = table.grant(0, 0, {0, 1}, 0);
  const std::uint64_t b = table.grant(1, 0, {2, 3}, 0);
  ASSERT_NE(a, b);
  EXPECT_EQ(table.complete(a, 0, 0, 1), LeaseTable::CompleteStatus::kAccepted);

  const std::vector<LeaseTable::Expired> dead = table.expire_worker(0);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].id, a);
  EXPECT_EQ(dead[0].worker, 0u);
  // Only the undelivered key comes back for requeue.
  ASSERT_EQ(dead[0].incomplete.size(), 1u);
  EXPECT_EQ(dead[0].incomplete[0],
            (std::pair<std::uint64_t, std::uint64_t>{0, 1}));

  // Worker 1's lease is untouched and still completes.
  EXPECT_EQ(table.open_leases(), 1u);
  EXPECT_EQ(table.complete(b, 0, 2, 2), LeaseTable::CompleteStatus::kAccepted);

  // Ids keep climbing after expiry — a stale id can never alias a new lease.
  const std::uint64_t c = table.grant(0, 0, {1}, 3);
  EXPECT_GT(c, b);
  EXPECT_EQ(table.complete(a, 0, 1, 3), LeaseTable::CompleteStatus::kStale);
}

// ---------------------------------------------------------------------------
// End-to-end over loopback transports
// ---------------------------------------------------------------------------

TEST(Fabric, LoopbackWorkersReproduceSweepRunnerByteForByte) {
  const obs::RunManifest manifest = sweep_manifest();
  const std::vector<SweepPoint> points = synthetic_points(3, 4, 300);

  SweepRunner control(manifest, ResilienceOptions{});
  const SweepReport expected = control.run(synthetic_points(3, 4, 300), 2);

  FabricOptions options;
  options.workers = 2;
  options.lease_ms = 60000;  // no expiry in a clean run
  options.heartbeat_ms = 5;  // but plenty of heartbeats
  options.lease_batch = 3;

  obs::MetricRegistry metrics;
  options.metrics = &metrics;

  std::vector<WorkerEndpoint> endpoints;
  std::vector<std::thread> threads;
  std::vector<int> exit_codes(2, -1);
  for (std::size_t w = 0; w < 2; ++w) {
    auto [coord_side, worker_side] = make_loopback_transport();
    endpoints.push_back(WorkerEndpoint{std::move(coord_side), -1});
    threads.emplace_back(
        [&, w, transport = std::move(worker_side)]() mutable {
          FabricWorkerSession session;
          session.id = 1 + w;
          exit_codes[w] = run_fabric_worker(std::move(transport), points,
                                            manifest, options, session);
        });
  }

  FabricCoordinator coordinator(manifest, options);
  const SweepReport report = coordinator.run(points, std::move(endpoints));
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(exit_codes[0], 0);
  EXPECT_EQ(exit_codes[1], 0);
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(report.executed_trials, 12u);
  EXPECT_EQ(report.resumed_trials, 0u);
  expect_same_results(report, expected);

  const FabricStats& stats = coordinator.stats();
  // Clean-run lease accounting: everything granted was completed.
  EXPECT_EQ(stats.leases_granted,
            stats.leases_completed + stats.leases_expired +
                stats.leases_aborted);
  EXPECT_EQ(stats.leases_expired, 0u);
  EXPECT_EQ(stats.worker_deaths, 0u);
  EXPECT_EQ(stats.late_results_discarded, 0u);
  EXPECT_EQ(metrics.counter("fabric.leases_granted").value(),
            stats.leases_granted);
  EXPECT_EQ(metrics.counter("fabric.worker_deaths").value(), 0u);
}

TEST(Fabric, LateResultAfterExpiryIsDiscardedDeterministically) {
  const obs::RunManifest manifest = sweep_manifest();
  const std::vector<SweepPoint> points = synthetic_points(1, 2, 400);

  // Injected clock: the scripted worker advances time instead of sleeping,
  // so the expiry/regrant/late-result interleaving is fully deterministic.
  auto now = std::make_shared<std::atomic<std::uint64_t>>(1);
  FabricOptions options;
  options.workers = 1;
  options.lease_ms = 1000;

  auto [coord_side, worker_side] = make_loopback_transport();
  std::vector<WorkerEndpoint> endpoints;
  endpoints.push_back(WorkerEndpoint{std::move(coord_side), -1});

  std::thread worker([&, transport = std::move(worker_side)]() mutable {
    Transport& t = *transport;
    ScriptedWorker peer(t, /*session=*/1);
    peer.hello(manifest);

    // Sit on the first lease until it expires under us...
    const std::optional<FabricMessage> first = next_message(t);
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(first->type, FabricMessage::Type::kLease);
    ASSERT_EQ(first->trials.size(), 2u);
    now->fetch_add(options.lease_ms + 1);

    // ...wait for the regrant, then deliver a LATE result under the dead
    // lease id before the fresh results under the live one.
    const std::optional<FabricMessage> second = next_message(t);
    ASSERT_TRUE(second.has_value());
    ASSERT_EQ(second->type, FabricMessage::Type::kLease);
    ASSERT_NE(second->lease, first->lease);

    FabricMessage late = make_message(FabricMessage::Type::kResult, 0,
                                      first->lease);
    late.record = result_line(points, first->point, first->trials[0]);
    peer.send(late);
    for (const std::uint64_t trial : second->trials) {
      FabricMessage result = make_message(FabricMessage::Type::kResult, 0,
                                          second->lease);
      result.record = result_line(points, second->point, trial);
      peer.send(result);
    }

    const std::optional<FabricMessage> fin = next_message(t);
    ASSERT_TRUE(fin.has_value());
    ASSERT_EQ(fin->type, FabricMessage::Type::kShutdown);
    peer.send(make_message(FabricMessage::Type::kBye, 0));
  });

  FabricCoordinator coordinator(manifest, options,
                                [now] { return now->load(); });
  const SweepReport report = coordinator.run(points, std::move(endpoints));
  worker.join();

  EXPECT_FALSE(report.interrupted);
  ASSERT_EQ(report.points.size(), 1u);
  for (std::size_t trial = 0; trial < 2; ++trial) {
    EXPECT_EQ(report.points[0][trial].rounds,
              synthetic_result(trial_seed(400, trial)).rounds);
  }
  const FabricStats& stats = coordinator.stats();
  EXPECT_EQ(stats.leases_granted, 2u);
  EXPECT_EQ(stats.leases_expired, 1u);
  EXPECT_EQ(stats.leases_completed, 1u);
  EXPECT_EQ(stats.trials_requeued, 2u);
  EXPECT_EQ(stats.late_results_discarded, 1u);
  EXPECT_EQ(stats.worker_deaths, 0u);
}

TEST(Fabric, WorkerKilledMidBatchDrainsThenResumeCompletes) {
  const std::string journal = temp_path("fabric_death.jsonl");
  std::remove(journal.c_str());
  const obs::RunManifest manifest = sweep_manifest();
  const std::vector<SweepPoint> points = synthetic_points(1, 2, 500);

  SweepRunner control(manifest, ResilienceOptions{});
  const SweepReport expected = control.run(synthetic_points(1, 2, 500), 1);

  FabricOptions options;
  options.workers = 1;
  options.lease_ms = 60000;
  options.resilience.journal_path = journal;

  // Phase 1: the only worker delivers half its batch and dies. The
  // coordinator must keep the delivered half, requeue the rest, and report
  // a partial (interrupted) sweep instead of hanging.
  {
    auto [coord_side, worker_side] = make_loopback_transport();
    std::vector<WorkerEndpoint> endpoints;
    endpoints.push_back(WorkerEndpoint{std::move(coord_side), -1});
    std::thread worker([&, transport = std::move(worker_side)]() mutable {
      Transport& t = *transport;
      ScriptedWorker peer(t, /*session=*/1);
      peer.hello(manifest);
      const std::optional<FabricMessage> lease = next_message(t);
      ASSERT_TRUE(lease.has_value());
      ASSERT_EQ(lease->trials.size(), 2u);
      FabricMessage result = make_message(FabricMessage::Type::kResult, 0,
                                          lease->lease);
      result.record = result_line(points, lease->point, lease->trials[0]);
      peer.send(result);
      t.sever();  // SIGKILL from the transport's point of view
    });

    FabricCoordinator coordinator(manifest, options);
    const SweepReport partial = coordinator.run(points, std::move(endpoints));
    worker.join();

    EXPECT_TRUE(partial.interrupted);
    EXPECT_TRUE(partial.points.empty());  // the point never completed
    EXPECT_EQ(partial.executed_trials, 1u);
    const FabricStats& stats = coordinator.stats();
    EXPECT_EQ(stats.worker_deaths, 1u);
    EXPECT_EQ(stats.leases_expired, 1u);
    EXPECT_EQ(stats.trials_requeued, 1u);
    EXPECT_EQ(stats.leases_completed, 0u);
  }

  // Phase 2: resume against the same journal with a real worker loop; the
  // surviving trial is merged first-wins and only the missing one runs.
  options.resilience.resume = true;
  {
    auto [coord_side, worker_side] = make_loopback_transport();
    std::vector<WorkerEndpoint> endpoints;
    endpoints.push_back(WorkerEndpoint{std::move(coord_side), -1});
    int exit_code = -1;
    std::thread worker([&, transport = std::move(worker_side)]() mutable {
      FabricWorkerSession session;
      session.id = 2;
      exit_code = run_fabric_worker(std::move(transport), points, manifest,
                                    options, session);
    });

    FabricCoordinator coordinator(manifest, options);
    const SweepReport resumed = coordinator.run(points, std::move(endpoints));
    worker.join();

    EXPECT_EQ(exit_code, 0);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.resumed_trials, 1u);
    EXPECT_EQ(resumed.executed_trials, 1u);
    expect_same_results(resumed, expected);
  }

  // The merged journal holds exactly one record per key across both runs.
  const TrialJournal::Contents merged = TrialJournal::load(journal);
  EXPECT_EQ(merged.records.size(), 2u);
  std::remove(journal.c_str());
}

TEST(Fabric, RequeueBudgetExhaustionQuarantinesTheTrial) {
  const obs::RunManifest manifest = sweep_manifest();
  const std::vector<SweepPoint> points = synthetic_points(1, 2, 600);

  auto now = std::make_shared<std::atomic<std::uint64_t>>(1);
  FabricOptions options;
  options.workers = 1;
  options.lease_ms = 1000;
  options.max_requeues = 1;

  auto [coord_side, worker_side] = make_loopback_transport();
  std::vector<WorkerEndpoint> endpoints;
  endpoints.push_back(WorkerEndpoint{std::move(coord_side), -1});

  // A worker that accepts every lease and never delivers: each grant ages
  // out, and after max_requeues the coordinator gives up on the keys.
  std::thread worker([&, transport = std::move(worker_side)]() mutable {
    Transport& t = *transport;
    ScriptedWorker peer(t, /*session=*/1);
    peer.hello(manifest);
    for (;;) {
      const std::optional<FabricMessage> msg = next_message(t);
      if (!msg.has_value()) return;
      if (msg->type == FabricMessage::Type::kShutdown) {
        peer.send(make_message(FabricMessage::Type::kBye, 0));
        return;
      }
      if (msg->type == FabricMessage::Type::kLease) {
        now->fetch_add(options.lease_ms + 1);
      }
    }
  });

  FabricCoordinator coordinator(manifest, options,
                                [now] { return now->load(); });
  const SweepReport report = coordinator.run(points, std::move(endpoints));
  worker.join();

  // The sweep terminates — with every trial censored, not hung forever.
  EXPECT_FALSE(report.interrupted);
  ASSERT_EQ(report.points.size(), 1u);
  ASSERT_EQ(report.quarantined.size(), 2u);
  for (std::size_t trial = 0; trial < 2; ++trial) {
    EXPECT_TRUE(report.points[0][trial].cancelled);
    EXPECT_FALSE(report.points[0][trial].converged);
    EXPECT_EQ(report.quarantined[trial].trial, trial);
    EXPECT_EQ(report.quarantined[trial].seed, trial_seed(600, trial));
  }
  const FabricStats& stats = coordinator.stats();
  EXPECT_EQ(stats.fabric_quarantined, 2u);
  EXPECT_EQ(stats.leases_granted, 2u);
  EXPECT_EQ(stats.leases_expired, 2u);
  EXPECT_EQ(stats.trials_requeued, 2u);
  EXPECT_EQ(stats.leases_completed, 0u);
}

// ---------------------------------------------------------------------------
// mtm-fabric/2: session / seq / fingerprint, retired /1, SeqWindow
// ---------------------------------------------------------------------------

TEST(FabricMessage, RoundTripsSessionSeqFingerprintAndWelcome) {
  FabricMessage m;
  m.type = FabricMessage::Type::kHello;
  m.worker = 2;
  m.session = 0xfeedface;
  m.seq = 41;
  m.fingerprint = "abc123";
  const std::string line = encode_fabric_message(m);
  EXPECT_NE(line.find("mtm-fabric/2"), std::string::npos);
  const FabricMessage back = parse_fabric_message(line);
  EXPECT_EQ(back.type, FabricMessage::Type::kHello);
  EXPECT_EQ(back.session, 0xfeedfaceu);
  EXPECT_EQ(back.seq, 41u);
  EXPECT_EQ(back.fingerprint, "abc123");

  FabricMessage welcome;
  welcome.type = FabricMessage::Type::kWelcome;
  welcome.worker = 5;
  const FabricMessage wback =
      parse_fabric_message(encode_fabric_message(welcome));
  EXPECT_EQ(wback.type, FabricMessage::Type::kWelcome);
  EXPECT_EQ(wback.worker, 5u);

  // Every line carries session and seq, even at their defaults; the
  // fingerprint only when set.
  FabricMessage beat;
  beat.type = FabricMessage::Type::kHeartbeat;
  beat.lease = 9;
  const std::string beat_line = encode_fabric_message(beat);
  EXPECT_NE(beat_line.find("\"session\":0"), std::string::npos);
  EXPECT_NE(beat_line.find("\"seq\":0"), std::string::npos);
  EXPECT_EQ(beat_line.find("fingerprint"), std::string::npos);
}

TEST(FabricMessage, RejectsRetiredSchemaVersionOne) {
  // The session-less first protocol version is retired: its lines are
  // foreign, like any other schema's.
  std::string v1 = kFabricSchemaVersion;
  ASSERT_EQ(v1.back(), '2');
  v1.back() = '1';
  EXPECT_THROW(parse_fabric_message(R"({"schema":")" + v1 +
                                    R"(","type":"heartbeat","worker":3,)"
                                    R"("lease":9})"),
               FabricError);
}

TEST(SeqWindow, AcceptsEachSeqOnceToleratesReorderAndRejectsZero) {
  SeqWindow w;
  // An unsequenced line is never accepted, before or after numbering.
  EXPECT_FALSE(w.accept(0));
  // In-order stream.
  EXPECT_TRUE(w.accept(1));
  EXPECT_TRUE(w.accept(2));
  EXPECT_FALSE(w.accept(2));  // wire duplicate of the newest line
  EXPECT_TRUE(w.accept(3));
  EXPECT_FALSE(w.accept(1));  // older duplicate within the window
  // Reordered arrival: 6 lands before 4 and 5; all three pass exactly once.
  EXPECT_TRUE(w.accept(6));
  EXPECT_TRUE(w.accept(4));
  EXPECT_TRUE(w.accept(5));
  EXPECT_FALSE(w.accept(4));
  EXPECT_FALSE(w.accept(6));
  EXPECT_FALSE(w.accept(0));
  // Beyond the 64-deep window everything older is presumed stale.
  EXPECT_TRUE(w.accept(200));
  EXPECT_FALSE(w.accept(100));
  // reset() starts a fresh connection's numbering.
  w.reset();
  EXPECT_TRUE(w.accept(1));
}

TEST(Fabric, ForkedFabricSeversHelloWithoutSessionOrMatchingFingerprint) {
  const obs::RunManifest manifest = sweep_manifest();
  const std::vector<SweepPoint> points = synthetic_points(2, 3, 850);

  SweepRunner control(manifest, ResilienceOptions{});
  const SweepReport expected = control.run(synthetic_points(2, 3, 850), 1);

  FabricOptions options;
  options.workers = 4;
  options.lease_ms = 60000;
  obs::MetricRegistry metrics;
  options.metrics = &metrics;

  // A forked-style fabric: loopback endpoints, no listener. Three peers say
  // a bad hello before the coordinator starts: session 0, no fingerprint,
  // and a foreign fingerprint. Each is severed unwelcomed, and the sweep
  // finishes on the one real worker.
  FabricMessage no_session = make_message(FabricMessage::Type::kHello, 0);
  no_session.fingerprint = fingerprint_of(manifest);
  no_session.seq = 1;
  FabricMessage no_fingerprint = make_message(FabricMessage::Type::kHello, 0);
  no_fingerprint.session = 11;
  no_fingerprint.seq = 1;
  FabricMessage wrong_fingerprint = no_fingerprint;
  wrong_fingerprint.session = 12;
  wrong_fingerprint.fingerprint = fingerprint_of(sweep_manifest(12));

  std::vector<WorkerEndpoint> endpoints;
  std::vector<std::unique_ptr<Transport>> refused;
  for (const FabricMessage& hello :
       {no_session, no_fingerprint, wrong_fingerprint}) {
    auto [coord_side, worker_side] = make_loopback_transport();
    endpoints.push_back(WorkerEndpoint{std::move(coord_side), -1});
    (void)worker_side->send_line(encode_fabric_message(hello));
    refused.push_back(std::move(worker_side));
  }
  auto [coord_side, worker_side] = make_loopback_transport();
  endpoints.push_back(WorkerEndpoint{std::move(coord_side), -1});
  int exit_code = -1;
  std::thread worker([&, transport = std::move(worker_side)]() mutable {
    FabricWorkerSession session;
    session.id = 3;
    exit_code = run_fabric_worker(std::move(transport), points, manifest,
                                  options, session);
  });

  FabricCoordinator coordinator(manifest, options);
  const SweepReport report = coordinator.run(points, std::move(endpoints));
  worker.join();

  EXPECT_EQ(exit_code, 0);
  EXPECT_FALSE(report.interrupted);
  expect_same_results(report, expected);
  for (const std::unique_ptr<Transport>& peer : refused) {
    EXPECT_FALSE(next_message(*peer).has_value());  // severed, no welcome
  }
  const FabricStats& stats = coordinator.stats();
  EXPECT_EQ(stats.manifest_rejects, 3u);
  EXPECT_EQ(metrics.counter("fabric.net.manifest_rejects").value(), 3u);
  EXPECT_EQ(stats.worker_deaths, 0u);
  EXPECT_EQ(stats.trials_requeued, 0u);
}

TEST(LeaseTable, LivenessDeadlineIsStrictlyPastAndReportsOnce) {
  LeaseTable table(100, /*liveness_ms=*/500);
  EXPECT_EQ(table.liveness_ms(), 500u);
  table.note_peer_alive(0, 1000);
  table.note_peer_alive(1, 1200);

  // Exactly at the deadline is still alive (same edge rule as leases).
  EXPECT_TRUE(table.lifeless_peers(1500).empty());
  // One tick past: only worker 0 is dead, and death is declared once.
  std::vector<std::uint64_t> dead = table.lifeless_peers(1501);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], 0u);
  EXPECT_TRUE(table.lifeless_peers(1501).empty());

  // A sign of life pushes the deadline; stale updates never move it back.
  table.note_peer_alive(1, 1600);
  table.note_peer_alive(1, 1300);  // out-of-order observation
  EXPECT_TRUE(table.lifeless_peers(2100).empty());
  EXPECT_EQ(table.lifeless_peers(2101), std::vector<std::uint64_t>{1});

  // drop_peer forgets the worker entirely (clean shutdown path).
  table.note_peer_alive(2, 3000);
  table.drop_peer(2);
  EXPECT_TRUE(table.lifeless_peers(10000).empty());

  // liveness_ms = 0 disables the whole mechanism (forked fabric).
  LeaseTable off(100);
  off.note_peer_alive(0, 0);
  EXPECT_TRUE(off.lifeless_peers(1u << 30).empty());
}

// ---------------------------------------------------------------------------
// End-to-end under deterministic wire faults (loopback)
// ---------------------------------------------------------------------------

TEST(Fabric, LoopbackWorkersUnderWireFaultsReproduceSweepRunnerByteForByte) {
  const obs::RunManifest manifest = sweep_manifest();
  const std::vector<SweepPoint> points = synthetic_points(3, 4, 800);

  SweepRunner control(manifest, ResilienceOptions{});
  const SweepReport expected = control.run(synthetic_points(3, 4, 800), 2);

  FabricOptions options;
  options.workers = 2;
  options.lease_ms = 400;   // dropped results recover via expiry + requeue
  options.heartbeat_ms = 10;  // fast re-hello when the hello is dropped
  options.lease_batch = 3;

  obs::MetricRegistry metrics;
  options.metrics = &metrics;

  // Each worker is a session peer whose SENDS pass through a seeded fault
  // decorator: ~10% of its lines are dropped, duplicated, or reordered.
  // Dropped hellos are re-sent by the heartbeat thread, dropped results
  // recover through lease expiry + requeue (same seed, identical record),
  // and wire duplicates are discarded by the coordinator's seq window — so
  // the merged aggregates still match the clean single-process run exactly.
  std::vector<WorkerEndpoint> endpoints;
  std::vector<std::thread> threads;
  std::vector<int> exit_codes(2, -1);
  std::vector<FabricWorkerSession> sessions(2);
  for (std::size_t w = 0; w < 2; ++w) {
    auto [coord_side, worker_side] = make_loopback_transport();
    endpoints.push_back(WorkerEndpoint{std::move(coord_side), -1});
    WireFaultConfig chaos;
    chaos.drop = 0.1;
    chaos.duplicate = 0.1;
    chaos.reorder = 0.1;
    chaos.seed = 100 + w;
    auto faulty = std::make_unique<FaultyTransport>(std::move(worker_side),
                                                    chaos, &metrics);
    sessions[w].id = 1000 + w;
    threads.emplace_back([&, w, transport = std::move(faulty)]() mutable {
      exit_codes[w] = run_fabric_worker(std::move(transport), points,
                                        manifest, options, sessions[w]);
    });
  }

  FabricCoordinator coordinator(manifest, options);
  const SweepReport report = coordinator.run(points, std::move(endpoints));
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(exit_codes[0], 0);
  EXPECT_EQ(exit_codes[1], 0);
  EXPECT_FALSE(report.interrupted);
  expect_same_results(report, expected);

  const FabricStats& stats = coordinator.stats();
  EXPECT_EQ(stats.leases_granted,
            stats.leases_completed + stats.leases_expired +
                stats.leases_aborted);
  EXPECT_GT(metrics.counter("fabric.net.lines").value(), 0u);
}

// ---------------------------------------------------------------------------
// Reconnect / resume and half-open death (scripted listener)
// ---------------------------------------------------------------------------

/// Test listener: hands out connections queued by the test, so reconnect
/// scenarios are scripted instead of raced.
class ManualListener final : public FabricListener {
 public:
  std::unique_ptr<Transport> accept() override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return nullptr;
    std::unique_ptr<Transport> t = std::move(queue_.front());
    queue_.pop_front();
    return t;
  }
  void offer(std::unique_ptr<Transport> t) {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(t));
  }

 private:
  std::mutex mutex_;
  std::deque<std::unique_ptr<Transport>> queue_;
};

TEST(Fabric, ReconnectMidLeaseResumesWithoutRequeueAndDropsWireDuplicates) {
  const obs::RunManifest manifest = sweep_manifest();
  const std::vector<SweepPoint> points = synthetic_points(1, 2, 900);

  FabricOptions options;
  options.lease_ms = 10000;  // nothing expires during the scripted exchange
  options.lease_batch = 2;

  auto now = std::make_shared<std::atomic<std::uint64_t>>(1000);
  ManualListener listener;
  const std::uint64_t kSession = 77;

  std::thread worker([&] {
    // Connection A: hello, take the lease, deliver HALF of it, then break.
    auto [a_coord, a_worker] = make_loopback_transport();
    listener.offer(std::move(a_coord));
    ScriptedWorker a(*a_worker, kSession);
    a.hello(manifest);
    const std::optional<FabricMessage> lease = next_message(*a_worker);
    ASSERT_TRUE(lease.has_value());
    ASSERT_EQ(lease->type, FabricMessage::Type::kLease);
    ASSERT_EQ(lease->trials.size(), 2u);
    FabricMessage first = make_message(FabricMessage::Type::kResult, 0,
                                       lease->lease);
    first.record = result_line(points, lease->point, lease->trials[0]);
    a.send(first);
    a_worker->sever();  // the network eats the connection mid-lease

    // Connection B: same session re-hellos; the coordinator transplants it
    // into the same slot and the LIVE lease keeps running — the second
    // trial is delivered under the original lease id, no requeue.
    auto [b_coord, b_worker] = make_loopback_transport();
    listener.offer(std::move(b_coord));
    ScriptedWorker b(*b_worker, kSession);
    b.hello(manifest);
    FabricMessage second = make_message(FabricMessage::Type::kResult, 0,
                                        lease->lease);
    second.record = result_line(points, lease->point, lease->trials[1]);
    const std::string wire = b.stamp(second);
    // The wire duplicates the line: the seq window must discard the copy.
    (void)b_worker->send_line(wire);
    (void)b_worker->send_line(wire);

    const std::optional<FabricMessage> fin = next_message(*b_worker);
    ASSERT_TRUE(fin.has_value());
    ASSERT_EQ(fin->type, FabricMessage::Type::kShutdown);
    b.send(make_message(FabricMessage::Type::kBye, 0));
  });

  FabricCoordinator coordinator(manifest, options,
                                [now] { return now->load(); });
  const SweepReport report = coordinator.run(points, {}, &listener);
  worker.join();

  EXPECT_FALSE(report.interrupted);
  ASSERT_EQ(report.points.size(), 1u);
  for (std::size_t trial = 0; trial < 2; ++trial) {
    EXPECT_EQ(report.points[0][trial].rounds,
              synthetic_result(trial_seed(900, trial)).rounds);
  }
  const FabricStats& stats = coordinator.stats();
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_EQ(stats.trials_requeued, 0u);   // the lease survived the break
  EXPECT_EQ(stats.leases_granted, 1u);
  EXPECT_EQ(stats.leases_completed, 1u);
  EXPECT_EQ(stats.leases_expired, 0u);
  EXPECT_EQ(stats.stale_seq_discarded, 1u);  // the duplicated result line
  EXPECT_EQ(stats.worker_deaths, 0u);
  EXPECT_EQ(stats.liveness_deaths, 0u);
}

TEST(Fabric, HalfOpenWorkerIsDeclaredDeadByLivenessAndTrialsRequeue) {
  const obs::RunManifest manifest = sweep_manifest();
  const std::vector<SweepPoint> points = synthetic_points(1, 2, 950);

  FabricOptions options;
  options.lease_ms = 10000;   // the lease deadline is far away...
  options.liveness_ms = 500;  // ...so death can only come from liveness
  options.lease_batch = 2;

  auto now = std::make_shared<std::atomic<std::uint64_t>>(1000);
  ManualListener listener;

  std::thread worker([&] {
    auto [coord_side, worker_side] = make_loopback_transport();
    listener.offer(std::move(coord_side));
    ScriptedWorker peer(*worker_side, /*session=*/55);
    peer.hello(manifest);
    const std::optional<FabricMessage> lease = next_message(*worker_side);
    ASSERT_TRUE(lease.has_value());
    ASSERT_EQ(lease->type, FabricMessage::Type::kLease);
    ASSERT_EQ(lease->trials.size(), 2u);

    // Half-open: the worker goes silent but its connection never EOFs.
    // Advance past the liveness deadline; the coordinator must sever us.
    now->store(2003);  // 1003ms since the hello, liveness is 500
    while (!worker_side->closed()) {
      worker_side->wait_readable(10);
      std::string drained;
      while (worker_side->poll_line(&drained)) {
      }
    }
    // No worker ever comes back: after one more liveness window the
    // coordinator declares the sweep stranded instead of waiting forever.
    now->store(2604);
  });

  FabricCoordinator coordinator(manifest, options,
                                [now] { return now->load(); });
  const SweepReport report = coordinator.run(points, {}, &listener);
  worker.join();

  EXPECT_TRUE(report.interrupted);
  EXPECT_TRUE(report.points.empty());
  EXPECT_EQ(report.executed_trials, 0u);
  const FabricStats& stats = coordinator.stats();
  EXPECT_EQ(stats.liveness_deaths, 1u);
  EXPECT_EQ(stats.worker_deaths, 1u);  // a liveness death is a death
  EXPECT_EQ(stats.leases_expired, 1u);
  EXPECT_EQ(stats.trials_requeued, 2u);
}

// ---------------------------------------------------------------------------
// End-to-end over real TCP with chaos-decorated network workers
// ---------------------------------------------------------------------------

TEST(Fabric, TcpWorkersUnderWireChaosReproduceSweepRunnerByteForByte) {
  const obs::RunManifest manifest = sweep_manifest();
  // The trials carry a few ms of (result-neutral) work each: an instant
  // sweep can drain entirely before the severing worker's reconnect lands,
  // which would make the reconnect assertion below a coin flip on slow
  // hosts. ~60ms of serialized work guarantees the sweep is still running
  // when the redial (1-2ms backoff) arrives.
  std::vector<SweepPoint> points = synthetic_points(2, 10, 1100);
  for (SweepPoint& p : points) {
    auto inner = p.body;
    p.body = [inner](std::uint64_t seed, const TrialCancel* cancel) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      return inner(seed, cancel);
    };
  }

  SweepRunner control(manifest, ResilienceOptions{});
  const SweepReport expected = control.run(synthetic_points(2, 10, 1100), 2);

  FabricOptions options;
  options.lease_ms = 600;
  options.heartbeat_ms = 20;
  options.lease_batch = 2;

  TcpListener listener(parse_host_port("127.0.0.1:0"));
  const std::string addr = "127.0.0.1:" + std::to_string(listener.port());

  obs::MetricRegistry coord_metrics;
  options.metrics = &coord_metrics;
  FabricCoordinator coordinator(manifest, options);
  SweepReport report;
  std::thread coord([&] { report = coordinator.run(points, {}, &listener); });

  // Three real network workers: one under drop+dup+reorder wire chaos, one
  // clean, one with a forced deterministic mid-run sever (exactly one
  // reconnect). All dial the coordinator like `mtm_soak --connect` would.
  std::vector<std::thread> threads;
  std::vector<int> exit_codes(3, -1);
  for (std::size_t w = 0; w < 3; ++w) {
    threads.emplace_back([&, w] {
      FabricOptions wopts = options;
      wopts.metrics = nullptr;
      wopts.connect = addr;
      if (w == 0) {
        wopts.net_chaos.drop = 0.1;
        wopts.net_chaos.duplicate = 0.1;
        wopts.net_chaos.reorder = 0.1;
        wopts.net_chaos.seed = 21;
      } else if (w == 2) {
        // Severed holding a live lease (line 4 falls inside its second
        // lease); the near-instant redial must be transplanted back into
        // the same slot for the sweep to finish before that lease expires.
        wopts.net_chaos.sever_after = 4;
        wopts.net_chaos.seed = 22;
        wopts.net_backoff_ms = 1;
        wopts.net_backoff_max_ms = 2;
      }
      exit_codes[w] = run_fabric_net_worker(points, manifest, wopts);
    });
  }

  for (std::thread& t : threads) t.join();
  coord.join();

  EXPECT_EQ(exit_codes[0], 0);
  EXPECT_EQ(exit_codes[1], 0);
  EXPECT_EQ(exit_codes[2], 0);
  EXPECT_FALSE(report.interrupted);
  expect_same_results(report, expected);

  const FabricStats& stats = coordinator.stats();
  EXPECT_GE(stats.reconnects, 1u);  // worker 2's forced sever came back
  EXPECT_EQ(stats.leases_granted,
            stats.leases_completed + stats.leases_expired +
                stats.leases_aborted);
}

}  // namespace
}  // namespace mtm
