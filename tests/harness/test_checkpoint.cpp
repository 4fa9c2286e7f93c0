// TrialJournal: round-trip fidelity, checksum semantics (truncated tail
// dropped, interior corruption refused), fingerprint keying, the squash on
// open, and the checkpoint as an fsync barrier.
#include "harness/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/storage.hpp"
#include "obs/metrics.hpp"

namespace mtm {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

obs::RunManifest test_manifest(std::uint64_t seed = 7) {
  obs::RunManifest manifest = obs::make_run_manifest("journal_test", seed, 2);
  obs::JsonValue config = obs::JsonValue::object();
  config.set("n", obs::JsonValue::unsigned_number(16));
  manifest.config = std::move(config);
  return manifest;
}

JournalRecord sample_record(std::uint64_t point, std::uint64_t trial) {
  JournalRecord r;
  r.point = point;
  r.trial = trial;
  r.seed = trial_seed(7, trial);
  r.result.rounds = 10 + trial;
  r.result.converged = true;
  r.result.rounds_after_last_activation = 10 + trial;
  r.result.connections = 100 * (trial + 1);
  r.result.proposals = 200 * (trial + 1);
  r.result.invariant_violations = 0;
  r.result.split_brain_rounds = trial;
  r.attempts = 1;
  return r;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(JournalRecordLine, RoundTripsEveryField) {
  JournalRecord r = sample_record(3, 5);
  r.attempts = 4;
  r.quarantined = true;
  r.result.converged = false;
  r.result.cancelled = true;  // not serialized: durable records are final
  const JournalRecord back = parse_journal_record(journal_record_line(r));
  EXPECT_EQ(back.point, r.point);
  EXPECT_EQ(back.trial, r.trial);
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(back.result.rounds, r.result.rounds);
  EXPECT_EQ(back.result.converged, r.result.converged);
  EXPECT_EQ(back.result.connections, r.result.connections);
  EXPECT_EQ(back.result.proposals, r.result.proposals);
  EXPECT_EQ(back.result.split_brain_rounds, r.result.split_brain_rounds);
  EXPECT_EQ(back.attempts, r.attempts);
  EXPECT_EQ(back.quarantined, r.quarantined);
}

TEST(JournalRecordLine, RejectsTamperedLine) {
  std::string line = journal_record_line(sample_record(0, 1));
  // Flip the rounds value without recomputing the checksum.
  const std::size_t pos = line.find("\"rounds\":");
  ASSERT_NE(pos, std::string::npos);
  line[pos + 10] = line[pos + 10] == '9' ? '8' : '9';
  EXPECT_THROW(parse_journal_record(line), JournalError);
}

TEST(TrialJournal, CreateAppendLoadRoundTrip) {
  const std::string path = temp_path("journal_roundtrip.jsonl");
  const obs::RunManifest manifest = test_manifest();
  {
    TrialJournal journal = TrialJournal::create(path, manifest);
    journal.append(sample_record(0, 0));
    journal.append(sample_record(0, 1));
    journal.append(sample_record(1, 0));
  }
  const TrialJournal::Contents contents = TrialJournal::load(path);
  EXPECT_EQ(contents.fingerprint,
            obs::manifest_fingerprint(manifest.to_json()));
  ASSERT_EQ(contents.records.size(), 3u);
  EXPECT_EQ(contents.records[0].trial, 0u);
  EXPECT_EQ(contents.records[1].trial, 1u);
  EXPECT_EQ(contents.records[2].point, 1u);
  std::remove(path.c_str());
}

TEST(TrialJournal, TruncatedTailIsDroppedOnLoad) {
  const std::string path = temp_path("journal_truncated.jsonl");
  {
    TrialJournal journal = TrialJournal::create(path, test_manifest());
    journal.append(sample_record(0, 0));
    journal.append(sample_record(0, 1));
  }
  // Simulate a kill mid-append: chop the last line in half.
  std::string text = read_all(path);
  text.resize(text.size() - text.size() / 6);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  const TrialJournal::Contents contents = TrialJournal::load(path);
  ASSERT_EQ(contents.records.size(), 1u);
  EXPECT_EQ(contents.records[0].trial, 0u);
  std::remove(path.c_str());
}

TEST(TrialJournal, InteriorCorruptionRefusesToLoad) {
  const std::string path = temp_path("journal_interior.jsonl");
  {
    TrialJournal journal = TrialJournal::create(path, test_manifest());
    journal.append(sample_record(0, 0));
    journal.append(sample_record(0, 1));
  }
  // Damage the FIRST record (line 2) while the tail stays valid: this is
  // post-hoc file damage, not an interrupted append, and silently skipping
  // it would shift every aggregate.
  std::string text = read_all(path);
  const std::size_t line2 = text.find('\n') + 1;
  const std::size_t pos = text.find("\"seed\":", line2);
  ASSERT_NE(pos, std::string::npos);
  text[pos + 7] = text[pos + 7] == '1' ? '2' : '1';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  EXPECT_THROW(TrialJournal::load(path), JournalError);
  std::remove(path.c_str());
}

TEST(TrialJournal, CorruptHeaderIsUnrecoverable) {
  const std::string path = temp_path("journal_header.jsonl");
  {
    TrialJournal journal = TrialJournal::create(path, test_manifest());
    journal.append(sample_record(0, 0));
  }
  std::string text = read_all(path);
  text[text.find("fingerprint") + 14] = '!';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  EXPECT_THROW(TrialJournal::load(path), JournalError);
  std::remove(path.c_str());
}

TEST(TrialJournal, OpenRejectsMismatchedManifestWithDiff) {
  const std::string path = temp_path("journal_mismatch.jsonl");
  { TrialJournal::create(path, test_manifest(7)); }
  const obs::RunManifest other = test_manifest(8);  // different seed
  try {
    TrialJournal::open(path, &other);
    FAIL() << "expected JournalError";
  } catch (const JournalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fingerprint mismatch"), std::string::npos);
    // The error must carry the manifest diff, not just the hashes.
    EXPECT_NE(what.find("\"seed\": 7"), std::string::npos);
    EXPECT_NE(what.find("\"seed\": 8"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(TrialJournal, TruncationAtEveryByteOffsetNeverShiftsRecords) {
  // Property: however many trailing bytes a crash chops off, load() either
  // returns a clean PREFIX of the original records (the torn tail dropped)
  // or refuses with a diagnosable JournalError (header torn / interior
  // abort). It must never return shifted, reinterpreted, or extra records —
  // that would silently change resumed aggregates.
  const std::string path = temp_path("journal_every_offset.jsonl");
  {
    TrialJournal journal = TrialJournal::create(path, test_manifest());
    journal.append(sample_record(0, 0));
    journal.append(sample_record(0, 1));
    journal.append(sample_record(1, 0));
  }
  const TrialJournal::Contents full = TrialJournal::load(path);
  ASSERT_EQ(full.records.size(), 3u);
  const std::string text = read_all(path);
  for (std::size_t len = 0; len <= text.size(); ++len) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << text.substr(0, len);
    }
    try {
      const TrialJournal::Contents loaded = TrialJournal::load(path);
      ASSERT_LE(loaded.records.size(), full.records.size())
          << "extra records conjured at offset " << len;
      for (std::size_t i = 0; i < loaded.records.size(); ++i) {
        ASSERT_EQ(loaded.records[i].point, full.records[i].point)
            << "offset " << len << " record " << i;
        ASSERT_EQ(loaded.records[i].trial, full.records[i].trial)
            << "offset " << len << " record " << i;
        ASSERT_EQ(loaded.records[i].seed, full.records[i].seed)
            << "offset " << len << " record " << i;
        ASSERT_EQ(loaded.records[i].result.rounds,
                  full.records[i].result.rounds)
            << "offset " << len << " record " << i;
      }
    } catch (const JournalError&) {
      // Diagnosable refusal is the other acceptable outcome.
    }
  }
  std::remove(path.c_str());
}

TEST(TrialJournal, CreateAndOpenSweepOrphanedTempFiles) {
  // An atomic write killed between temp-file creation and rename leaves
  // "<path>.tmp.<pid>.<counter>" behind; the next create/open removes them
  // so they cannot accumulate across resumed runs.
  const std::string path = temp_path("journal_orphans.jsonl");
  const obs::RunManifest manifest = test_manifest();
  const std::string orphan1 = path + ".tmp.4242.7";
  const std::string orphan2 = path + ".tmp.1.1";
  {
    std::ofstream(orphan1) << "half-written";
    std::ofstream(orphan2) << "half-written";
  }
  { TrialJournal::create(path, manifest); }
  std::ifstream check1(orphan1);
  EXPECT_FALSE(check1.good()) << "create left orphan temp behind";
  {
    std::ofstream(orphan1) << "half-written again";
  }
  { TrialJournal::open(path, &manifest); }
  std::ifstream check2(orphan1);
  EXPECT_FALSE(check2.good()) << "open left orphan temp behind";
  std::remove(path.c_str());
}

TEST(TrialJournal, OpenSquashesTruncatedTailAndAppends) {
  const std::string path = temp_path("journal_reopen.jsonl");
  const obs::RunManifest manifest = test_manifest();
  {
    TrialJournal journal = TrialJournal::create(path, manifest);
    journal.append(sample_record(0, 0));
    journal.append(sample_record(0, 1));
  }
  std::string text = read_all(path);
  text.resize(text.size() - 5);  // wound the tail record
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  {
    TrialJournal journal = TrialJournal::open(path, &manifest);
    ASSERT_EQ(journal.records().size(), 1u);  // tail dropped
    journal.append(sample_record(0, 1));      // re-run lands again
    journal.checkpoint();
  }
  const TrialJournal::Contents contents = TrialJournal::load(path);
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_EQ(contents.records[1].trial, 1u);
  std::remove(path.c_str());
}

TEST(TrialJournal, CheckpointIsOneFsyncOfWhatIsUnsynced) {
  // Under `none` nothing appended is synced until the checkpoint, which is
  // then exactly one storage op — an fsync of the append handle, no
  // rewrite and no rename. With nothing unsynced it does no op at all.
  const std::string path = temp_path("journal_barrier.jsonl");
  obs::MetricRegistry metrics;
  FaultyStorage storage(default_storage(), StorageFaultConfig{}, &metrics);
  TrialJournal journal = TrialJournal::create(
      path, test_manifest(), &storage, parse_journal_fsync_policy("none"));
  journal.append(sample_record(0, 0));
  journal.append(sample_record(0, 1));
  const std::uint64_t ops = storage.op_count();
  const std::uint64_t fsyncs = metrics.counter("storage.fsyncs").value();
  const std::uint64_t renames = metrics.counter("storage.renames").value();
  journal.checkpoint();
  EXPECT_EQ(storage.op_count(), ops + 1);
  EXPECT_EQ(metrics.counter("storage.fsyncs").value(), fsyncs + 1);
  EXPECT_EQ(metrics.counter("storage.renames").value(), renames);
  journal.checkpoint();  // twice in a row: nothing left to sync
  EXPECT_EQ(storage.op_count(), ops + 1);
  std::remove(path.c_str());
}

TEST(TrialJournal, CheckpointAfterRecordPolicyAppendsIsNoStorageOp) {
  const std::string path = temp_path("journal_barrier_record.jsonl");
  FaultyStorage storage(default_storage(), StorageFaultConfig{});
  TrialJournal journal = TrialJournal::create(
      path, test_manifest(), &storage, parse_journal_fsync_policy("record"));
  journal.append(sample_record(0, 0));
  journal.append(sample_record(0, 1));
  const std::uint64_t ops = storage.op_count();
  journal.checkpoint();
  EXPECT_EQ(storage.op_count(), ops);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mtm
