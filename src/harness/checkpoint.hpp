// Crash-safe per-trial result journal: the experiment harness's write-ahead
// log (schema mtm-journal/1).
//
// Hours-long Monte-Carlo sweeps used to be all-or-nothing: an OOM kill,
// Ctrl-C, or power loss threw every completed trial away. A TrialJournal
// makes each trial durable the moment it finishes:
//
//   * append-only JSONL — line 1 is a header record carrying the schema
//     version, the run-manifest fingerprint (obs::manifest_fingerprint) and
//     the full manifest echo; every following line is one completed trial's
//     JournalRecord;
//   * per-record checksum — every record line has one pinned layout (see
//     journal_record_line) ending in a "crc" field: FNV-1a 64 of the record
//     serialized without it. On load, a line that fails its checksum or
//     departs from the layout is, when it is the LAST line, the signature
//     of a process that died mid-append: that tail is dropped and the
//     journal is still usable. Anywhere else it means real corruption and
//     loading aborts with JournalError — silently skipping interior
//     records would change aggregates;
//   * checkpoint as a durability barrier — checkpoint() fsyncs the append
//     handle if anything was appended since the last fsync, and does
//     nothing otherwise, so a sweep writes each journal byte once. Only
//     create() and open() write the file whole (temp-file + rename,
//     obs::write_text_atomic); open()'s rewrite squashes a dropped tail
//     out of it before the first append;
//   * storage routing — every byte flows through a harness/storage.hpp
//     Storage (default_storage() unless one is passed in), so the
//     FaultyStorage chaos backend can exercise this exact code under torn
//     writes, ENOSPC, failed fsync, and crash points. A failed append
//     throws JournalError carrying path + errno (never a silent drop) and
//     poisons the journal: its bytes may stay in the file as a torn tail,
//     so every later append() or checkpoint() throws too. The
//     JournalFsyncPolicy decides when appended records reach stable
//     storage (record | batch:N | none; a checkpoint makes every earlier
//     append durable);
//   * fingerprint keying — resuming against a journal whose fingerprint
//     does not match the current run's manifest is a hard error carrying a
//     manifest_diff of the two configurations. Trial seeds derive only from
//     (master seed, trial index), so a resumed sweep's aggregates are
//     byte-identical to an uninterrupted run's.
//
// Thread safety: append() may be called concurrently from trial workers;
// everything else is single-threaded (call between sweeps/points).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "harness/storage.hpp"
#include "obs/manifest.hpp"
#include "sim/runner.hpp"

namespace mtm {

inline constexpr const char* kJournalSchemaVersion = "mtm-journal/1";

/// Journal corruption, schema, or resume-mismatch failure.
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One durable trial outcome. `point` is the sweep-point index (segment,
/// cell, ...; 0 for a flat run_trials-style sweep), `trial` the trial index
/// within the point; together they key the record. `seed` is recorded for
/// audit and quarantine reporting, never re-derived from the journal.
struct JournalRecord {
  std::uint64_t point = 0;
  std::uint64_t trial = 0;
  std::uint64_t seed = 0;
  RunResult result;
  /// 1 + retries actually spent on this trial (watchdog resilience).
  std::uint32_t attempts = 1;
  /// Deadline-killed on every attempt; result is censored and the seed is
  /// surfaced in the bench report's quarantined_seeds list.
  bool quarantined = false;
};

class TrialJournal {
 public:
  /// Creates (truncating any previous file) a journal for `manifest` and
  /// writes the header; orphaned temp files from a previously crashed
  /// writer are removed first. `storage` null means default_storage().
  /// Throws JournalError when the file cannot be written.
  static TrialJournal create(const std::string& path,
                             const obs::RunManifest& manifest,
                             Storage* storage = nullptr,
                             JournalFsyncPolicy fsync_policy = {});

  /// Opens an existing journal for resume: validates the header and every
  /// record, drops a checksum-failing tail record (interrupted append),
  /// aborts with JournalError on interior corruption, then atomically
  /// rewrites the validated contents and reopens for append (orphaned temp
  /// files are removed first). When `expected_manifest` is non-null its
  /// fingerprint must match the journal's; a mismatch throws JournalError
  /// embedding manifest_diff.
  static TrialJournal open(const std::string& path,
                           const obs::RunManifest* expected_manifest,
                           Storage* storage = nullptr,
                           JournalFsyncPolicy fsync_policy = {});

  /// Read-only parse with the same validation rules as open().
  struct Contents {
    std::string fingerprint;
    obs::JsonValue manifest = obs::JsonValue::object();
    std::vector<JournalRecord> records;
  };
  static Contents load(const std::string& path, Storage* storage = nullptr);

  TrialJournal(TrialJournal&&) = default;
  TrialJournal& operator=(TrialJournal&&) = default;

  /// Appends one record: serialize with checksum, write the line, and
  /// fsync per the journal's JournalFsyncPolicy. A write or fsync failure
  /// (ENOSPC, EIO, poisoned file) throws JournalError carrying the path
  /// and errno — a record the caller believes committed is never silently
  /// dropped — and poisons the journal. Thread-safe.
  void append(const JournalRecord& record);

  /// Durability barrier: fsyncs the append handle if anything was appended
  /// since the last fsync, and otherwise does no storage op. Call between
  /// sweep points / segments. A failed fsync poisons the journal. Throws
  /// JournalError naming the path once the journal is poisoned.
  void checkpoint();

  /// Records loaded at open() plus everything appended since, in durable
  /// order. First-wins per (point, trial) key is the caller's job (see
  /// SweepRunner) — the journal itself never re-runs anything.
  const std::vector<JournalRecord>& records() const noexcept {
    return records_;
  }
  const std::string& fingerprint() const noexcept { return fingerprint_; }
  const obs::JsonValue& manifest_json() const noexcept { return manifest_; }
  const std::string& path() const noexcept { return path_; }

  const JournalFsyncPolicy& fsync_policy() const noexcept {
    return fsync_policy_;
  }

 private:
  TrialJournal() = default;
  void open_append();
  void throw_if_poisoned() const;
  std::string serialized() const;

  std::string path_;
  std::string fingerprint_;
  obs::JsonValue manifest_ = obs::JsonValue::object();
  std::vector<JournalRecord> records_;
  Storage* storage_ = nullptr;  // never null after create()/open()
  JournalFsyncPolicy fsync_policy_;
  std::uint32_t unsynced_appends_ = 0;
  bool poisoned_ = false;  // a write failed; no further write is taken
  std::unique_ptr<StorageFile> out_;  // append handle
  std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
};

/// One journal line for `record` (checksummed, no trailing newline) and its
/// inverse. The layout is pinned: `{"point":P,"trial":T,"seed":S,
/// "rounds":R,"converged":B,"after_activation":A,"connections":C,
/// "proposals":Q,"invariant_violations":I,"split_brain_rounds":K,
/// "attempts":N,"quarantined":B,"crc":"<16 hex digits>"}` with no
/// whitespace, decimal values without leading zeros, and the crc taken over
/// the twelve-field object before it. parse_journal_record accepts exactly
/// that layout and throws JournalError on any other line or a checksum
/// failure. The fabric wire carries these lines as its result payload.
std::string journal_record_line(const JournalRecord& record);
JournalRecord parse_journal_record(std::string_view line);

}  // namespace mtm
