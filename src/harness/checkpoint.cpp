#include "harness/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <limits>
#include <string_view>
#include <type_traits>
#include <utility>

#include "obs/json.hpp"

namespace mtm {

namespace {

using obs::JsonValue;

/// The twelve fields of the pinned record layout (see journal_record_line)
/// in their on-disk order. The crc covers their bytes, so reordering,
/// renaming or re-spelling a field would invalidate every journal on disk.
template <typename Record, typename Visit>
void visit_record_fields(Record& r, Visit&& visit) {
  visit("point", r.point);
  visit("trial", r.trial);
  visit("seed", r.seed);
  visit("rounds", r.result.rounds);
  visit("converged", r.result.converged);
  visit("after_activation", r.result.rounds_after_last_activation);
  visit("connections", r.result.connections);
  visit("proposals", r.result.proposals);
  visit("invariant_violations", r.result.invariant_violations);
  visit("split_brain_rounds", r.result.split_brain_rounds);
  visit("attempts", r.attempts);
  visit("quarantined", r.quarantined);
}

constexpr std::string_view kCrcKey = ",\"crc\":\"";
constexpr std::string_view kCrcEnd = "\"}";

std::array<char, 16> hex_digits(std::uint64_t value) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::array<char, 16> out{};
  for (std::size_t i = out.size(); i-- > 0; value >>= 4) {
    out[i] = kHex[value & 0xf];
  }
  return out;
}

/// Appends the record's fields to a line in the pinned layout.
struct RecordWriter {
  std::string& line;

  template <typename T>
  void operator()(std::string_view key, const T& value) {
    line += line.empty() ? '{' : ',';
    line += '"';
    line += key;
    line += "\":";
    if constexpr (std::is_same_v<T, bool>) {
      line += value ? "true" : "false";
    } else {
      char digits[20];
      const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, value);
      line.append(digits, end);
    }
  }
};

/// Reads a line of the pinned layout. Any departure from it — a field
/// renamed, moved or missing, whitespace, a sign or leading zero, a value
/// out of range — throws, as a checksum mismatch does.
class RecordScanner {
 public:
  explicit RecordScanner(std::string_view line) : line_(line) {}

  template <typename T>
  void operator()(std::string_view key, T& value) {
    expect(pos_ == 0 ? "{\"" : ",\"");
    expect(key);
    expect("\":");
    if constexpr (std::is_same_v<T, bool>) {
      value = rest().substr(0, 4) == "true";
      expect(value ? "true" : "false");
    } else {
      const char* begin = line_.data() + pos_;
      std::uint64_t parsed = 0;
      const auto [end, ec] =
          std::from_chars(begin, line_.data() + line_.size(), parsed);
      // from_chars accepts leading zeros; the layout does not.
      if (ec != std::errc{} || (*begin == '0' && end - begin > 1) ||
          parsed > std::numeric_limits<T>::max()) {
        fail();
      }
      value = static_cast<T>(parsed);
      pos_ = static_cast<std::size_t>(end - line_.data());
    }
  }

  /// After the twelve fields: the crc must be the digest of the bytes so
  /// far plus '}', and end the line.
  void expect_crc() {
    const std::uint64_t crc =
        obs::fnv1a64("}", obs::fnv1a64(line_.substr(0, pos_)));
    expect(kCrcKey);
    const std::array<char, 16> digits = hex_digits(crc);
    if (rest().substr(0, digits.size()) !=
        std::string_view(digits.data(), digits.size())) {
      throw JournalError("journal record: checksum mismatch");
    }
    pos_ += digits.size();
    expect(kCrcEnd);
    if (pos_ != line_.size()) fail();
  }

 private:
  std::string_view rest() const { return line_.substr(pos_); }

  void expect(std::string_view text) {
    if (rest().substr(0, text.size()) != text) fail();
    pos_ += text.size();
  }

  [[noreturn]] void fail() const {
    throw JournalError("journal record: not in the record layout at byte " +
                       std::to_string(pos_));
  }

  std::string_view line_;
  std::size_t pos_ = 0;
};

JsonValue header_json(const std::string& fingerprint,
                      const JsonValue& manifest) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue::string(kJournalSchemaVersion));
  doc.set("fingerprint", JsonValue::string(fingerprint));
  doc.set("manifest", manifest);
  return doc;
}

Storage& resolve_storage(Storage* storage) {
  return storage != nullptr ? *storage : default_storage();
}

/// getline semantics over `text`: a trailing newline does not produce an
/// empty final line, a final line without one is still returned, and a
/// trailing '\r' is not part of its line.
std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  while (!text.empty()) {
    const std::size_t end = std::min(text.find('\n'), text.size());
    std::string_view line = text.substr(0, end);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    lines.push_back(line);
    text.remove_prefix(std::min(end + 1, text.size()));
  }
  return lines;
}

}  // namespace

std::string journal_record_line(const JournalRecord& record) {
  std::string line;
  line.reserve(320);
  visit_record_fields(record, RecordWriter{line});
  line += '}';
  const std::array<char, 16> crc = hex_digits(obs::fnv1a64(line));
  line.pop_back();
  line += kCrcKey;
  line.append(crc.data(), crc.size());
  line += kCrcEnd;
  return line;
}

JournalRecord parse_journal_record(std::string_view line) {
  JournalRecord r;
  RecordScanner scanner(line);
  visit_record_fields(r, scanner);
  scanner.expect_crc();
  return r;
}

TrialJournal::Contents TrialJournal::load(const std::string& path,
                                          Storage* storage) {
  std::string text;
  try {
    text = resolve_storage(storage).read_file(path);
  } catch (const StorageError& e) {
    throw JournalError("cannot open journal: " + path + ": " + e.what());
  }
  const std::vector<std::string_view> lines = split_lines(text);
  if (lines.empty()) throw JournalError("empty journal: " + path);

  Contents contents;
  {
    // The header must be intact: without the fingerprint the journal keys
    // nothing, so a truncated header is unrecoverable (unlike a tail
    // record, which only loses one trial).
    JsonValue doc = JsonValue::object();
    try {
      doc = obs::parse_json(std::string(lines.front()));
    } catch (const std::exception& e) {
      throw JournalError(std::string("corrupt journal header: ") + e.what());
    }
    const JsonValue* schema = doc.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->as_string() != kJournalSchemaVersion) {
      throw JournalError(std::string("journal schema must be \"") +
                         kJournalSchemaVersion + "\"");
    }
    const JsonValue* fingerprint = doc.find("fingerprint");
    const JsonValue* manifest = doc.find("manifest");
    if (fingerprint == nullptr || !fingerprint->is_string() ||
        manifest == nullptr || !manifest->is_object()) {
      throw JournalError("journal header missing fingerprint/manifest");
    }
    const JsonValue* crc = doc.find("crc");
    if (crc == nullptr || !crc->is_string()) {
      throw JournalError("journal header: missing crc");
    }
    const JsonValue canonical =
        header_json(fingerprint->as_string(), *manifest);
    if (crc->as_string() != obs::fnv1a64_hex(canonical.dump())) {
      throw JournalError("journal header: checksum mismatch");
    }
    contents.fingerprint = fingerprint->as_string();
    contents.manifest = *manifest;
  }

  contents.records.reserve(lines.size() - 1);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    try {
      contents.records.push_back(parse_journal_record(lines[i]));
    } catch (const JournalError&) {
      // A failing LAST line is the signature of a process killed
      // mid-append: drop it and keep everything before it. A failing
      // interior line means the file was damaged after the fact — abort
      // rather than silently shifting aggregates.
      if (i + 1 == lines.size()) break;
      throw JournalError("corrupt journal record at line " +
                         std::to_string(i + 1) + " of " + path +
                         " (not a truncated tail; refusing to resume)");
    }
  }
  return contents;
}

TrialJournal TrialJournal::create(const std::string& path,
                                  const obs::RunManifest& manifest,
                                  Storage* storage,
                                  JournalFsyncPolicy fsync_policy) {
  TrialJournal journal;
  journal.path_ = path;
  journal.storage_ = &resolve_storage(storage);
  journal.fsync_policy_ = fsync_policy;
  journal.manifest_ = manifest.to_json();
  journal.fingerprint_ = obs::manifest_fingerprint(journal.manifest_);
  obs::remove_orphan_temps(*journal.storage_, path);
  if (!obs::write_text_atomic(*journal.storage_, path,
                              journal.serialized())) {
    throw JournalError("cannot write journal: " + path);
  }
  journal.open_append();
  return journal;
}

TrialJournal TrialJournal::open(const std::string& path,
                                const obs::RunManifest* expected_manifest,
                                Storage* storage,
                                JournalFsyncPolicy fsync_policy) {
  Contents contents = load(path, storage);
  if (expected_manifest != nullptr) {
    const obs::JsonValue expected_json = expected_manifest->to_json();
    const std::string expected = obs::manifest_fingerprint(expected_json);
    if (expected != contents.fingerprint) {
      throw JournalError(
          "journal manifest fingerprint mismatch: journal " +
          contents.fingerprint + ", current run " + expected +
          " — refusing to resume a different configuration.\n"
          "Manifest diff (+ current run, - journal):\n" +
          obs::manifest_diff(expected_json, contents.manifest));
    }
  }
  TrialJournal journal;
  journal.path_ = path;
  journal.storage_ = &resolve_storage(storage);
  journal.fsync_policy_ = fsync_policy;
  journal.fingerprint_ = std::move(contents.fingerprint);
  journal.manifest_ = std::move(contents.manifest);
  journal.records_ = std::move(contents.records);
  // A writer that crashed mid-atomic-write left its unique temp file
  // behind; sweep them before producing new ones.
  obs::remove_orphan_temps(*journal.storage_, path);
  // Squash any dropped tail out of the on-disk file before appending again,
  // so the file is whole-record-clean from here on.
  if (!obs::write_text_atomic(*journal.storage_, path,
                              journal.serialized())) {
    throw JournalError("cannot rewrite journal: " + path);
  }
  journal.open_append();
  return journal;
}

std::string TrialJournal::serialized() const {
  JsonValue header = header_json(fingerprint_, manifest_);
  header.set("crc", JsonValue::string(obs::fnv1a64_hex(header.dump())));
  std::string text = header.dump();
  text += '\n';
  for (const JournalRecord& record : records_) {
    text += journal_record_line(record);
    text += '\n';
  }
  return text;
}

void TrialJournal::open_append() {
  try {
    out_ = storage_->open(path_, Storage::OpenMode::kAppend);
  } catch (const StorageError& e) {
    throw JournalError("cannot append to journal: " + path_ + ": " +
                       e.what());
  }
}

void TrialJournal::throw_if_poisoned() const {
  if (poisoned_) {
    throw JournalError("journal poisoned by an earlier failed write: " +
                       path_ + " (a torn record may end the file; resume "
                       "from it to drop that record)");
  }
}

void TrialJournal::append(const JournalRecord& record) {
  std::string line = journal_record_line(record);
  line += '\n';
  std::lock_guard<std::mutex> lock(*mutex_);
  throw_if_poisoned();
  try {
    out_->append(line);
    ++unsynced_appends_;
    const bool sync =
        fsync_policy_.mode == JournalFsyncPolicy::Mode::kRecord ||
        (fsync_policy_.mode == JournalFsyncPolicy::Mode::kBatch &&
         unsynced_appends_ >= fsync_policy_.batch);
    if (sync) {
      out_->fsync();
      unsynced_appends_ = 0;
    }
  } catch (const StorageError& e) {
    // ENOSPC/EIO/poisoned fsync: the caller believes this record is
    // committed, so the failure must be loud — a silent drop here would
    // surface much later as a resumed sweep quietly re-running (or worse,
    // missing) trials. The torn bytes stay in the file, and one more
    // record after them would make them interior corruption, so the
    // journal takes no further write. StorageCrash is not caught:
    // simulated power loss propagates as itself.
    poisoned_ = true;
    throw JournalError("journal append failed: " + path_ + ": " + e.what());
  }
  records_.push_back(record);
}

void TrialJournal::checkpoint() {
  std::lock_guard<std::mutex> lock(*mutex_);
  throw_if_poisoned();
  if (unsynced_appends_ == 0) return;
  try {
    out_->fsync();
  } catch (const StorageError& e) {
    // fsyncgate: the un-synced bytes may already be gone, so no later
    // write may pretend they are there.
    poisoned_ = true;
    throw JournalError("journal checkpoint failed: " + path_ + ": " +
                       e.what());
  }
  unsynced_appends_ = 0;
}

}  // namespace mtm
