// The journal record codec against its reference: the JsonValue-tree codec
// the layout was defined by (record_json below, in its pinned field order).
// journal_record_line must write the reference's bytes for every record,
// and parse_journal_record must make the reference's accept/reject decision
// on every damaged line. The one intended difference is a line that is not
// in the canonical layout but carries a valid crc: the reference accepts
// it, the journal rejects it the way it rejects a checksum failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "harness/checkpoint.hpp"
#include "obs/json.hpp"
#include "sweep_fixtures.hpp"

namespace mtm {
namespace {

using obs::JsonValue;

namespace reference {

JsonValue record_json(const JournalRecord& r) {
  JsonValue doc = JsonValue::object();
  doc.set("point", JsonValue::unsigned_number(r.point));
  doc.set("trial", JsonValue::unsigned_number(r.trial));
  doc.set("seed", JsonValue::unsigned_number(r.seed));
  doc.set("rounds", JsonValue::unsigned_number(r.result.rounds));
  doc.set("converged", JsonValue::boolean(r.result.converged));
  doc.set("after_activation",
          JsonValue::unsigned_number(r.result.rounds_after_last_activation));
  doc.set("connections", JsonValue::unsigned_number(r.result.connections));
  doc.set("proposals", JsonValue::unsigned_number(r.result.proposals));
  doc.set("invariant_violations",
          JsonValue::unsigned_number(r.result.invariant_violations));
  doc.set("split_brain_rounds",
          JsonValue::unsigned_number(r.result.split_brain_rounds));
  doc.set("attempts", JsonValue::unsigned_number(r.attempts));
  doc.set("quarantined", JsonValue::boolean(r.quarantined));
  return doc;
}

std::string line(const JournalRecord& r) {
  JsonValue doc = record_json(r);
  const std::string crc = obs::fnv1a64_hex(doc.dump());
  doc.set("crc", JsonValue::string(crc));
  return doc.dump();
}

/// The record, or nullopt where the reference codec threw.
std::optional<JournalRecord> parse(const std::string& text) {
  JsonValue doc = JsonValue::object();
  try {
    doc = obs::parse_json(text);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (!doc.is_object()) return std::nullopt;
  bool ok = true;
  const auto u64 = [&](const char* key) -> std::uint64_t {
    const JsonValue* v = doc.find(key);
    if (v == nullptr || v->kind() != JsonValue::Kind::kUnsigned) {
      ok = false;
      return 0;
    }
    return v->as_u64();
  };
  const auto boolean = [&](const char* key) {
    const JsonValue* v = doc.find(key);
    if (v == nullptr || !v->is_bool()) {
      ok = false;
      return false;
    }
    return v->as_bool();
  };
  JournalRecord r;
  r.point = u64("point");
  r.trial = u64("trial");
  r.seed = u64("seed");
  r.result.rounds = u64("rounds");
  r.result.converged = boolean("converged");
  r.result.rounds_after_last_activation = u64("after_activation");
  r.result.connections = u64("connections");
  r.result.proposals = u64("proposals");
  r.result.invariant_violations = u64("invariant_violations");
  r.result.split_brain_rounds = u64("split_brain_rounds");
  r.attempts = static_cast<std::uint32_t>(u64("attempts"));
  r.quarantined = boolean("quarantined");
  const JsonValue* crc = doc.find("crc");
  if (!ok || crc == nullptr || !crc->is_string() ||
      crc->as_string() != obs::fnv1a64_hex(record_json(r).dump())) {
    return std::nullopt;
  }
  return r;
}

}  // namespace reference

std::optional<JournalRecord> parse_or_nullopt(const std::string& text) {
  try {
    return parse_journal_record(text);
  } catch (const JournalError&) {
    return std::nullopt;
  }
}

bool same_record(const JournalRecord& a, const JournalRecord& b) {
  return a.point == b.point && a.trial == b.trial && a.seed == b.seed &&
         a.result.rounds == b.result.rounds &&
         a.result.converged == b.result.converged &&
         a.result.rounds_after_last_activation ==
             b.result.rounds_after_last_activation &&
         a.result.connections == b.result.connections &&
         a.result.proposals == b.result.proposals &&
         a.result.invariant_violations == b.result.invariant_violations &&
         a.result.split_brain_rounds == b.result.split_brain_rounds &&
         a.attempts == b.attempts && a.quarantined == b.quarantined;
}

/// Both decoders agree on `text`: both reject it, or both return the same
/// record.
void expect_same_verdict(const std::string& text) {
  const std::optional<JournalRecord> ours = parse_or_nullopt(text);
  const std::optional<JournalRecord> theirs = reference::parse(text);
  ASSERT_EQ(ours.has_value(), theirs.has_value()) << text;
  if (ours.has_value()) {
    ASSERT_TRUE(same_record(*ours, *theirs)) << text;
  }
}

using U64Field = std::uint64_t& (*)(JournalRecord&);
const U64Field kU64Fields[] = {
    [](JournalRecord& r) -> std::uint64_t& { return r.point; },
    [](JournalRecord& r) -> std::uint64_t& { return r.trial; },
    [](JournalRecord& r) -> std::uint64_t& { return r.seed; },
    [](JournalRecord& r) -> std::uint64_t& { return r.result.rounds; },
    [](JournalRecord& r) -> std::uint64_t& {
      return r.result.rounds_after_last_activation;
    },
    [](JournalRecord& r) -> std::uint64_t& { return r.result.connections; },
    [](JournalRecord& r) -> std::uint64_t& { return r.result.proposals; },
    [](JournalRecord& r) -> std::uint64_t& {
      return r.result.invariant_violations;
    },
    [](JournalRecord& r) -> std::uint64_t& {
      return r.result.split_brain_rounds;
    },
};
constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
const std::uint64_t kU64Edges[] = {0, 1, (std::uint64_t{1} << 53) + 1, kMax};
const std::uint32_t kU32Edges[] = {0, 1,
                                   std::numeric_limits<std::uint32_t>::max()};

/// A record whose fields are each an edge value or a random value of random
/// width, so every decimal length occurs.
JournalRecord random_record(std::mt19937_64& rng) {
  JournalRecord r;
  for (const U64Field field : kU64Fields) {
    field(r) = rng() % 2 == 0 ? kU64Edges[rng() % std::size(kU64Edges)]
                              : rng() >> (rng() % 64);
  }
  r.attempts = rng() % 2 == 0
                   ? kU32Edges[rng() % std::size(kU32Edges)]
                   : static_cast<std::uint32_t>(rng() >> (32 + rng() % 32));
  r.result.converged = rng() % 2 == 0;
  r.quarantined = rng() % 2 == 0;
  return r;
}

/// Every u64 field at every edge value, attempts at every u32 edge, and
/// every combination of the two bools, each on a random background.
std::vector<JournalRecord> edge_records(std::mt19937_64& rng) {
  std::vector<JournalRecord> out;
  for (const U64Field field : kU64Fields) {
    for (const std::uint64_t v : kU64Edges) {
      out.push_back(random_record(rng));
      field(out.back()) = v;
    }
  }
  for (const std::uint32_t v : kU32Edges) {
    out.push_back(random_record(rng));
    out.back().attempts = v;
  }
  for (int bits = 0; bits < 4; ++bits) {
    out.push_back(random_record(rng));
    out.back().result.converged = (bits & 1) != 0;
    out.back().quarantined = (bits & 2) != 0;
  }
  return out;
}

TEST(JournalCodec, LineIsByteIdenticalToTheJsonTreeReference) {
  std::mt19937_64 rng(2017);
  std::vector<JournalRecord> records = edge_records(rng);
  for (int i = 0; i < 20000; ++i) records.push_back(random_record(rng));
  for (const JournalRecord& r : records) {
    const std::string line = journal_record_line(r);
    ASSERT_EQ(line, reference::line(r));
    const JournalRecord back = parse_journal_record(line);
    ASSERT_TRUE(same_record(back, r)) << line;
  }
}

TEST(JournalCodec, EverySubstitutionAndTruncationGetsTheSameVerdict) {
  // Substitutes: every printable ASCII byte, the JSON whitespace, NUL and
  // two high bytes. Every other byte is as meaningless to both parsers as
  // NUL is, and trying all 256 made this test take seconds.
  std::vector<char> substitutes = {'\0', '\t', '\n', '\r',
                                   static_cast<char>(0x80),
                                   static_cast<char>(0xff)};
  for (char c = 0x20; c < 0x7f; ++c) substitutes.push_back(c);
  // The lines with the widest and the narrowest values.
  JournalRecord widest;
  for (const U64Field field : kU64Fields) field(widest) = kMax;
  widest.attempts = std::numeric_limits<std::uint32_t>::max();
  widest.result.converged = true;
  widest.quarantined = true;
  const JournalRecord narrowest;  // zeros and false, attempts 1
  for (const JournalRecord& r : {widest, narrowest}) {
    const std::string line = journal_record_line(r);
    for (std::size_t i = 0; i < line.size(); ++i) {
      std::string damaged = line;
      for (const char byte : substitutes) {
        if (byte == line[i]) continue;
        damaged[i] = byte;
        expect_same_verdict(damaged);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    for (std::size_t len = 0; len < line.size(); ++len) {
      expect_same_verdict(line.substr(0, len));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(JournalCodec, NonCanonicalLineIsRejectedEvenWithAValidCrc) {
  JournalRecord r;
  r.point = 3;
  r.trial = 9;
  r.seed = 12345;
  r.result.rounds = 17;
  r.result.converged = true;
  const std::string line = journal_record_line(r);
  const std::string crc = obs::fnv1a64_hex(reference::record_json(r).dump());

  JsonValue reordered = JsonValue::object();
  const JsonValue canonical = reference::record_json(r);
  reordered.set("trial", *canonical.find("trial"));
  for (const auto& [key, value] : canonical.members()) {
    if (key != "trial") reordered.set(key, value);
  }
  reordered.set("crc", JsonValue::string(crc));
  std::string leading_zero = line;
  leading_zero.insert(leading_zero.find("\"rounds\":") + 9, "0");
  std::string spaced = line;
  spaced.insert(spaced.find("\"seed\":") + 7, " ");
  std::string extra_field = line;
  extra_field.insert(extra_field.find(",\"crc\""), ",\"extra\":1");

  const std::string variants[] = {reordered.dump(), leading_zero, spaced,
                                  extra_field};
  for (const std::string& variant : variants) {
    SCOPED_TRACE(variant);
    ASSERT_TRUE(reference::parse(variant).has_value())
        << "the reference must accept this variant for the case to mean "
           "anything";
    EXPECT_THROW(parse_journal_record(variant), JournalError);
  }

  // In a journal such a line is a torn tail when it is last, and interior
  // corruption anywhere else.
  const std::string path = fixtures::temp_path("journal_noncanonical.jsonl");
  { TrialJournal::create(path, fixtures::sweep_manifest()); }
  std::string header;
  {
    std::ifstream in(path, std::ios::binary);
    std::getline(in, header);
  }
  const auto write_journal = [&](const std::vector<std::string>& lines) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << header << '\n';
    for (const std::string& l : lines) out << l << '\n';
  };
  for (const std::string& variant : variants) {
    SCOPED_TRACE(variant);
    write_journal({line, variant});
    const TrialJournal::Contents contents = TrialJournal::load(path);
    ASSERT_EQ(contents.records.size(), 1u);
    EXPECT_TRUE(same_record(contents.records[0], r));
    write_journal({variant, line});
    EXPECT_THROW(TrialJournal::load(path), JournalError);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mtm
