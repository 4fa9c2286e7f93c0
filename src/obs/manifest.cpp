#include "obs/manifest.hpp"

#include <sstream>
#include <unordered_set>

#include "harness/storage.hpp"
#include "sim/engine.hpp"

namespace mtm::obs {

JsonValue RunManifest::to_json() const {
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue::string(kManifestSchemaVersion));
  doc.set("tool", JsonValue::string(tool));
  doc.set("seed", JsonValue::unsigned_number(seed));
  doc.set("threads", JsonValue::unsigned_number(threads));
  doc.set("build", JsonValue::string(build_type));
  doc.set("compiler", JsonValue::string(compiler));
  doc.set("config", config);
  return doc;
}

RunManifest make_run_manifest(std::string tool, std::uint64_t seed,
                              std::size_t threads) {
  RunManifest manifest;
  manifest.tool = std::move(tool);
  manifest.seed = seed;
  manifest.threads = threads;
#ifdef NDEBUG
  manifest.build_type = "Release";
#else
  manifest.build_type = "Debug";
#endif
#if defined(__clang__) || defined(__GNUC__)
  manifest.compiler = __VERSION__;
#else
  manifest.compiler = "unknown";
#endif
  return manifest;
}

bool write_text_atomic(mtm::Storage& storage, const std::string& path,
                       const std::string& text) {
  const std::string tmp = mtm::make_temp_path(path);
  try {
    // The data must be on stable storage (not just in the page cache)
    // before the rename, or a power loss shortly after the rename could
    // leave a committed *name* pointing at missing *bytes*.
    std::unique_ptr<mtm::StorageFile> file =
        storage.open(tmp, mtm::Storage::OpenMode::kTruncate);
    file->append(text);
    file->fsync();
    file->close();
    storage.rename(tmp, path);
  } catch (const mtm::StorageError&) {
    // Recoverable failure (real or injected): leave no temp file behind.
    // StorageCrash deliberately falls through — simulated power loss must
    // never be reported as a polite `false`.
    try {
      storage.remove(tmp);
    } catch (const mtm::StorageError&) {
    }
    return false;
  }
  try {
    storage.sync_dir(path);
  } catch (const mtm::StorageError&) {
    // Best-effort: the file bytes are already synced, so a refused
    // directory fsync only narrows the power-loss window.
  }
  return true;
}

bool write_text_atomic(const std::string& path, const std::string& text) {
  return write_text_atomic(mtm::default_storage(), path, text);
}

bool write_json_atomic(mtm::Storage& storage, const std::string& path,
                       const JsonValue& doc) {
  return write_text_atomic(storage, path, doc.dump(2) + "\n");
}

bool write_json_atomic(const std::string& path, const JsonValue& doc) {
  return write_json_atomic(mtm::default_storage(), path, doc);
}

std::size_t remove_orphan_temps(mtm::Storage& storage,
                                const std::string& path) {
  const std::string dir = mtm::parent_dir_of(path);
  const std::string prefix = mtm::base_name_of(path) + ".tmp";
  std::size_t removed = 0;
  try {
    for (const std::string& name : storage.list_dir(dir)) {
      if (name.rfind(prefix, 0) != 0) continue;
      storage.remove(dir + "/" + name);
      ++removed;
    }
  } catch (const mtm::StorageError&) {
    // Hygiene only: a directory we cannot list or a file someone else
    // already removed must not fail the journal open.
  }
  return removed;
}

std::uint64_t fnv1a64(std::string_view text, std::uint64_t hash) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string fnv1a64_hex(const std::string& text) {
  std::uint64_t hash = fnv1a64(text);
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

std::string manifest_fingerprint(const JsonValue& manifest_json) {
  // Over the compact dump: stable because JsonValue preserves insertion
  // order, number serialization round-trips, and manifests carry no
  // timestamps.
  return fnv1a64_hex(manifest_json.dump());
}

namespace {
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}
}  // namespace

std::string manifest_diff(const JsonValue& ours, const JsonValue& theirs) {
  const std::vector<std::string> a = split_lines(ours.dump(2));
  const std::vector<std::string> b = split_lines(theirs.dump(2));
  // Set difference by line content — manifests are small and the point is
  // to name the knobs that differ, not to produce a minimal edit script.
  const std::unordered_set<std::string> a_set(a.begin(), a.end());
  const std::unordered_set<std::string> b_set(b.begin(), b.end());
  std::string diff;
  for (const std::string& line : a) {
    if (b_set.find(line) == b_set.end()) diff += "+ " + line + "\n";
  }
  for (const std::string& line : b) {
    if (a_set.find(line) == a_set.end()) diff += "- " + line + "\n";
  }
  return diff;
}

JsonValue fault_plan_config_json(const FaultPlanConfig& config) {
  JsonValue doc = JsonValue::object();
  doc.set("enabled", JsonValue::boolean(config.enabled()));
  doc.set("crash_prob", JsonValue::number(config.crash_prob));
  doc.set("recovery_prob", JsonValue::number(config.recovery_prob));
  doc.set("min_alive", JsonValue::unsigned_number(config.min_alive));
  JsonValue burst = JsonValue::object();
  burst.set("good_to_bad", JsonValue::number(config.burst.good_to_bad));
  burst.set("bad_to_good", JsonValue::number(config.burst.bad_to_good));
  burst.set("loss_good", JsonValue::number(config.burst.loss_good));
  burst.set("loss_bad", JsonValue::number(config.burst.loss_bad));
  doc.set("burst", std::move(burst));
  doc.set("edge_degradation", JsonValue::number(config.edge_degradation));
  doc.set("targeting", JsonValue::string(to_string(config.targeting)));
  doc.set("target_every", JsonValue::unsigned_number(config.target_every));
  doc.set("target_start", JsonValue::unsigned_number(config.target_start));
  doc.set("seed", JsonValue::unsigned_number(config.seed));
  return doc;
}

JsonValue engine_config_json(const EngineConfig& config) {
  JsonValue doc = JsonValue::object();
  doc.set("tag_bits", JsonValue::unsigned_number(
                          static_cast<std::uint64_t>(config.tag_bits)));
  doc.set("classical_mode", JsonValue::boolean(config.classical_mode));
  doc.set("seed", JsonValue::unsigned_number(config.seed));
  doc.set("record_rounds", JsonValue::boolean(config.record_rounds));
  doc.set("connection_failure_prob",
          JsonValue::number(config.connection_failure_prob));
  const char* acceptance = "?";
  switch (config.acceptance) {
    case AcceptancePolicy::kUniformRandom: acceptance = "uniform"; break;
    case AcceptancePolicy::kSmallestId: acceptance = "smallest-id"; break;
    case AcceptancePolicy::kLargestId: acceptance = "largest-id"; break;
  }
  doc.set("acceptance", JsonValue::string(acceptance));
  JsonValue activations = JsonValue::array();
  for (const Round r : config.activation_rounds) {
    activations.push_back(JsonValue::unsigned_number(r));
  }
  doc.set("activation_rounds", std::move(activations));
  doc.set("faults", fault_plan_config_json(config.faults));
  doc.set("scheduler", scheduler_spec_json(config.scheduler));
  return doc;
}

JsonValue scheduler_spec_json(const SchedulerSpec& spec) {
  JsonValue doc = JsonValue::object();
  doc.set("kind", JsonValue::string(to_string(spec.kind)));
  doc.set("threads", JsonValue::unsigned_number(
                         static_cast<std::uint64_t>(spec.threads)));
  doc.set("latency_dist", JsonValue::string(to_string(spec.latency_dist)));
  doc.set("latency_mean", JsonValue::number(spec.latency_mean));
  doc.set("clock_drift", JsonValue::number(spec.clock_drift));
  return doc;
}

}  // namespace mtm::obs
