// Run manifests: the "what exactly produced this artifact" record.
//
// Every machine-readable artifact the observability layer emits (bench
// JSON, trace files, tool output) should carry enough context to reproduce
// the run: the full configuration echo, the master seed, the thread count,
// and the build that produced it. A RunManifest bundles those and renders
// as one JSON object under a versioned schema.
//
// Manifests deliberately carry no timestamps: two runs of the same binary
// with the same seed produce byte-identical manifests, so artifacts can be
// diffed across CI runs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace mtm {
struct EngineConfig;
struct FaultPlanConfig;
struct SchedulerSpec;
class Storage;
}  // namespace mtm

namespace mtm::obs {

inline constexpr const char* kManifestSchemaVersion = "mtm-manifest/1";

struct RunManifest {
  std::string tool;          ///< producing binary ("bench_engine_throughput")
  std::uint64_t seed = 0;    ///< master seed of the run
  std::size_t threads = 1;   ///< trial-level thread budget
  std::string build_type;    ///< "Release" (NDEBUG) or "Debug"
  std::string compiler;      ///< compiler version string
  JsonValue config = JsonValue::object();  ///< full config echo (free-form)

  JsonValue to_json() const;
};

/// Manifest with build_type/compiler filled in for this binary.
RunManifest make_run_manifest(std::string tool, std::uint64_t seed,
                              std::size_t threads);

/// Full EngineConfig echo (including the embedded fault plan and scheduler
/// spec), suitable for RunManifest::config.
JsonValue engine_config_json(const EngineConfig& config);
/// Full FaultPlanConfig echo.
JsonValue fault_plan_config_json(const FaultPlanConfig& config);
/// Full SchedulerSpec echo (kind, threads, latency model, clock drift).
/// Tools put this under a "scheduler" key in their manifests, so a journal
/// resumed under a different scheduler spec fails the fingerprint check
/// with a manifest diff instead of silently mixing executions.
JsonValue scheduler_spec_json(const SchedulerSpec& spec);

/// Writes `text` to `path` crash-safely through `storage`: the bytes land
/// in a collision-free temp file first (mtm::make_temp_path — unique per
/// pid and call, so concurrent writers can never clobber each other's
/// in-flight temp) and are moved over `path` with one rename, so a reader
/// (or a process killed mid-write) can only ever observe the old complete
/// file or the new complete file — never a truncated artifact. Returns
/// false on any recoverable I/O failure (the temp file is removed);
/// mtm::StorageCrash (simulated power loss) always propagates.
///
/// Durability: the temp file is fsync'd before the rename and the parent
/// directory is fsync'd after it, so the artifact survives power loss as
/// well as process crashes — rename alone only orders the *names*, not the
/// *bytes*, and an unsynced rename can leave the new name pointing at a
/// zero-length file after a reboot. The directory fsync is best-effort
/// (some filesystems reject it); the file fsync is load-bearing and failing
/// it fails the write.
bool write_text_atomic(mtm::Storage& storage, const std::string& path,
                       const std::string& text);
/// Same through the process-default storage (mtm::default_storage()).
bool write_text_atomic(const std::string& path, const std::string& text);

/// Serializes `doc` (pretty-printed, trailing newline) and writes it
/// atomically via write_text_atomic.
bool write_json_atomic(mtm::Storage& storage, const std::string& path,
                       const JsonValue& doc);
bool write_json_atomic(const std::string& path, const JsonValue& doc);

/// Removes temp files a crashed writer left beside `path` (any sibling
/// whose name starts with "<basename(path)>.tmp"). Returns how many were
/// removed; listing/removal failures are swallowed — orphan cleanup is
/// hygiene, not correctness. The journal calls this on create/open.
std::size_t remove_orphan_temps(mtm::Storage& storage,
                                const std::string& path);

/// FNV-1a 64 of `text`, continuing from `hash`, so that one digest can run
/// over several pieces — the checksum primitive shared by manifest
/// fingerprints and the trial journal's per-record "crc" field.
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;
std::uint64_t fnv1a64(std::string_view text,
                      std::uint64_t hash = kFnv1a64Basis);

/// 16-hex-digit (lowercase) form of fnv1a64(text).
std::string fnv1a64_hex(const std::string& text);

/// 16-hex-digit FNV-1a fingerprint of a manifest document (compact dump).
/// Manifests carry no timestamps, so two runs of the same binary with the
/// same configuration fingerprint identically — the key the trial journal
/// (harness/checkpoint.hpp) uses to decide whether a resume is legal.
std::string manifest_fingerprint(const JsonValue& manifest_json);

/// Human-readable line diff of two manifest documents (pretty-printed):
/// lines only in `ours` are prefixed "+", lines only in `theirs` "-",
/// common lines are omitted. Empty string when the dumps are identical.
/// Used to explain a fingerprint mismatch on --resume.
std::string manifest_diff(const JsonValue& ours, const JsonValue& theirs);

}  // namespace mtm::obs
