#include "sim/fault_cli.hpp"

#include <algorithm>
#include <stdexcept>

namespace mtm {

const char* fault_flags_help() {
  return R"(  --crash=P         per-round node crash probability             [default 0]
  --recover=P       per-round crashed-node recovery probability  [default 0]
  --min-alive=K     crash floor: never fewer than K alive nodes  [default 1]
  --burst=B         burst link loss preset:
                    0 off | 1 mild | 2 harsh | 3 lingering       [default 0]
  --degrade=D       per-edge degradation cap, D in [0, 1)        [default 0]
  --oracle=MODE     adversarial crash oracle:
                    none | random | min-holder | leader          [default none]
  --oracle-every=K  oracle kill period in rounds                 [default 16]
  --partition=MODE  partition schedule:
                    none | one-shot | periodic | flapping        [default none]
  --parts=K         label classes while a window is open         [default 2]
  --partition-start=R      first round a window may open         [default 8]
  --partition-duration=R   rounds each window stays open         [default 8]
  --partition-period=R     periodic mode: window spacing         [default 32]
  --byz=F           Byzantine node fraction, F in [0, 1)         [default 0]
  --byz-mode=MODE   Byzantine behavior:
                    spoof | equivocate | silent | replay | mix   [default spoof]
  --byz-spoof-uid=U UID a spoofing node writes over payloads     [default 0]
  --byz-tag=T       tag a spoofing node advertises               [default 1]
)";
}

GilbertElliott burst_preset(int preset) {
  switch (preset) {
    case 0:
      return GilbertElliott{};  // disabled
    case 1:
      // Mild: rare outages that persist a few rounds, clean GOOD state.
      return GilbertElliott{0.1, 0.3, 0.0, 1.0};
    case 2:
      // Harsh: flapping channel with residual loss even in GOOD.
      return GilbertElliott{0.2, 0.2, 0.05, 0.9};
    case 3:
      // Lingering: long symmetric dwell times (mean 20 rounds per state)
      // with near-total loss while BAD — the "walked behind a wall"
      // channel. Stationary P(BAD) = 0.05 / (0.05 + 0.05) = 1/2.
      return GilbertElliott{0.05, 0.05, 0.02, 0.98};
    default:
      throw std::invalid_argument(
          "burst preset must be 0 (off), 1 (mild), 2 (harsh) or "
          "3 (lingering): " +
          std::to_string(preset));
  }
}

CrashTargeting parse_crash_targeting(const std::string& name) {
  for (int t = 0; t <= static_cast<int>(CrashTargeting::kLeaderNode); ++t) {
    const auto targeting = static_cast<CrashTargeting>(t);
    if (name == to_string(targeting)) return targeting;
  }
  throw std::invalid_argument("unknown crash targeting: " + name);
}

PartitionMode parse_partition_mode(const std::string& name) {
  for (int m = 0; m <= static_cast<int>(PartitionMode::kFlapping); ++m) {
    const auto mode = static_cast<PartitionMode>(m);
    if (name == to_string(mode)) return mode;
  }
  throw std::invalid_argument("unknown partition mode: " + name);
}

ByzBehavior parse_byz_behavior(const std::string& name) {
  for (int b = 0; b <= static_cast<int>(ByzBehavior::kMix); ++b) {
    const auto behavior = static_cast<ByzBehavior>(b);
    if (name == to_string(behavior)) return behavior;
  }
  throw std::invalid_argument("unknown byzantine behavior: " + name);
}

FaultPlanConfig parse_fault_flags(const CliArgs& args) {
  FaultPlanConfig faults;
  faults.crash_prob = args.get_double("crash", 0.0);
  faults.recovery_prob = args.get_double("recover", 0.0);
  faults.min_alive = args.get_u32("min-alive", 1);
  faults.edge_degradation = args.get_double("degrade", 0.0);
  faults.burst =
      burst_preset(static_cast<int>(args.get_u64("burst", 0)));
  faults.targeting = parse_crash_targeting(args.get_string("oracle", "none"));
  if (faults.targeting != CrashTargeting::kNone) {
    faults.target_every = args.get_u64("oracle-every", 16);
  } else {
    // Consume the flag either way so check_unused() accepts a pre-filled
    // command line with the oracle toggled off.
    args.get_u64("oracle-every", 16);
  }
  // Contradiction check: --recover alone schedules recoveries for crashes
  // that can never happen — almost certainly a dropped --crash/--oracle.
  if (faults.recovery_prob > 0.0 && faults.crash_prob == 0.0 &&
      faults.targeting == CrashTargeting::kNone) {
    throw std::invalid_argument(
        "--recover requires a crash mechanism (--crash or --oracle)");
  }
  faults.partition.mode =
      parse_partition_mode(args.get_string("partition", "none"));
  if (faults.partition.enabled()) {
    faults.partition.parts = args.get_u32("parts", 2);
    faults.partition.start = args.get_u64("partition-start", 8);
    faults.partition.duration = args.get_u64("partition-duration", 8);
    if (faults.partition.mode == PartitionMode::kPeriodic) {
      faults.partition.period = args.get_u64(
          "partition-period", 4 * faults.partition.duration);
    } else if (args.has("partition-period")) {
      throw std::invalid_argument(
          "--partition-period only applies to --partition=periodic");
    }
  } else {
    // Partition parameters without a mode are a dropped --partition flag.
    for (const char* flag :
         {"parts", "partition-start", "partition-duration",
          "partition-period"}) {
      if (args.has(flag)) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " requires --partition=MODE");
      }
    }
  }
  validate(faults);
  return faults;
}

ByzantinePlanConfig parse_byz_flags(const CliArgs& args) {
  ByzantinePlanConfig byz;
  byz.fraction = args.get_double("byz", 0.0);
  if (byz.fraction > 0.0) {
    byz.behavior = parse_byz_behavior(args.get_string("byz-mode", "spoof"));
    byz.spoof_uid = args.get_u64("byz-spoof-uid", 0);
    byz.spoof_tag = args.get_u64("byz-tag", 1);
  } else {
    // Behavior flags without --byz are a dropped fraction.
    for (const char* flag : {"byz-mode", "byz-spoof-uid", "byz-tag"}) {
      if (args.has(flag)) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " requires --byz=F with F > 0");
      }
    }
  }
  validate(byz);
  return byz;
}

const char* resilience_flags_help() {
  return R"(  --journal=PATH    crash-safe per-trial result journal (mtm-journal/1)
  --resume=PATH     resume from PATH's journal; manifest must match
  --trial-deadline-ms=N  wall-clock budget per trial attempt     [default off]
  --retries=N       retry budget for deadline-killed trials      [default 0]
  --backoff-ms=N    base retry backoff (doubles per attempt)     [default 25]
  --retry-censored  also retry trials that hit max_rounds        [default off]
  --journal-fsync=P append durability: record | batch:N | none   [default batch:8]
)";
}

ResilienceOptions parse_resilience_flags(const CliArgs& args) {
  ResilienceOptions options;
  const bool has_journal = args.has("journal");
  const bool has_resume = args.has("resume");
  // One file cannot be both freshly created and resumed; requiring the user
  // to pick exactly one keeps "did my old results survive?" unambiguous.
  if (has_journal && has_resume) {
    throw std::invalid_argument(
        "--journal and --resume are mutually exclusive (--journal starts a "
        "fresh journal, --resume continues an existing one)");
  }
  if (has_resume) {
    options.journal_path = args.get_string("resume", "");
    options.resume = true;
    if (options.journal_path.empty()) {
      throw std::invalid_argument("--resume requires a journal path");
    }
  } else if (has_journal) {
    options.journal_path = args.get_string("journal", "");
    if (options.journal_path.empty()) {
      throw std::invalid_argument("--journal requires a file path");
    }
  }
  options.trial_deadline_ms = args.get_u64("trial-deadline-ms", 0);
  options.retries = args.get_u32("retries", 0);
  if (options.retries > 0 && options.trial_deadline_ms == 0) {
    throw std::invalid_argument(
        "--retries requires --trial-deadline-ms (only deadline-killed trials "
        "are retried)");
  }
  if (args.has("backoff-ms") && options.retries == 0) {
    throw std::invalid_argument("--backoff-ms requires --retries");
  }
  options.backoff_ms = args.get_u64("backoff-ms", 25);
  if (args.has("retry-censored") && options.retries == 0) {
    throw std::invalid_argument("--retry-censored requires --retries");
  }
  options.retry_censored = args.get_bool("retry-censored", false);
  if (args.has("journal-fsync")) {
    if (options.journal_path.empty()) {
      throw std::invalid_argument(
          "--journal-fsync requires a journal (--journal or --resume); "
          "without one there are no appends to make durable");
    }
    options.journal_fsync =
        parse_journal_fsync_policy(args.get_string("journal-fsync", "batch"));
  }
  return options;
}

const char* storage_chaos_flags_help() {
  return R"(  --storage-chaos-torn=P        torn-write probability per append   [default 0]
  --storage-chaos-eio=P         EIO probability per append          [default 0]
  --storage-chaos-fsync-fail=P  fsync-failure probability (a failed
                                fsync poisons the file permanently) [default 0]
  --storage-chaos-enospc-after=B  ENOSPC once B journal bytes are
                                written (0 = unlimited)             [default 0]
  --storage-chaos-crash-after=N simulate power loss after storage
                                op N: non-fsynced bytes vanish      [default 0]
  --storage-chaos-seed=S        seed of the storage fault schedule  [default 1]
)";
}

StorageFaultConfig parse_storage_chaos_flags(
    const CliArgs& args, const ResilienceOptions& resilience,
    bool fabric_role) {
  StorageFaultConfig config;
  const bool any_flag =
      args.has("storage-chaos-torn") || args.has("storage-chaos-eio") ||
      args.has("storage-chaos-fsync-fail") ||
      args.has("storage-chaos-enospc-after") ||
      args.has("storage-chaos-crash-after") || args.has("storage-chaos-seed");
  if (!any_flag) return config;
  if (resilience.journal_path.empty()) {
    throw std::invalid_argument(
        "--storage-chaos-* requires a journal (--journal or --resume); the "
        "journal is the surface the storage faults exercise");
  }
  if (fabric_role) {
    throw std::invalid_argument(
        "--storage-chaos-* is incompatible with a fabric role (--workers, "
        "--listen, --connect): the storage op clock is per-process, so a "
        "crash point would fire in whichever process happened to reach it "
        "first — run storage chaos single-process");
  }
  const auto probability = [&](const char* flag) {
    const double p = args.get_double(flag, 0.0);
    if (p < 0.0 || p >= 1.0) {
      throw std::invalid_argument(std::string("--") + flag +
                                  " must be a probability in [0, 1)");
    }
    return p;
  };
  config.torn_write = probability("storage-chaos-torn");
  config.eio = probability("storage-chaos-eio");
  config.fsync_fail = probability("storage-chaos-fsync-fail");
  config.enospc_after = args.get_u64("storage-chaos-enospc-after", 0);
  config.crash_after = args.get_u64("storage-chaos-crash-after", 0);
  if (args.has("storage-chaos-seed") && !config.any()) {
    throw std::invalid_argument(
        "--storage-chaos-seed requires an enabled storage fault "
        "(--storage-chaos-torn/eio/fsync-fail/enospc-after/crash-after)");
  }
  config.seed = args.get_u64("storage-chaos-seed", 1);
  return config;
}

const char* fabric_flags_help() {
  return R"(  --workers=N       fork N worker processes (coordinator/worker)  [default 0]
  --lease-ms=N      lease lifetime without heartbeat or result   [default 10000]
  --heartbeat-ms=N  worker heartbeat period                      [default lease/4]
  --lease-batch=N   max trials granted per lease                 [default 4]
  --max-requeues=N  requeues before coordinator quarantine       [default 8]
  --chaos-kill-workers=N  SIGKILL N workers on a seeded schedule [default 0]
  --chaos-seed=S    seed of the chaos kill schedule              [default 1]
  --worker-shards   each worker also journals to <journal>.w<i>  [default off]
  --listen=H:P      coordinate remote TCP workers (port 0 = ephemeral)
  --connect=H:P     run as a TCP worker for a remote coordinator
  --liveness-ms=N   listen mode: declare a silent worker dead    [default 2*lease]
  --net-connect-timeout-ms=N  per-attempt dial timeout           [default 5000]
  --net-reconnect-attempts=N  dial/redial attempts before giving up  [default 8]
  --net-backoff-ms=N          redial backoff base (doubles, capped
                              at --net-backoff-max-ms, + jitter) [default 50]
  --net-backoff-max-ms=N      redial backoff cap                 [default 2000]
  --net-chaos-drop=P      drop each sent line with prob. P       [default 0]
  --net-chaos-truncate=P  cut each sent line short with prob. P  [default 0]
  --net-chaos-reorder=P   swap a sent line with the next one     [default 0]
  --net-chaos-dup=P       deliver a sent line twice              [default 0]
  --net-chaos-delay-ms=N  delay each line uniform[0,N] ms        [default 0]
  --net-chaos-seed=S      seed of the wire-fault schedule        [default 1]
  --net-chaos-sever-after=N  hard-sever after N sent lines (forces
                              one reconnect)                     [default 0]
)";
}

FabricOptions parse_fabric_flags(const CliArgs& args,
                                 const ResilienceOptions& resilience) {
  FabricOptions options;
  options.resilience = resilience;
  options.workers = args.get_u64("workers", 0);
  options.listen = args.get_string("listen", "");
  options.connect = args.get_string("connect", "");
  if (!options.listen.empty() && !options.connect.empty()) {
    throw std::invalid_argument(
        "--listen and --connect are mutually exclusive (one process is "
        "either the coordinator or a worker)");
  }
  if (!options.listen.empty() && options.workers > 0) {
    throw std::invalid_argument(
        "--listen accepts remote workers; --workers forks local ones — "
        "pick one fabric form");
  }
  if (!options.connect.empty() && options.workers > 0) {
    throw std::invalid_argument(
        "--connect runs this process as a worker; it cannot also fork "
        "--workers of its own");
  }
  // Malformed addresses fail at flag-parse time like every other bad flag.
  try {
    if (!options.listen.empty()) parse_host_port(options.listen);
    if (!options.connect.empty()) parse_host_port(options.connect);
  } catch (const TransportError& e) {
    throw std::invalid_argument(e.what());
  }
  const bool net_worker = !options.connect.empty();
  if (options.workers == 0 && options.listen.empty() && !net_worker) {
    // Fabric tuning without a fabric role is a dropped flag, not a no-op.
    for (const char* flag :
         {"lease-ms", "heartbeat-ms", "lease-batch", "max-requeues",
          "chaos-kill-workers", "chaos-seed", "worker-shards", "liveness-ms",
          "net-connect-timeout-ms", "net-reconnect-attempts", "net-backoff-ms",
          "net-backoff-max-ms", "net-chaos-drop", "net-chaos-truncate",
          "net-chaos-reorder", "net-chaos-dup", "net-chaos-delay-ms",
          "net-chaos-seed", "net-chaos-sever-after"}) {
      if (args.has(flag)) {
        throw std::invalid_argument(
            std::string("--") + flag +
            " requires a fabric role (--workers=N, --listen, or --connect)");
      }
    }
    return options;
  }
  options.lease_ms = args.get_u64("lease-ms", 10000);
  if (options.lease_ms == 0) {
    throw std::invalid_argument("--lease-ms must be >= 1");
  }
  options.heartbeat_ms = args.get_u64("heartbeat-ms", 0);
  if (options.heartbeat_ms == 0) {
    options.heartbeat_ms = std::max<std::uint64_t>(1, options.lease_ms / 4);
  } else if (options.heartbeat_ms >= options.lease_ms) {
    throw std::invalid_argument(
        "--heartbeat-ms must be < --lease-ms (the lease would expire "
        "between beats)");
  }
  options.lease_batch = args.get_u64("lease-batch", 4);
  if (options.lease_batch == 0) {
    throw std::invalid_argument("--lease-batch must be >= 1");
  }
  options.max_requeues = args.get_u32("max-requeues", 8);
  options.chaos_kills = args.get_u64("chaos-kill-workers", 0);
  if (options.chaos_kills > 0 && options.workers == 0) {
    throw std::invalid_argument(
        "--chaos-kill-workers requires forked workers (--workers); remote "
        "workers have no local pid to SIGKILL — use --net-chaos-* on the "
        "workers instead");
  }
  if (options.workers > 0 && options.chaos_kills >= options.workers) {
    throw std::invalid_argument(
        "--chaos-kill-workers must be < --workers (the schedule never kills "
        "the last worker)");
  }
  if (args.has("chaos-seed") && options.chaos_kills == 0) {
    throw std::invalid_argument("--chaos-seed requires --chaos-kill-workers");
  }
  options.chaos_seed = args.get_u64("chaos-seed", 1);
  options.worker_shards = args.get_bool("worker-shards", false);
  if (options.worker_shards && !options.listen.empty()) {
    throw std::invalid_argument(
        "--worker-shards is written worker-side; pass it to the --connect "
        "workers, not to --listen");
  }
  if (options.worker_shards && resilience.journal_path.empty()) {
    throw std::invalid_argument(
        "--worker-shards requires a journal (--journal or --resume)");
  }
  if (args.has("liveness-ms")) {
    if (options.listen.empty()) {
      throw std::invalid_argument(
          "--liveness-ms requires --listen (forked workers die by EOF; only "
          "TCP half-open connections need a liveness deadline)");
    }
    options.liveness_ms = args.get_u64("liveness-ms", 0);
    if (options.liveness_ms <= options.heartbeat_ms) {
      throw std::invalid_argument(
          "--liveness-ms must be > the heartbeat period (" +
          std::to_string(options.heartbeat_ms) +
          " ms here), or every worker is declared dead between beats");
    }
  }
  // Dial/reconnect shaping and wire chaos only make sense on the process
  // that owns the client end of the connection.
  for (const char* flag :
       {"net-connect-timeout-ms", "net-reconnect-attempts", "net-backoff-ms",
        "net-backoff-max-ms", "net-chaos-drop", "net-chaos-truncate",
        "net-chaos-reorder", "net-chaos-dup", "net-chaos-delay-ms",
        "net-chaos-seed", "net-chaos-sever-after"}) {
    if (args.has(flag) && !net_worker) {
      throw std::invalid_argument(std::string("--") + flag +
                                  " requires --connect (it shapes this "
                                  "worker's side of the wire)");
    }
  }
  if (net_worker) {
    options.net_connect_timeout_ms =
        args.get_u64("net-connect-timeout-ms", 5000);
    if (options.net_connect_timeout_ms == 0) {
      throw std::invalid_argument("--net-connect-timeout-ms must be >= 1");
    }
    options.net_reconnect_attempts = args.get_u64("net-reconnect-attempts", 8);
    if (options.net_reconnect_attempts == 0) {
      throw std::invalid_argument("--net-reconnect-attempts must be >= 1");
    }
    options.net_backoff_ms = args.get_u64("net-backoff-ms", 50);
    options.net_backoff_max_ms = args.get_u64("net-backoff-max-ms", 2000);
    if (options.net_backoff_max_ms < options.net_backoff_ms) {
      throw std::invalid_argument(
          "--net-backoff-max-ms must be >= --net-backoff-ms");
    }
    const auto probability = [&](const char* flag) {
      const double p = args.get_double(flag, 0.0);
      if (p < 0.0 || p >= 1.0) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " must be a probability in [0, 1)");
      }
      return p;
    };
    options.net_chaos.drop = probability("net-chaos-drop");
    options.net_chaos.truncate = probability("net-chaos-truncate");
    options.net_chaos.reorder = probability("net-chaos-reorder");
    options.net_chaos.duplicate = probability("net-chaos-dup");
    options.net_chaos.delay_ms = args.get_u64("net-chaos-delay-ms", 0);
    options.net_chaos.sever_after = args.get_u64("net-chaos-sever-after", 0);
    if (args.has("net-chaos-seed") && !options.net_chaos.any()) {
      throw std::invalid_argument(
          "--net-chaos-seed requires an enabled net fault (--net-chaos-drop/"
          "truncate/reorder/dup/delay-ms/sever-after)");
    }
    options.net_chaos.seed = args.get_u64("net-chaos-seed", 1);
  }
  return options;
}

const char* scheduler_flags_help() {
  return R"(  --scheduler=KIND  execution model: sync (round loop) | event
                    (discrete-event queue with latency + drift) [default sync]
  --scheduler-threads=T  sync mode: shard each round across T worker
                    threads (0 = one per hardware thread; results are
                    bit-identical at any value)                 [default 1]
  --latency-dist=D  event mode: per-edge delivery latency distribution:
                    constant | uniform | exponential        [default constant]
  --latency-mean=L  event mode: mean delivery latency in round
                    periods                                     [default 0]
  --clock-drift=C   event mode: per-node round-period drift,
                    C in [0, 0.5)                               [default 0]
)";
}

SchedulerSpec parse_scheduler_flags(const CliArgs& args) {
  SchedulerSpec spec;
  spec.kind = parse_scheduler_kind(args.get_string("scheduler", "sync"));
  const std::uint64_t threads = args.get_u64("scheduler-threads", 1);
  if (spec.kind == SchedulerKind::kEvent) {
    if (threads != 1) {
      throw std::invalid_argument(
          "--scheduler-threads does not apply to --scheduler=event (the "
          "event scheduler is inherently sequential)");
    }
    spec.latency_dist =
        parse_latency_dist(args.get_string("latency-dist", "constant"));
    spec.latency_mean = args.get_double("latency-mean", 0.0);
    spec.clock_drift = args.get_double("clock-drift", 0.0);
    if (args.has("latency-dist") && spec.latency_mean == 0.0) {
      throw std::invalid_argument(
          "--latency-dist requires a nonzero --latency-mean (the "
          "distribution would never be sampled)");
    }
  } else {
    // Latency/drift parameters without event mode are a dropped
    // --scheduler=event.
    for (const char* flag : {"latency-dist", "latency-mean", "clock-drift"}) {
      if (args.has(flag)) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " requires --scheduler=event");
      }
    }
    spec.threads = threads;
  }
  validate(spec);
  return spec;
}

}  // namespace mtm
