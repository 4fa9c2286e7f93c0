#include "sim/scheduler.hpp"

#include <stdexcept>
#include <string>

#include "sim/engine.hpp"
#include "sim/event_scheduler.hpp"

namespace mtm {

void validate(const SchedulerSpec& spec) {
  if (spec.latency_mean < 0.0) {
    throw std::invalid_argument("scheduler latency mean must be >= 0 (got " +
                                std::to_string(spec.latency_mean) + ")");
  }
  if (spec.clock_drift < 0.0 || spec.clock_drift >= 0.5) {
    throw std::invalid_argument(
        "scheduler clock drift must be in [0, 0.5) (got " +
        std::to_string(spec.clock_drift) + ")");
  }
  if (spec.kind == SchedulerKind::kSync) {
    if (spec.latency_mean != 0.0 || spec.clock_drift != 0.0) {
      throw std::invalid_argument(
          "latency/clock-drift are event-scheduler parameters; the sync "
          "scheduler delivers everything within the round (select "
          "scheduler=event to use them)");
    }
  } else {
    if (spec.threads != 1) {
      throw std::invalid_argument(
          "the event scheduler is inherently sequential; scheduler threads "
          "must be 1 (got " + std::to_string(spec.threads) + ")");
    }
  }
}

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kSync: return "sync";
    case SchedulerKind::kEvent: return "event";
  }
  return "?";
}

const char* to_string(LatencyDist dist) {
  switch (dist) {
    case LatencyDist::kConstant: return "constant";
    case LatencyDist::kUniform: return "uniform";
    case LatencyDist::kExponential: return "exponential";
  }
  return "?";
}

SchedulerKind parse_scheduler_kind(std::string_view text) {
  if (text == "sync") return SchedulerKind::kSync;
  if (text == "event") return SchedulerKind::kEvent;
  throw std::invalid_argument("unknown scheduler kind '" + std::string(text) +
                              "' (expected sync|event)");
}

LatencyDist parse_latency_dist(std::string_view text) {
  if (text == "constant") return LatencyDist::kConstant;
  if (text == "uniform") return LatencyDist::kUniform;
  if (text == "exponential") return LatencyDist::kExponential;
  throw std::invalid_argument(
      "unknown latency distribution '" + std::string(text) +
      "' (expected constant|uniform|exponential)");
}

std::unique_ptr<Scheduler> make_scheduler(DynamicGraphProvider& topology,
                                          Protocol& protocol,
                                          EngineConfig config) {
  validate(config.scheduler);
  switch (config.scheduler.kind) {
    case SchedulerKind::kSync:
      return std::make_unique<Engine>(topology, protocol, std::move(config));
    case SchedulerKind::kEvent:
      return std::make_unique<EventScheduler>(topology, protocol,
                                              std::move(config));
  }
  throw std::invalid_argument("unknown scheduler kind");
}

}  // namespace mtm
