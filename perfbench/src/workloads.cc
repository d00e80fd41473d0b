#include "workloads.h"

#include "net/time.h"
#include "scenarios/backbone.h"
#include "scenarios/scenario.h"

namespace perfbench {

namespace {

using rloop::net::kSecond;
using rloop::scenarios::PhaseKind;
using rloop::scenarios::ScenarioPhase;
using rloop::scenarios::ScenarioSpec;

// backbone2: the paper's Backbone 2 trace (scenarios::backbone_spec(2)) with
// the benchmark's seed in place of the pinned one.
rloop::net::Trace simulate_backbone2(std::uint64_t seed, Scale scale) {
  rloop::scenarios::BackboneSpec spec = rloop::scenarios::backbone_spec(2);
  spec.seed = seed;
  if (scale == Scale::tiny) spec.duration = 20 * kSecond;
  auto run = rloop::scenarios::build_backbone(spec);
  rloop::scenarios::execute(*run);
  return run->trace();
}

// loop_storm: alternating storm and idle phases on the Backbone 4 topology.
// Each storm phase draws IGP link flaps and E-BGP withdrawals, so replica
// streams, validate's per-stream prefix queries, merge grouping and the
// streaming alert/hold-down path all carry load.
ScenarioSpec loop_storm_spec(std::uint64_t seed, Scale scale) {
  ScenarioSpec spec;
  spec.name = "loop_storm";
  spec.summary = "flap+withdraw storms alternating with idle phases";
  spec.seed = seed;
  spec.backbone = 4;
  spec.flows_per_second = 210.0;
  const int cycles = scale == Scale::tiny ? 1 : 8;
  for (int i = 0; i < cycles; ++i) {
    spec.phases.push_back({.kind = PhaseKind::flap,
                           .duration = 30 * kSecond,
                           .flap_events = 8,
                           .withdraw_events = 40});
    spec.phases.push_back({.kind = PhaseKind::idle,
                           .duration = 10 * kSecond});
  }
  return spec;
}

rloop::net::Trace simulate_loop_storm(std::uint64_t seed, Scale scale) {
  const auto run = rloop::scenarios::run_scenario(loop_storm_spec(seed, scale));
  return run->analysis_trace();
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "backbone2") return Workload::backbone2;
  if (name == "loop_storm") return Workload::loop_storm;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::backbone2:
      return "backbone2";
    case Workload::loop_storm:
      return "loop_storm";
  }
  return "?";
}

std::optional<Scale> parse_scale(std::string_view name) {
  if (name == "full") return Scale::full;
  if (name == "tiny") return Scale::tiny;
  return std::nullopt;
}

rloop::net::Trace simulate(Workload workload, std::uint64_t seed,
                           Scale scale) {
  if (workload == Workload::backbone2) return simulate_backbone2(seed, scale);
  return simulate_loop_storm(seed, scale);
}

}  // namespace perfbench
