// The four "backbone" scenarios standing in for the paper's four Sprint
// OC-12 traces (Table I). Each scenario is a deterministic simulation:
// a two-sided backbone topology with a tapped inter-POP link, a traffic
// workload matching the paper's mix, and a failure plan of IGP link flaps
// and BGP withdrawals whose convergence windows create transient loops.
//
// Topology (* marks the tapped link, direction X -> (M|Y) is captured):
//
//      I0    I1    I2          ingress edge routers (traffic + probe vantage)
//      |     |     |
//      A0 -- A1 -- A2          aggregation, side A   (A0--A2 backup)
//       \.   |   ./
//   EA -- [  X  ]              EA: side-A egress
//            |*                tapped OC-12 (scenario 4 inserts transit
//         [  Y  ]              router M: X -*- M -- Y plus a direct X--Y
//        /   |   \.            link of equal cost)
//      D0 -- D1 -- D2          distribution, side B
//      |     |     |
//      +--X  E1    E2          E1/E2: side-B egresses; X--D0: backup path
//
// Most destination prefixes prefer a side-B egress with the side-A egress as
// BGP fallback: a withdrawal makes converged routers point *up* through the
// tap while stale routers still point *down*, so the loop's cycle contains
// the tapped link and every turn produces a replica in the trace. With
// symmetric IGP costs, a loop cycle through the tapped artery longer than
// the adjacent pair is impossible (the condition for a fresh upstream path
// to take a side door contradicts the condition for downstream traffic to
// stay on the artery), which is why scenario 4 splits the artery into
// X-M-Y with an equal-cost direct X--Y link: tie-breaks route downstream
// traffic through M and upstream traffic over the direct link, making both
// two-router (X<->M, TTL delta 2) and three-router (X->M->Y->X, delta 3)
// cycles realizable — Backbone 4's split TTL-delta distribution.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/comparison.h"
#include "net/prefix.h"
#include "net/time.h"
#include "net/trace.h"
#include "routing/topology.h"
#include "sim/failure.h"
#include "sim/network.h"
#include "trafficgen/address_model.h"
#include "trafficgen/ttl_model.h"
#include "trafficgen/workload.h"

namespace rloop::scenarios {

struct BackboneSpec {
  int index = 1;
  std::string name = "Backbone 1";
  std::uint64_t seed = 1;
  std::int64_t epoch_unix_s = 1'005'224'400;  // 2001-11-08 13:00 GMT
  net::TimeNs duration = 8 * net::kMinute;
  double flows_per_second = 90.0;
  // Multiplies every link's propagation delay (distinguishes short-haul from
  // long-haul links and shifts the spacing/duration CDFs, Figures 4/8).
  double delay_scale = 1.0;
  int igp_events = 10;
  int bgp_events = 14;
  // BGP convergence spread; the dominant control on loop durations (Fig. 9).
  net::TimeNs mrai_max = 20 * net::kSecond;
  std::size_t dst_prefix_count = 300;
  std::size_t src_prefix_count = 120;
  bool three_mode_ttl = false;
  // Mean prefixes withdrawn per BGP event (session-failure batching).
  double bgp_batch_mean = 1.0;
  // Mean E-BGP outage length (withdraw -> re-announce). When no healthy
  // packet for the prefix crosses the tap during the outage, the detector
  // merges the withdraw-loop with the re-announce-loop (exactly as the
  // paper's algorithm would), so this controls the merged-loop duration
  // tail on each link.
  net::TimeNs bgp_outage_mean = 45 * net::kSecond;
  // Zipf-rank band (as fractions of the destination pool) eligible for
  // withdrawal. Quiet links need more popular prefixes to flap for loops to
  // carry observable traffic; busy links the opposite.
  double withdraw_rank_lo = 1.0 / 6.0;
  double withdraw_rank_hi = 0.5;
  // Insert a transit router M between X and Y (tap moves to X->M) with an
  // equal-cost direct X--Y link. BGP disagreement between X and M loops
  // X->M->X (TTL delta 2); disagreement between {X,M} and Y loops
  // X->M->Y->X (delta 3, the return leg using the direct link). Backbone 4
  // uses this to reproduce its split 55%/35% TTL-delta distribution.
  bool transit_chain = false;
  // Workload RNG seed; 0 keeps the legacy derivation (seed ^ golden ratio).
  // The scenario engine sets it so one user-facing seed threads through
  // network, workload and failure-plan randomness (util::derive_seed).
  std::uint64_t workload_seed = 0;
  // Timed rate/focus phases forwarded to the workload (scenario engine).
  std::vector<trafficgen::RatePhase> phases{};
};

// Specs for the paper's four traces (k in 1..4). Throws std::invalid_argument
// otherwise.
BackboneSpec backbone_spec(int k);

struct BackboneNodes {
  routing::NodeId i0, i1, i2;
  routing::NodeId a0, a1, a2;
  routing::NodeId x, y;
  routing::NodeId m = -1;  // transit node, only with spec.transit_chain
  routing::NodeId d0, d1, d2;
  routing::NodeId e1, e2, ea;
  routing::LinkId tap_link = -1;
  std::vector<routing::LinkId> flap_candidates;
};

routing::Topology make_backbone_topology(const BackboneSpec& spec,
                                         BackboneNodes& nodes);

// A fully-wired scenario. Owns the network, pools and workload; the network
// holds callbacks into the workload, so the object must stay put while the
// simulation runs (hence unique_ptr and no copies).
struct BackboneRun {
  BackboneSpec spec;
  BackboneNodes nodes;
  std::unique_ptr<sim::Network> network;
  std::shared_ptr<trafficgen::PrefixPool> destinations;
  std::shared_ptr<trafficgen::PrefixPool> sources;
  std::unique_ptr<trafficgen::Workload> workload;
  sim::FailurePlan plan;
  std::size_t tap_index = 0;
  // Prefixes with a BGP fallback egress (withdrawal candidates).
  std::vector<net::Prefix> withdrawable;

  const net::Trace& trace() const { return network->tap_trace(tap_index); }
  std::vector<baseline::TruthLoop> truth_loops() const {
    return baseline::merge_crossings(network->loop_crossings());
  }
};

// Builds the scenario with workload and failure plan installed but nothing
// run yet, so callers can add taps/probers before execute(). `registry`
// (optional, must outlive the run) instruments the simulated network and its
// event queue with rloop_sim_* metrics.
std::unique_ptr<BackboneRun> build_backbone(
    const BackboneSpec& spec, telemetry::Registry* registry = nullptr);

// Runs the simulation to spec.duration plus a drain period.
void execute(BackboneRun& run);

// build + execute for the paper's trace k.
std::unique_ptr<BackboneRun> run_backbone(
    int k, telemetry::Registry* registry = nullptr);

}  // namespace rloop::scenarios
