#include "scenarios/backbone.h"

#include <gtest/gtest.h>

#include <set>

namespace rloop::scenarios {
namespace {

TEST(BackboneSpec, FourDistinctScenarios) {
  std::set<std::uint64_t> seeds;
  for (int k = 1; k <= 4; ++k) {
    const auto spec = backbone_spec(k);
    EXPECT_EQ(spec.index, k);
    EXPECT_FALSE(spec.name.empty());
    EXPECT_GT(spec.duration, 0);
    EXPECT_GT(spec.flows_per_second, 0.0);
    seeds.insert(spec.seed);
  }
  EXPECT_EQ(seeds.size(), 4u);
  EXPECT_THROW(backbone_spec(0), std::invalid_argument);
  EXPECT_THROW(backbone_spec(5), std::invalid_argument);
}

TEST(BackboneTopology, WellFormed) {
  for (int k = 1; k <= 4; ++k) {
    const auto spec = backbone_spec(k);
    BackboneNodes nodes{};
    const auto topo = make_backbone_topology(spec, nodes);
    ASSERT_GE(topo.node_count(), 14u);
    ASSERT_GE(nodes.tap_link, 0);
    // Tap endpoints are X and either Y or the transit node M.
    const auto& tap = topo.link(nodes.tap_link);
    EXPECT_TRUE(tap.a == nodes.x || tap.b == nodes.x);
    EXPECT_FALSE(nodes.flap_candidates.empty());
    // The tapped link itself never flaps (the monitor must stay live).
    for (const auto link : nodes.flap_candidates) {
      EXPECT_NE(link, nodes.tap_link);
    }
    // Every node reaches every other (connected topology).
    const auto spf = routing::compute_spf(topo, nodes.i0);
    for (const auto& node : topo.nodes()) {
      if (node.id != nodes.i0) {
        EXPECT_TRUE(spf.reachable(node.id));
      }
    }
    // Transit chain only in scenario 4.
    EXPECT_EQ(nodes.m >= 0, spec.transit_chain);
  }
}

TEST(BackboneTopology, TransitChainTieBreaks) {
  // The B4 construction relies on specific equal-cost tie-breaks: down
  // traffic crosses X->M->Y, while Y's route up to X uses the direct link.
  const auto spec = backbone_spec(4);
  BackboneNodes nodes{};
  const auto topo = make_backbone_topology(spec, nodes);

  const auto from_x = routing::compute_spf(topo, nodes.x);
  EXPECT_EQ(from_x.next_hop_link[static_cast<std::size_t>(nodes.e1)],
            nodes.tap_link);  // down via M

  const auto from_y = routing::compute_spf(topo, nodes.y);
  const auto direct = topo.find_link(nodes.x, nodes.y);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(from_y.next_hop_link[static_cast<std::size_t>(nodes.x)], *direct);
}

TEST(BackboneBuild, InvariantsHold) {
  auto spec = backbone_spec(3);
  spec.duration = 5 * net::kSecond;  // keep the test fast
  spec.igp_events = 1;
  spec.bgp_events = 1;
  const auto run = build_backbone(spec);

  EXPECT_FALSE(run->withdrawable.empty());
  EXPECT_EQ(run->plan.link_events.size(), 1u);
  EXPECT_GE(run->plan.bgp_events.size(), 1u);
  // Withdrawable prefixes all have a fallback (checked indirectly: they came
  // from the 70% two-egress population).
  EXPECT_LT(run->withdrawable.size(), run->destinations->size());
  EXPECT_EQ(run->trace().size(), 0u);  // nothing ran yet
}

TEST(BackboneRun, ShortRunProducesTraceAndTraffic) {
  auto spec = backbone_spec(1);
  spec.duration = 10 * net::kSecond;
  spec.igp_events = 1;
  spec.bgp_events = 2;
  auto run = build_backbone(spec);
  execute(*run);

  EXPECT_GT(run->workload->flows_generated(), 100u);
  EXPECT_GT(run->trace().size(), 1000u);
  const auto& stats = run->network->stats();
  EXPECT_GT(stats.delivered, 0u);
  // Closed-loop TCP injects at most the offered load (SYN retries can add a
  // few packets; dead SYNs suppress many more), plus router-generated ICMP
  // and failure pings.
  EXPECT_GT(stats.injected, run->workload->packets_generated() / 2);
}

TEST(BackboneRun, DeterministicAcrossRuns) {
  auto spec = backbone_spec(2);
  spec.duration = 6 * net::kSecond;
  spec.igp_events = 1;
  spec.bgp_events = 2;

  auto run1 = build_backbone(spec);
  execute(*run1);
  auto run2 = build_backbone(spec);
  execute(*run2);

  ASSERT_EQ(run1->trace().size(), run2->trace().size());
  EXPECT_EQ(run1->network->stats().delivered, run2->network->stats().delivered);
  EXPECT_EQ(run1->network->stats().loop_crossings,
            run2->network->stats().loop_crossings);
  // Byte-identical traces.
  for (std::size_t i = 0; i < run1->trace().size(); i += 997) {
    EXPECT_EQ(run1->trace()[i].ts, run2->trace()[i].ts);
    EXPECT_EQ(run1->trace()[i].data, run2->trace()[i].data);
  }
}

TEST(BackboneRun, MostTrafficCrossesTheTap) {
  auto spec = backbone_spec(1);
  spec.duration = 10 * net::kSecond;
  spec.igp_events = 0;
  spec.bgp_events = 0;
  auto run = build_backbone(spec);
  execute(*run);
  // ~70-90 % of destinations sit behind side B; the tap must carry the bulk
  // of injected traffic for the study to be meaningful.
  const double ratio = static_cast<double>(run->trace().size()) /
                       static_cast<double>(run->workload->packets_generated());
  EXPECT_GT(ratio, 0.6);
}

}  // namespace
}  // namespace rloop::scenarios
