/**
 * @file
 * Integration tests of the cycle-accurate network simulator: flit
 * conservation, zero-load latency, saturation behaviour, and the
 * fairness results of paper section VI-B at simulation level.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "fabric/hirise.hh"
#include "sim/network_sim.hh"
#include "sim/sweep.hh"

using namespace hirise;
using namespace hirise::sim;

namespace {

SwitchSpec
flat64()
{
    SwitchSpec s;
    s.topo = Topology::Flat2D;
    s.radix = 64;
    s.arb = ArbScheme::Lrg;
    return s;
}

SwitchSpec
hirise64(std::uint32_t c, ArbScheme arb = ArbScheme::Clrg)
{
    SwitchSpec s;
    s.topo = Topology::HiRise;
    s.radix = 64;
    s.layers = 4;
    s.channels = c;
    s.arb = arb;
    return s;
}

SimConfig
quickCfg(double load)
{
    SimConfig cfg;
    cfg.injectionRate = load;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 8000;
    return cfg;
}

PatternFactory
uniformFactory(std::uint32_t radix)
{
    return [radix] {
        return std::make_shared<traffic::UniformRandom>(radix);
    };
}

} // namespace

TEST(NetworkSim, ConservationAfterDrain)
{
    SimConfig cfg = quickCfg(0.1);
    NetworkSim sim(flat64(), cfg,
                   std::make_shared<traffic::UniformRandom>(64));
    for (int t = 0; t < 5000; ++t)
        sim.step();
    // Every injected flit is either delivered or still queued in a
    // source queue / VC.
    EXPECT_EQ(sim.totalInjectedPackets() * 4,
              sim.totalDeliveredFlits() + sim.backlogFlits());
    EXPECT_GE(sim.totalDeliveredFlits(),
              sim.totalDeliveredPackets() * 4);
}

TEST(NetworkSim, ZeroLoadLatencyIsSmall)
{
    auto r = runAtLoad(flat64(), quickCfg(0.0), uniformFactory(64),
                       0.005);
    // arbitration (1 cycle, overlapping VC fill) + transfer (4) ~ 5.
    EXPECT_GT(r.avgLatencyCycles, 3.9);
    EXPECT_LT(r.avgLatencyCycles, 8.0);
}

TEST(NetworkSim, LatencyRisesWithLoad)
{
    auto lo = runAtLoad(flat64(), quickCfg(0.0), uniformFactory(64),
                        0.02);
    auto hi = runAtLoad(flat64(), quickCfg(0.0), uniformFactory(64),
                        0.12);
    EXPECT_GT(hi.avgLatencyCycles, lo.avgLatencyCycles);
}

TEST(NetworkSim, AcceptedTracksOfferedBelowSaturation)
{
    auto r = runAtLoad(flat64(), quickCfg(0.0), uniformFactory(64),
                       0.08);
    EXPECT_NEAR(r.acceptedFlitsPerCycle, r.offeredFlitsPerCycle,
                0.05 * r.offeredFlitsPerCycle);
}

// Regression for silent latency censoring: packets still in flight
// when the measurement window closes never reach the latency
// aggregates. The simulator now reports how many were censored so
// saturated-load latency numbers can be read honestly (see
// docs/TESTING.md, "Latency censoring").
TEST(NetworkSim, CensoredInFlightPopulationIsReported)
{
    // Far above flat64's ~0.65 saturation point: queues grow without
    // bound, so a large population must be pending at window close.
    auto sat = runAtLoad(flat64(), quickCfg(0.0), uniformFactory(64),
                         0.95);
    EXPECT_GT(sat.inFlightAtMeasureEnd, 100u);

    // At low load the pipeline drains almost immediately: only the
    // handful of packets injected in the last few cycles can be
    // censored. 64 inputs * 8-cycle pipe at 2% injection ≈ 10.
    auto lo = runAtLoad(flat64(), quickCfg(0.0), uniformFactory(64),
                        0.02);
    EXPECT_LT(lo.inFlightAtMeasureEnd, 64u);
    EXPECT_EQ(lo.latencyOverflowPackets, 0u);
}

TEST(NetworkSim, Flat64UniformSaturationNearPaperUtilization)
{
    // Paper Table IV: 2D 64x64 at 9.24 Tbps / 1.69 GHz = 0.667
    // flits/cycle/output. Accept a band around it.
    double flits = saturationFlitsPerCycle(flat64(), quickCfg(1.0),
                                           uniformFactory(64));
    double per_output = flits / 64.0;
    EXPECT_GT(per_output, 0.60);
    EXPECT_LT(per_output, 0.75);
}

TEST(NetworkSim, HiRise1ChannelSaturatesNearQuarterInjection)
{
    // Section VI-A: the 1-channel configuration saturates at very low
    // injection rates; L2LC capacity caps it near 0.25 flits/cycle
    // per input of *offered* cross-layer traffic.
    double flits = saturationFlitsPerCycle(hirise64(1), quickCfg(1.0),
                                           uniformFactory(64));
    double per_input = flits / 64.0;
    EXPECT_GT(per_input, 0.15);
    EXPECT_LT(per_input, 0.30);
}

TEST(NetworkSim, HiRiseChannelMultiplicityOrdersThroughput)
{
    SimConfig cfg = quickCfg(1.0);
    double t1 = saturationFlitsPerCycle(hirise64(1), cfg,
                                        uniformFactory(64));
    double t2 = saturationFlitsPerCycle(hirise64(2), cfg,
                                        uniformFactory(64));
    double t4 = saturationFlitsPerCycle(hirise64(4), cfg,
                                        uniformFactory(64));
    EXPECT_LT(t1, t2);
    EXPECT_LT(t2, t4);
}

TEST(NetworkSim, HotspotThroughputBoundedByOneOutput)
{
    SimConfig cfg = quickCfg(0.05);
    auto make = [] {
        return std::make_shared<traffic::Hotspot>(64, 63);
    };
    auto r = runAtLoad(flat64(), cfg, make, 1.0);
    // One output serves 4-flit packets with 1 arbitration cycle:
    // <= 0.8 flits/cycle aggregate.
    EXPECT_LE(r.acceptedFlitsPerCycle, 0.82);
    EXPECT_GT(r.acceptedFlitsPerCycle, 0.7);
}

TEST(NetworkSim, HotspotClrgFairAcrossLayers)
{
    // Fig 11a: with CLRG, per-input latency is flat across all four
    // layers; with L-2-L LRG the hot output's own layer suffers.
    SimConfig cfg;
    cfg.warmupCycles = 4000;
    // Per-input latency averages see only ~85 packets/input per 30k
    // cycles at this load; the layer-starvation ratio needs a longer
    // window to settle (it hovers right at the 2x threshold otherwise).
    cfg.measureCycles = 120000;
    auto make = [] {
        return std::make_shared<traffic::Hotspot>(64, 63);
    };
    // ~80% of hotspot saturation: 0.8 flits/cycle over 63 inputs of
    // 4-flit packets -> 0.8*0.8/(63*4) packets/input/cycle.
    double load = 0.8 * 0.8 / (63.0 * 4.0);

    auto clrg = runAtLoad(hirise64(4, ArbScheme::Clrg), cfg, make, load);
    auto lrg =
        runAtLoad(hirise64(4, ArbScheme::LayerLrg), cfg, make, load);

    // Local layer (inputs 48..62) vs remote inputs under L-2-L LRG.
    auto avg_lat = [](const SimResult &r, int lo, int hi) {
        double s = 0;
        int n = 0;
        for (int i = lo; i <= hi; ++i) {
            if (r.perInputLatency[i] > 0) {
                s += r.perInputLatency[i];
                ++n;
            }
        }
        return s / n;
    };
    double lrg_local = avg_lat(lrg, 48, 62);
    double lrg_remote = avg_lat(lrg, 0, 47);
    double clrg_local = avg_lat(clrg, 48, 62);
    double clrg_remote = avg_lat(clrg, 0, 47);

    EXPECT_GT(lrg_local, 2.0 * lrg_remote)
        << "baseline should starve the local layer";
    EXPECT_LT(clrg_local, 1.4 * clrg_remote)
        << "CLRG should level the layers";
    // Latency spread (max/min across inputs) tightens under CLRG.
    // Below saturation both schemes deliver equal *throughput*, so
    // latency is the fairness signal here (Fig 11a plots latency).
    auto spread = [](const SimResult &r) {
        double lo = 1e300, hi = 0.0;
        for (int i = 0; i < 63; ++i) {
            if (r.perInputLatency[i] <= 0)
                continue;
            lo = std::min(lo, r.perInputLatency[i]);
            hi = std::max(hi, r.perInputLatency[i]);
        }
        return hi / lo;
    };
    EXPECT_LT(spread(clrg), spread(lrg));
}

TEST(NetworkSim, AdversarialClrgEqualizesThroughput)
{
    // Fig 11c at simulation level.
    SimConfig cfg;
    cfg.warmupCycles = 4000;
    cfg.measureCycles = 30000;
    auto make = [] {
        return std::make_shared<traffic::Adversarial>(
            std::vector<std::uint32_t>{3, 7, 11, 15, 20}, 63, 64);
    };
    double load = 0.2; // well past the single output's capacity

    auto clrg = runAtLoad(hirise64(1, ArbScheme::Clrg), cfg, make, load);
    auto lrg =
        runAtLoad(hirise64(1, ArbScheme::LayerLrg), cfg, make, load);

    // L-2-L LRG: input 20 gets ~4x the throughput of each L1 input.
    EXPECT_GT(lrg.perInputThroughput[20],
              3.0 * lrg.perInputThroughput[3]);
    // CLRG: within 20% of each other.
    for (auto i : {3u, 7u, 11u, 15u}) {
        EXPECT_NEAR(clrg.perInputThroughput[20],
                    clrg.perInputThroughput[i],
                    0.2 * clrg.perInputThroughput[20])
            << "input " << i;
    }
    EXPECT_GT(clrg.fairness, 0.95);
    EXPECT_LT(lrg.fairness, 0.85);
}

TEST(NetworkSim, InterLayerOnlyPathologicalCap)
{
    // Section VI-B corner case: four inputs sharing one L2LC to
    // distinct outputs are capped by the single channel regardless of
    // arbitration scheme.
    SimConfig cfg = quickCfg(1.0);
    auto make = [] {
        return std::make_shared<traffic::InterLayerOnly>(16, 4, 0, 2);
    };
    auto r = runAtLoad(hirise64(4), cfg, make, 1.0);
    // One 128-bit channel moving 4-flit packets with one arbitration
    // cycle each: at most 0.8 flits/cycle in total.
    EXPECT_LE(r.acceptedFlitsPerCycle, 0.82);
    EXPECT_GT(r.acceptedFlitsPerCycle, 0.6);
}

TEST(NetworkSim, QueueingBreakdownSeparatesLoadEffects)
{
    // Latency = queueing + service; service is ~constant (packetLen
    // + serialization overlap), queueing grows with load.
    auto lo = runAtLoad(flat64(), quickCfg(0.0), uniformFactory(64),
                        0.01);
    auto hi = runAtLoad(flat64(), quickCfg(0.0), uniformFactory(64),
                        0.14);
    EXPECT_LT(lo.avgQueueingCycles, 2.0);
    EXPECT_GT(hi.avgQueueingCycles, 3.0 * lo.avgQueueingCycles);
    double service_lo = lo.avgLatencyCycles - lo.avgQueueingCycles;
    double service_hi = hi.avgLatencyCycles - hi.avgQueueingCycles;
    EXPECT_NEAR(service_lo, 4.0, 0.5);
    EXPECT_NEAR(service_hi, service_lo, 1.0);
}

TEST(NetworkSim, InjectedFaultedFabricRemapsAndConserves)
{
    // A pre-faulted fabric handed to the simulator via the injected-
    // fabric constructor: binned traffic remaps onto the surviving
    // channels, so delivery continues and conservation holds.
    auto spec = hirise64(2);
    auto fab = std::make_unique<fabric::HiRiseFabric>(spec);
    fab->failChannel(0, 1, 0);
    fab->failChannel(2, 3, 1);
    SimConfig cfg = quickCfg(0.15);
    NetworkSim sim(spec, cfg,
                   std::make_shared<traffic::UniformRandom>(64),
                   std::move(fab));
    auto r = sim.run();
    EXPECT_GT(r.packetsDelivered, 0u);
    EXPECT_GT(r.acceptedFlitsPerCycle, 0.0);
    EXPECT_EQ(sim.totalInjectedPackets() * 4,
              sim.totalDeliveredFlits() + sim.backlogFlits());
}

TEST(NetworkSim, FullyFailedLayerPairDegradesGracefully)
{
    // Every layer-0 -> layer-1 channel dead and all offered traffic
    // needs exactly that pair: nothing can be delivered, but the
    // simulation must degrade (traffic piles up at the sources)
    // rather than deadlock or violate conservation.
    auto spec = hirise64(2);
    auto fab = std::make_unique<fabric::HiRiseFabric>(spec);
    fab->failChannel(0, 1, 0);
    fab->failChannel(0, 1, 1);
    SimConfig cfg;
    cfg.injectionRate = 0.3;
    cfg.warmupCycles = 0;
    cfg.measureCycles = 3000;
    auto pattern =
        std::make_shared<traffic::InterLayerOnly>(16, 2, 0, 1);
    NetworkSim sim(spec, cfg, pattern, std::move(fab));
    auto r = sim.run();
    EXPECT_GT(sim.totalInjectedPackets(), 0u);
    EXPECT_EQ(r.packetsDelivered, 0u);
    EXPECT_EQ(sim.totalDeliveredFlits(), 0u);
    EXPECT_EQ(sim.totalInjectedPackets() * 4, sim.backlogFlits());
}

TEST(Sweep, UnitConversions)
{
    // 42.7 flits/cycle * 128 bits * 1.69 GHz = 9.24 Tbps.
    EXPECT_NEAR(toTbps(42.7, 1.69, 128), 9.24, 0.02);
    // and 10.675 packets/cycle at 1.69 GHz = 18.04 packets/ns.
    EXPECT_NEAR(toPacketsPerNs(42.7, 1.69, 4), 18.04, 0.02);
}
