/**
 * @file
 * Golden-determinism regression: fixed-seed SimResult values for every
 * topology x arbitration-scheme combination, asserted bit-exactly in
 * BOTH stepping modes (the event-driven core and the dense reference
 * core must agree with the goldens and hence with each other). Any
 * refactor of the arbitration or injection hot path must keep the
 * simulation bit-identical; a drift here means the optimization
 * changed semantics, not just speed.
 *
 * Values captured from the counter-based-RNG implementation (the
 * injection/destination streams are pure functions of
 * (seed, input, cycle), so they are the same in both stepping modes
 * by construction). Captured with: radix 64, L4/c4, 4 VCs x 4 flits,
 * 4-flit packets, injection 0.25, warmup 500, measure 2000, seed
 * 12345, uniform random traffic; doubles recorded with %.17g
 * (round-trip exact).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/network_sim.hh"
#include "traffic/pattern.hh"

using namespace hirise;

namespace {

struct Golden
{
    const char *label;
    Topology topo;
    ArbScheme arb;
    ChannelAlloc alloc;

    double offered;
    double accepted;
    double avgLatency;
    double p99Latency;
    double avgQueueing;
    std::uint64_t packets;
    /** Measurement-window packets still in flight at window close
     *  (captured after the latency-censoring fix made it visible). */
    std::uint64_t inFlight;
    double fairness;
    /** Spot probes of the per-input vectors: inputs 0, 17, 63. */
    double inLat0, inLat17, inLat63;
    double inTput0, inTput17, inTput63;
    /** Scheduler knobs (flat crossbar scheduler entries only). */
    std::uint32_t schedIters = 1;
    std::uint64_t schedSeed = 0;
};

const Golden kGolden[] = {
    {"flat2d_lrg", Topology::Flat2D, ArbScheme::Lrg,
     ChannelAlloc::InputBinned,
     64.475999999999999, 41.072000000000003, 551.96947122407107, 976,
     549.40895144401736, 20538, 14729, 0.99945204337447102,
     527.78378378378375, 626.00900900900876, 643.26948051948034,
     0.16650000000000001, 0.16650000000000001, 0.154},
    {"folded3d_lrg", Topology::Folded3D, ArbScheme::Lrg,
     ChannelAlloc::InputBinned,
     64.475999999999999, 41.072000000000003, 551.96947122407107, 976,
     549.40895144401736, 20538, 14729, 0.99945204337447102,
     527.78378378378375, 626.00900900900876, 643.26948051948034,
     0.16650000000000001, 0.16650000000000001, 0.154},
    {"hirise_layerlrg", Topology::HiRise, ArbScheme::LayerLrg,
     ChannelAlloc::InputBinned,
     64.475999999999999, 36.089500000000001, 664.8308024828201, 1144,
     662.38895664707798, 18044, 17806, 0.99932941363201144,
     693.56521739130403, 722.16262975778591, 752.525925925926,
     0.13800000000000001, 0.14449999999999999, 0.13500000000000001},
    {"hirise_clrg", Topology::HiRise, ArbScheme::Clrg,
     ChannelAlloc::InputBinned,
     64.475999999999999, 36.048000000000002, 667.11727504715429, 1152,
     664.8132800798785, 18026, 17850, 0.99942078891308361,
     677.68928571428569, 748.72962962963004, 727.00000000000045,
     0.14000000000000001, 0.13500000000000001, 0.13450000000000001},
    {"hirise_wlrg", Topology::HiRise, ArbScheme::Wlrg,
     ChannelAlloc::InputBinned,
     64.475999999999999, 35.963500000000003, 668.22949452260502, 1152,
     666.02141029918562, 17983, 17880, 0.99916929689846601,
     641.29285714285754, 698.39222614840992, 703.10332103321036,
     0.14000000000000001, 0.14149999999999999, 0.13550000000000001},
    {"hirise_clrg_prio", Topology::HiRise, ArbScheme::Clrg,
     ChannelAlloc::Priority,
     64.475999999999999, 39.357500000000002, 592.13250317661891, 1028,
     589.86194276419815, 19675, 15809, 0.99953207034802238,
     597.6528662420385, 671.00630914826502, 655.07586206896542,
     0.157, 0.1585, 0.14499999999999999},
    {"hirise_clrg_outbin", Topology::HiRise, ArbScheme::Clrg,
     ChannelAlloc::OutputBinned,
     64.475999999999999, 35.341500000000003, 679.67070272716887, 1184,
     677.31627801675279, 17674, 18274, 0.99918185959987649,
     722.60305343511413, 760.51672862453563, 717.21641791044749,
     0.13100000000000001, 0.13450000000000001, 0.13400000000000001},
    {"flat2d_islip2", Topology::Flat2D, ArbScheme::Islip,
     ChannelAlloc::InputBinned,
     64.475999999999999, 41.152999999999999, 549.29238544146767, 960,
     546.80394538652263, 20579, 14673, 0.99965950530088554,
     542.48338368580016, 642.21183800623146, 605.35759493670844,
     0.16550000000000001, 0.1605, 0.158, 2, 0ULL},
    {"flat2d_pim2", Topology::Flat2D, ArbScheme::Pim,
     ChannelAlloc::InputBinned,
     64.475999999999999, 41.161999999999999, 548.73403945194923, 960,
     546.31469788226229, 20582, 14675, 0.99939734002573521,
     549.49101796407206, 651.22955974842796, 610.90996784565948,
     0.16700000000000001, 0.159, 0.1555, 2, 7ULL},
    {"flat2d_wavefront", Topology::Flat2D, ArbScheme::Wavefront,
     ChannelAlloc::InputBinned,
     64.475999999999999, 41.072000000000003, 550.87078077054207, 972,
     548.3906310868723, 20531, 14727, 0.9995701455757402,
     549.00312499999984, 665.12539184952993, 634.6798679867992,
     0.16, 0.1595, 0.1515, 1, 0ULL},
};

class SimGolden : public ::testing::TestWithParam<Golden>
{
};

} // namespace

TEST_P(SimGolden, FixedSeedResultIsBitIdenticalToSeedImpl)
{
    const Golden &g = GetParam();

    SwitchSpec spec;
    spec.topo = g.topo;
    spec.radix = 64;
    spec.layers = 4;
    spec.channels = 4;
    spec.arb = g.arb;
    spec.alloc = g.alloc;
    spec.schedIters = g.schedIters;
    spec.schedSeed = g.schedSeed;

    for (bool dense : {false, true}) {
        SCOPED_TRACE(dense ? "dense stepping" : "event stepping");

        sim::SimConfig cfg;
        cfg.injectionRate = 0.25;
        cfg.warmupCycles = 500;
        cfg.measureCycles = 2000;
        cfg.seed = 12345;
        cfg.denseStepping = dense;

        sim::NetworkSim s(spec, cfg,
                          std::make_shared<traffic::UniformRandom>(64));
        auto r = s.run();

        EXPECT_DOUBLE_EQ(r.offeredFlitsPerCycle, g.offered);
        EXPECT_DOUBLE_EQ(r.acceptedFlitsPerCycle, g.accepted);
        EXPECT_DOUBLE_EQ(r.avgLatencyCycles, g.avgLatency);
        EXPECT_DOUBLE_EQ(r.p99LatencyCycles, g.p99Latency);
        EXPECT_DOUBLE_EQ(r.avgQueueingCycles, g.avgQueueing);
        EXPECT_EQ(r.packetsDelivered, g.packets);
        EXPECT_EQ(r.inFlightAtMeasureEnd, g.inFlight);
        // 0.25 injection keeps every delivered latency inside the
        // histogram's regular bins for all seven configurations.
        EXPECT_EQ(r.latencyOverflowPackets, 0u);
        EXPECT_DOUBLE_EQ(r.fairness, g.fairness);

        ASSERT_EQ(r.perInputLatency.size(), 64u);
        ASSERT_EQ(r.perInputThroughput.size(), 64u);
        EXPECT_DOUBLE_EQ(r.perInputLatency[0], g.inLat0);
        EXPECT_DOUBLE_EQ(r.perInputLatency[17], g.inLat17);
        EXPECT_DOUBLE_EQ(r.perInputLatency[63], g.inLat63);
        EXPECT_DOUBLE_EQ(r.perInputThroughput[0], g.inTput0);
        EXPECT_DOUBLE_EQ(r.perInputThroughput[17], g.inTput17);
        EXPECT_DOUBLE_EQ(r.perInputThroughput[63], g.inTput63);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SimGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden> &info) {
        return info.param.label;
    });
