/**
 * @file
 * Batched-vs-scalar equivalence: every lane of an R-replica
 * sim::BatchSim run must be bit-identical to the R independent scalar
 * NetworkSim runs it replaces, across pattern classes, radices, load
 * regimes, mixed (load, seed) lane assignments, and both SIMD dispatch
 * tiers. Also covers the campaign-layer batched runner
 * (sim::runPointsCached) against per-point scalar evaluation.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "sim/batch_sim.hh"
#include "sim/network_sim.hh"
#include "sim/sweep.hh"
#include "traffic/pattern.hh"
#include "traffic/trace.hh"

using namespace hirise;
using traffic::TrafficPattern;

namespace {

SwitchSpec
hiriseSpec(std::uint32_t radix)
{
    SwitchSpec s;
    s.topo = Topology::HiRise;
    s.radix = radix;
    s.layers = 4;
    s.channels = 4;
    s.arb = ArbScheme::Clrg;
    return s;
}

SwitchSpec
flatSpec(std::uint32_t radix)
{
    SwitchSpec s;
    s.topo = Topology::Flat2D;
    s.radix = radix;
    s.arb = ArbScheme::Lrg;
    return s;
}

enum class Pat
{
    Uniform,
    Hotspot,
    Bursty,
    Transpose,
    BitComplement,
    Trace,
};

const char *
patName(Pat p)
{
    switch (p) {
      case Pat::Uniform: return "uniform";
      case Pat::Hotspot: return "hotspot";
      case Pat::Bursty: return "bursty";
      case Pat::Transpose: return "transpose";
      case Pat::BitComplement: return "bit-complement";
      case Pat::Trace: return "trace";
    }
    return "?";
}

std::shared_ptr<TrafficPattern>
makePattern(Pat p, std::uint32_t radix)
{
    switch (p) {
      case Pat::Uniform:
        return std::make_shared<traffic::UniformRandom>(radix);
      case Pat::Hotspot:
        return std::make_shared<traffic::Hotspot>(radix, radix - 1);
      case Pat::Bursty:
        return std::make_shared<traffic::Bursty>(radix, 6.0);
      case Pat::Transpose:
        return std::make_shared<traffic::Transpose>(radix);
      case Pat::BitComplement:
        return std::make_shared<traffic::BitComplement>(radix);
      case Pat::Trace: {
        // Same synthetic trace as stepping_test: same-cycle pile-ups
        // and long idle gaps, exercising the stateful injection path.
        std::vector<traffic::TraceRecord> recs;
        for (std::uint64_t k = 0; k < 40; ++k) {
            std::uint32_t src = (7 * k) % radix;
            std::uint32_t dst = (src + 1 + 3 * k) % radix;
            if (dst == src)
                dst = (dst + 1) % radix;
            recs.push_back({k * 17, src, dst});
            if (k % 5 == 0)
                recs.push_back({k * 17, src, (dst + 1) % radix == src
                                                 ? (dst + 2) % radix
                                                 : (dst + 1) % radix});
        }
        return std::make_shared<traffic::TraceReplay>(recs, radix);
      }
    }
    return nullptr;
}

sim::SimConfig
baseConfig()
{
    sim::SimConfig cfg;
    cfg.warmupCycles = 150;
    cfg.measureCycles = 600;
    return cfg;
}

sim::SimResult
runScalar(const SwitchSpec &spec, Pat p, const sim::BatchPoint &pt)
{
    sim::SimConfig cfg = baseConfig();
    cfg.injectionRate = pt.load;
    cfg.seed = pt.seed;
    sim::NetworkSim s(spec, cfg, makePattern(p, spec.radix));
    return s.run();
}

std::vector<sim::SimResult>
runBatched(const SwitchSpec &spec, Pat p,
           const std::vector<sim::BatchPoint> &pts)
{
    std::vector<std::shared_ptr<TrafficPattern>> pats;
    pats.reserve(pts.size());
    for (std::size_t r = 0; r < pts.size(); ++r)
        pats.push_back(makePattern(p, spec.radix));
    sim::BatchSim s(spec, baseConfig(), std::move(pats), pts);
    return s.run();
}

void
expectSame(const sim::SimResult &e, const sim::SimResult &d)
{
    // Bit-exact: no tolerances anywhere. A batched lane consumes the
    // same counter streams in the same order as its scalar run, so
    // even float summation order matches.
    EXPECT_EQ(e.offeredFlitsPerCycle, d.offeredFlitsPerCycle);
    EXPECT_EQ(e.acceptedFlitsPerCycle, d.acceptedFlitsPerCycle);
    EXPECT_EQ(e.avgLatencyCycles, d.avgLatencyCycles);
    EXPECT_EQ(e.p99LatencyCycles, d.p99LatencyCycles);
    EXPECT_EQ(e.avgQueueingCycles, d.avgQueueingCycles);
    EXPECT_EQ(e.packetsDelivered, d.packetsDelivered);
    EXPECT_EQ(e.inFlightAtMeasureEnd, d.inFlightAtMeasureEnd);
    EXPECT_EQ(e.latencyOverflowPackets, d.latencyOverflowPackets);
    EXPECT_EQ(e.packetsDropped, d.packetsDropped);
    EXPECT_EQ(e.fairness, d.fairness);
    EXPECT_EQ(e.perInputLatency, d.perInputLatency);
    EXPECT_EQ(e.perInputThroughput, d.perInputThroughput);
}

/** Mixed lane assignment: loads and seeds both vary across lanes, so
 *  a transposed or crossed-lane draw shows up as a mismatch. */
std::vector<sim::BatchPoint>
mixedPoints()
{
    return {{0.05, 99}, {0.4, 99}, {1.0, 99},
            {0.05, 7},  {0.4, 7},  {1.0, 7}};
}

void
expectAllLanesMatchScalar(const SwitchSpec &spec, Pat p,
                          const std::vector<sim::BatchPoint> &pts)
{
    auto batched = runBatched(spec, p, pts);
    ASSERT_EQ(batched.size(), pts.size());
    for (std::size_t r = 0; r < pts.size(); ++r) {
        SCOPED_TRACE("lane " + std::to_string(r) + " load " +
                     std::to_string(pts[r].load) + " seed " +
                     std::to_string(pts[r].seed));
        expectSame(batched[r], runScalar(spec, p, pts[r]));
    }
}

} // namespace

TEST(BatchSim, LanesBitIdenticalAcrossPatternsAndRadices)
{
    const Pat pats[] = {Pat::Uniform, Pat::Hotspot, Pat::Bursty,
                        Pat::Transpose, Pat::BitComplement, Pat::Trace};
    const std::uint32_t radices[] = {16, 64, 256};

    for (Pat p : pats) {
        for (std::uint32_t radix : radices) {
            SCOPED_TRACE(std::string(patName(p)) + " r" +
                         std::to_string(radix));
            expectAllLanesMatchScalar(hiriseSpec(radix), p,
                                      mixedPoints());
        }
    }
}

TEST(BatchSim, LanesBitIdenticalOnFlat2D)
{
    expectAllLanesMatchScalar(flatSpec(64), Pat::Uniform,
                              mixedPoints());
    // Radix 256 exercises the wide (4-word-row) arbiter kernel path.
    expectAllLanesMatchScalar(flatSpec(256), Pat::Uniform,
                              {{1.0, 99}, {0.4, 7}, {1.0, 3}});
}

TEST(BatchSim, SingleReplicaDegenerateBatch)
{
    expectAllLanesMatchScalar(hiriseSpec(64), Pat::Uniform,
                              {{0.4, 99}});
}

TEST(BatchSim, OddReplicaCountExercisesScalarTail)
{
    // R = 5: one 4-wide draw group plus a scalar-tail lane.
    expectAllLanesMatchScalar(
        hiriseSpec(64), Pat::Uniform,
        {{0.3, 1}, {0.3, 2}, {0.7, 3}, {1.0, 4}, {0.5, 5}});
}

TEST(BatchSim, LanesBitIdenticalWithFaultSchedule)
{
    // Every lane carries its own FaultManager seeded with the lane's
    // seed, so mid-run failures, flaky-link error draws, isolation
    // windows, and forced packet drops must all reproduce the scalar
    // run with that seed bit for bit.
    sim::FaultSchedule sched;
    sched.events.push_back(
        {200, sim::FaultEvent::Kind::FailChannel, 0, 1, 0});
    sched.events.push_back(
        {450, sim::FaultEvent::Kind::RecoverChannel, 0, 1, 0});
    sched.events.push_back(
        {300, sim::FaultEvent::Kind::FailLayer, 2, 0, 0});
    sched.flaky.push_back({1, 3, 0, 0.35});
    sched.maxErrorsPerWindow = 1;
    sched.windowCycles = 32;
    sched.recoveryCycles = 48;

    auto spec = hiriseSpec(64);
    auto pts = mixedPoints();
    std::vector<std::shared_ptr<TrafficPattern>> pats;
    for (std::size_t r = 0; r < pts.size(); ++r)
        pats.push_back(makePattern(Pat::Uniform, spec.radix));
    sim::BatchSim s(spec, baseConfig(), std::move(pats), pts);
    s.setFaultSchedule(sched);
    auto batched = s.run();

    ASSERT_EQ(batched.size(), pts.size());
    for (std::size_t r = 0; r < pts.size(); ++r) {
        SCOPED_TRACE("lane " + std::to_string(r) + " load " +
                     std::to_string(pts[r].load) + " seed " +
                     std::to_string(pts[r].seed));
        sim::SimConfig cfg = baseConfig();
        cfg.injectionRate = pts[r].load;
        cfg.seed = pts[r].seed;
        sim::NetworkSim scalar(spec, cfg,
                               makePattern(Pat::Uniform, spec.radix));
        scalar.setFaultSchedule(sched);
        expectSame(batched[r], scalar.run());
        EXPECT_EQ(s.faultManager(r).totalLinkErrors(),
                  scalar.faultManager().totalLinkErrors());
        EXPECT_EQ(s.faultManager(r).totalIsolations(),
                  scalar.faultManager().totalIsolations());
    }
}

TEST(BatchSim, BitIdenticalOnEverySimdTier)
{
    const auto native = simd::activeTier();
    for (auto tier : {simd::Tier::Scalar, simd::Tier::Avx2}) {
        simd::forceTier(tier);
        SCOPED_TRACE(std::string("tier ") +
                     simd::tierName(simd::activeTier()));
        expectAllLanesMatchScalar(hiriseSpec(64), Pat::Uniform,
                                  mixedPoints());
    }
    simd::forceTier(native);
}

TEST(BatchSim, RunPointsCachedMatchesScalarAndPopulatesCache)
{
    const SwitchSpec spec = hiriseSpec(64);
    const sim::SimConfig base = baseConfig();
    auto make = [&] { return makePattern(Pat::Uniform, spec.radix); };

    // Batching is opt-in; pin 8 lanes for this test and restore after.
    struct Lanes
    {
        std::uint32_t before = sim::batchReplicas();
        Lanes() { sim::setBatchReplicas(8); }
        ~Lanes() { sim::setBatchReplicas(before); }
    } lanes;

    std::vector<sim::RunPoint> pts;
    // Spans both routing regimes: loads at/below the heap-rate ceiling
    // run scalar inside runPointsCached, the rest batch.
    for (double load : {0.05, 0.125, 0.2, 0.4, 0.7, 1.0})
        for (std::uint64_t seed : {99ull, 7ull})
            pts.push_back({load, seed});

    sim::SimCache cache;
    sim::CampaignOptions opt;
    opt.cache = &cache;
    auto got = runPointsCached(spec, base, make, pts, opt);
    ASSERT_EQ(got.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectSame(got[i],
                   runScalar(spec, Pat::Uniform,
                             {pts[i].load, pts[i].seed}));
    }

    // Second evaluation must be served entirely from the cache and
    // repeat the same results.
    auto again = runPointsCached(spec, base, make, pts, opt);
    for (std::size_t i = 0; i < pts.size(); ++i)
        expectSame(again[i], got[i]);
}

TEST(BatchSim, DestRow4MatchesFourScalarDrawsOnEveryTier)
{
    // The quad destination hook must be bit-identical to four destAt
    // calls for every memoryless pattern and on every dispatch tier
    // (UniformRandom overrides it with the SIMD kernel; the rest
    // inherit the looping default or a broadcast override).
    const Pat pats[] = {Pat::Uniform, Pat::Hotspot, Pat::Transpose,
                        Pat::BitComplement};
    const std::uint32_t radix = 64;
    const auto native = simd::activeTier();
    for (auto tier : {simd::Tier::Scalar, simd::Tier::Avx2}) {
        simd::forceTier(tier);
        for (Pat p : pats) {
            SCOPED_TRACE(std::string(patName(p)) + " tier " +
                         simd::tierName(simd::activeTier()));
            auto pat = makePattern(p, radix);
            ASSERT_TRUE(pat->memoryless());
            const std::uint64_t test_seeds[] = {99, shardSeed(99, 3)};
            for (std::uint64_t seed : test_seeds) {
                for (std::uint32_t src0 : {0u, 16u, radix - 4}) {
                    std::uint64_t keys[4];
                    for (std::uint32_t j = 0; j < 4; ++j) {
                        keys[j] = counterKey(
                            seed, TrafficPattern::lane(
                                      src0 + j,
                                      TrafficPattern::kLaneDest));
                    }
                    for (std::uint64_t cycle : {0ull, 1ull, 977ull}) {
                        std::uint32_t got[4];
                        pat->destRow4(src0, cycle, seed, keys, got);
                        for (std::uint32_t j = 0; j < 4; ++j) {
                            EXPECT_EQ(got[j], pat->destAt(src0 + j,
                                                          cycle, seed))
                                << "src0 " << src0 << " cycle " << cycle
                                << " lane " << j;
                        }
                    }
                }
            }
        }
    }
    simd::forceTier(native);
}

TEST(BatchSim, BatchKnobRoundTrip)
{
    const std::uint32_t before = sim::batchReplicas();
    sim::setBatchReplicas(3);
    EXPECT_EQ(sim::batchReplicas(), 3u);
    sim::setBatchReplicas(0); // disables batching
    EXPECT_EQ(sim::batchReplicas(), 0u);
    sim::setBatchReplicas(1000); // clamped
    EXPECT_EQ(sim::batchReplicas(), 64u);
    sim::setBatchReplicas(before);
}
