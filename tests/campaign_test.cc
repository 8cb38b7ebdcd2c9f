/**
 * @file
 * Campaign-engine determinism tests: the same load sweep, with shared
 * or sharded seeds, must produce bit-identical results for any pool
 * size (1, 2, 8), and runPointsCached's results must not depend on
 * the order its points arrive in.
 */

#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "sim/sweep.hh"
#include "traffic/pattern.hh"

namespace hirise {
namespace {

sim::SimConfig
quickCfg(std::uint64_t seed = 7)
{
    sim::SimConfig cfg;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 1000;
    cfg.seed = seed;
    return cfg;
}

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
hirise64(std::uint32_t channels)
{
    SwitchSpec s;
    s.topo = Topology::HiRise;
    s.radix = 64;
    s.layers = 4;
    s.channels = channels;
    s.arb = ArbScheme::Clrg;
    return s;
}

sim::PatternFactory
uniformFactory(std::uint32_t radix)
{
    return [radix] {
        return std::make_shared<traffic::UniformRandom>(radix);
    };
}

void
expectBitIdentical(const sim::SimResult &a, const sim::SimResult &b)
{
    EXPECT_EQ(a.offeredFlitsPerCycle, b.offeredFlitsPerCycle);
    EXPECT_EQ(a.acceptedFlitsPerCycle, b.acceptedFlitsPerCycle);
    EXPECT_EQ(a.avgLatencyCycles, b.avgLatencyCycles);
    EXPECT_EQ(a.p99LatencyCycles, b.p99LatencyCycles);
    EXPECT_EQ(a.avgQueueingCycles, b.avgQueueingCycles);
    EXPECT_EQ(a.fairness, b.fairness);
    EXPECT_EQ(a.packetsDelivered, b.packetsDelivered);
    EXPECT_EQ(a.inFlightAtMeasureEnd, b.inFlightAtMeasureEnd);
    EXPECT_EQ(a.latencyOverflowPackets, b.latencyOverflowPackets);
    EXPECT_EQ(a.perInputLatency, b.perInputLatency);
    EXPECT_EQ(a.perInputThroughput, b.perInputThroughput);
}

TEST(Campaign, LoadSweepIsThreadCountInvariant)
{
    const std::vector<double> loads{0.05, 0.1, 0.15, 0.2, 0.25};
    const auto spec = hirise64(4);
    const auto cfg = quickCfg();

    // Pool size 1 is the reference; 2 and 8 must match bit for bit.
    // Each run gets a private cache so every point actually executes.
    std::vector<std::vector<sim::SweepPoint>> runs;
    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        sim::SimCache cache(64);
        sim::CampaignOptions opt;
        opt.pool = &pool;
        opt.cache = &cache;
        runs.push_back(sim::loadSweep(spec, cfg, uniformFactory(64),
                                      loads, opt));
        EXPECT_EQ(cache.stats().misses, loads.size());
    }
    for (std::size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].size(), runs[0].size());
        for (std::size_t i = 0; i < loads.size(); ++i) {
            EXPECT_EQ(runs[r][i].load, runs[0][i].load);
            expectBitIdentical(runs[r][i].result, runs[0][i].result);
        }
    }
}

TEST(Campaign, ShardedSeedingIsThreadCountInvariant)
{
    const std::vector<double> loads{0.1, 0.1, 0.1, 0.1};
    const auto spec = flat64();
    const auto cfg = quickCfg();

    std::vector<std::vector<sim::SweepPoint>> runs;
    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        sim::SimCache cache(64);
        sim::CampaignOptions opt;
        opt.pool = &pool;
        opt.cache = &cache;
        opt.shardSeeds = true;
        runs.push_back(sim::loadSweep(spec, cfg, uniformFactory(64),
                                      loads, opt));
    }
    // Shard seeds differ per index, so equal loads give different
    // results within one run...
    EXPECT_NE(runs[0][0].result.acceptedFlitsPerCycle,
              runs[0][1].result.acceptedFlitsPerCycle);
    // ...but each index is identical across thread counts.
    for (std::size_t r = 1; r < runs.size(); ++r)
        for (std::size_t i = 0; i < loads.size(); ++i)
            expectBitIdentical(runs[r][i].result, runs[0][i].result);
}

TEST(Campaign, RunPointsCachedIsSubmissionOrderFree)
{
    // Whatever order the points arrive in, and on a serial loop or a
    // 4-thread pool, result i must be the direct scalar run of point
    // i: no byte may depend on the order work is submitted in.
    const auto spec = hirise64(4);
    const auto cfg = quickCfg();
    const auto make = uniformFactory(64);
    // Seeds 11.. tag the points; ref[seed - 11] is the direct run.
    std::vector<sim::RunPoint> ascending;
    std::vector<sim::SimResult> ref;
    std::uint64_t seed = 11;
    for (double load : {0.05, 0.1, 0.2, 0.4, 0.8, 1.0}) {
        ascending.push_back({load, seed});
        sim::SimConfig one = cfg;
        one.seed = seed++;
        ref.push_back(sim::runAtLoad(spec, one, make, load));
    }

    auto seedsOf = [](const std::vector<sim::RunPoint> &v) {
        std::vector<std::uint64_t> out;
        for (const auto &p : v)
            out.push_back(p.seed);
        return out;
    };
    std::vector<sim::RunPoint> descending(ascending.rbegin(),
                                          ascending.rend());
    std::vector<sim::RunPoint> shuffled = ascending;
    std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(5));
    ASSERT_NE(seedsOf(shuffled), seedsOf(ascending));
    ASSERT_NE(seedsOf(shuffled), seedsOf(descending));

    for (const auto *order : {&ascending, &descending, &shuffled}) {
        for (unsigned threads : {1u, 4u}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            ThreadPool pool(threads);
            sim::SimCache cache(64);
            sim::CampaignOptions opt;
            opt.pool = &pool;
            opt.cache = &cache;
            opt.maxThreads = threads;
            auto got = sim::runPointsCached(spec, cfg, make, *order, opt);
            ASSERT_EQ(got.size(), order->size());
            EXPECT_EQ(cache.stats().misses, order->size());
            for (std::size_t i = 0; i < got.size(); ++i)
                expectBitIdentical(got[i], ref[(*order)[i].seed - 11]);
        }
    }
}

} // namespace
} // namespace hirise
