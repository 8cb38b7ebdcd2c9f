/**
 * @file
 * Unit tests for the common utilities: RNG, statistics, tables, spec.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <stdexcept>

#include "common/parallel.hh"
#include "common/random.hh"
#include "common/spec.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace hirise;

// ---------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    bool differs = false;
    for (int i = 0; i < 64; ++i) {
        auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        auto v = r.below(13);
        ASSERT_LT(v, 13u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 13u); // all values reachable
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(1);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliRate)
{
    Rng r(3);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(hits / double(n), 0.3, 0.01);
}

TEST(Rng, GeometricMean)
{
    Rng r(5);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.geometric(0.25));
    // mean failures before success = (1-p)/p = 3
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

// ---------------------------------------------------------------------
// RunningStat / Histogram / fairness
// ---------------------------------------------------------------------

TEST(RunningStat, Moments)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsSafe)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Histogram, QuantileApproximation)
{
    Histogram h(1.0, 128);
    for (int i = 1; i <= 100; ++i)
        h.add(i);
    EXPECT_NEAR(h.quantile(0.5), 51.0, 2.0);
    EXPECT_NEAR(h.quantile(0.99), 100.0, 2.0);
}

TEST(Histogram, OverflowBinCatchesLargeValues)
{
    Histogram h(1.0, 8);
    h.add(1e9);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.quantile(0.99), 8.0);
}

// Regression: quantile(1.0) used to walk past the cumulative target
// and return the overflow-bin edge (num_bins + 1 bins in), reporting a
// "max latency" no sample ever reached. It must return the highest
// *occupied* bin's upper edge.
TEST(Histogram, QuantileOneReturnsHighestOccupiedEdge)
{
    Histogram h(1.0, 128);
    for (int i = 1; i <= 10; ++i)
        h.add(i);
    // Samples span bins 1..10; the largest sample (10.0) lands in
    // bin 10, whose upper edge is 11.0 — nowhere near bin 129.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 11.0);
    EXPECT_DOUBLE_EQ(h.quantile(2.0), 11.0); // q > 1 clamps the same
}

TEST(Histogram, QuantileOneWithOnlyOverflowSamples)
{
    Histogram h(1.0, 8);
    h.add(100.0);
    // All mass in the overflow bin: its edge is the only honest answer.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 9.0);
}

// Regression: add() cast the raw double to size_t for binning, which
// is undefined behaviour for negative values (and for NaN). Negatives
// must clamp to bin 0 and still be counted.
TEST(Histogram, NegativeSamplesClampToFirstBin)
{
    Histogram h(1.0, 8);
    h.add(-3.5);
    h.add(-1e18);
    h.add(0.5);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.overflowCount(), 0u);
    // All three samples sit in bin 0, so every quantile is its edge.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);
}

TEST(Histogram, OverflowCountAccounting)
{
    Histogram h(1.0, 8);
    h.add(2.0);
    h.add(7.5);
    EXPECT_EQ(h.overflowCount(), 0u);
    h.add(8.0); // first value past the last regular bin
    h.add(1e9);
    EXPECT_EQ(h.overflowCount(), 2u);
    EXPECT_EQ(h.count(), 4u);
}

TEST(Fairness, JainIndex)
{
    EXPECT_DOUBLE_EQ(jainFairness({1, 1, 1, 1}), 1.0);
    EXPECT_NEAR(jainFairness({1, 0, 0, 0}), 0.25, 1e-12);
    EXPECT_DOUBLE_EQ(jainFairness({}), 1.0);
    EXPECT_DOUBLE_EQ(jainFairness({0, 0}), 1.0);
}

// ---------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------

TEST(Table, CsvRoundTrip)
{
    Table t("demo");
    t.header({"a", "b"});
    t.row({"1", "x"});
    t.row({"2", "y"});
    EXPECT_EQ(t.csv(), "a,b\n1,x\n2,y\n");
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(10.0, 0), "10");
    EXPECT_EQ(Table::integer(8192), "8192");
}

// ---------------------------------------------------------------------
// parallelMap
// ---------------------------------------------------------------------

TEST(ParallelMap, PreservesOrderAndCoversAllItems)
{
    std::vector<int> items(200);
    for (int i = 0; i < 200; ++i)
        items[i] = i;
    auto out = parallelMap(items, [](const int &x) { return x * x; });
    ASSERT_EQ(out.size(), 200u);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, EmptyAndSingleThread)
{
    std::vector<int> none;
    EXPECT_TRUE(parallelMap(none, [](const int &x) { return x; })
                    .empty());
    std::vector<int> one{7};
    auto out = parallelMap(
        one, [](const int &x) { return x + 1; }, 1);
    EXPECT_EQ(out[0], 8);
}

TEST(ParallelMap, WorkerExceptionRethrownOnCaller)
{
    std::vector<int> items(64);
    for (int i = 0; i < 64; ++i)
        items[i] = i;
    auto boom = [](const int &x) {
        if (x == 13)
            throw std::runtime_error("worker failed");
        return x;
    };
    EXPECT_THROW(parallelMap(items, boom, 4), std::runtime_error);
    // Serial path propagates too.
    EXPECT_THROW(parallelMap(items, boom, 1), std::runtime_error);
    // A throwing run must not poison later runs.
    auto ok = parallelMap(items, [](const int &x) { return x + 1; }, 4);
    EXPECT_EQ(ok[63], 64);
}

// ---------------------------------------------------------------------
// SwitchSpec
// ---------------------------------------------------------------------

TEST(SwitchSpec, PortsPerLayer)
{
    SwitchSpec s;
    s.topo = Topology::HiRise;
    s.radix = 64;
    s.layers = 4;
    EXPECT_EQ(s.portsPerLayer(), 16u);
    s.layers = 7;
    EXPECT_EQ(s.portsPerLayer(), 10u);
    s.topo = Topology::Flat2D;
    EXPECT_EQ(s.portsPerLayer(), 64u);
}

TEST(SwitchSpec, Names)
{
    SwitchSpec s;
    s.topo = Topology::HiRise;
    s.radix = 64;
    s.layers = 4;
    s.channels = 4;
    s.arb = ArbScheme::Clrg;
    EXPECT_EQ(s.name(), "HiRise r64 L4 c4 CLRG");

    SwitchSpec f;
    f.topo = Topology::Flat2D;
    f.arb = ArbScheme::Lrg;
    f.radix = 64;
    EXPECT_EQ(f.name(), "2D r64 LRG");
}

TEST(SwitchSpec, ValidateAcceptsPaperConfigs)
{
    SwitchSpec s;
    s.topo = Topology::HiRise;
    s.radix = 64;
    s.layers = 4;
    s.channels = 4;
    s.arb = ArbScheme::Clrg;
    s.validate(); // must not die

    SwitchSpec f;
    f.topo = Topology::Flat2D;
    f.arb = ArbScheme::Lrg;
    f.validate();
}

// ---------------------------------------------------------------------
// Counter-based streams (seed-sharded campaign points)
// ---------------------------------------------------------------------

TEST(CounterStream, KeyGridHasNoCollisions)
{
    // Each run draws one stream per (seed, traffic lane). A key
    // collision would make two sharded points flip identical
    // injection coins forever, so every key across a campaign-shaped
    // grid (base seeds x 8 shard-derived seeds x 256 inputs x 3 draw
    // domains) must be distinct.
    std::set<std::uint64_t> keys;
    std::size_t total = 0;
    for (std::uint64_t base : {1ull, 42ull, 0xdeadbeefull}) {
        for (std::uint64_t r = 0; r < 8; ++r) {
            std::uint64_t seed = r == 0 ? base : shardSeed(base, r);
            for (std::uint64_t lane = 0; lane < 256 * 3; ++lane) {
                keys.insert(counterKey(seed, lane));
                ++total;
            }
        }
    }
    EXPECT_EQ(keys.size(), total);
}

TEST(CounterStream, DrawGridHasNoCollisions)
{
    // Dense (lane, tick) window over adjacent shard seeds: all draws
    // distinct, i.e. adjacent lanes and adjacent cycles never share a
    // value in the windows a run actually evaluates.
    std::set<std::uint64_t> draws;
    std::size_t total = 0;
    for (std::uint64_t r = 0; r < 4; ++r) {
        std::uint64_t seed = r == 0 ? 99 : shardSeed(99, r);
        for (std::uint64_t lane = 0; lane < 64; ++lane) {
            std::uint64_t key = counterKey(seed, lane);
            for (std::uint64_t tick = 0; tick < 64; ++tick) {
                draws.insert(counterDrawKeyed(key, tick));
                ++total;
            }
        }
    }
    EXPECT_EQ(draws.size(), total);
}

TEST(CounterStream, KeyedDrawMatchesSplitmixStride)
{
    // Locks the stream algebra:
    // counterDrawKeyed(key, t) == splitmix64(key + kCounterTickMul*t),
    // and the (seed, lane, tick) form factors through counterKey.
    static_assert(counterDraw(1, 2, 3) ==
                  counterDrawKeyed(counterKey(1, 2), 3));
    for (std::uint64_t key :
         {0ull, 7ull, 0x123456789abcdefull, ~0ull}) {
        for (std::uint64_t t : {0ull, 1ull, 5499ull, 1ull << 40}) {
            EXPECT_EQ(counterDrawKeyed(key, t),
                      splitmix64(key + kCounterTickMul * t));
        }
    }
}

TEST(CounterStream, AdjacentLanesAreDecorrelated)
{
    // Neighbouring stream lanes at the same tick should look like
    // independent 64-bit draws: mean Hamming distance near 32 bits.
    double bits = 0;
    int pairs = 0;
    for (std::uint64_t lane = 0; lane + 1 < 64; ++lane) {
        std::uint64_t a = counterKey(42, lane);
        std::uint64_t b = counterKey(42, lane + 1);
        for (std::uint64_t tick = 0; tick < 64; ++tick) {
            bits += std::popcount(counterDrawKeyed(a, tick) ^
                                  counterDrawKeyed(b, tick));
            ++pairs;
        }
    }
    double mean = bits / pairs;
    EXPECT_GT(mean, 30.0);
    EXPECT_LT(mean, 34.0);
}

TEST(CounterStream, SaturationThresholdPassesEveryDraw)
{
    // The virtual-source-queue fast path skips the draw entirely; it
    // is only sound if p >= 1 admits every possible draw.
    EXPECT_EQ(bernoulliThreshold(1.0), 1ull << 53);
    EXPECT_TRUE(counterBernoulli(~0ull, 1.0));
    EXPECT_TRUE(counterBernoulli(0, 1.0));
    EXPECT_FALSE(counterBernoulli(~0ull, 0.999999));
    EXPECT_EQ(bernoulliThreshold(0.0), 0u);
    EXPECT_FALSE(counterBernoulli(0, 0.0));
}
