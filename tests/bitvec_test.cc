/**
 * @file
 * Unit tests for the word-parallel BitVec underlying the arbitration
 * hot path, including cross-checks against a std::vector<bool> model
 * at sizes that straddle word boundaries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bitvec.hh"
#include "common/random.hh"
#include "common/simd.hh"

using namespace hirise;

TEST(BitVec, StartsEmpty)
{
    BitVec b(130);
    EXPECT_EQ(b.size(), 130u);
    EXPECT_EQ(b.numWords(), 3u);
    EXPECT_TRUE(b.none());
    EXPECT_FALSE(b.any());
    EXPECT_EQ(b.count(), 0u);
    EXPECT_EQ(b.firstSet(), BitVec::kNpos);
}

TEST(BitVec, SetResetTestAcrossWordBoundaries)
{
    BitVec b(130);
    for (std::uint32_t i : {0u, 63u, 64u, 127u, 128u, 129u}) {
        EXPECT_FALSE(b[i]);
        b.set(i);
        EXPECT_TRUE(b[i]);
    }
    EXPECT_EQ(b.count(), 6u);
    b.reset(64);
    EXPECT_FALSE(b[64]);
    EXPECT_EQ(b.count(), 5u);
    b.assign(64, true);
    EXPECT_TRUE(b[64]);
    b.clear();
    EXPECT_TRUE(b.none());
}

TEST(BitVec, FillMasksTailBits)
{
    BitVec b(70);
    b.fill();
    EXPECT_EQ(b.count(), 70u);
    for (std::uint32_t i = 0; i < 70; ++i)
        EXPECT_TRUE(b[i]);
    // The 58 tail bits of word 1 must stay zero or count() would lie.
    EXPECT_EQ(b.words()[1], (BitVec::Word(1) << 6) - 1);
}

TEST(BitVec, FirstAndNextSetIteration)
{
    BitVec b(200);
    for (std::uint32_t i : {3u, 64u, 65u, 199u})
        b.set(i);
    EXPECT_EQ(b.firstSet(), 3u);
    EXPECT_EQ(b.nextSet(3), 64u);
    EXPECT_EQ(b.nextSet(64), 65u);
    EXPECT_EQ(b.nextSet(65), 199u);
    EXPECT_EQ(b.nextSet(199), BitVec::kNpos);

    std::vector<std::uint32_t> seen;
    b.forEachSet([&](std::uint32_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{3, 64, 65, 199}));
}

TEST(BitVec, WordParallelOps)
{
    BitVec a(100), b(100);
    a.set(1);
    a.set(70);
    a.set(99);
    b.set(70);
    b.set(99);
    b.set(2);

    BitVec x = a;
    x &= b;
    EXPECT_EQ(x.count(), 2u);
    EXPECT_TRUE(x[70]);
    EXPECT_TRUE(x[99]);

    BitVec y = a;
    y |= b;
    EXPECT_EQ(y.count(), 4u);

    BitVec z = a;
    z.andNot(b);
    EXPECT_EQ(z.count(), 1u);
    EXPECT_TRUE(z[1]);

    EXPECT_TRUE(a.intersects(b));
    EXPECT_FALSE(z.intersects(b));
    EXPECT_TRUE(a == a);
    EXPECT_FALSE(a == b);
}

TEST(BitVec, CopyFromReusesCapacity)
{
    BitVec a(64), b(64);
    a.set(5);
    a.set(63);
    b.copyFrom(a);
    EXPECT_TRUE(b == a);
    a.reset(5);
    EXPECT_TRUE(b[5]); // deep copy, not aliasing
}

TEST(BitVec, MatchesVectorBoolModelUnderRandomOps)
{
    for (std::uint32_t n : {1u, 63u, 64u, 65u, 128u, 257u}) {
        BitVec b(n);
        std::vector<bool> m(n, false);
        Rng rng(n);
        for (int t = 0; t < 2000; ++t) {
            std::uint32_t i = static_cast<std::uint32_t>(rng.below(n));
            bool v = rng.bernoulli(0.5);
            b.assign(i, v);
            m[i] = v;
        }
        std::uint32_t count = 0, first = BitVec::kNpos;
        for (std::uint32_t i = 0; i < n; ++i) {
            ASSERT_EQ(b[i], m[i]) << "n=" << n << " bit " << i;
            if (m[i]) {
                ++count;
                if (first == BitVec::kNpos)
                    first = i;
            }
        }
        EXPECT_EQ(b.count(), count);
        EXPECT_EQ(b.firstSet(), first);
    }
}

// ---------------------------------------------------------------------
// SIMD dispatch layer (common/simd.hh)
// ---------------------------------------------------------------------

namespace {

/** Run @p fn once per dispatch tier the build/host supports, then
 *  restore the native tier. forceTier clamps unsupported tiers down
 *  to the best the build (HIRISE_SIMD=OFF) or host provides, so the
 *  loop body can only ever see supported tiers. */
template <typename Fn>
void
forEachTier(Fn fn)
{
    const simd::Tier native = simd::activeTier();
    for (simd::Tier t : {simd::Tier::Scalar, simd::Tier::Avx2}) {
        simd::forceTier(t);
        fn(simd::activeTier());
    }
    simd::forceTier(native);
}

std::vector<simd::Word>
randomWords(Rng &rng, std::size_t n)
{
    std::vector<simd::Word> w(n);
    for (auto &x : w)
        x = rng.next();
    return w;
}

} // namespace

TEST(Simd, ForceTierRoundTrip)
{
    const simd::Tier native = simd::activeTier();
    simd::forceTier(simd::Tier::Scalar);
    EXPECT_EQ(simd::activeTier(), simd::Tier::Scalar);
    EXPECT_FALSE(simd::avx2());
    simd::forceTier(simd::Tier::Avx2); // clamped if unsupported
    EXPECT_TRUE(simd::activeTier() == simd::Tier::Avx2 ||
                simd::activeTier() == simd::Tier::Scalar);
    EXPECT_STRNE(simd::tierName(simd::activeTier()), "");
    simd::forceTier(native);
    EXPECT_EQ(simd::activeTier(), native);
}

TEST(Simd, WordKernelsMatchScalarReferenceOnEveryTier)
{
    // Word counts straddle the 4-word AVX2 vector width several times
    // (0..17) so every vector body and every scalar tail length runs.
    Rng rng(1);
    for (std::size_t n = 0; n <= 17; ++n) {
        const auto a0 = randomWords(rng, n);
        const auto b = randomWords(rng, n);
        forEachTier([&](simd::Tier) {
            auto d = a0;
            simd::zeroWords(d.data(), n);
            EXPECT_TRUE(std::all_of(d.begin(), d.end(),
                                    [](simd::Word w) { return !w; }));
            simd::copyWords(d.data(), a0.data(), n);
            EXPECT_EQ(d, a0);
            simd::andWords(d.data(), b.data(), n);
            for (std::size_t k = 0; k < n; ++k)
                EXPECT_EQ(d[k], a0[k] & b[k]);
            d = a0;
            simd::orWords(d.data(), b.data(), n);
            for (std::size_t k = 0; k < n; ++k)
                EXPECT_EQ(d[k], a0[k] | b[k]);
            d = a0;
            simd::andNotWords(d.data(), b.data(), n);
            for (std::size_t k = 0; k < n; ++k)
                EXPECT_EQ(d[k], a0[k] & ~b[k]);
            EXPECT_EQ(simd::anyWord(a0.data(), n), n > 0);
            std::vector<simd::Word> z(n, 0);
            EXPECT_FALSE(simd::anyWord(z.data(), n));
            if (n) {
                z[n - 1] = 1; // only the tail word set
                EXPECT_TRUE(simd::anyWord(z.data(), n));
            }
        });
    }
}

TEST(Simd, LosingAnyMatchesBitLevelDominanceOnEveryTier)
{
    // Naive reference: candidate i loses iff some bit j != i has
    // req[j] set and priority row bit j clear.
    Rng rng(2);
    for (std::size_t n : {1u, 2u, 4u, 5u, 8u, 9u, 16u, 17u}) {
        for (int trial = 0; trial < 50; ++trial) {
            const auto req = randomWords(rng, n);
            const auto row = randomWords(rng, n);
            const std::uint32_t nbits =
                static_cast<std::uint32_t>(n) * 64;
            const std::uint32_t self =
                static_cast<std::uint32_t>(rng.below(nbits));
            bool naive = false;
            for (std::uint32_t j = 0; j < nbits; ++j) {
                if (j == self)
                    continue;
                bool r = (req[j / 64] >> (j % 64)) & 1u;
                bool p = (row[j / 64] >> (j % 64)) & 1u;
                if (r && !p) {
                    naive = true;
                    break;
                }
            }
            forEachTier([&](simd::Tier t) {
                EXPECT_EQ(simd::losingAny(req.data(), row.data(), n,
                                          self / 64,
                                          simd::Word(1) << (self % 64)),
                          naive)
                    << "n=" << n << " self=" << self
                    << " tier=" << simd::tierName(t);
            });
        }
    }
}

TEST(Simd, GatherNonSentinelMatchesScalarScanOnEveryTier)
{
    // Odd lengths straddle the 8- and 16-lane vector widths; the
    // kernel must emit the surviving indices ascending (the fabric's
    // request-binning order — and with it phase-1 picks — depends on
    // that).
    constexpr std::uint32_t kSentinel = ~0u;
    Rng rng(3);
    for (std::uint32_t n :
         {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 33u, 100u}) {
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<std::uint32_t> v(n);
            std::vector<std::uint32_t> want;
            for (std::uint32_t i = 0; i < n; ++i) {
                if (rng.bernoulli(0.4)) {
                    v[i] = static_cast<std::uint32_t>(rng.below(1000));
                    want.push_back(i);
                } else {
                    v[i] = kSentinel;
                }
            }
            forEachTier([&](simd::Tier t) {
                std::vector<std::uint32_t> out(n + 1, 0xdeadbeefu);
                std::uint32_t m = simd::gatherNonSentinelU32(
                    v.data(), n, kSentinel, out.data());
                ASSERT_EQ(m, want.size())
                    << "n=" << n << " tier=" << simd::tierName(t);
                for (std::uint32_t k = 0; k < m; ++k)
                    EXPECT_EQ(out[k], want[k])
                        << "n=" << n << " k=" << k
                        << " tier=" << simd::tierName(t);
            });
        }
    }
}

TEST(Simd, MinU32MatchesScalarReductionOnEveryTier)
{
    Rng rng(4);
    for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 65u}) {
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<std::uint32_t> v(n);
            std::uint32_t want = ~0u;
            for (auto &x : v) {
                x = static_cast<std::uint32_t>(rng.next());
                want = std::min(want, x);
            }
            forEachTier([&](simd::Tier t) {
                EXPECT_EQ(simd::minU32(v.data(), n), want)
                    << "n=" << n << " tier=" << simd::tierName(t);
            });
        }
    }
}

TEST(Simd, EqBitsU32MatchesScalarMaskBuildOnEveryTier)
{
    // Lengths cover every chunk shape (8/16-lane bodies, odd tails,
    // and word-boundary straddles at 64); the kernel owns all
    // ceil(n/64) output words, so stale set bits must be erased.
    Rng rng(5);
    for (std::size_t n :
         {1u, 7u, 8u, 9u, 16u, 17u, 63u, 64u, 65u, 130u}) {
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<std::uint32_t> v(n);
            for (auto &x : v)
                x = static_cast<std::uint32_t>(rng.below(4));
            const std::uint32_t value =
                static_cast<std::uint32_t>(rng.below(4));
            const std::size_t nwords = (n + 63) / 64;
            forEachTier([&](simd::Tier t) {
                std::vector<simd::Word> got(nwords, ~simd::Word(0));
                simd::eqBitsU32(v.data(), n, value, got.data());
                for (std::size_t i = 0; i < n; ++i) {
                    bool bit = (got[i / 64] >> (i % 64)) & 1u;
                    EXPECT_EQ(bit, v[i] == value)
                        << "n=" << n << " i=" << i
                        << " tier=" << simd::tierName(t);
                }
                // Tail bits beyond n stay clear.
                if (n % 64)
                    EXPECT_EQ(got[nwords - 1] >>
                                  (n % 64),
                              simd::Word(0))
                        << "n=" << n << " tier=" << simd::tierName(t);
            });
        }
    }
}

TEST(Simd, HalveU32MatchesScalarShiftOnEveryTier)
{
    Rng rng(6);
    for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 16u, 17u, 129u}) {
        std::vector<std::uint32_t> v0(n);
        for (auto &x : v0)
            x = static_cast<std::uint32_t>(rng.next());
        forEachTier([&](simd::Tier t) {
            auto v = v0;
            simd::halveU32(v.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(v[i], v0[i] >> 1)
                    << "n=" << n << " i=" << i
                    << " tier=" << simd::tierName(t);
        });
    }
}

TEST(Simd, AccumulateFlagsMatchesScalarLoopOnEveryTier)
{
    Rng rng(7);
    for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 9u, 31u, 64u}) {
        for (std::uint64_t scale : {1ull, 7ull, 1ull << 40}) {
            std::vector<std::uint8_t> flags(n);
            std::vector<std::uint64_t> acc0(n);
            for (std::size_t i = 0; i < n; ++i) {
                flags[i] = rng.bernoulli(0.5) ? 1 : 0;
                acc0[i] = rng.next();
            }
            forEachTier([&](simd::Tier t) {
                auto acc = acc0;
                simd::accumulateFlagsU64(acc.data(), flags.data(), n,
                                         scale);
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_EQ(acc[i],
                              acc0[i] + (flags[i] ? scale : 0))
                        << "n=" << n << " i=" << i << " scale=" << scale
                        << " tier=" << simd::tierName(t);
            });
        }
    }
}
