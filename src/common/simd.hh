/**
 * @file
 * Explicit SIMD kernels for the arbitration and simulation hot
 * paths, with a scalar fallback that is always compiled and a
 * runtime-dispatched AVX2 tier.
 *
 * Build gating: the HIRISE_SIMD CMake option (ON by default) defines
 * HIRISE_SIMD_ENABLED; together with an x86-64 target that compiles
 * the AVX2 bodies (per-function `target("avx2")` attributes, so the
 * rest of the binary stays portable). At runtime activeTier() probes
 * __builtin_cpu_supports once and caches the answer;
 * HIRISE_SIMD_FORCE_TIER=scalar|avx2 pins a tier (clamped to what
 * build + host support) for same-host A/B runs. Any other value of
 * HIRISE_SIMD_FORCE_TIER is ignored and the probe decides.
 *
 * Determinism contract: every kernel computes the exact same bits as
 * its scalar counterpart (same word ops), so tier selection can
 * never change a simulated outcome — only how many lanes are
 * processed per instruction. tests/bitvec_test.cc
 * compares the tiers word for word.
 */

#ifndef HIRISE_COMMON_SIMD_HH
#define HIRISE_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>

#if defined(HIRISE_SIMD_ENABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define HIRISE_SIMD_AVX2_COMPILED 1
#include <immintrin.h>
#endif

namespace hirise::simd {

using Word = std::uint64_t;

enum class Tier : std::uint8_t
{
    Scalar = 0,
    Avx2 = 1,
};

/** Highest tier this build + host supports; resolved once per process
 *  (cpuid probe + HIRISE_SIMD_FORCE_TIER check, cached). */
Tier activeTier();

const char *tierName(Tier t);

/** Test hook: pin the dispatch tier (clamped down to what the
 *  build/host/environment supports). Not thread-safe against
 *  concurrent kernel calls; call it between runs only. */
void forceTier(Tier t);

/** The AVX2 tier is active. */
inline bool
avx2()
{
    return activeTier() >= Tier::Avx2;
}

// ---------------------------------------------------------------------
// Word-array kernels (BitVec storage: little-endian uint64 words)
// ---------------------------------------------------------------------

inline void
zeroWordsScalar(Word *dst, std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] = 0;
}

inline void
copyWordsScalar(Word *dst, const Word *src, std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] = src[k];
}

inline void
andWordsScalar(Word *dst, const Word *src, std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] &= src[k];
}

inline void
orWordsScalar(Word *dst, const Word *src, std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] |= src[k];
}

inline void
andNotWordsScalar(Word *dst, const Word *src, std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] &= ~src[k];
}

inline bool
anyWordScalar(const Word *src, std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k)
        if (src[k])
            return true;
    return false;
}

/**
 * Matrix-arbiter dominance test: does any requestor other than the
 * candidate itself outrank it? True iff (req & ~row) has a set bit
 * besides the candidate's own (word @p self_word, mask @p self_mask).
 * This is the inner loop of arb::MatrixArbiter::pick().
 */
inline bool
losingAnyScalar(const Word *req, const Word *row, std::size_t n,
                std::size_t self_word, Word self_mask)
{
    for (std::size_t w = 0; w < n; ++w) {
        Word losing = req[w] & ~row[w];
        if (w == self_word)
            losing &= ~self_mask;
        if (losing)
            return true;
    }
    return false;
}

#ifdef HIRISE_SIMD_AVX2_COMPILED

__attribute__((target("avx2"))) inline void
zeroWordsAvx2(Word *dst, std::size_t n)
{
    std::size_t k = 0;
    const __m256i z = _mm256_setzero_si256();
    for (; k + 4 <= n; k += 4)
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + k), z);
    for (; k < n; ++k)
        dst[k] = 0;
}

__attribute__((target("avx2"))) inline void
copyWordsAvx2(Word *dst, const Word *src, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + k),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(src + k)));
    }
    for (; k < n; ++k)
        dst[k] = src[k];
}

__attribute__((target("avx2"))) inline void
andWordsAvx2(Word *dst, const Word *src, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + k));
        __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + k));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + k),
                            _mm256_and_si256(d, s));
    }
    for (; k < n; ++k)
        dst[k] &= src[k];
}

__attribute__((target("avx2"))) inline void
orWordsAvx2(Word *dst, const Word *src, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + k));
        __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + k));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + k),
                            _mm256_or_si256(d, s));
    }
    for (; k < n; ++k)
        dst[k] |= src[k];
}

__attribute__((target("avx2"))) inline void
andNotWordsAvx2(Word *dst, const Word *src, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + k));
        __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + k));
        // vpandn computes ~a & b, so src is the first operand.
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + k),
                            _mm256_andnot_si256(s, d));
    }
    for (; k < n; ++k)
        dst[k] &= ~src[k];
}

__attribute__((target("avx2"))) inline bool
anyWordAvx2(const Word *src, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + k));
        if (!_mm256_testz_si256(s, s))
            return true;
    }
    for (; k < n; ++k)
        if (src[k])
            return true;
    return false;
}

__attribute__((target("avx2"))) inline bool
losingAnyAvx2(const Word *req, const Word *row, std::size_t n,
              std::size_t self_word, Word self_mask)
{
    std::size_t w = 0;
    for (; w + 4 <= n; w += 4) {
        __m256i r = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(req + w));
        __m256i p = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(row + w));
        __m256i losing = _mm256_andnot_si256(p, r);
        if (self_word >= w && self_word < w + 4) {
            alignas(32) Word m[4] = {~Word(0), ~Word(0), ~Word(0),
                                     ~Word(0)};
            m[self_word - w] = ~self_mask;
            losing = _mm256_and_si256(
                losing,
                _mm256_load_si256(reinterpret_cast<const __m256i *>(m)));
        }
        if (!_mm256_testz_si256(losing, losing))
            return true;
    }
    for (; w < n; ++w) {
        Word losing = req[w] & ~row[w];
        if (w == self_word)
            losing &= ~self_mask;
        if (losing)
            return true;
    }
    return false;
}

#endif // HIRISE_SIMD_AVX2_COMPILED

// Dispatching fronts. The tier test is one cached load + predictable
// branch; callers in per-candidate loops should hoist the tier test
// themselves and call the *Scalar/*Avx2 variants directly.

inline void
zeroWords(Word *dst, std::size_t n)
{
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return zeroWordsAvx2(dst, n);
#endif
    zeroWordsScalar(dst, n);
}

inline void
copyWords(Word *dst, const Word *src, std::size_t n)
{
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return copyWordsAvx2(dst, src, n);
#endif
    copyWordsScalar(dst, src, n);
}

inline void
andWords(Word *dst, const Word *src, std::size_t n)
{
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return andWordsAvx2(dst, src, n);
#endif
    andWordsScalar(dst, src, n);
}

inline void
orWords(Word *dst, const Word *src, std::size_t n)
{
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return orWordsAvx2(dst, src, n);
#endif
    orWordsScalar(dst, src, n);
}

inline void
andNotWords(Word *dst, const Word *src, std::size_t n)
{
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return andNotWordsAvx2(dst, src, n);
#endif
    andNotWordsScalar(dst, src, n);
}

inline bool
anyWord(const Word *src, std::size_t n)
{
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return anyWordAvx2(src, n);
#endif
    return anyWordScalar(src, n);
}

inline bool
losingAny(const Word *req, const Word *row, std::size_t n,
          std::size_t self_word, Word self_mask)
{
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return losingAnyAvx2(req, row, n, self_word, self_mask);
#endif
    return losingAnyScalar(req, row, n, self_word, self_mask);
}

// ---------------------------------------------------------------------
// u32-lane kernels for the two-phase arbitration hot path
// (fabric/hirise.cc, arb/sub_block_arbiter.cc, arb/class_counter.hh)
// ---------------------------------------------------------------------

/**
 * Compact the indices i in [0, n) with v[i] != sentinel into @p out
 * (ascending), returning the count. Phase-1 request collection: the
 * dense request vector is mostly kNoRequest below saturation, and the
 * downstream binning wants just the requesting inputs.
 * @p out must have room for n entries.
 */
inline std::uint32_t
gatherNonSentinelU32Scalar(const std::uint32_t *v, std::uint32_t n,
                           std::uint32_t sentinel, std::uint32_t *out)
{
    std::uint32_t c = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (v[i] != sentinel)
            out[c++] = i;
    }
    return c;
}

/** Minimum of v[0..n); ~0u when n == 0. CLRG best-class reduction. */
inline std::uint32_t
minU32Scalar(const std::uint32_t *v, std::size_t n)
{
    std::uint32_t best = ~0u;
    for (std::size_t i = 0; i < n; ++i)
        best = v[i] < best ? v[i] : best;
    return best;
}

/** Bitmask of positions with v[i] == value, written to
 *  ceil(n/64) words of @p out (tail bits zero). CLRG class-equality
 *  mask over BitVec word storage. */
inline void
eqBitsU32Scalar(const std::uint32_t *v, std::size_t n,
                std::uint32_t value, Word *out)
{
    for (std::size_t w = 0; w < (n + 63) / 64; ++w)
        out[w] = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (v[i] == value)
            out[i / 64] |= Word(1) << (i % 64);
    }
}

/** v[i] >>= 1 for all i: the CLRG bank-wide halve-on-saturation. */
inline void
halveU32Scalar(std::uint32_t *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] >>= 1;
}

/** acc[i] += scale where flags[i] != 0: the per-channel busy-cycle
 *  accumulation of beginArbitrate()/advanceIdle(). */
inline void
accumulateFlagsU64Scalar(std::uint64_t *acc, const std::uint8_t *flags,
                         std::size_t n, std::uint64_t scale)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (flags[i])
            acc[i] += scale;
    }
}

#ifdef HIRISE_SIMD_AVX2_COMPILED

__attribute__((target("avx2"))) inline std::uint32_t
gatherNonSentinelU32Avx2(const std::uint32_t *v, std::uint32_t n,
                         std::uint32_t sentinel, std::uint32_t *out)
{
    std::uint32_t c = 0;
    const __m256i sent =
        _mm256_set1_epi32(static_cast<int>(sentinel));
    std::uint32_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i));
        unsigned keep =
            0xffu & ~static_cast<unsigned>(_mm256_movemask_ps(
                        _mm256_castsi256_ps(
                            _mm256_cmpeq_epi32(x, sent))));
        while (keep) {
            out[c++] = i + static_cast<std::uint32_t>(
                               __builtin_ctz(keep));
            keep &= keep - 1;
        }
    }
    for (; i < n; ++i) {
        if (v[i] != sentinel)
            out[c++] = i;
    }
    return c;
}

__attribute__((target("avx2"))) inline std::uint32_t
minU32Avx2(const std::uint32_t *v, std::size_t n)
{
    std::size_t i = 0;
    __m256i acc = _mm256_set1_epi32(-1); // unsigned max
    for (; i + 8 <= n; i += 8) {
        acc = _mm256_min_epu32(
            acc, _mm256_loadu_si256(
                     reinterpret_cast<const __m256i *>(v + i)));
    }
    alignas(32) std::uint32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    std::uint32_t best = ~0u;
    for (std::uint32_t lane : lanes)
        best = lane < best ? lane : best;
    for (; i < n; ++i)
        best = v[i] < best ? v[i] : best;
    return best;
}

__attribute__((target("avx2"))) inline void
eqBitsU32Avx2(const std::uint32_t *v, std::size_t n,
              std::uint32_t value, Word *out)
{
    for (std::size_t w = 0; w < (n + 63) / 64; ++w)
        out[w] = 0;
    const __m256i val = _mm256_set1_epi32(static_cast<int>(value));
    std::size_t i = 0;
    // i advances by 8, so a chunk's 8 bits never straddle a word.
    for (; i + 8 <= n; i += 8) {
        __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i));
        unsigned bits = static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(x, val))));
        out[i / 64] |= Word(bits) << (i % 64);
    }
    for (; i < n; ++i) {
        if (v[i] == value)
            out[i / 64] |= Word(1) << (i % 64);
    }
}

__attribute__((target("avx2"))) inline void
halveU32Avx2(std::uint32_t *v, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(v + i),
            _mm256_srli_epi32(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(v + i)),
                1));
    }
    for (; i < n; ++i)
        v[i] >>= 1;
}

__attribute__((target("avx2"))) inline void
accumulateFlagsU64Avx2(std::uint64_t *acc, const std::uint8_t *flags,
                       std::size_t n, std::uint64_t scale)
{
    const __m256i sc =
        _mm256_set1_epi64x(static_cast<long long>(scale));
    const __m256i zero = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        std::uint32_t four;
        __builtin_memcpy(&four, flags + i, 4);
        __m256i f = _mm256_cvtepu8_epi64(
            _mm_cvtsi32_si128(static_cast<int>(four)));
        // All-ones where the flag is set (flags are 0/1).
        __m256i on = _mm256_cmpgt_epi64(f, zero);
        __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + i));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(acc + i),
            _mm256_add_epi64(a, _mm256_and_si256(on, sc)));
    }
    for (; i < n; ++i) {
        if (flags[i])
            acc[i] += scale;
    }
}

#endif // HIRISE_SIMD_AVX2_COMPILED

inline std::uint32_t
gatherNonSentinelU32(const std::uint32_t *v, std::uint32_t n,
                     std::uint32_t sentinel, std::uint32_t *out)
{
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return gatherNonSentinelU32Avx2(v, n, sentinel, out);
#endif
    return gatherNonSentinelU32Scalar(v, n, sentinel, out);
}

inline std::uint32_t
minU32(const std::uint32_t *v, std::size_t n)
{
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return minU32Avx2(v, n);
#endif
    return minU32Scalar(v, n);
}

inline void
eqBitsU32(const std::uint32_t *v, std::size_t n, std::uint32_t value,
          Word *out)
{
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return eqBitsU32Avx2(v, n, value, out);
#endif
    eqBitsU32Scalar(v, n, value, out);
}

inline void
halveU32(std::uint32_t *v, std::size_t n)
{
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return halveU32Avx2(v, n);
#endif
    halveU32Scalar(v, n);
}

inline void
accumulateFlagsU64(std::uint64_t *acc, const std::uint8_t *flags,
                   std::size_t n, std::uint64_t scale)
{
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (avx2())
        return accumulateFlagsU64Avx2(acc, flags, n, scale);
#endif
    accumulateFlagsU64Scalar(acc, flags, n, scale);
}

} // namespace hirise::simd

#endif // HIRISE_COMMON_SIMD_HH
