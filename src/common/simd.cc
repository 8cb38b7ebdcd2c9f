#include "common/simd.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace hirise::simd {

namespace {

/** Highest tier the build and the host CPU can run, before any
 *  environment pinning. */
Tier
hwTier()
{
#ifdef HIRISE_SIMD_AVX2_COMPILED
    if (__builtin_cpu_supports("avx2"))
        return Tier::Avx2;
#endif
    return Tier::Scalar;
}

Tier
clampTier(Tier t)
{
    const Tier hw = hwTier();
    return t <= hw ? t : hw;
}

Tier
probeTier()
{
    if (const char *e = std::getenv("HIRISE_SIMD_FORCE_TIER");
        e != nullptr) {
        if (std::strcmp(e, "scalar") == 0)
            return Tier::Scalar;
        if (std::strcmp(e, "avx2") == 0)
            return clampTier(Tier::Avx2);
        // Unknown value: fall through to the probe rather than
        // silently running a tier the user did not name.
    }
    return hwTier();
}

std::atomic<Tier> &
tierSlot()
{
    static std::atomic<Tier> t{probeTier()};
    return t;
}

} // namespace

Tier
activeTier()
{
    return tierSlot().load(std::memory_order_relaxed);
}

void
forceTier(Tier t)
{
    // Clamp to what build + host + environment can actually run, so a
    // test asking for avx2 on a scalar-only build or host degrades
    // instead of faulting (and HIRISE_SIMD_FORCE_TIER=scalar still
    // pins everything).
    tierSlot().store(t <= probeTier() ? t : probeTier(),
                     std::memory_order_relaxed);
}

const char *
tierName(Tier t)
{
    switch (t) {
      case Tier::Scalar: return "scalar";
      case Tier::Avx2: return "avx2";
    }
    return "?";
}

} // namespace hirise::simd
