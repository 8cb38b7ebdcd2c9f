/**
 * @file
 * Compatibility stub: the batched multi-replica engine is gone and
 * every campaign point runs on the scalar NetworkSim.
 */

#ifndef HIRISE_SIM_BATCH_SIM_HH
#define HIRISE_SIM_BATCH_SIM_HH

namespace hirise::sim {

// Exists only for e2ebench; goes in the next benchmark change.
struct BatchSim
{
    static constexpr bool usable() { return false; }
};

} // namespace hirise::sim

#endif // HIRISE_SIM_BATCH_SIM_HH
