/**
 * @file
 * The benchmark's correctness gate. Simulated outputs are checked for
 * bit-identity, not accuracy: every operation's canonical bytes
 * (svc::resultRow rows) must equal those of an independent reference
 * path, and the digest over all of them must equal the digest recorded
 * for the seed in reference.json (when one is recorded).
 */

#ifndef HIRISE_E2EBENCH_GATE_HH
#define HIRISE_E2EBENCH_GATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/network_sim.hh"

namespace e2e {

/** FNV-1a 64 over the ops, each followed by a newline. */
std::uint64_t opsDigest(const std::vector<std::string> &ops);

std::string hex64(std::uint64_t v);

/** Ops of @p got that differ from the same-index op of @p ref; a
 *  length difference counts every unmatched op as failed. */
std::size_t countMismatches(const std::vector<std::string> &got,
                            const std::vector<std::string> &ref);

/** Bitwise equality of every SimResult field (doubles compared by
 *  representation, so -0.0 != 0.0 and NaN == NaN of the same bits). */
bool resultsIdentical(const hirise::sim::SimResult &a,
                      const hirise::sim::SimResult &b);

} // namespace e2e

#endif // HIRISE_E2EBENCH_GATE_HH
