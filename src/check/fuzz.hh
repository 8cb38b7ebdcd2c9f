/**
 * @file
 * Config-fuzzing harness for the simulation core. Samples random
 * SwitchSpec x traffic x seed x fault-set x stepping-mode
 * configurations, runs the optimized simulator and the naive oracle
 * in lockstep (per-cycle grant matrices), a second pure-oracle
 * end-to-end run (bit-exact SimResult), and a third run of the
 * optimized fabric in the opposite stepping mode (dense vs
 * event-driven, also bit-exact), and on any mismatch greedily shrinks
 * the configuration to a minimal reproducer printed as a
 * ready-to-paste gtest case.
 */

#ifndef HIRISE_CHECK_FUZZ_HH
#define HIRISE_CHECK_FUZZ_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/oracle.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "common/spec.hh"
#include "sim/network_sim.hh"

namespace hirise::check {

/** Traffic patterns the fuzzer draws from (all stateless-per-run). */
enum class PatternKind
{
    Uniform,
    Hotspot,
    Transpose,
    BitComplement,
    Bursty,
};

const char *toString(PatternKind p);

/** One failed L2LC (HiRise only). */
struct FaultSpec
{
    std::uint32_t srcLayer = 0;
    std::uint32_t dstLayer = 1;
    std::uint32_t chan = 0;
};

/** Everything needed to reproduce one differential run exactly. */
struct DiffConfig
{
    SwitchSpec spec;
    sim::SimConfig cfg;
    PatternKind pattern = PatternKind::Uniform;
    std::uint32_t hotOutput = 0; //!< Hotspot only
    double meanBurstLen = 4.0;   //!< Bursty only
    std::vector<FaultSpec> faults;
    /** Dynamic fault axis (HiRise only): mid-run fail/recover events
     *  and flaky links with auto-isolation, attached to every pass
     *  via setFaultSchedule. The
     *  Mutation::IsolationThresholdOffByOne mutation flips the
     *  schedule's mutIsolationOffByOne flag on the pure-oracle pass
     *  only (both passes share one FaultManager stream otherwise, so
     *  a shared flag could never diverge). */
    sim::FaultSchedule faultSchedule;
    Mutation mutation = Mutation::None;
    /** SIMD dispatch tier forced for the differential runs (clamped
     *  to the best tier the build and host support, so sampled
     *  configs replay anywhere). Every tier must be bit-identical;
     *  shrinking steps toward Scalar. */
    simd::Tier tier = simd::Tier::Scalar;
};

/** Non-fatal counterpart of SwitchSpec::validate() plus fuzz-side
 *  sanity (pattern/fault ranges); shrink candidates that break it are
 *  discarded instead of exiting the process. */
bool isValid(const DiffConfig &c);

/** One-line human-readable summary of a config. */
std::string describe(const DiffConfig &c);

struct DiffOutcome
{
    bool ok = true;
    /** Arbitration cycle of the first lockstep divergence, or the
     *  total cycle count for an end-of-run SimResult divergence. */
    std::uint64_t mismatchCycle = 0;
    std::string detail;
};

/**
 * Run @p c three ways: the optimized fabric in lockstep with the
 * oracle (compared every cycle), the whole simulation on the pure
 * oracle (final SimResult compared bit-exactly), and — when the
 * mutation is off, so the first pass defines a trusted result — the
 * optimized fabric again in the opposite stepping mode
 * (c.cfg.denseStepping flipped), whose SimResult must also match
 * bit-exactly.
 */
DiffOutcome runDifferential(const DiffConfig &c);

/** Draw one random (valid) configuration. */
DiffConfig sampleConfig(Rng &rng);

/** Greedily minimize @p failing while runDifferential still fails. */
DiffConfig shrink(const DiffConfig &failing);

/** Render @p c as a ready-to-paste gtest test case. */
std::string toGtestRepro(const DiffConfig &c);

struct FuzzOptions
{
    std::uint64_t configs = 200;
    std::uint64_t seed = 1;
    Mutation mutation = Mutation::None;
    bool shrinkOnFailure = true;
    bool verbose = false;
    /** parallelMap max_threads for the differential runs: 0 = the
     *  shared campaign pool, 1 = serial. Configs are always sampled
     *  sequentially from one Rng stream, so the config sequence and
     *  the first reported mismatch are thread-count invariant. */
    unsigned threads = 0;
};

struct FuzzReport
{
    std::uint64_t configsRun = 0;
    bool mismatchFound = false;
    DiffConfig failing;  //!< shrunk when FuzzOptions::shrinkOnFailure
    DiffOutcome outcome; //!< outcome of @ref failing
    std::string repro;   //!< gtest case reproducing @ref failing
};

/** Sample-and-check loop; stops at the first mismatch. */
FuzzReport runFuzz(const FuzzOptions &opt);

} // namespace hirise::check

#endif // HIRISE_CHECK_FUZZ_HH
