/**
 * @file
 * Shared pieces of the end-to-end benchmark: host clocks, the
 * in-memory span ledger, the timing decorators' counters, and the
 * workload interface. Everything here observes the simulator from
 * outside, through its public functions; nothing changes a simulated
 * statistic.
 */

#ifndef HIRISE_E2EBENCH_BENCH_HH
#define HIRISE_E2EBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "sim/sweep.hh"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Cheap tick counter for per-call timing inside the decorators (the
 *  TSC on x86-64, ~4x cheaper to read than steady_clock); converted to
 *  ns against steady_clock over each whole re-run. */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(nowNs());
#endif
}

inline double
msSince(std::int64_t t0)
{
    return double(nowNs() - t0) * 1e-6;
}

/** Linear-interpolated quantile (Python statistics "inclusive"
 *  method); 0 for an empty sample. */
double quantile(std::vector<double> v, double q);

/** One recorded call into a layer: name, host-time interval, the span
 *  that caused it, and the counts measured at that boundary. */
struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    std::map<std::string, double> counts;

    double ms() const { return double(t1 - t0) * 1e-6; }
};

/**
 * In-memory span store. Disabled (the untraced runs) it records
 * nothing and costs one branch per call site; enabled, spans are kept
 * until writeJsonl() at the end of the run. Used from the
 * main thread only.
 */
class Ledger
{
  public:
    bool enabled() const { return on_; }
    void enable(bool v) { on_ = v; }

    /** Open a span; returns its id (0 when disabled). */
    std::uint64_t open(std::string name, std::uint64_t parent = 0);
    /** Close span @p id with its boundary counts. */
    void close(std::uint64_t id,
               std::map<std::string, double> counts = {});

    const std::vector<Span> &spans() const { return spans_; }
    bool writeJsonl(const std::string &path,
                    const std::string &context_json) const;

  private:
    bool on_ = false;
    std::vector<Span> spans_; //!< span id i is spans_[i - 1]
};

/** Counts and host time gathered by the timing decorators (timed.hh)
 *  over the traced re-runs of a workload's points. */
struct LayerCounters
{
    std::uint64_t arbCalls = 0;
    std::uint64_t arbTicks = 0;
    std::uint64_t arbRequests = 0; //!< requesting inputs, summed
    std::uint64_t arbGrants = 0;
    std::vector<std::uint32_t> arbSampleTicks; //!< one per call
    std::uint64_t idleCycles = 0; //!< passed to Fabric::advanceIdle
    std::uint64_t trafficCalls = 0;
    std::uint64_t trafficTicks = 0;
    std::uint64_t simTicks = 0;   //!< NetworkSim construction + run
    std::uint64_t simNs = 0;      //!< the same, on steady_clock
    std::uint64_t simCycles = 0;  //!< warmup + measure, summed
    std::uint64_t portCycles = 0; //!< radix x cycles, summed
};

/** What one pass (set-up + timed body) of a workload produced. */
struct PassResult
{
    double setupS = 0.0;
    double wallS = 0.0;
    double peakRssMb = 0.0; //!< resident high-water mark of the pass
    /** Host-time samples of the end-to-end latency metrics. */
    std::vector<double> pointMs, jobMs, firstRowMs;
    /** One entry per attempted operation (a point's canonical row, or
     *  a job's rows joined by newlines), in a fixed order. */
    std::vector<std::string> ops;
};

/** One simulated point, as the scalar engine runs it. */
struct ScalarPoint
{
    hirise::SwitchSpec spec;
    hirise::sim::SimConfig cfg; //!< injectionRate and seed set
    hirise::sim::PatternFactory make;
};

/** Per-layer values, by metric name, from a workload's traced run. */
using LayerMetrics = std::map<std::string, double>;

/**
 * A benchmark workload. The constructor generates every input from
 * the seed; runPass() sets up anew and runs the timed body
 * once. The remaining members serve the correctness gate and the
 * traced run and are never timed as part of a pass.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** @p setup_start: when this pass's set-up began (the first pass
     *  is charged from process start). */
    virtual PassResult runPass(std::int64_t setup_start,
                               Ledger &ledger) = 0;

    /** The ops of a pass, computed on an independent path (scalar
     *  engine, or in-process svc::runCampaign for served jobs). */
    virtual std::vector<std::string> referenceOps() = 0;

    /**
     * Traced run extras: re-run every simulated point once on a
     * scalar NetworkSim built through the injected-fabric constructor
     * with timing decorators, fill the fabric/traffic/sim layer
     * metrics, and count re-runs that are not bit-identical to the
     * untraced results into *mismatches. @p spans holds the traced
     * passes' spans, for the campaign/cache/svc layers.
     */
    virtual LayerMetrics traceLayers(const std::vector<Span> &spans,
                                     std::size_t *mismatches) = 0;

    /** Every distinct point the workload simulates, in op order. */
    virtual std::vector<ScalarPoint> scalarPoints() = 0;

    /** Pool threads the workload's campaign layer runs on. */
    virtual unsigned poolThreads() const = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/** Every per-layer metric with its unit, in report order. */
const std::vector<std::pair<std::string, std::string>> &layerMetricUnits();

/** Layer metrics every workload reports; the ones a workload bypasses
 *  read 0 (see LEDGER.md). */
LayerMetrics emptyLayerMetrics();

/** Fill fabric.* / traffic.* / sim.* from decorator counters. */
void addEngineLayers(const LayerCounters &c, LayerMetrics *m);

} // namespace e2e

#endif // HIRISE_E2EBENCH_BENCH_HH
