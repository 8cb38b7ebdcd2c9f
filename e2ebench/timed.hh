/**
 * @file
 * Timing decorators for the traced re-runs. TimedFabric wraps the
 * fabric built by fabric::makeFabric(spec) and TimedPattern wraps a
 * traffic pattern; both forward every virtual to the wrapped object,
 * so the simulator takes the same code paths and produces the same
 * SimResult (checked by selftest.cc and by every traced run). They
 * only count calls and read the host clock around the hot ones.
 *
 * TrafficPattern::nextInjectionFrom is not virtual: the event core's
 * injection scan runs inline in NetworkSim and is charged to sim self
 * time, not to traffic.
 */

#ifndef HIRISE_E2EBENCH_TIMED_HH
#define HIRISE_E2EBENCH_TIMED_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.hh"
#include "fabric/fabric.hh"
#include "sim/network_sim.hh"
#include "traffic/pattern.hh"

namespace e2e {

class TimedFabric final : public hirise::fabric::Fabric
{
  public:
    TimedFabric(std::unique_ptr<hirise::fabric::Fabric> inner,
                LayerCounters &c)
        : Fabric(inner->spec()), inner_(std::move(inner)), c_(c)
    {}

    const hirise::BitVec &
    arbitrate(std::span<const std::uint32_t> req) override
    {
        std::uint64_t t0 = ticks();
        const hirise::BitVec &g = inner_->arbitrate(req);
        std::uint64_t n = 0;
        for (std::uint32_t r : req)
            n += r != hirise::fabric::kNoRequest;
        record(t0, n, g);
        return g;
    }

    const hirise::BitVec &
    arbitrateActive(std::span<const std::uint32_t> req,
                    std::span<const std::uint32_t> active) override
    {
        std::uint64_t t0 = ticks();
        const hirise::BitVec &g = inner_->arbitrateActive(req, active);
        record(t0, active.size(), g);
        return g;
    }

    void
    release(std::uint32_t input, std::uint32_t output) override
    {
        inner_->release(input, output);
    }

    void
    advanceIdle(std::uint64_t cycles) override
    {
        c_.idleCycles += cycles;
        inner_->advanceIdle(cycles);
    }

    bool
    outputBusy(std::uint32_t output) const override
    {
        return inner_->outputBusy(output);
    }

    std::uint32_t
    outputHolder(std::uint32_t output) const override
    {
        return inner_->outputHolder(output);
    }

    bool
    supportsChannelFaults() const override
    {
        return inner_->supportsChannelFaults();
    }

    void
    failChannel(std::uint32_t src_layer, std::uint32_t dst_layer,
                std::uint32_t chan,
                std::vector<hirise::fabric::BrokenConn> *broken) override
    {
        inner_->failChannel(src_layer, dst_layer, chan, broken);
    }

    void
    recoverChannel(std::uint32_t src_layer, std::uint32_t dst_layer,
                   std::uint32_t chan) override
    {
        inner_->recoverChannel(src_layer, dst_layer, chan);
    }

    std::uint32_t
    heldChannelId(std::uint32_t output) const override
    {
        return inner_->heldChannelId(output);
    }

    void save(hirise::snap::Writer &w) const override { inner_->save(w); }
    void load(hirise::snap::Reader &r) override { inner_->load(r); }

  private:
    void
    record(std::uint64_t t0, std::uint64_t requests,
           const hirise::BitVec &grants)
    {
        std::uint64_t t = ticks() - t0;
        ++c_.arbCalls;
        c_.arbTicks += t;
        c_.arbRequests += requests;
        c_.arbGrants += grants.count();
        c_.arbSampleTicks.push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(t, 0xffffffffu)));
    }

    std::unique_ptr<hirise::fabric::Fabric> inner_;
    LayerCounters &c_;
};

class TimedPattern final : public hirise::traffic::TrafficPattern
{
  public:
    TimedPattern(std::shared_ptr<hirise::traffic::TrafficPattern> inner,
                 LayerCounters &c)
        : inner_(std::move(inner)), c_(c)
    {}

    bool
    injectAt(std::uint32_t src, std::uint64_t cycle, double rate,
             std::uint64_t seed) override
    {
        std::uint64_t t0 = ticks();
        bool v = inner_->injectAt(src, cycle, rate, seed);
        charge(t0);
        return v;
    }

    std::uint32_t
    destAt(std::uint32_t src, std::uint64_t cycle,
           std::uint64_t seed) override
    {
        std::uint64_t t0 = ticks();
        std::uint32_t v = inner_->destAt(src, cycle, seed);
        charge(t0);
        return v;
    }

    void
    destRow4(std::uint32_t src0, std::uint64_t cycle, std::uint64_t seed,
             const std::uint64_t keys[4], std::uint32_t out[4]) override
    {
        std::uint64_t t0 = ticks();
        inner_->destRow4(src0, cycle, seed, keys, out);
        charge(t0);
    }

    bool memoryless() const override { return inner_->memoryless(); }

    bool
    participates(std::uint32_t src) const override
    {
        return inner_->participates(src);
    }

    double
    rateTo(std::uint32_t src, std::uint32_t dst) const override
    {
        return inner_->rateTo(src, dst);
    }

    double
    activeFraction() const override
    {
        return inner_->activeFraction();
    }

    std::string name() const override { return inner_->name(); }
    std::string descriptor() const override { return inner_->descriptor(); }
    void save(hirise::snap::Writer &w) const override { inner_->save(w); }
    void load(hirise::snap::Reader &r) override { inner_->load(r); }

  private:
    void
    charge(std::uint64_t t0)
    {
        ++c_.trafficCalls;
        c_.trafficTicks += ticks() - t0;
    }

    std::shared_ptr<hirise::traffic::TrafficPattern> inner_;
    LayerCounters &c_;
};

/**
 * Run one point on a scalar NetworkSim through the injected-fabric
 * constructor. With @p c null the fabric and pattern are used bare
 * (the correctness gate's reference engine); otherwise both are
 * wrapped in the timing decorators and the run's host time, cycles
 * and port-cycles are added to *c.
 */
hirise::sim::SimResult
runScalarPoint(const hirise::SwitchSpec &spec,
               const hirise::sim::SimConfig &cfg,
               std::shared_ptr<hirise::traffic::TrafficPattern> pattern,
               LayerCounters *c);

} // namespace e2e

#endif // HIRISE_E2EBENCH_TIMED_HH
