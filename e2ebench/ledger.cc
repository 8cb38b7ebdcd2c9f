#include <algorithm>
#include <cmath>
#include <fstream>

#include "bench.hh"
#include "svc/json.hh"
#include "timed.hh"

namespace e2e {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

std::uint64_t
Ledger::open(std::string name, std::uint64_t parent)
{
    if (!on_)
        return 0;
    Span s;
    s.name = std::move(name);
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.t0 = nowNs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
Ledger::close(std::uint64_t id, std::map<std::string, double> counts)
{
    if (!on_ || id == 0)
        return;
    Span &s = spans_[id - 1];
    s.t1 = nowNs();
    s.counts = std::move(counts);
}

bool
Ledger::writeJsonl(const std::string &path,
                   const std::string &context_json) const
{
    std::ofstream os(path);
    os << context_json << '\n';
    for (const Span &s : spans()) {
        hirise::svc::Json j = hirise::svc::Json::object();
        j.set("name", s.name);
        j.set("id", double(s.id));
        j.set("parent", double(s.parent));
        j.set("t0_ns", double(s.t0));
        j.set("t1_ns", double(s.t1));
        hirise::svc::Json c = hirise::svc::Json::object();
        for (const auto &[k, v] : s.counts)
            c.set(k, v);
        j.set("counts", std::move(c));
        os << j.dump() << '\n';
    }
    return bool(os);
}

hirise::sim::SimResult
runScalarPoint(const hirise::SwitchSpec &spec,
               const hirise::sim::SimConfig &cfg,
               std::shared_ptr<hirise::traffic::TrafficPattern> pattern,
               LayerCounters *c)
{
    std::unique_ptr<hirise::fabric::Fabric> fab =
        hirise::fabric::makeFabric(spec);
    if (!c) {
        hirise::sim::NetworkSim sim(spec, cfg, std::move(pattern),
                                    std::move(fab));
        return sim.run();
    }
    std::int64_t t0 = nowNs();
    std::uint64_t k0 = ticks();
    hirise::sim::NetworkSim sim(
        spec, cfg, std::make_shared<TimedPattern>(std::move(pattern), *c),
        std::make_unique<TimedFabric>(std::move(fab), *c));
    hirise::sim::SimResult r = sim.run();
    c->simTicks += ticks() - k0;
    c->simNs += static_cast<std::uint64_t>(nowNs() - t0);
    std::uint64_t cycles = cfg.warmupCycles + cfg.measureCycles;
    c->simCycles += cycles;
    c->portCycles += cycles * spec.radix;
    return r;
}

const std::vector<std::pair<std::string, std::string>> &
layerMetricUnits()
{
    static const std::vector<std::pair<std::string, std::string>> t = {
        {"fabric.arbitrate_calls", "count"},
        {"fabric.arbitrate_ns_p50", "ns"},
        {"fabric.busy_frac", "ratio"},
        {"fabric.requests_per_call", "count"},
        {"fabric.grant_ratio", "ratio"},
        {"traffic.calls", "count"},
        {"traffic.ns_per_call", "ns"},
        {"traffic.busy_frac", "ratio"},
        {"sim.ns_per_port_cycle", "ns"},
        {"sim.self_frac", "ratio"},
        {"sim.idle_cycle_frac", "ratio"},
        {"campaign.call_ms_p50", "ms"},
        {"campaign.pool_util", "ratio"},
        {"campaign.batched_point_frac", "ratio"},
        {"cache.lookups", "count"},
        {"cache.hit_ratio", "ratio"},
        {"cache.stores", "count"},
        {"cache.disk_hits", "count"},
        {"svc.ack_ms_p50", "ms"},
        {"svc.stream_us_per_row", "us"},
        {"svc.row_format_us", "us"},
        {"svc.frame_codec_ns_per_byte", "ns/B"},
        {"svc.overhead_ms_p50", "ms"},
        {"svc.cold_job_ms_plain_p50", "ms"},
        {"svc.cold_job_ms_ckpt_p50", "ms"},
        {"trace.overhead_frac", "ratio"},
    };
    return t;
}

LayerMetrics
emptyLayerMetrics()
{
    LayerMetrics m;
    for (const auto &[name, unit] : layerMetricUnits())
        m[name] = 0.0;
    return m;
}

void
addEngineLayers(const LayerCounters &c, LayerMetrics *m)
{
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double nsPerTick = ratio(double(c.simNs), double(c.simTicks));
    std::vector<double> arb(c.arbSampleTicks.begin(),
                            c.arbSampleTicks.end());
    LayerMetrics &o = *m;
    o["fabric.arbitrate_calls"] = double(c.arbCalls);
    o["fabric.arbitrate_ns_p50"] = quantile(std::move(arb), 0.5) * nsPerTick;
    o["fabric.busy_frac"] = ratio(double(c.arbTicks), double(c.simTicks));
    o["fabric.requests_per_call"] =
        ratio(double(c.arbRequests), double(c.arbCalls));
    o["fabric.grant_ratio"] =
        ratio(double(c.arbGrants), double(c.arbRequests));
    o["traffic.calls"] = double(c.trafficCalls);
    o["traffic.ns_per_call"] =
        ratio(double(c.trafficTicks), double(c.trafficCalls)) * nsPerTick;
    o["traffic.busy_frac"] =
        ratio(double(c.trafficTicks), double(c.simTicks));
    o["sim.ns_per_port_cycle"] =
        ratio(double(c.simNs), double(c.portCycles));
    o["sim.self_frac"] =
        ratio(double(c.simTicks) - double(c.arbTicks) -
                  double(c.trafficTicks),
              double(c.simTicks));
    o["sim.idle_cycle_frac"] =
        ratio(double(c.idleCycles), double(c.simCycles));
}

} // namespace e2e
