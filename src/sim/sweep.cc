#include "sim/sweep.hh"

#include "common/parallel.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hirise::sim {

SimResult
runAtLoad(const SwitchSpec &spec, const SimConfig &base,
          const PatternFactory &make, double load)
{
    SimConfig cfg = base;
    cfg.injectionRate = load;
    NetworkSim sim(spec, cfg, make());
    return sim.run();
}

SimResult
runAtLoadCached(const SwitchSpec &spec, const SimConfig &base,
                const PatternFactory &make, double load, SimCache *cache)
{
    SimConfig cfg = base;
    cfg.injectionRate = load;
    auto pattern = make();
    SimCache &c = cache ? *cache : SimCache::global();
    std::uint64_t key = SimCache::key(spec, cfg, pattern->descriptor());
    SimResult r;
    if (c.lookup(key, &r))
        return r;
    NetworkSim sim(spec, cfg, std::move(pattern));
    r = sim.run();
    c.store(key, r);
    return r;
}

std::vector<SimResult>
runPointsCached(const SwitchSpec &spec, const SimConfig &base,
                const PatternFactory &make,
                const std::vector<RunPoint> &pts,
                const CampaignOptions &opt)
{
    SimCache &c = opt.cache ? *opt.cache : SimCache::global();
    std::vector<SimResult> results(pts.size());

    // Per-point config + cache probe. The descriptor is a function of
    // constructor parameters only, so one instance describes every
    // pattern built from the same factory.
    const std::string desc = make()->descriptor();
    std::vector<SimConfig> cfgs(pts.size(), base);
    std::vector<std::uint64_t> keys(pts.size());
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        cfgs[i].injectionRate = pts[i].load;
        cfgs[i].seed = pts[i].seed;
        keys[i] = SimCache::key(spec, cfgs[i], desc);
        if (!c.lookup(keys[i], &results[i]))
            misses.push_back(i);
    }
    if (misses.empty())
        return results;

    std::vector<SimResult> ran = parallelMap(
        misses,
        [&](std::size_t i) {
            NetworkSim sim(spec, cfgs[i], make());
            return sim.run();
        },
        opt.maxThreads, opt.pool);
    for (std::size_t j = 0; j < misses.size(); ++j) {
        results[misses[j]] = std::move(ran[j]);
        c.store(keys[misses[j]], results[misses[j]]);
    }
    if (obs::on()) [[unlikely]] {
        obs::MetricsRegistry::global()
            .gauge("simd.tier")
            .set(double(static_cast<int>(simd::activeTier())));
    }
    return results;
}

std::vector<SweepPoint>
loadSweep(const SwitchSpec &spec, const SimConfig &base,
          const PatternFactory &make, const std::vector<double> &loads,
          const CampaignOptions &opt)
{
    // Each point is an independent, self-seeded simulation; the shard
    // seed (when enabled) depends only on (base seed, index), never on
    // thread count or completion order.
    std::vector<RunPoint> pts(loads.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        pts[i].load = loads[i];
        pts[i].seed =
            opt.shardSeeds ? shardSeed(base.seed, i) : base.seed;
    }
    std::vector<SimResult> res =
        runPointsCached(spec, base, make, pts, opt);
    std::vector<SweepPoint> out(loads.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = SweepPoint{loads[i], std::move(res[i])};
    return out;
}

std::vector<SweepPoint>
loadSweep(const SwitchSpec &spec, const SimConfig &base,
          const PatternFactory &make, const std::vector<double> &loads)
{
    return loadSweep(spec, base, make, loads, CampaignOptions{});
}

double
saturationFlitsPerCycle(const SwitchSpec &spec, const SimConfig &base,
                        const PatternFactory &make)
{
    return runAtLoadCached(spec, base, make, 1.0).acceptedFlitsPerCycle;
}

double
toTbps(double flits_per_cycle, double freq_ghz, std::uint32_t flit_bits)
{
    return flits_per_cycle * freq_ghz * 1e9 *
           static_cast<double>(flit_bits) * 1e-12;
}

double
toPacketsPerNs(double flits_per_cycle, double freq_ghz,
               std::uint32_t packet_len)
{
    return flits_per_cycle / static_cast<double>(packet_len) * freq_ghz;
}

} // namespace hirise::sim
