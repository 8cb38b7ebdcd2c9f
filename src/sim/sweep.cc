#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/parallel.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/batch_sim.hh"

namespace hirise::sim {

namespace {

std::uint32_t
batchReplicasFromEnv()
{
    if (const char *s = std::getenv("HIRISE_BATCH")) {
        char *end = nullptr;
        unsigned long v = std::strtoul(s, &end, 10);
        if (end != s && *end == '\0' && v <= 64)
            return static_cast<std::uint32_t>(v);
    }
    return 1;
}

std::atomic<std::uint32_t> &
batchReplicasSlot()
{
    static std::atomic<std::uint32_t> slot{batchReplicasFromEnv()};
    return slot;
}

} // namespace

std::uint32_t
batchReplicas()
{
    return batchReplicasSlot().load(std::memory_order_relaxed);
}

void
setBatchReplicas(std::uint32_t replicas)
{
    batchReplicasSlot().store(std::min(replicas, 64u),
                              std::memory_order_relaxed);
}

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
    // replica built from the same factory.
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

    // Group the misses: singleton scalar runs, unless HIRISE_BATCH
    // opted into BatchSim; then points above the scalar core's
    // heap-mode rate ceiling (no tracer armed) go in chunks of up to
    // B lanes.
    const std::uint32_t B = batchReplicas();
    const bool batching =
        B > 1 && !base.trace && BatchSim::usable();
    std::vector<std::vector<std::size_t>> groups;
    std::vector<std::size_t> open;
    for (std::size_t i : misses) {
        if (batching && pts[i].load > NetworkSim::kInjHeapMaxRate) {
            open.push_back(i);
            if (open.size() == B) {
                groups.push_back(open);
                open.clear();
            }
        } else {
            groups.push_back({i});
        }
    }
    if (!open.empty())
        groups.push_back(open);

    auto eval = [&](const std::vector<std::size_t> &g)
        -> std::vector<SimResult> {
        if (g.size() == 1) {
            NetworkSim sim(spec, cfgs[g[0]], make());
            return {sim.run()};
        }
        std::vector<std::shared_ptr<traffic::TrafficPattern>> pats;
        std::vector<BatchPoint> bpts;
        pats.reserve(g.size());
        bpts.reserve(g.size());
        for (std::size_t i : g) {
            pats.push_back(make());
            bpts.push_back({pts[i].load, pts[i].seed});
        }
        BatchSim sim(spec, base, std::move(pats), std::move(bpts));
        return sim.run();
    };
    std::vector<std::vector<SimResult>> ran =
        parallelMap(groups, eval, opt.maxThreads, opt.pool);

    std::uint64_t batch_runs = 0, batch_lanes = 0, scalar_runs = 0;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const auto &g = groups[gi];
        if (g.size() > 1) {
            ++batch_runs;
            batch_lanes += g.size();
        } else {
            ++scalar_runs;
        }
        for (std::size_t j = 0; j < g.size(); ++j) {
            results[g[j]] = ran[gi][j];
            c.store(keys[g[j]], results[g[j]]);
        }
    }
    if (obs::on()) [[unlikely]] {
        auto &reg = obs::MetricsRegistry::global();
        reg.counter("campaign.batch.runs").inc(batch_runs);
        reg.counter("campaign.batch.lanes").inc(batch_lanes);
        reg.counter("campaign.batch.scalar_runs").inc(scalar_runs);
        reg.gauge("campaign.batch.width").set(double(B));
        if (batch_runs > 0) {
            reg.gauge("campaign.batch.occupancy")
                .set(double(batch_lanes) / double(batch_runs * B));
        }
        reg.gauge("simd.tier")
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
