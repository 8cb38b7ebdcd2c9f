/**
 * @file
 * The three benchmark workloads. Each generates its inputs from the
 * seed in its constructor and calls the simulator the way its real
 * callers do:
 *
 *  - sweep_sat: Fig 11b design families, one sim::runPointsCached call
 *    per family, on an nproc-thread pool with a private cold SimCache.
 *    Most cycles run above NetworkSim::kInjHeapMaxRate, so arbitration,
 *    BatchSim lanes, virtual source queues and the pool do the work.
 *  - sweep_low: low-load points, each through sim::runAtLoadCached
 *    inside parallelMap on a 1-thread pool (the Table 4/5 and Fig 11a
 *    caller shape). The event heap, idle fast-forward and traffic
 *    generation dominate; BatchSim is bypassed.
 *  - serve_mix: a closed-loop client against an in-process svc::Server
 *    with its own SimCache; one job in four is new, the rest are
 *    resubmissions served from the cache.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "gate.hh"
#include "phys/model.hh"
#include "sim/batch_sim.hh"
#include "sim/sweep.hh"
#include "svc/campaign.hh"
#include "svc/campaign_spec.hh"
#include "svc/client.hh"
#include "svc/server.hh"
#include "timed.hh"

namespace e2e {

using hirise::ArbScheme;
using hirise::SwitchSpec;
using hirise::ThreadPool;
using hirise::Topology;
using hirise::sim::RunPoint;
using hirise::sim::SimCache;
using hirise::sim::SimConfig;
using hirise::sim::SimResult;
namespace svc = hirise::svc;
namespace traffic = hirise::traffic;

namespace {

unsigned
hostThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

/** Seeded input generator (splitmix64 stream). */
class Gen
{
  public:
    explicit Gen(std::uint64_t seed) : s_(seed) {}
    std::uint64_t
    next()
    {
        s_ += 0x9e3779b97f4a7c15ull;
        return hirise::splitmix64(s_);
    }
    /** Uniform in [0, 1). */
    double unit() { return double(next() >> 11) * 0x1.0p-53; }
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t s_;
};

SwitchSpec
hiRise(std::uint32_t radix, ArbScheme arb)
{
    SwitchSpec s;
    s.topo = Topology::HiRise;
    s.radix = radix;
    s.layers = 4;
    s.channels = 4;
    s.arb = arb;
    return s;
}

SwitchSpec
flat2d(std::uint32_t radix)
{
    SwitchSpec s;
    s.topo = Topology::Flat2D;
    s.radix = radix;
    s.arb = ArbScheme::Lrg;
    return s;
}

/** Misses of a cold runPointsCached call that run as BatchSim lanes,
 *  by the grouping rule documented in sim/sweep.hh: points above
 *  kInjHeapMaxRate in chunks of batchReplicas(), singletons scalar. */
std::size_t
batchedPoints(const std::vector<RunPoint> &pts)
{
    std::size_t b = hirise::sim::batchReplicas();
    if (b <= 1 || !hirise::sim::BatchSim::usable())
        return 0;
    std::size_t n = 0;
    for (const RunPoint &p : pts)
        n += p.load > hirise::sim::NetworkSim::kInjHeapMaxRate;
    return n % b == 1 ? n - 1 : n;
}

/** Process CPU seconds (all threads, user + system). */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

SimCache::Stats
statsDelta(const SimCache::Stats &a, const SimCache::Stats &b)
{
    SimCache::Stats d;
    d.hits = b.hits - a.hits;
    d.misses = b.misses - a.misses;
    d.diskHits = b.diskHits - a.diskHits;
    d.stores = b.stores - a.stores;
    return d;
}

std::map<std::string, double>
cacheCounts(const SimCache::Stats &d)
{
    return {{"hits", double(d.hits)},
            {"misses", double(d.misses)},
            {"disk_hits", double(d.diskHits)},
            {"stores", double(d.stores)}};
}

/** campaign.* and cache.* from the traced passes' "campaign.call"
 *  spans. */
void
addCampaignLayers(const std::vector<Span> &spans, LayerMetrics *m)
{
    std::vector<double> ms;
    double cpu = 0, capacity = 0, points = 0, batched = 0;
    double hits = 0, misses = 0, disk = 0, stores = 0;
    for (const Span &s : spans) {
        if (s.name != "campaign.call")
            continue;
        auto c = [&s](const char *k) {
            auto it = s.counts.find(k);
            return it == s.counts.end() ? 0.0 : it->second;
        };
        ms.push_back(s.ms());
        cpu += c("cpu_s");
        capacity += s.ms() * 1e-3 * c("threads");
        points += c("points");
        batched += c("batched");
        hits += c("hits");
        misses += c("misses");
        disk += c("disk_hits");
        stores += c("stores");
    }
    LayerMetrics &o = *m;
    o["campaign.call_ms_p50"] = quantile(ms, 0.5);
    o["campaign.pool_util"] = capacity > 0 ? cpu / capacity : 0.0;
    o["campaign.batched_point_frac"] = points > 0 ? batched / points : 0;
    o["cache.lookups"] = hits + misses;
    o["cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
    o["cache.stores"] = stores;
    o["cache.disk_hits"] = disk;
}

// -- sweeps --------------------------------------------------------------

/** One simulated point of a sweep: its design, run config (load and
 *  seed set) and traffic pattern. */
struct SweepPoint
{
    SwitchSpec spec;
    SimConfig cfg;
    bool bursty = false;

    std::shared_ptr<traffic::TrafficPattern>
    pattern() const
    {
        if (bursty)
            return std::make_shared<traffic::Bursty>(spec.radix, 8.0);
        return std::make_shared<traffic::UniformRandom>(spec.radix);
    }
    RunPoint runPoint() const { return {cfg.injectionRate, cfg.seed}; }
};

/** A family: the points one campaign call evaluates. */
struct Family
{
    std::vector<std::size_t> idx; //!< into the workload's point list
};

/** Shared machinery of the two sweep workloads. */
class SweepWorkload : public Workload
{
  public:
    std::vector<ScalarPoint>
    scalarPoints() override
    {
        std::vector<ScalarPoint> out;
        for (const SweepPoint &p : points_)
            out.push_back({p.spec, p.cfg, [p] { return p.pattern(); }});
        return out;
    }

    std::vector<std::string>
    referenceOps() override
    {
        ThreadPool pool(hostThreads());
        std::vector<ScalarPoint> pts = scalarPoints();
        std::vector<SimResult> res = hirise::parallelMap(
            pts,
            [](const ScalarPoint &p) {
                return runScalarPoint(p.spec, p.cfg, p.make(), nullptr);
            },
            0, &pool);
        return opsOf(res);
    }

    LayerMetrics
    traceLayers(const std::vector<Span> &spans,
                std::size_t *mismatches) override
    {
        LayerCounters c;
        *mismatches = 0;
        std::vector<ScalarPoint> pts = scalarPoints();
        for (std::size_t i = 0; i < pts.size(); ++i) {
            SimResult r =
                runScalarPoint(pts[i].spec, pts[i].cfg, pts[i].make(), &c);
            if (i >= last_.size() || !resultsIdentical(r, last_[i]))
                ++*mismatches;
        }
        LayerMetrics m = emptyLayerMetrics();
        addEngineLayers(c, &m);
        addCampaignLayers(spans, &m);
        return m;
    }

  protected:
    /** Ops of one pass from its results, in point order. */
    std::vector<std::string>
    opsOf(const std::vector<SimResult> &res) const
    {
        std::vector<std::string> ops;
        for (std::size_t i = 0; i < res.size(); ++i)
            ops.push_back(
                svc::resultRow(i, points_[i].runPoint(), res[i]));
        return ops;
    }

    std::vector<SweepPoint> points_;
    std::vector<Family> families_;
    std::vector<SimResult> last_; //!< results of the latest pass
};

/** Half the harness's --quick cycle budget (2000 + 8000), so a pass
 *  takes about a second and a run holds a dozen passes. */
SimConfig
sweepConfig()
{
    SimConfig cfg;
    cfg.warmupCycles = 1000;
    cfg.measureCycles = 4000;
    return cfg;
}

class SweepSat final : public SweepWorkload
{
  public:
    explicit SweepSat(std::uint64_t seed) : seed_(seed) {}

    unsigned poolThreads() const override { return hostThreads(); }

    PassResult
    runPass(std::int64_t setup_start, Ledger &ledger) override
    {
        PassResult out;
        build();
        ThreadPool pool(hostThreads());
        SimCache cache(4096);
        hirise::sim::CampaignOptions opt;
        opt.pool = &pool;
        opt.cache = &cache;
        out.setupS = double(nowNs() - setup_start) * 1e-9;

        std::vector<SimResult> res(points_.size());
        std::int64_t t0 = nowNs();
        for (const Family &f : families_) {
            const SweepPoint &head = points_[f.idx.front()];
            std::vector<RunPoint> pts;
            for (std::size_t i : f.idx)
                pts.push_back(points_[i].runPoint());
            std::uint64_t span = ledger.open("campaign.call");
            double cpu0 = processCpuSeconds();
            SimCache::Stats s0 = cache.stats();
            std::int64_t c0 = nowNs();
            std::vector<SimResult> r = hirise::sim::runPointsCached(
                head.spec, head.cfg,
                [&head] { return head.pattern(); }, pts, opt);
            double ms = msSince(c0);
            if (ledger.enabled()) {
                auto counts = cacheCounts(statsDelta(s0, cache.stats()));
                counts["cpu_s"] = processCpuSeconds() - cpu0;
                counts["threads"] = pool.numThreads() + 1; // + helping caller
                counts["points"] = double(pts.size());
                counts["batched"] = double(batchedPoints(pts));
                ledger.close(span, std::move(counts));
            }
            // The call returns every row at once: the first row and
            // the whole job arrive together.
            out.jobMs.push_back(ms);
            out.firstRowMs.push_back(ms);
            out.pointMs.push_back(ms / double(pts.size()));
            for (std::size_t k = 0; k < f.idx.size(); ++k)
                res[f.idx[k]] = std::move(r[k]);
        }
        out.wallS = double(nowNs() - t0) * 1e-9;
        out.ops = opsOf(res);
        last_ = std::move(res);
        return out;
    }

    /** Rebuild the families; PhysModel converts the Fig 11b p/ns
     *  grid to packets/input/cycle per design. Part of set-up. */
    void
    build()
    {
        points_.clear();
        families_.clear();
        Gen g(hirise::shardSeed(seed_, 0x5a7));
        hirise::phys::PhysModel model;
        SimConfig base = sweepConfig();
        auto add = [&](const SwitchSpec &spec, double load) {
            SweepPoint p{spec, base, false};
            p.cfg.injectionRate = load;
            p.cfg.seed = g.next() >> 16;
            families_.back().idx.push_back(points_.size());
            points_.push_back(p);
        };
        for (const SwitchSpec &spec :
             {flat2d(64), hiRise(64, ArbScheme::LayerLrg),
              hiRise(64, ArbScheme::Wlrg), hiRise(64, ArbScheme::Clrg)}) {
            double freq = model.evaluate(spec).freqGhz;
            families_.emplace_back();
            for (int k = 1; k <= 9; ++k) {
                double pns = 0.05 * k + 0.02 * (g.unit() - 0.5);
                add(spec, std::min(pns / freq, 1.0));
            }
        }
        // Radix-128 CLRG family, driven up to and past 1
        // packet/input/cycle (the virtual-source-queue regime). The
        // jitter stays above each 0.125 step, so every load is above
        // kInjHeapMaxRate for every seed and the grouping is fixed: the
        // first eight points form one BatchSim task, the last runs
        // scalar beside it. A seed that put the first load at or below
        // the threshold would regroup them and move the call's
        // critical path by a quarter.
        families_.emplace_back();
        for (int k = 1; k <= 7; ++k)
            add(hiRise(128, ArbScheme::Clrg),
                0.125 * k + 0.005 + 0.01 * g.unit());
        add(hiRise(128, ArbScheme::Clrg), 1.0);
        add(hiRise(128, ArbScheme::Clrg), 1.2 + 0.1 * g.unit());
    }

    std::vector<ScalarPoint>
    scalarPoints() override
    {
        build();
        return SweepWorkload::scalarPoints();
    }

  private:
    std::uint64_t seed_;
};

class SweepLow final : public SweepWorkload
{
  public:
    static constexpr int kPerDesign = 40;
    static constexpr double kLoLoad = 0.002;
    static constexpr double kHiLoad = 0.1;

    explicit SweepLow(std::uint64_t seed)
    {
        Gen g(hirise::shardSeed(seed, 0x10));
        SimConfig base = sweepConfig();
        for (const SwitchSpec &spec :
             {hiRise(128, ArbScheme::Clrg), hiRise(256, ArbScheme::Clrg),
              flat2d(128)}) {
            families_.emplace_back();
            for (int k = 0; k < kPerDesign; ++k) {
                // One load per log-spaced stratum, so every seed spans
                // the same range with the same density; every fourth
                // point is bursty, at a fixed place so the seed never
                // moves the (costlier) bursty points within a call.
                double u = (double(k) + g.unit()) / kPerDesign;
                SweepPoint p{spec, base, k % 4 == 3};
                p.cfg.injectionRate =
                    kLoLoad * std::pow(kHiLoad / kLoLoad, u);
                p.cfg.seed = g.next() >> 16;
                families_.back().idx.push_back(points_.size());
                points_.push_back(p);
            }
        }
    }

    unsigned poolThreads() const override { return 1; }

    PassResult
    runPass(std::int64_t setup_start, Ledger &ledger) override
    {
        PassResult out;
        ThreadPool pool(1);
        SimCache cache(4096);
        out.setupS = double(nowNs() - setup_start) * 1e-9;

        std::vector<SimResult> res(points_.size());
        std::vector<double> pointMs(points_.size());
        std::int64_t t0 = nowNs();
        for (const Family &f : families_) {
            std::uint64_t span = ledger.open("campaign.call");
            double cpu0 = processCpuSeconds();
            SimCache::Stats s0 = cache.stats();
            std::int64_t c0 = nowNs();
            std::atomic<std::int64_t> firstDone{INT64_MAX};
            std::vector<SimResult> r = hirise::parallelMap(
                f.idx,
                [&](const std::size_t &i) {
                    const SweepPoint &p = points_[i];
                    std::int64_t p0 = nowNs();
                    SimResult v = hirise::sim::runAtLoadCached(
                        p.spec, p.cfg, [&p] { return p.pattern(); },
                        p.cfg.injectionRate, &cache);
                    std::int64_t p1 = nowNs();
                    pointMs[i] = double(p1 - p0) * 1e-6;
                    std::int64_t cur = firstDone.load();
                    while (p1 < cur &&
                           !firstDone.compare_exchange_weak(cur, p1)) {}
                    return v;
                },
                0, &pool);
            double ms = msSince(c0);
            if (ledger.enabled()) {
                auto counts = cacheCounts(statsDelta(s0, cache.stats()));
                counts["cpu_s"] = processCpuSeconds() - cpu0;
                counts["threads"] = pool.numThreads() + 1; // + helping caller
                counts["points"] = double(f.idx.size());
                counts["batched"] = 0; // runAtLoadCached never batches
                ledger.close(span, std::move(counts));
            }
            out.jobMs.push_back(ms);
            out.firstRowMs.push_back(double(firstDone.load() - c0) * 1e-6);
            for (std::size_t k = 0; k < f.idx.size(); ++k)
                res[f.idx[k]] = std::move(r[k]);
        }
        out.wallS = double(nowNs() - t0) * 1e-9;
        out.pointMs = std::move(pointMs);
        out.ops = opsOf(res);
        last_ = std::move(res);
        return out;
    }
};

// -- serve_mix -----------------------------------------------------------

class ServeMix final : public Workload
{
  public:
    static constexpr std::size_t kJobs = 100;

    explicit ServeMix(std::uint64_t seed)
    {
        // The dispatcher helps the global pool while it waits, so busy
        // simulation threads are the workers plus one. Half the CPUs
        // leave room for the event loop, the client and other tenants'
        // load: a job's shard is one 8-lane batch plus a few scalar
        // points, so more workers did not shorten it, but with nproc - 1
        // of them one busy foreign CPU inflated warm-job latency by 50 %.
        unsigned n = hostThreads();
        ThreadPool::setGlobalThreads(n >= 4 ? n / 2 - 1 : 1);
        Gen g(hirise::shardSeed(seed, 0x5e));
        for (std::size_t k = 0; k < kJobs; ++k) {
            if (k % 4 == 0) {
                jobSpec_.push_back(specs_.size());
                addSpec(g);
            } else {
                jobSpec_.push_back(g.below(specs_.size()));
            }
        }
    }

    unsigned
    poolThreads() const override
    {
        return ThreadPool::global().numThreads();
    }

    PassResult
    runPass(std::int64_t setup_start, Ledger &ledger) override
    {
        // Unix socket paths are length-limited, so the daemon lives in
        // a short directory relative to the benchmark's working directory.
        // Making and removing it is scaffolding, not the daemon's
        // set-up, so set-up is charged without it. The first removal
        // only matters after a killed earlier run, whose disk-tier
        // records would turn cold jobs into cache hits.
        const std::string dir = "svc";
        std::int64_t s0 = nowNs();
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir + "/snap");
        std::filesystem::create_directories(dir + "/cache");
        setup_start += nowNs() - s0;
        PassResult out = serve(dir, setup_start, ledger);
        std::filesystem::remove_all(dir);
        return out;
    }

    std::vector<std::string>
    referenceOps() override
    {
        computeReference();
        std::vector<std::string> ops;
        for (std::size_t si : jobSpec_)
            ops.push_back(join(refRows_[si]));
        return ops;
    }

    std::vector<ScalarPoint>
    scalarPoints() override
    {
        std::vector<ScalarPoint> out;
        for (const svc::CampaignSpec &spec : specs_) {
            for (const RunPoint &p : spec.points()) {
                SimConfig cfg = spec.cfg;
                cfg.injectionRate = p.load;
                cfg.seed = p.seed;
                out.push_back({spec.sw, cfg, spec.patternFactory()});
            }
        }
        return out;
    }

    LayerMetrics
    traceLayers(const std::vector<Span> &spans,
                std::size_t *mismatches) override
    {
        LayerMetrics m = emptyLayerMetrics();
        LayerCounters c;
        *mismatches = 0;
        computeReference();

        // Decorated scalar re-runs of every distinct point; their rows
        // must equal the in-process rows, which every pass's streamed
        // rows were compared with byte for byte.
        std::vector<std::pair<RunPoint, SimResult>> rerun;
        std::vector<ScalarPoint> sp = scalarPoints();
        std::size_t k = 0;
        for (std::size_t si = 0; si < specs_.size(); ++si) {
            std::vector<RunPoint> pts = specs_[si].points();
            for (std::size_t i = 0; i < pts.size(); ++i, ++k) {
                SimResult r =
                    runScalarPoint(sp[k].spec, sp[k].cfg, sp[k].make(), &c);
                if (svc::resultRow(i, pts[i], r) != refRows_[si][i])
                    ++*mismatches;
                rerun.emplace_back(pts[i], std::move(r));
            }
        }
        addEngineLayers(c, &m);

        // Campaign layer: in-process svc::runCampaign of each distinct
        // spec on a cold private cache (what the dispatcher runs for a
        // new job), then again warm (a resubmission's floor).
        SimCache cold(4096);
        std::vector<double> callMs, warmMs(specs_.size());
        double cpu = 0, capacity = 0, points = 0, batched = 0;
        for (std::size_t si = 0; si < specs_.size(); ++si) {
            svc::RunCampaignOptions opt;
            opt.cache = &cold;
            double cpu0 = processCpuSeconds();
            std::int64_t c0 = nowNs();
            svc::runCampaign(specs_[si], opt);
            double ms = msSince(c0);
            callMs.push_back(ms);
            cpu += processCpuSeconds() - cpu0;
            capacity += ms * 1e-3 * (poolThreads() + 1); // + helping caller
            std::vector<RunPoint> pts = specs_[si].points();
            points += double(pts.size());
            if (!ckpt(si))
                batched += double(batchedPoints(pts));
            c0 = nowNs();
            svc::runCampaign(specs_[si], opt);
            warmMs[si] = msSince(c0);
        }
        m["campaign.call_ms_p50"] = quantile(callMs, 0.5);
        m["campaign.pool_util"] = cpu / capacity;
        m["campaign.batched_point_frac"] = batched / points;

        // Cache and svc layers from the traced passes' spans.
        std::vector<double> ack, perRow, overhead, coldPlain, coldCkpt;
        double hits = 0, misses = 0, disk = 0, stores = 0;
        for (const Span &s : spans) {
            auto c = [&s](const char *k) {
                auto it = s.counts.find(k);
                return it == s.counts.end() ? 0.0 : it->second;
            };
            if (s.name == "svc.pass") {
                hits += c("hits");
                misses += c("misses");
                disk += c("disk_hits");
                stores += c("stores");
                continue;
            }
            if (s.name != "svc.job")
                continue;
            ack.push_back(c("ack_ms"));
            if (c("cold") > 0) {
                (c("ckpt") > 0 ? coldCkpt : coldPlain)
                    .push_back(c("job_ms"));
            } else {
                perRow.push_back((c("job_ms") - c("ack_ms")) * 1e3 /
                                 std::max(c("rows"), 1.0));
                overhead.push_back(
                    c("job_ms") -
                    warmMs[static_cast<std::size_t>(c("spec"))]);
            }
        }
        m["cache.lookups"] = hits + misses;
        m["cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses)
                                                 : 0.0;
        m["cache.stores"] = stores;
        m["cache.disk_hits"] = disk;
        m["svc.ack_ms_p50"] = quantile(ack, 0.5);
        m["svc.stream_us_per_row"] = quantile(perRow, 0.5);
        m["svc.overhead_ms_p50"] = quantile(overhead, 0.5);
        m["svc.cold_job_ms_plain_p50"] = quantile(coldPlain, 0.5);
        m["svc.cold_job_ms_ckpt_p50"] = quantile(coldCkpt, 0.5);
        codecLayers(rerun, &m);
        return m;
    }

  private:
    /** One pass against a fresh daemon in the existing, empty @p dir. */
    PassResult
    serve(const std::string &dir, std::int64_t setup_start, Ledger &ledger)
    {
        PassResult out;
        ThreadPool::global(); // the daemon's pool spawns at start-up
        auto cache = std::make_unique<SimCache>(4096, dir + "/cache");
        svc::ServerOptions sopt;
        sopt.socketPath = dir + "/s.sock";
        sopt.cache = cache.get();
        sopt.snapshotDir = dir + "/snap";
        svc::Server server(sopt);
        std::string err;
        if (!server.start(&err))
            throw std::runtime_error("server start: " + err);
        // Shut the daemon down and join its loop on every exit path.
        struct Stop
        {
            svc::Server &s;
            std::thread t;
            ~Stop()
            {
                s.shutdown();
                t.join();
            }
        } stop{server, std::thread([&server] { server.run(); })};
        std::unique_ptr<svc::Client> client =
            svc::Client::connectUnix(sopt.socketPath, &err);
        svc::Json ping = svc::Json::object(), pong;
        ping.set("op", "ping");
        bool up = client && client->request(ping, &pong, &err) &&
                  pong["ok"].asBool();
        out.setupS = double(nowNs() - setup_start) * 1e-9;

        std::vector<bool> seen(specs_.size(), false);
        SimCache::Stats s0 = cache->stats();
        double cpu0 = processCpuSeconds();
        std::int64_t t0 = nowNs();
        std::uint64_t passSpan = ledger.open("svc.pass");
        for (std::size_t k = 0; k < kJobs; ++k) {
            std::size_t si = jobSpec_[k];
            bool cold = !seen[si];
            seen[si] = true;
            std::uint64_t span = ledger.open("svc.job", passSpan);
            Timing t;
            std::string op = up ? runJob(*client, si, &t) : "<no daemon>";
            if (ledger.enabled()) {
                ledger.close(span, {{"rows", double(t.rows)},
                                    {"ack_ms", t.ackMs},
                                    {"first_row_ms", t.firstRowMs},
                                    {"job_ms", t.jobMs},
                                    {"cold", cold ? 1.0 : 0.0},
                                    {"ckpt", ckpt(si) ? 1.0 : 0.0},
                                    {"spec", double(si)}});
            }
            out.jobMs.push_back(t.jobMs);
            out.firstRowMs.push_back(t.firstRowMs);
            // Resubmissions simulate nothing: only a spec's first job
            // contributes host time per simulated point.
            if (cold)
                out.pointMs.push_back(
                    t.jobMs / double(std::max<std::size_t>(t.rows, 1)));
            out.ops.push_back(std::move(op));
        }
        out.wallS = double(nowNs() - t0) * 1e-9;
        if (ledger.enabled()) {
            auto counts = cacheCounts(statsDelta(s0, cache->stats()));
            counts["cpu_s"] = processCpuSeconds() - cpu0;
            ledger.close(passSpan, std::move(counts));
        }

        return out;
    }

    struct Timing
    {
        double ackMs = 0, firstRowMs = 0, jobMs = 0;
        std::size_t rows = 0;
    };

    bool ckpt(std::size_t si) const { return specs_[si].checkpointCycles > 0; }

    /** New spec j: 4 + j % 5 points, one near the centre of each of n
     *  equal strata of [0.02, 1], one seeded simulation seed,
     *  checkpointing on every other spec. The seeded jitter is 2 % of a
     *  stratum. Wider jitter would change the work with the seed (the
     *  backlog of a point above saturation grows with its load) and
     *  could move the n = 5 spec's first load (0.118) across
     *  kInjHeapMaxRate, which decides whether it runs batched. */
    void
    addSpec(Gen &g)
    {
        std::size_t idx = specs_.size();
        svc::Json loads = svc::Json::array();
        std::size_t n = 4 + idx % 5;
        for (std::size_t i = 0; i < n; ++i) {
            double u = (double(i) + 0.5 + 0.04 * (g.unit() - 0.5)) / double(n);
            loads.push(std::round((0.02 + 0.98 * u) * 1000.0) / 1000.0);
        }
        svc::Json seeds = svc::Json::array();
        seeds.push(double(1 + g.below(1000000)));
        std::string text =
            R"({"switch": {"topology": "hirise", "radix": 64,
                           "layers": 4, "channels": 4, "arb": "clrg"},
                "sim": {"warmup_cycles": 200, "measure_cycles": 800},
                "pattern": {"kind": "uniform-random"}})";
        svc::Json doc;
        svc::Json::parse(text, &doc);
        doc.set("name", "mix-" + std::to_string(idx));
        doc.set("loads", std::move(loads));
        doc.set("seeds", std::move(seeds));
        // Half of the new jobs take the checkpointed scalar path. 500
        // of the 1000 cycles: one snapshot per point, written and then
        // removed when the point ends. Shorter slices replace the
        // snapshot file by rename, and ext4 starts writeback on each
        // such rename: at 250 the run wrote ~30 MB/s and its times
        // followed the load on the host's shared disk.
        doc.set("checkpoint_cycles", idx % 2 == 0 ? 500.0 : 0.0);
        svc::CampaignSpec spec;
        std::string err;
        if (!svc::parseCampaignSpec(doc, &spec, &err))
            throw std::runtime_error("generated spec invalid: " + err);
        docs_.push_back(std::move(doc));
        specs_.push_back(std::move(spec));
    }

    /** Submit spec @p si with streaming and collect its rows up to the
     *  terminal frame. Returns the job's op bytes (rows joined). */
    std::string
    runJob(svc::Client &client, std::size_t si, Timing *t)
    {
        svc::Json req = svc::Json::object();
        req.set("op", "submit");
        req.set("spec", docs_[si]);
        req.set("stream", true);
        std::string err, payload;
        std::int64_t t0 = nowNs();
        svc::Json ack;
        if (!client.send(req, &err) || !client.recv(&ack, &err) ||
            !ack["ok"].asBool())
            return "<submit failed: " + err + ack.dump() + ">";
        t->ackMs = msSince(t0);
        std::vector<std::string> rows;
        while (client.recvRaw(&payload, &err)) {
            if (payload.rfind("{\"done\":", 0) == 0) {
                t->jobMs = msSince(t0);
                t->rows = rows.size();
                svc::Json term;
                svc::Json::parse(payload, &term);
                if (term["state"].asString() != "done")
                    return "<job " + term["state"].asString() + ">";
                return join(rows);
            }
            if (rows.empty())
                t->firstRowMs = msSince(t0);
            rows.push_back(payload);
        }
        return "<stream broken: " + err + ">";
    }

    static std::string
    join(const std::vector<std::string> &rows)
    {
        std::string out;
        for (const std::string &r : rows) {
            out += r;
            out += '\n';
        }
        return out;
    }

    /** In-process svc::runCampaign rows of every distinct spec, on a
     *  private cache and without checkpointing. */
    void
    computeReference()
    {
        if (!refRows_.empty())
            return;
        SimCache cache(4096);
        for (const svc::CampaignSpec &spec : specs_) {
            std::vector<std::string> rows;
            svc::RunCampaignOptions opt;
            opt.cache = &cache;
            opt.onRows = [&rows](std::size_t, std::vector<std::string> b) {
                for (std::string &r : b)
                    rows.push_back(std::move(r));
            };
            svc::runCampaign(spec, opt);
            refRows_.push_back(std::move(rows));
        }
    }

    /** svc.row_format_us and svc.frame_codec_ns_per_byte over the
     *  workload's re-run points. */
    static void
    codecLayers(const std::vector<std::pair<RunPoint, SimResult>> &pts,
                LayerMetrics *m)
    {
        // Repeat until ~20 ms of work so the clock's resolution and
        // call overhead do not dominate.
        std::size_t calls = 0, bytes = 0;
        std::int64_t t0 = nowNs();
        std::vector<std::string> rows;
        while (nowNs() - t0 < 20'000'000) {
            rows.clear();
            for (std::size_t i = 0; i < pts.size(); ++i)
                rows.push_back(
                    svc::resultRow(i, pts[i].first, pts[i].second));
            calls += pts.size();
        }
        (*m)["svc.row_format_us"] = double(nowNs() - t0) * 1e-3 / calls;

        std::int64_t c0 = nowNs();
        while (nowNs() - c0 < 20'000'000) {
            svc::FrameDecoder dec;
            std::string wire, payload;
            for (const std::string &r : rows)
                svc::frameAppend(wire, r);
            dec.feed(wire);
            while (dec.next(&payload)) {}
            bytes += wire.size();
        }
        (*m)["svc.frame_codec_ns_per_byte"] =
            double(nowNs() - c0) / double(bytes);
    }

    std::vector<svc::Json> docs_;
    std::vector<svc::CampaignSpec> specs_;
    std::vector<std::size_t> jobSpec_; //!< job k submits specs_[jobSpec_[k]]
    std::vector<std::vector<std::string>> refRows_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "sweep_sat")
        return std::make_unique<SweepSat>(seed);
    if (name == "sweep_low")
        return std::make_unique<SweepLow>(seed);
    if (name == "serve_mix")
        return std::make_unique<ServeMix>(seed);
    return nullptr;
}

} // namespace e2e
