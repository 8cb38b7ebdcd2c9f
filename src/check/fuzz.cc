#include "check/fuzz.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "check/lockstep.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "fabric/fabric.hh"
#include "fabric/hirise.hh"
#include "traffic/pattern.hh"

namespace hirise::check {

const char *
toString(PatternKind p)
{
    switch (p) {
      case PatternKind::Uniform: return "uniform";
      case PatternKind::Hotspot: return "hotspot";
      case PatternKind::Transpose: return "transpose";
      case PatternKind::BitComplement: return "bit-complement";
      case PatternKind::Bursty: return "bursty";
    }
    return "?";
}

namespace {

const char *
codeName(Topology t)
{
    switch (t) {
      case Topology::Flat2D: return "Topology::Flat2D";
      case Topology::Folded3D: return "Topology::Folded3D";
      case Topology::HiRise: return "Topology::HiRise";
    }
    return "?";
}

const char *
codeName(ArbScheme a)
{
    switch (a) {
      case ArbScheme::Lrg: return "ArbScheme::Lrg";
      case ArbScheme::LayerLrg: return "ArbScheme::LayerLrg";
      case ArbScheme::Wlrg: return "ArbScheme::Wlrg";
      case ArbScheme::Clrg: return "ArbScheme::Clrg";
      case ArbScheme::Islip: return "ArbScheme::Islip";
      case ArbScheme::Pim: return "ArbScheme::Pim";
      case ArbScheme::Wavefront: return "ArbScheme::Wavefront";
    }
    return "?";
}

const char *
codeName(ChannelAlloc a)
{
    switch (a) {
      case ChannelAlloc::InputBinned:
        return "ChannelAlloc::InputBinned";
      case ChannelAlloc::OutputBinned:
        return "ChannelAlloc::OutputBinned";
      case ChannelAlloc::Priority: return "ChannelAlloc::Priority";
    }
    return "?";
}

const char *
codeName(PatternKind p)
{
    switch (p) {
      case PatternKind::Uniform: return "check::PatternKind::Uniform";
      case PatternKind::Hotspot: return "check::PatternKind::Hotspot";
      case PatternKind::Transpose:
        return "check::PatternKind::Transpose";
      case PatternKind::BitComplement:
        return "check::PatternKind::BitComplement";
      case PatternKind::Bursty: return "check::PatternKind::Bursty";
    }
    return "?";
}

const char *
codeName(Mutation m)
{
    switch (m) {
      case Mutation::None: return "check::Mutation::None";
      case Mutation::LrgUpdateOffByOne:
        return "check::Mutation::LrgUpdateOffByOne";
      case Mutation::ClrgHalveWinnerOnly:
        return "check::Mutation::ClrgHalveWinnerOnly";
      case Mutation::IslipGrantPtrStuck:
        return "check::Mutation::IslipGrantPtrStuck";
      case Mutation::PimReuseRoundRng:
        return "check::Mutation::PimReuseRoundRng";
      case Mutation::WavefrontStuckPriority:
        return "check::Mutation::WavefrontStuckPriority";
      case Mutation::IsolationThresholdOffByOne:
        return "check::Mutation::IsolationThresholdOffByOne";
    }
    return "?";
}

const char *
codeName(sim::FaultEvent::Kind k)
{
    switch (k) {
      case sim::FaultEvent::Kind::FailChannel:
        return "sim::FaultEvent::Kind::FailChannel";
      case sim::FaultEvent::Kind::RecoverChannel:
        return "sim::FaultEvent::Kind::RecoverChannel";
      case sim::FaultEvent::Kind::FailLayer:
        return "sim::FaultEvent::Kind::FailLayer";
      case sim::FaultEvent::Kind::RecoverLayer:
        return "sim::FaultEvent::Kind::RecoverLayer";
    }
    return "?";
}

std::string
fmtDouble(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return buf;
}

/** Fresh pattern per run: Bursty keeps per-input state, so the two
 *  differential runs must never share one instance. */
std::shared_ptr<traffic::TrafficPattern>
makePattern(const DiffConfig &c)
{
    const std::uint32_t r = c.spec.radix;
    switch (c.pattern) {
      case PatternKind::Uniform:
        return std::make_shared<traffic::UniformRandom>(r);
      case PatternKind::Hotspot:
        return std::make_shared<traffic::Hotspot>(r, c.hotOutput);
      case PatternKind::Transpose:
        return std::make_shared<traffic::Transpose>(r);
      case PatternKind::BitComplement:
        return std::make_shared<traffic::BitComplement>(r);
      case PatternKind::Bursty:
        return std::make_shared<traffic::Bursty>(r, c.meanBurstLen);
    }
    panic("unknown pattern kind");
}

bool
sameResult(const sim::SimResult &a, const sim::SimResult &b,
           std::string *why)
{
    auto num = [&](const char *name, double x, double y) {
        if (x == y)
            return true;
        *why = std::string(name) + " " + fmtDouble(x) + " vs " +
               fmtDouble(y);
        return false;
    };
    if (!num("offeredFlitsPerCycle", a.offeredFlitsPerCycle,
             b.offeredFlitsPerCycle) ||
        !num("acceptedFlitsPerCycle", a.acceptedFlitsPerCycle,
             b.acceptedFlitsPerCycle) ||
        !num("avgLatencyCycles", a.avgLatencyCycles,
             b.avgLatencyCycles) ||
        !num("p99LatencyCycles", a.p99LatencyCycles,
             b.p99LatencyCycles) ||
        !num("avgQueueingCycles", a.avgQueueingCycles,
             b.avgQueueingCycles) ||
        !num("fairness", a.fairness, b.fairness)) {
        return false;
    }
    if (a.packetsDelivered != b.packetsDelivered) {
        *why = "packetsDelivered " +
               std::to_string(a.packetsDelivered) + " vs " +
               std::to_string(b.packetsDelivered);
        return false;
    }
    if (a.inFlightAtMeasureEnd != b.inFlightAtMeasureEnd) {
        *why = "inFlightAtMeasureEnd " +
               std::to_string(a.inFlightAtMeasureEnd) + " vs " +
               std::to_string(b.inFlightAtMeasureEnd);
        return false;
    }
    if (a.latencyOverflowPackets != b.latencyOverflowPackets) {
        *why = "latencyOverflowPackets " +
               std::to_string(a.latencyOverflowPackets) + " vs " +
               std::to_string(b.latencyOverflowPackets);
        return false;
    }
    if (a.packetsDropped != b.packetsDropped) {
        *why = "packetsDropped " + std::to_string(a.packetsDropped) +
               " vs " + std::to_string(b.packetsDropped);
        return false;
    }
    if (a.perInputLatency.size() != b.perInputLatency.size() ||
        a.perInputThroughput.size() != b.perInputThroughput.size()) {
        *why = "per-input vector sizes differ";
        return false;
    }
    for (std::size_t i = 0; i < a.perInputLatency.size(); ++i) {
        if (!num(("perInputLatency[" + std::to_string(i) + "]").c_str(),
                 a.perInputLatency[i], b.perInputLatency[i]))
            return false;
        if (!num(("perInputThroughput[" + std::to_string(i) +
                  "]").c_str(),
                 a.perInputThroughput[i], b.perInputThroughput[i]))
            return false;
    }
    return true;
}

} // namespace

bool
isValid(const DiffConfig &c)
{
    const SwitchSpec &s = c.spec;
    if (s.radix < 2 || s.flitBits == 0)
        return false;
    if (s.schedIters < 1 || s.schedIters > 8)
        return false;
    if (s.topo == Topology::Flat2D) {
        if (s.arb != ArbScheme::Lrg && s.arb != ArbScheme::Islip &&
            s.arb != ArbScheme::Pim && s.arb != ArbScheme::Wavefront)
            return false;
    } else {
        if (s.layers < 2)
            return false;
        if (s.topo == Topology::Folded3D && s.arb != ArbScheme::Lrg)
            return false;
        if (s.topo == Topology::HiRise) {
            if (s.channels < 1 ||
                (s.arb != ArbScheme::LayerLrg &&
                 s.arb != ArbScheme::Wlrg && s.arb != ArbScheme::Clrg))
                return false;
            if (s.alloc == ChannelAlloc::InputBinned &&
                s.channels > s.portsPerLayer())
                return false;
            if (s.clrgMaxCount < 1)
                return false;
        }
    }
    if (c.cfg.numVcs < 1 || c.cfg.vcDepth < 1 || c.cfg.packetLen < 1)
        return false;
    if (c.cfg.measureCycles < 1)
        return false;
    if (!(c.cfg.injectionRate > 0.0) || c.cfg.injectionRate > 1.0)
        return false;
    if (c.pattern == PatternKind::Hotspot && c.hotOutput >= s.radix)
        return false;
    if (c.pattern == PatternKind::Bursty && !(c.meanBurstLen >= 1.0))
        return false;
    if (!c.faults.empty() && s.topo != Topology::HiRise)
        return false;
    for (const auto &f : c.faults) {
        if (f.srcLayer >= s.layers || f.dstLayer >= s.layers ||
            f.srcLayer == f.dstLayer || f.chan >= s.channels)
            return false;
    }
    // Non-fatal twin of FaultSchedule::validate.
    const sim::FaultSchedule &fs = c.faultSchedule;
    if (!fs.empty() && s.topo != Topology::HiRise)
        return false;
    if (fs.windowCycles == 0 || fs.maxErrorsPerWindow == 0)
        return false;
    for (const auto &e : fs.events) {
        const bool layer_kind =
            e.kind == sim::FaultEvent::Kind::FailLayer ||
            e.kind == sim::FaultEvent::Kind::RecoverLayer;
        if (e.src >= s.layers)
            return false;
        if (!layer_kind && (e.dst >= s.layers || e.src == e.dst ||
                            e.chan >= s.channels))
            return false;
    }
    for (const auto &fl : fs.flaky) {
        if (fl.src >= s.layers || fl.dst >= s.layers ||
            fl.src == fl.dst || fl.chan >= s.channels)
            return false;
        if (!(fl.errorRate > 0.0) || fl.errorRate > 1.0)
            return false;
    }
    return true;
}

std::string
describe(const DiffConfig &c)
{
    std::ostringstream os;
    os << c.spec.name() << " " << toString(c.pattern);
    if (c.pattern == PatternKind::Hotspot)
        os << "(" << c.hotOutput << ")";
    os << " rate=" << c.cfg.injectionRate
       << " vcs=" << c.cfg.numVcs << "x" << c.cfg.vcDepth
       << " len=" << c.cfg.packetLen
       << " warm=" << c.cfg.warmupCycles
       << " meas=" << c.cfg.measureCycles
       << " seed=" << c.cfg.seed
       << " mode=" << (c.cfg.denseStepping ? "dense" : "event")
       << " tier=" << simd::tierName(c.tier);
    if (!c.faults.empty())
        os << " faults=" << c.faults.size();
    if (!c.faultSchedule.empty())
        os << " sched=" << c.faultSchedule.events.size() << "ev/"
           << c.faultSchedule.flaky.size() << "fl";
    if (c.mutation != Mutation::None)
        os << " mutation=" << toString(c.mutation);
    return os.str();
}

DiffOutcome
runDifferential(const DiffConfig &c)
{
    DiffOutcome out;

    // Pin the config's SIMD tier for the whole differential (clamped
    // to what this build/host supports). The store is process-global,
    // so concurrent differentials with different tiers can flip it
    // mid-run — benign by design: every tier is bit-identical, so a
    // mid-run flip that changes any result is itself a real kernel
    // divergence the comparison passes will catch.
    simd::forceTier(c.tier);

    // Pass 1: optimized fabric with the oracle riding shotgun,
    // compared cycle by cycle.
    auto lockstep = std::make_unique<LockstepFabric>(c.spec, c.mutation);
    auto *ls = lockstep.get();
    for (const auto &f : c.faults)
        ls->failChannel(f.srcLayer, f.dstLayer, f.chan);
    sim::NetworkSim opt_sim(c.spec, c.cfg, makePattern(c),
                            std::move(lockstep));
    opt_sim.setFaultSchedule(c.faultSchedule);
    sim::SimResult opt_res = opt_sim.run();
    if (ls->mismatched()) {
        out.ok = false;
        out.mismatchCycle = ls->mismatchCycle();
        out.detail = "lockstep: " + ls->mismatchDetail();
        return out;
    }

    // Pass 2: the whole simulation end to end on the pure oracle; the
    // final SimResult must be bit-exact.
    auto ref_fab = std::make_unique<RefFabricAdapter>(c.spec, c.mutation);
    for (const auto &f : c.faults)
        ref_fab->ref().failChannel(f.srcLayer, f.dstLayer, f.chan);
    sim::NetworkSim ref_sim(c.spec, c.cfg, makePattern(c),
                            std::move(ref_fab));
    // The isolation-threshold mutation perturbs the pure-oracle
    // replay's schedule only: pass 1's single FaultManager feeds both
    // lockstep sides, so a flag shared there could never diverge.
    sim::FaultSchedule ref_sched = c.faultSchedule;
    if (c.mutation == Mutation::IsolationThresholdOffByOne)
        ref_sched.mutIsolationOffByOne = true;
    ref_sim.setFaultSchedule(ref_sched);
    sim::SimResult ref_res = ref_sim.run();

    std::string why;
    if (!sameResult(opt_res, ref_res, &why)) {
        out.ok = false;
        out.mismatchCycle = c.cfg.warmupCycles + c.cfg.measureCycles;
        out.detail = "SimResult diverged: " + why;
        return out;
    }

    // Pass 3: the optimized fabric again in the opposite stepping
    // mode; the event-driven and dense cores must agree bit-exactly.
    // Skipped under an oracle mutation (it perturbs only the ref side,
    // so this pass would compare two unmutated runs regardless).
    if (c.mutation == Mutation::None) {
        DiffConfig flip = c;
        flip.cfg.denseStepping = !c.cfg.denseStepping;
        auto alt_fab = fabric::makeFabric(flip.spec);
        if (auto *hr =
                dynamic_cast<fabric::HiRiseFabric *>(alt_fab.get())) {
            for (const auto &f : flip.faults)
                hr->failChannel(f.srcLayer, f.dstLayer, f.chan);
        }
        sim::NetworkSim alt_sim(flip.spec, flip.cfg, makePattern(flip),
                                std::move(alt_fab));
        alt_sim.setFaultSchedule(flip.faultSchedule);
        sim::SimResult alt_res = alt_sim.run();
        if (!sameResult(opt_res, alt_res, &why)) {
            out.ok = false;
            out.mismatchCycle =
                c.cfg.warmupCycles + c.cfg.measureCycles;
            out.detail = std::string("stepping-mode divergence (") +
                         (c.cfg.denseStepping ? "dense" : "event") +
                         " vs " +
                         (flip.cfg.denseStepping ? "dense" : "event") +
                         "): " + why;
            return out;
        }
    }
    return out;
}

DiffConfig
sampleConfig(Rng &rng)
{
    auto u32 = [&](std::uint32_t lo, std::uint32_t hi) {
        return lo + static_cast<std::uint32_t>(rng.below(hi - lo + 1));
    };

    DiffConfig c;
    // Flat2D gets a larger share than its one-scheme days: the four
    // crossbar schedulers all live there.
    std::uint32_t topo_pick = u32(0, 9);
    if (topo_pick < 4) {
        c.spec.topo = Topology::Flat2D;
        static constexpr ArbScheme kFlat[] = {
            ArbScheme::Lrg, ArbScheme::Islip, ArbScheme::Pim,
            ArbScheme::Wavefront};
        c.spec.arb = kFlat[u32(0, 3)];
        c.spec.radix = u32(2, 40);
        c.spec.layers = 1;
        c.spec.channels = 1;
        if (c.spec.arb == ArbScheme::Islip)
            c.spec.schedIters = u32(1, 4);
        if (c.spec.arb == ArbScheme::Pim) {
            c.spec.schedIters = u32(1, 3);
            c.spec.schedSeed = rng.next();
        }
    } else if (topo_pick < 5) {
        c.spec.topo = Topology::Folded3D;
        c.spec.arb = ArbScheme::Lrg;
        c.spec.radix = u32(2, 40);
        c.spec.layers = u32(2, 4);
        c.spec.channels = 1;
    } else {
        c.spec.topo = Topology::HiRise;
        std::uint32_t layers = u32(2, 4);
        std::uint32_t ppl = u32(2, 8);
        // Deltas up to layers-1 keep portsPerLayer() == ppl while
        // still exercising uneven splits (including empty top layers).
        c.spec.layers = layers;
        c.spec.radix = layers * ppl - u32(0, layers - 1);
        c.spec.channels = u32(1, std::min<std::uint32_t>(4, ppl));
        static constexpr ArbScheme kArbs[] = {
            ArbScheme::LayerLrg, ArbScheme::Wlrg, ArbScheme::Clrg};
        c.spec.arb = kArbs[u32(0, 2)];
        static constexpr ChannelAlloc kAllocs[] = {
            ChannelAlloc::InputBinned, ChannelAlloc::OutputBinned,
            ChannelAlloc::Priority};
        c.spec.alloc = kAllocs[u32(0, 2)];
        c.spec.clrgMaxCount = u32(1, 3);
    }

    c.cfg.numVcs = u32(1, 4);
    c.cfg.vcDepth = u32(1, 4);
    c.cfg.packetLen = u32(1, 4);
    // ~10% of configs run at exactly rate 1.0 so the scalar saturation
    // fast path (virtual source queues) gets differential coverage
    // against the oracle and the opposite stepping mode.
    c.cfg.injectionRate =
        u32(0, 9) == 0 ? 1.0 : 0.05 + 0.85 * rng.uniform();
    c.cfg.warmupCycles = u32(0, 100);
    c.cfg.measureCycles = u32(50, 400);
    c.cfg.seed = rng.next();
    c.cfg.denseStepping = rng.below(2) == 1;
    // Tier axis: sampled over all compiled tiers; forceTier clamps to
    // the host's best at run time, so configs replay anywhere.
    c.tier = u32(0, 1) == 0 ? simd::Tier::Scalar : simd::Tier::Avx2;

    switch (u32(0, 9)) {
      case 4:
      case 5:
        c.pattern = PatternKind::Hotspot;
        c.hotOutput = u32(0, c.spec.radix - 1);
        break;
      case 6:
        c.pattern = PatternKind::Transpose;
        break;
      case 7:
        c.pattern = PatternKind::BitComplement;
        break;
      case 8:
      case 9:
        c.pattern = PatternKind::Bursty;
        c.meanBurstLen = static_cast<double>(u32(1, 8));
        break;
      default:
        c.pattern = PatternKind::Uniform;
        break;
    }

    if (c.spec.topo == Topology::HiRise && u32(0, 9) < 3) {
        std::uint32_t pool =
            c.spec.layers * (c.spec.layers - 1) * c.spec.channels;
        std::uint32_t want =
            u32(1, std::max<std::uint32_t>(1, pool / 2));
        for (std::uint32_t tries = 0;
             tries < 8 * want && c.faults.size() < want; ++tries) {
            FaultSpec f;
            f.srcLayer = u32(0, c.spec.layers - 1);
            f.dstLayer = u32(0, c.spec.layers - 1);
            f.chan = u32(0, c.spec.channels - 1);
            if (f.srcLayer == f.dstLayer)
                continue;
            bool dup = false;
            for (const auto &g : c.faults)
                dup |= g.srcLayer == f.srcLayer &&
                       g.dstLayer == f.dstLayer && g.chan == f.chan;
            if (!dup)
                c.faults.push_back(f);
        }
    }

    // Dynamic fault-schedule axis: ~40% of HiRise configs get mid-run
    // fail/recover events and/or flaky links. Error rates and window
    // thresholds are deliberately aggressive so isolation (and the
    // isolation-threshold mutation smoke) trips within the short fuzz
    // runs.
    if (c.spec.topo == Topology::HiRise && u32(0, 9) < 4) {
        sim::FaultSchedule &fs = c.faultSchedule;
        const net::Cycle total =
            c.cfg.warmupCycles + c.cfg.measureCycles;
        auto chan_at = [&](std::uint32_t &s, std::uint32_t &d,
                           std::uint32_t &k) {
            s = u32(0, c.spec.layers - 1);
            do {
                d = u32(0, c.spec.layers - 1);
            } while (d == s);
            k = u32(0, c.spec.channels - 1);
        };
        const std::uint32_t nev = u32(0, 3);
        for (std::uint32_t e = 0; e < nev; ++e) {
            std::uint32_t s, d, k;
            chan_at(s, d, k);
            sim::FaultEvent ev;
            ev.cycle = u32(0, static_cast<std::uint32_t>(total) - 1);
            ev.kind = sim::FaultEvent::Kind::FailChannel;
            ev.src = s;
            ev.dst = d;
            ev.chan = k;
            fs.events.push_back(ev);
            if (u32(0, 1)) {
                ev.cycle = u32(static_cast<std::uint32_t>(ev.cycle),
                               static_cast<std::uint32_t>(total));
                ev.kind = sim::FaultEvent::Kind::RecoverChannel;
                fs.events.push_back(ev);
            }
        }
        if (u32(0, 4) == 0) {
            // Whole-layer loss; usually repaired a little later.
            sim::FaultEvent ev;
            ev.cycle = u32(0, static_cast<std::uint32_t>(total) - 1);
            ev.kind = sim::FaultEvent::Kind::FailLayer;
            ev.src = u32(0, c.spec.layers - 1);
            fs.events.push_back(ev);
            if (u32(0, 2)) {
                ev.cycle = u32(static_cast<std::uint32_t>(ev.cycle),
                               static_cast<std::uint32_t>(total));
                ev.kind = sim::FaultEvent::Kind::RecoverLayer;
                fs.events.push_back(ev);
            }
        }
        const std::uint32_t nfl = u32(1, 3);
        for (std::uint32_t f = 0; f < nfl; ++f) {
            sim::FlakyLink fl;
            chan_at(fl.src, fl.dst, fl.chan);
            fl.errorRate = 0.2 + 0.8 * rng.uniform();
            bool dup = false;
            for (const auto &g : fs.flaky)
                dup |= g.src == fl.src && g.dst == fl.dst &&
                       g.chan == fl.chan;
            if (!dup)
                fs.flaky.push_back(fl);
        }
        fs.maxErrorsPerWindow = u32(1, 3);
        fs.windowCycles = 32u << u32(0, 2); // 32 / 64 / 128
        fs.recoveryCycles = u32(0, 1) ? 0 : u32(16, 256);
        fs.seedSalt = rng.next();
    }

    sim_assert(isValid(c), "sampled an invalid config");
    return c;
}

DiffConfig
shrink(const DiffConfig &failing)
{
    auto fails = [](const DiffConfig &c) {
        return isValid(c) && !runDifferential(c).ok;
    };

    DiffConfig best = failing;
    int budget = 300; // differential runs, not candidates
    bool improved = true;
    while (improved && budget > 0) {
        improved = false;
        std::vector<DiffConfig> cands;
        auto add = [&](auto &&tweak) {
            DiffConfig d = best;
            if (tweak(d))
                cands.push_back(std::move(d));
        };

        add([](DiffConfig &d) {
            if (d.cfg.warmupCycles == 0)
                return false;
            d.cfg.warmupCycles = 0;
            return true;
        });
        add([](DiffConfig &d) {
            if (d.cfg.measureCycles <= 1)
                return false;
            d.cfg.measureCycles /= 2;
            return true;
        });
        add([](DiffConfig &d) {
            if (d.cfg.measureCycles <= 1)
                return false;
            --d.cfg.measureCycles;
            return true;
        });
        add([](DiffConfig &d) {
            if (d.faults.empty())
                return false;
            d.faults.clear();
            return true;
        });
        for (std::size_t i = 0; i < best.faults.size(); ++i) {
            add([i](DiffConfig &d) {
                if (d.faults.size() <= 1)
                    return false;
                d.faults.erase(d.faults.begin() +
                               static_cast<std::ptrdiff_t>(i));
                return true;
            });
        }
        add([](DiffConfig &d) {
            if (d.faultSchedule.empty())
                return false;
            d.faultSchedule = sim::FaultSchedule{};
            return true;
        });
        add([](DiffConfig &d) {
            if (d.faultSchedule.events.empty())
                return false;
            d.faultSchedule.events.clear();
            return true;
        });
        add([](DiffConfig &d) {
            if (d.faultSchedule.flaky.empty())
                return false;
            d.faultSchedule.flaky.clear();
            return true;
        });
        for (std::size_t i = 0; i < best.faultSchedule.events.size();
             ++i) {
            add([i](DiffConfig &d) {
                d.faultSchedule.events.erase(
                    d.faultSchedule.events.begin() +
                    static_cast<std::ptrdiff_t>(i));
                return true;
            });
        }
        for (std::size_t i = 0; i < best.faultSchedule.flaky.size();
             ++i) {
            add([i](DiffConfig &d) {
                d.faultSchedule.flaky.erase(
                    d.faultSchedule.flaky.begin() +
                    static_cast<std::ptrdiff_t>(i));
                return true;
            });
        }
        add([](DiffConfig &d) {
            if (d.faultSchedule.recoveryCycles == 0)
                return false;
            d.faultSchedule.recoveryCycles = 0;
            return true;
        });
        add([](DiffConfig &d) {
            if (d.tier == simd::Tier::Scalar)
                return false;
            d.tier = simd::Tier::Scalar;
            return true;
        });
        add([](DiffConfig &d) {
            if (d.pattern == PatternKind::Uniform)
                return false;
            d.pattern = PatternKind::Uniform;
            d.hotOutput = 0;
            return true;
        });
        add([](DiffConfig &d) {
            if (d.cfg.packetLen == 1)
                return false;
            d.cfg.packetLen = 1;
            return true;
        });
        add([](DiffConfig &d) {
            if (d.cfg.numVcs == 1)
                return false;
            d.cfg.numVcs = 1;
            return true;
        });
        add([](DiffConfig &d) {
            if (d.cfg.vcDepth == 1)
                return false;
            d.cfg.vcDepth = 1;
            return true;
        });
        add([](DiffConfig &d) {
            if (d.spec.channels <= 1)
                return false;
            --d.spec.channels;
            return true;
        });
        add([](DiffConfig &d) {
            if (d.spec.topo == Topology::Flat2D || d.spec.layers <= 2)
                return false;
            --d.spec.layers;
            return true;
        });
        add([](DiffConfig &d) {
            if (d.spec.radix <= 2)
                return false;
            d.spec.radix = std::max<std::uint32_t>(2, d.spec.radix / 2);
            d.hotOutput = std::min(d.hotOutput, d.spec.radix - 1);
            return true;
        });
        add([](DiffConfig &d) {
            if (d.spec.radix <= 2)
                return false;
            --d.spec.radix;
            d.hotOutput = std::min(d.hotOutput, d.spec.radix - 1);
            return true;
        });
        add([](DiffConfig &d) {
            if (d.spec.clrgMaxCount <= 1)
                return false;
            d.spec.clrgMaxCount = 1;
            return true;
        });
        add([](DiffConfig &d) {
            if (d.spec.schedIters <= 1)
                return false;
            d.spec.schedIters = 1;
            return true;
        });
        add([](DiffConfig &d) {
            if (d.spec.schedSeed == 0)
                return false;
            d.spec.schedSeed = 0;
            return true;
        });
        add([](DiffConfig &d) {
            if (d.spec.alloc == ChannelAlloc::InputBinned)
                return false;
            d.spec.alloc = ChannelAlloc::InputBinned;
            return true;
        });
        add([](DiffConfig &d) {
            if (d.spec.topo != Topology::HiRise ||
                d.spec.arb == ArbScheme::LayerLrg)
                return false;
            d.spec.arb = ArbScheme::LayerLrg;
            return true;
        });

        for (auto &d : cands) {
            if (budget <= 0)
                break;
            --budget;
            if (fails(d)) {
                best = std::move(d);
                improved = true;
                break;
            }
        }
    }
    return best;
}

std::string
toGtestRepro(const DiffConfig &c)
{
    std::ostringstream os;
    os << "TEST(FuzzRepro, Mismatch)\n"
       << "{\n"
       << "    using namespace hirise;\n"
       << "    check::DiffConfig c;\n"
       << "    c.spec.topo = " << codeName(c.spec.topo) << ";\n"
       << "    c.spec.radix = " << c.spec.radix << ";\n"
       << "    c.spec.layers = " << c.spec.layers << ";\n"
       << "    c.spec.channels = " << c.spec.channels << ";\n"
       << "    c.spec.arb = " << codeName(c.spec.arb) << ";\n"
       << "    c.spec.alloc = " << codeName(c.spec.alloc) << ";\n"
       << "    c.spec.clrgMaxCount = " << c.spec.clrgMaxCount << ";\n"
       << "    c.spec.schedIters = " << c.spec.schedIters << ";\n"
       << "    c.spec.schedSeed = " << c.spec.schedSeed << "ull;\n"
       << "    c.cfg.numVcs = " << c.cfg.numVcs << ";\n"
       << "    c.cfg.vcDepth = " << c.cfg.vcDepth << ";\n"
       << "    c.cfg.packetLen = " << c.cfg.packetLen << ";\n"
       << "    c.cfg.injectionRate = " << fmtDouble(c.cfg.injectionRate)
       << ";\n"
       << "    c.cfg.warmupCycles = " << c.cfg.warmupCycles << ";\n"
       << "    c.cfg.measureCycles = " << c.cfg.measureCycles << ";\n"
       << "    c.cfg.seed = " << c.cfg.seed << "ull;\n"
       << "    c.cfg.denseStepping = "
       << (c.cfg.denseStepping ? "true" : "false") << ";\n"
       << "    c.pattern = " << codeName(c.pattern) << ";\n";
    if (c.pattern == PatternKind::Hotspot)
        os << "    c.hotOutput = " << c.hotOutput << ";\n";
    if (c.pattern == PatternKind::Bursty)
        os << "    c.meanBurstLen = " << fmtDouble(c.meanBurstLen)
           << ";\n";
    if (c.tier != simd::Tier::Scalar)
        os << "    c.tier = simd::Tier::Avx2;\n";
    if (!c.faults.empty()) {
        os << "    c.faults = {";
        for (std::size_t i = 0; i < c.faults.size(); ++i) {
            if (i)
                os << ", ";
            os << "{" << c.faults[i].srcLayer << ", "
               << c.faults[i].dstLayer << ", " << c.faults[i].chan
               << "}";
        }
        os << "};\n";
    }
    if (!c.faultSchedule.empty()) {
        const sim::FaultSchedule &fs = c.faultSchedule;
        for (const auto &e : fs.events) {
            os << "    c.faultSchedule.events.push_back({"
               << e.cycle << ", " << codeName(e.kind) << ", " << e.src
               << ", " << e.dst << ", " << e.chan << "});\n";
        }
        for (const auto &fl : fs.flaky) {
            os << "    c.faultSchedule.flaky.push_back({" << fl.src
               << ", " << fl.dst << ", " << fl.chan << ", "
               << fmtDouble(fl.errorRate) << "});\n";
        }
        os << "    c.faultSchedule.maxErrorsPerWindow = "
           << fs.maxErrorsPerWindow << ";\n"
           << "    c.faultSchedule.windowCycles = " << fs.windowCycles
           << ";\n"
           << "    c.faultSchedule.recoveryCycles = "
           << fs.recoveryCycles << ";\n"
           << "    c.faultSchedule.seedSalt = " << fs.seedSalt
           << "ull;\n";
    }
    if (c.mutation != Mutation::None)
        os << "    c.mutation = " << codeName(c.mutation) << ";\n";
    os << "    auto out = check::runDifferential(c);\n"
       << "    EXPECT_TRUE(out.ok) << out.detail;\n"
       << "}\n";
    return os.str();
}

FuzzReport
runFuzz(const FuzzOptions &opt)
{
    Rng rng(opt.seed);
    FuzzReport rep;

    // Configs are sampled sequentially from the single Rng stream
    // (the sequence never depends on execution), then each batch's
    // differential runs fan out through the pool. The reported
    // mismatch is the first failing index in sample order, so the
    // report matches the old one-at-a-time loop.
    constexpr std::uint64_t kBatch = 32;
    std::uint64_t done = 0;
    std::uint64_t lastReport = 0;
    while (done < opt.configs) {
        std::uint64_t n = std::min(kBatch, opt.configs - done);
        std::vector<DiffConfig> batch;
        batch.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            DiffConfig c = sampleConfig(rng);
            c.mutation = opt.mutation;
            if (opt.verbose)
                inform("config %llu: %s",
                       static_cast<unsigned long long>(done + i),
                       describe(c).c_str());
            batch.push_back(std::move(c));
        }
        std::vector<DiffOutcome> outs = parallelMap(
            batch,
            [](const DiffConfig &c) { return runDifferential(c); },
            opt.threads);
        for (std::uint64_t i = 0; i < n; ++i) {
            if (!outs[i].ok) {
                rep.configsRun = done + i + 1;
                rep.mismatchFound = true;
                rep.failing =
                    opt.shrinkOnFailure ? shrink(batch[i]) : batch[i];
                rep.outcome = runDifferential(rep.failing);
                rep.repro = toGtestRepro(rep.failing);
                return rep;
            }
        }
        done += n;
        rep.configsRun = done;
        if (!opt.verbose && done - lastReport >= 100) {
            lastReport = done;
            inform("fuzz: %llu/%llu configs clean",
                   static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(opt.configs));
        }
    }
    return rep;
}

} // namespace hirise::check
