/**
 * @file
 * Full-featured command-line driver for the switch simulator — the
 * "BookSim-style" entry point a downstream user reaches for first.
 * Every architectural and simulation knob is a flag:
 *
 *   switch_sim_cli --topo hirise --radix 64 --layers 4 --channels 4
 *                  --arb clrg --alloc input --pattern uniform
 *                  --load 0.15 --cycles 50000 --seed 7
 *
 * Prints the physical estimate and the simulation results, including
 * Hi-Rise channel utilization when applicable.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "fabric/hirise.hh"
#include "phys/model.hh"
#include "sim/network_sim.hh"
#include "sim/sweep.hh"
#include "traffic/pattern.hh"
#include "traffic/trace.hh"

namespace {

using namespace hirise;

struct Args
{
    SwitchSpec spec;
    std::string pattern = "uniform";
    std::string traceFile;
    double load = 0.1;
    double burstLen = 8.0;
    std::uint32_t hotspot = ~0u;
    net::Cycle warmup = 10000;
    net::Cycle cycles = 50000;
    std::uint64_t seed = 1;
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: switch_sim_cli [options]\n"
        "  --topo 2d|folded|hirise     (default hirise)\n"
        "  --radix N                   (default 64)\n"
        "  --layers L                  (default 4)\n"
        "  --channels C                (default 4)\n"
        "  --arb lrg|l2l|wlrg|clrg     (default clrg)\n"
        "  --alloc input|output|prio   (default input)\n"
        "  --classes K                 CLRG classes (default 3)\n"
        "  --pattern uniform|hotspot|bursty|adversarial|transpose|\n"
        "            bitcomp|trace    (default uniform)\n"
        "  --trace FILE                trace file for --pattern trace\n"
        "  --hotspot N                 hot output (default radix-1)\n"
        "  --burst B                   mean burst length (default 8)\n"
        "  --load R                    packets/input/cycle\n"
        "  --warmup N --cycles N --seed N\n");
    std::exit(2);
}

/** Parse an offered load: a finite number >= 0 with nothing after it
 *  (so "nan", "-1" and "abc" are rejected, not run as zero traffic). */
double
parseLoad(const char *s)
{
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !std::isfinite(v) || v < 0.0) {
        std::fprintf(stderr,
                     "switch_sim_cli: --load must be a finite number "
                     ">= 0, got '%s'\n",
                     s);
        usage();
    }
    return v;
}

Args
parse(int argc, char **argv)
{
    Args a;
    a.spec.topo = Topology::HiRise;
    a.spec.arb = ArbScheme::Clrg;
    auto next = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string f = argv[i];
        if (f == "--topo") {
            std::string v = next(i);
            if (v == "2d") {
                a.spec.topo = Topology::Flat2D;
                a.spec.arb = ArbScheme::Lrg;
            } else if (v == "folded") {
                a.spec.topo = Topology::Folded3D;
                a.spec.arb = ArbScheme::Lrg;
            } else if (v == "hirise") {
                a.spec.topo = Topology::HiRise;
            } else {
                usage();
            }
        } else if (f == "--radix") {
            a.spec.radix = std::atoi(next(i));
        } else if (f == "--layers") {
            a.spec.layers = std::atoi(next(i));
        } else if (f == "--channels") {
            a.spec.channels = std::atoi(next(i));
        } else if (f == "--arb") {
            std::string v = next(i);
            if (v == "lrg")
                a.spec.arb = ArbScheme::Lrg;
            else if (v == "l2l")
                a.spec.arb = ArbScheme::LayerLrg;
            else if (v == "wlrg")
                a.spec.arb = ArbScheme::Wlrg;
            else if (v == "clrg")
                a.spec.arb = ArbScheme::Clrg;
            else
                usage();
        } else if (f == "--alloc") {
            std::string v = next(i);
            if (v == "input")
                a.spec.alloc = ChannelAlloc::InputBinned;
            else if (v == "output")
                a.spec.alloc = ChannelAlloc::OutputBinned;
            else if (v == "prio")
                a.spec.alloc = ChannelAlloc::Priority;
            else
                usage();
        } else if (f == "--classes") {
            a.spec.clrgMaxCount = std::atoi(next(i)) - 1;
        } else if (f == "--pattern") {
            a.pattern = next(i);
        } else if (f == "--trace") {
            a.traceFile = next(i);
        } else if (f == "--hotspot") {
            a.hotspot = std::atoi(next(i));
        } else if (f == "--burst") {
            a.burstLen = std::atof(next(i));
        } else if (f == "--load") {
            a.load = parseLoad(next(i));
        } else if (f == "--warmup") {
            a.warmup = std::atoll(next(i));
        } else if (f == "--cycles") {
            a.cycles = std::atoll(next(i));
        } else if (f == "--seed") {
            a.seed = std::atoll(next(i));
        } else {
            usage();
        }
    }
    return a;
}

std::shared_ptr<traffic::TrafficPattern>
makePattern(const Args &a)
{
    std::uint32_t radix = a.spec.radix;
    if (a.pattern == "uniform")
        return std::make_shared<traffic::UniformRandom>(radix);
    if (a.pattern == "hotspot") {
        std::uint32_t hot = a.hotspot == ~0u ? radix - 1 : a.hotspot;
        return std::make_shared<traffic::Hotspot>(radix, hot);
    }
    if (a.pattern == "bursty")
        return std::make_shared<traffic::Bursty>(radix, a.burstLen);
    if (a.pattern == "adversarial")
        return std::make_shared<traffic::Adversarial>(
            std::vector<std::uint32_t>{3, 7, 11, 15, 20}, radix - 1,
            radix);
    if (a.pattern == "transpose")
        return std::make_shared<traffic::Transpose>(radix);
    if (a.pattern == "bitcomp")
        return std::make_shared<traffic::BitComplement>(radix);
    if (a.pattern == "trace") {
        if (a.traceFile.empty())
            fatal("--pattern trace needs --trace FILE");
        return std::make_shared<traffic::TraceReplay>(
            traffic::TraceReplay::fromFile(a.traceFile, radix));
    }
    fatal("unknown pattern '%s'", a.pattern.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parse(argc, argv);
    a.spec.validate();

    phys::PhysModel model;
    auto rep = model.evaluate(a.spec);
    std::printf("config   : %s, alloc %s\n", a.spec.name().c_str(),
                toString(a.spec.alloc));
    std::printf("physical : %.3f mm^2, %.2f GHz, %.1f pJ/trans, "
                "%llu TSVs\n",
                rep.areaMm2, rep.freqGhz, rep.energyPerTransPj,
                static_cast<unsigned long long>(rep.numTsvs));

    sim::SimConfig cfg;
    cfg.injectionRate = a.load;
    cfg.warmupCycles = a.warmup;
    cfg.measureCycles = a.cycles;
    cfg.seed = a.seed;
    sim::NetworkSim sim(a.spec, cfg, makePattern(a));
    auto r = sim.run();

    std::printf("traffic  : %s @ %.4f packets/input/cycle\n",
                a.pattern.c_str(), a.load);
    std::printf("accepted : %.3f flits/cycle = %.2f Tbps\n",
                r.acceptedFlitsPerCycle,
                sim::toTbps(r.acceptedFlitsPerCycle, rep.freqGhz,
                            a.spec.flitBits));
    std::printf("latency  : avg %.1f cycles (%.2f ns), p99 %.0f "
                "cycles\n",
                r.avgLatencyCycles, r.avgLatencyCycles / rep.freqGhz,
                r.p99LatencyCycles);
    std::printf("fairness : %.4f (Jain over participating inputs)\n",
                r.fairness);

    if (a.spec.topo == Topology::HiRise) {
        const auto &fab = dynamic_cast<const fabric::HiRiseFabric &>(
            sim.fabricRef());
        const auto &st = fab.stats();
        std::printf("paths    : %llu same-layer grants, %llu "
                    "cross-layer grants\n",
                    static_cast<unsigned long long>(st.grantsLocal),
                    static_cast<unsigned long long>(st.grantsCross));
        double max_util = 0.0;
        for (std::uint32_t s = 0; s < a.spec.layers; ++s)
            for (std::uint32_t d = 0; d < a.spec.layers; ++d)
                for (std::uint32_t k = 0;
                     s != d && k < a.spec.channels; ++k)
                    max_util = std::max(
                        max_util, fab.channelUtilization(s, d, k));
        std::printf("L2LCs    : hottest channel %.1f%% utilized\n",
                    100.0 * max_util);
    }
    return 0;
}
