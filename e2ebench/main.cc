/**
 * @file
 * End-to-end benchmark. One process runs one workload:
 *
 *   e2e_bench --workload sweep_sat|sweep_low|serve_mix --seed N
 *              --seconds S --trace 0|1 [--reference FILE]
 *              [--work-dir DIR] [--git-sha SHA] [--record]
 *
 * It repeats passes (set-up + timed body) for S seconds, checks every
 * operation's bytes against an independent reference path and the
 * recorded digest, and prints as its last stdout line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1 (see LEDGER.md).
 * --record prints the seed's reference digest instead.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "common/simd.hh"
#include "gate.hh"
#include "sim/sweep.hh"
#include "svc/json.hh"

namespace {

using e2e::LayerMetrics;
using e2e::PassResult;
using hirise::svc::Json;

/** Environment knobs that change how the engine runs (the A/B pins of
 *  ROADMAP items 2-3). They are honoured, so a pinned run measures the
 *  pinned engine, and recorded in every result's context line, next to
 *  the tier, lanes and pool size they select. HIRISE_SIMCACHE_DIR is
 *  recorded too but has no effect: every cache here is private. */
constexpr const char *kEngineEnv[] = {
    "HIRISE_BATCH", "HIRISE_THREADS", "HIRISE_SIMD_FORCE_TIER",
    "HIRISE_SIMD_FORCE_SCALAR", "HIRISE_LEGACY_SAT_QUEUES",
    "HIRISE_SIMCACHE_DIR"};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string reference;
    std::string workDir = ".";
    std::string gitSha = "unknown";
    bool record = false;
};

bool
parseArgs(int argc, char **argv, Args *a)
{
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--record") {
            a->record = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a->workload = v;
        } else if (k == "--seed") {
            a->seed = std::strtoull(v.c_str(), &end, 10);
            haveSeed = end && *end == '\0' && !v.empty() && v[0] != '-';
            if (!haveSeed)
                return false;
        } else if (k == "--seconds") {
            a->seconds = std::strtod(v.c_str(), &end);
            if (!end || *end != '\0' || !(a->seconds > 0))
                return false;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a->trace = v[0] - '0';
        } else if (k == "--reference") {
            a->reference = v;
        } else if (k == "--work-dir") {
            a->workDir = v;
        } else if (k == "--git-sha") {
            a->gitSha = v;
        } else {
            return false;
        }
    }
    return !a->workload.empty() && haveSeed &&
           (a->record || (a->seconds > 0 && a->trace >= 0));
}

std::string
contextJson(const Args &a, const e2e::Workload &w)
{
    Json env = Json::object();
    for (const char *k : kEngineEnv) {
        const char *v = std::getenv(k);
        env.set(k, v ? std::string(v) : std::string("unset"));
    }
    Json c = Json::object();
    c.set("workload", a.workload);
    c.set("seed", double(a.seed));
    c.set("nproc", double(std::thread::hardware_concurrency()));
    c.set("simd_tier",
          hirise::simd::tierName(hirise::simd::activeTier()));
#ifdef NDEBUG
    c.set("build_type", std::string(E2E_BUILD_TYPE) + " (NDEBUG)");
#else
    c.set("build_type", std::string(E2E_BUILD_TYPE) + " (assertions on)");
#endif
    c.set("git_sha", a.gitSha);
    c.set("pool_threads", double(w.poolThreads()));
    c.set("batch_replicas", double(hirise::sim::batchReplicas()));
    c.set("env", std::move(env));
    return c.dump();
}

/** Recorded digest for (workload, seed), or "" when none is. */
std::string
recordedDigest(const std::string &path, const Args &a)
{
    if (path.empty())
        return "";
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    Json doc;
    std::string err;
    if (!Json::parse(ss.str(), &doc, &err))
        throw std::runtime_error(path + ": " + err);
    const Json &d = doc[a.workload][std::to_string(a.seed)];
    return d.isString() ? d.asString() : "";
}

double
median(const std::vector<PassResult> &ps, double PassResult::*field)
{
    std::vector<double> v;
    for (const PassResult &p : ps)
        v.push_back(p.*field);
    return e2e::quantile(v, 0.5);
}

std::vector<double>
pooled(const std::vector<PassResult> &ps,
       std::vector<double> PassResult::*field)
{
    std::vector<double> v;
    for (const PassResult &p : ps)
        v.insert(v.end(), (p.*field).begin(), (p.*field).end());
    return v;
}

/** Reset the kernel's resident-set high-water mark (VmHWM) of this
 *  process, so the next peakRssMb() reading covers one pass. Where
 *  /proc/self/clear_refs is not writable the mark keeps growing and
 *  each reading covers the process so far. */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Resident high-water mark in MB: VmHWM since the last reset, or the
 *  process lifetime's ru_maxrss where /proc is unavailable. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

Json
metric(double v, const char *unit)
{
    Json j = Json::object();
    j.set("value", v);
    j.set("unit", unit);
    return j;
}

int
run(const Args &a, std::int64_t t_start)
{
    std::string recorded = recordedDigest(a.reference, a);
    std::filesystem::create_directories(a.workDir);
    if (::chdir(a.workDir.c_str()) != 0)
        throw std::runtime_error("cannot enter " + a.workDir);
    std::unique_ptr<e2e::Workload> w = e2e::makeWorkload(a.workload, a.seed);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
        return 2;
    }
    if (a.record) {
        std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"digest\":\"%s\"}\n",
                    a.workload.c_str(),
                    static_cast<unsigned long long>(a.seed),
                    e2e::hex64(e2e::opsDigest(w->referenceOps())).c_str());
        return 0;
    }

    // Passes until the time is used. A traced run spends half of it
    // untraced, so trace.overhead_frac compares like with like.
    e2e::Ledger ledger;
    std::vector<PassResult> plain, traced;
    bool first = true;
    auto passesFor = [&](double secs, bool on, std::vector<PassResult> &out) {
        ledger.enable(on);
        std::int64_t begin = e2e::nowNs();
        do {
            std::int64_t setupStart = first ? t_start : e2e::nowNs();
            first = false;
            resetPeakRss();
            out.push_back(w->runPass(setupStart, ledger));
            out.back().peakRssMb = peakRssMb();
        } while (double(e2e::nowNs() - begin) * 1e-9 < secs);
        ledger.enable(false);
    };
    if (a.trace) {
        passesFor(a.seconds / 2, false, plain);
        passesFor(a.seconds / 2, true, traced);
    } else {
        passesFor(a.seconds, false, plain);
    }
    // Correctness gate.
    std::vector<std::string> ref = w->referenceOps();
    std::string digest = e2e::hex64(e2e::opsDigest(ref));
    std::size_t attempted = 0, failed = 0;
    for (const auto *set : {&plain, &traced}) {
        for (const PassResult &p : *set) {
            attempted += p.ops.size();
            failed += e2e::countMismatches(p.ops, ref);
        }
    }
    bool digestOk = recorded.empty() || recorded == digest;
    if (!digestOk)
        failed = attempted; // the reference path itself moved
    std::size_t rerunMismatch = 0;
    Json metrics = Json::object();
    if (a.trace) {
        LayerMetrics m = w->traceLayers(ledger.spans(), &rerunMismatch);
        m["trace.overhead_frac"] = median(traced, &PassResult::wallS) /
                                       median(plain, &PassResult::wallS) -
                                   1.0;
        for (const auto &[name, unit] : e2e::layerMetricUnits())
            metrics.set(name, metric(m.at(name), unit.c_str()));
        ledger.writeJsonl("spans-" + a.workload + "-s" +
                              std::to_string(a.seed) + ".jsonl",
                          contextJson(a, *w));
    } else {
        auto pt = [&](std::vector<double> PassResult::*f, double q) {
            return e2e::quantile(pooled(plain, f), q);
        };
        metrics.set("setup_s", metric(median(plain, &PassResult::setupS), "s"));
        metrics.set("wall_s", metric(median(plain, &PassResult::wallS), "s"));
        metrics.set("peak_rss_mb",
                    metric(median(plain, &PassResult::peakRssMb), "MB"));
        metrics.set("point_ms_p50", metric(pt(&PassResult::pointMs, 0.5), "ms"));
        metrics.set("point_ms_p90", metric(pt(&PassResult::pointMs, 0.9), "ms"));
        metrics.set("job_ms_p50", metric(pt(&PassResult::jobMs, 0.5), "ms"));
        metrics.set("job_ms_p90", metric(pt(&PassResult::jobMs, 0.9), "ms"));
        metrics.set("first_row_ms_p50",
                    metric(pt(&PassResult::firstRowMs, 0.5), "ms"));
        metrics.set("first_row_ms_p90",
                    metric(pt(&PassResult::firstRowMs, 0.9), "ms"));
    }

    bool correct = failed == 0 && rerunMismatch == 0 && digestOk;
    Json samples = Json::object();
    samples.set("passes", double(plain.size() + traced.size()));
    Json walls = Json::array(), setups = Json::array(), rss = Json::array();
    for (const auto *set : {&plain, &traced}) {
        for (const PassResult &p : *set) {
            walls.push(p.wallS);
            setups.push(p.setupS);
            rss.push(p.peakRssMb);
        }
    }
    samples.set("pass_wall_s", std::move(walls));
    samples.set("pass_setup_s", std::move(setups));
    samples.set("pass_peak_rss_mb", std::move(rss));
    samples.set("point_ms", double(pooled(plain, &PassResult::pointMs).size()));
    samples.set("job_ms", double(pooled(plain, &PassResult::jobMs).size()));
    samples.set("first_row_ms",
                double(pooled(plain, &PassResult::firstRowMs).size()));
    Json gate = Json::object();
    gate.set("digest", digest);
    gate.set("recorded_digest", recorded.empty() ? "none" : recorded);
    gate.set("failed_frac", attempted ? double(failed) / attempted : 0.0);
    gate.set("rerun_mismatches", double(rerunMismatch));
    std::printf("context: %s\n", contextJson(a, *w).c_str());
    std::printf("samples: %s\n", samples.dump().c_str());
    std::printf("gate: %s\n", gate.dump().c_str());

    Json out = Json::object();
    out.set("correct", correct);
    out.set("attempted", double(attempted));
    out.set("failed", double(failed));
    out.set("metrics", std::move(metrics));
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::int64_t tStart = e2e::nowNs();
    Args a;
    if (!parseArgs(argc, argv, &a)) {
        std::fprintf(stderr,
                     "usage: %s --workload W --seed N --seconds S "
                     "--trace 0|1 [--reference FILE] [--work-dir DIR] "
                     "[--git-sha SHA] [--record]\n",
                     argv[0]);
        return 2;
    }
    try {
        return run(a, tStart);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2e_bench: %s\n", e.what());
        return 1;
    }
}
