/**
 * @file
 * The benchmark's own tests: the timing decorators are observation
 * only, and the correctness gate notices a single perturbed byte.
 */

#include <cmath>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "bench.hh"
#include "gate.hh"
#include "svc/campaign.hh"
#include "svc/json.hh"
#include "timed.hh"

namespace e2e {
namespace {

const char *const kWorkloads[] = {"sweep_sat", "sweep_low", "serve_mix"};

class PerWorkload : public ::testing::TestWithParam<const char *>
{};

// Decorated runs must equal undecorated runs of the same point, both
// through the injected-fabric constructor and the plain one.
TEST_P(PerWorkload, DecoratorsAreBitIdentical)
{
    std::unique_ptr<Workload> w = makeWorkload(GetParam(), 1);
    ASSERT_NE(w, nullptr);
    LayerCounters c;
    std::vector<ScalarPoint> pts = w->scalarPoints();
    ASSERT_GE(pts.size(), 40u);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const ScalarPoint &p = pts[i];
        hirise::sim::SimResult bare =
            runScalarPoint(p.spec, p.cfg, p.make(), nullptr);
        hirise::sim::SimResult timed =
            runScalarPoint(p.spec, p.cfg, p.make(), &c);
        hirise::sim::NetworkSim plain(p.spec, p.cfg, p.make());
        EXPECT_TRUE(resultsIdentical(bare, timed)) << "point " << i;
        EXPECT_TRUE(resultsIdentical(bare, plain.run())) << "point " << i;
    }
    EXPECT_GT(c.arbCalls, 0u);
    EXPECT_GT(c.trafficCalls, 0u);
}

// One changed byte in one op must be counted as exactly one failed op
// and must change the digest.
TEST_P(PerWorkload, GateTripsOnOnePerturbedByte)
{
    std::unique_ptr<Workload> w = makeWorkload(GetParam(), 1);
    std::vector<std::string> ref = w->referenceOps();
    ASSERT_FALSE(ref.empty());
    EXPECT_EQ(countMismatches(ref, ref), 0u);
    for (std::size_t at : {std::size_t(0), ref.size() / 2, ref.size() - 1}) {
        std::vector<std::string> bad = ref;
        std::string &op = bad[at];
        op[op.size() / 2] ^= 1;
        EXPECT_EQ(countMismatches(bad, ref), 1u);
        EXPECT_NE(opsDigest(bad), opsDigest(ref));
    }
}

// A one-ulp change in any reported SimResult field reaches the bytes
// the gate compares.
TEST(Gate, OneUlpChangesTheResult)
{
    hirise::SwitchSpec spec;
    hirise::sim::SimConfig cfg;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 800;
    cfg.injectionRate = 0.3;
    hirise::sim::SimResult r = runScalarPoint(
        spec, cfg,
        std::make_shared<hirise::traffic::UniformRandom>(spec.radix),
        nullptr);
    hirise::sim::SimResult s = r;
    s.acceptedFlitsPerCycle =
        std::nextafter(s.acceptedFlitsPerCycle, 1e9);
    EXPECT_FALSE(resultsIdentical(r, s));
    hirise::sim::RunPoint pt{cfg.injectionRate, cfg.seed};
    EXPECT_NE(hirise::svc::resultRow(0, pt, r),
              hirise::svc::resultRow(0, pt, s));
}

// The held-out seed's reference digest, recorded when the benchmark
// was defined and never used while tuning it, still reproduces.
TEST_P(PerWorkload, HeldOutSeedMatchesRecordedDigest)
{
    std::ifstream in(E2E_REFERENCE_JSON);
    ASSERT_TRUE(in) << E2E_REFERENCE_JSON;
    std::stringstream ss;
    ss << in.rdbuf();
    hirise::svc::Json doc;
    ASSERT_TRUE(hirise::svc::Json::parse(ss.str(), &doc));
    auto seed = static_cast<std::uint64_t>(doc["held_out_seed"].asNumber());
    const std::string &want =
        doc[GetParam()][std::to_string(seed)].asString();
    ASSERT_FALSE(want.empty());
    std::unique_ptr<Workload> w = makeWorkload(GetParam(), seed);
    EXPECT_EQ(hex64(opsDigest(w->referenceOps())), want);
}

INSTANTIATE_TEST_SUITE_P(All, PerWorkload, ::testing::ValuesIn(kWorkloads));

} // namespace
} // namespace e2e
