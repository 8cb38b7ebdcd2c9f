/**
 * @file
 * End-to-end campaign-daemon tests: an in-process svc::Server on a
 * temp unix socket, exercised through svc::Client exactly the way
 * tools/campaign_client does. Covers the byte-identity contract
 * (daemon-streamed rows == direct runCampaign bytes), resubmission
 * served from the warm SimCache, results replay, cancellation of a
 * queued job, graceful-shutdown draining, the default shard size, and
 * the checkpointed scalar path (batch-identical output;
 * cancel-mid-point leaves a snapshot the next run resumes
 * bit-identically).
 */

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "sim/sim_cache.hh"
#include "svc/campaign.hh"
#include "svc/campaign_spec.hh"
#include "svc/client.hh"
#include "svc/server.hh"

namespace hirise {
namespace {

using svc::CampaignSpec;
using svc::Client;
using svc::Json;
using svc::Server;
using svc::ServerOptions;

/** A small fast campaign: 8-radix 2-layer 2-channel CLRG switch,
 *  4 (load, seed) points. Seconds-scale even under sanitizers. */
Json
smallSpecDoc()
{
    Json doc;
    std::string err;
    bool ok = Json::parse(
        R"({
          "name": "svc-test",
          "switch": {"topology": "hirise", "radix": 8, "layers": 2,
                     "channels": 2, "arb": "clrg"},
          "sim": {"warmup_cycles": 100, "measure_cycles": 400,
                  "seed": 7},
          "pattern": {"kind": "uniform-random"},
          "loads": [0.1, 0.2],
          "seeds": [1, 2]
        })",
        &doc, &err);
    EXPECT_TRUE(ok) << err;
    return doc;
}

/** Direct in-process evaluation of @p doc against a private cache:
 *  the reference bytes the daemon must reproduce. */
std::vector<std::string>
localRows(const Json &doc)
{
    CampaignSpec spec;
    std::string err;
    EXPECT_TRUE(svc::parseCampaignSpec(doc, &spec, &err)) << err;
    sim::SimCache cache(256);
    std::vector<std::string> rows;
    svc::RunCampaignOptions opt;
    opt.cache = &cache;
    opt.onRows = [&](std::size_t first,
                     std::vector<std::string> batch) {
        EXPECT_EQ(first, rows.size());
        for (auto &r : batch)
            rows.push_back(std::move(r));
    };
    svc::CampaignOutcome out = svc::runCampaign(spec, opt);
    EXPECT_FALSE(out.cancelled);
    EXPECT_EQ(out.pointsDone, out.pointsTotal);
    return rows;
}

class ServerFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unix socket paths are length-limited (~107 bytes), so the
        // fixture lives under /tmp rather than the build tree.
        dir_ = "/tmp/hirise_svct_" + std::to_string(::getpid());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_ + "/snap");
        cache_ = std::make_unique<sim::SimCache>(4096);

        ServerOptions opt;
        opt.socketPath = dir_ + "/s.sock";
        opt.cache = cache_.get();
        opt.snapshotDir = dir_ + "/snap";
        server_ = std::make_unique<Server>(opt);
        std::string err;
        ASSERT_TRUE(server_->start(&err)) << err;
        loop_ = std::thread([this] { server_->run(); });
    }

    void
    TearDown() override
    {
        if (server_)
            server_->shutdown();
        if (loop_.joinable())
            loop_.join();
        server_.reset();
        std::filesystem::remove_all(dir_);
    }

    std::unique_ptr<Client>
    connect()
    {
        std::string err;
        auto c = Client::connectUnix(dir_ + "/s.sock", &err);
        EXPECT_NE(c, nullptr) << err;
        return c;
    }

    /** submit with stream:true; collect raw row frames until the
     *  terminal frame, calling @p onRow after each. Returns the
     *  terminal frame (null on error). */
    Json
    submitAndCollect(Client &c, const Json &specDoc,
                     std::vector<std::string> *rows,
                     std::string *jobId = nullptr,
                     const std::function<void()> &onRow = {})
    {
        Json req = Json::object();
        req.set("op", "submit");
        req.set("spec", specDoc);
        req.set("stream", true);
        std::string err;
        EXPECT_TRUE(c.send(req, &err)) << err;
        Json resp;
        EXPECT_TRUE(c.recv(&resp, &err)) << err;
        EXPECT_TRUE(resp["ok"].asBool()) << resp.dump();
        if (jobId)
            *jobId = resp["id"].asString();
        return collectStream(c, rows, onRow);
    }

    /** Drain row frames off @p c until a {"done":...} frame. */
    Json
    collectStream(Client &c, std::vector<std::string> *rows,
                  const std::function<void()> &onRow = {})
    {
        std::string payload, err;
        while (c.recvRaw(&payload, &err)) {
            if (payload.rfind("{\"done\":", 0) == 0) {
                Json done;
                EXPECT_TRUE(Json::parse(payload, &done, &err))
                    << err;
                return done;
            }
            rows->push_back(payload);
            if (onRow)
                onRow();
        }
        ADD_FAILURE() << "stream closed without terminal frame: "
                      << err;
        return Json();
    }

    std::string dir_;
    std::unique_ptr<sim::SimCache> cache_;
    std::unique_ptr<Server> server_;
    std::thread loop_;
};

TEST_F(ServerFixture, PingAndUnknownOp)
{
    auto c = connect();
    ASSERT_NE(c, nullptr);
    Json req = Json::object();
    req.set("op", "ping");
    Json resp;
    std::string err;
    ASSERT_TRUE(c->request(req, &resp, &err)) << err;
    EXPECT_TRUE(resp["ok"].asBool());

    req.set("op", "frobnicate");
    ASSERT_TRUE(c->request(req, &resp, &err)) << err;
    EXPECT_FALSE(resp["ok"].asBool());
    EXPECT_NE(resp["error"].asString().find("unknown op"),
              std::string::npos);
}

TEST_F(ServerFixture, BadSpecIsRejectedNotFatal)
{
    auto c = connect();
    ASSERT_NE(c, nullptr);
    Json doc = smallSpecDoc();
    std::string err;
    ASSERT_TRUE(svc::applySpecOverride(&doc, "switch.radix=1", &err));
    Json req = Json::object();
    req.set("op", "submit");
    req.set("spec", doc);
    Json resp;
    ASSERT_TRUE(c->request(req, &resp, &err)) << err;
    EXPECT_FALSE(resp["ok"].asBool());
    EXPECT_NE(resp["error"].asString().find("bad spec"),
              std::string::npos);
    // The daemon survives: ping still answers.
    req = Json::object();
    req.set("op", "ping");
    ASSERT_TRUE(c->request(req, &resp, &err)) << err;
    EXPECT_TRUE(resp["ok"].asBool());
}

TEST_F(ServerFixture, StreamedRowsMatchLocalEvaluationByteForByte)
{
    Json doc = smallSpecDoc();
    std::vector<std::string> expected = localRows(doc);
    ASSERT_EQ(expected.size(), 4u);

    auto c = connect();
    ASSERT_NE(c, nullptr);
    std::vector<std::string> rows;
    Json done = submitAndCollect(*c, doc, &rows);
    EXPECT_EQ(done["state"].asString(), "done");
    EXPECT_EQ(std::size_t(done["rows"].asNumber()), expected.size());
    ASSERT_EQ(rows.size(), expected.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i], expected[i]) << "row " << i;
}

TEST_F(ServerFixture, ResubmissionIsServedFromTheWarmCache)
{
    Json doc = smallSpecDoc();
    auto c = connect();
    ASSERT_NE(c, nullptr);

    std::vector<std::string> first, second;
    Json done1 = submitAndCollect(*c, doc, &first);
    EXPECT_EQ(done1["state"].asString(), "done");
    EXPECT_EQ(done1["cache_hits"].asNumber(), 0.0);
    EXPECT_EQ(done1["cache_misses"].asNumber(), 4.0);

    Json done2 = submitAndCollect(*c, doc, &second);
    EXPECT_EQ(done2["state"].asString(), "done");
    // The acceptance bar is >= 90% cache-served; identical points
    // against a warm in-process cache should in fact be 100%.
    EXPECT_GE(done2["hit_rate"].asNumber(), 0.9);
    EXPECT_EQ(done2["cache_misses"].asNumber(), 0.0);

    // And resubmission changes nothing about the bytes.
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i], second[i]) << "row " << i;
}

TEST_F(ServerFixture, ResultsReplayFromAnOffset)
{
    Json doc = smallSpecDoc();
    auto c = connect();
    ASSERT_NE(c, nullptr);
    std::vector<std::string> rows;
    std::string id;
    Json done = submitAndCollect(*c, doc, &rows, &id);
    ASSERT_EQ(rows.size(), 4u);

    // A second connection replays the tail of the finished job.
    auto c2 = connect();
    ASSERT_NE(c2, nullptr);
    Json req = Json::object();
    req.set("op", "results");
    req.set("id", id);
    req.set("from", 2);
    std::string err;
    ASSERT_TRUE(c2->send(req, &err)) << err;
    Json resp;
    ASSERT_TRUE(c2->recv(&resp, &err)) << err;
    ASSERT_TRUE(resp["ok"].asBool()) << resp.dump();

    std::vector<std::string> tail;
    Json done2 = collectStream(*c2, &tail);
    EXPECT_EQ(done2["state"].asString(), "done");
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail[0], rows[2]);
    EXPECT_EQ(tail[1], rows[3]);

    // Unknown job id errors cleanly.
    req.set("id", "no-such-job");
    ASSERT_TRUE(c2->request(req, &resp, &err)) << err;
    EXPECT_FALSE(resp["ok"].asBool());
}

TEST_F(ServerFixture, QueuedJobCancelsBeforeItRuns)
{
    // Job A occupies the dispatcher; job B sits queued behind it and
    // is cancelled before the dispatcher can reach it (three client
    // round-trips complete in microseconds; A's 16 points do not).
    Json big = smallSpecDoc();
    std::string err;
    ASSERT_TRUE(svc::applySpecOverride(
        &big, "loads=[0.05,0.1,0.15,0.2]", &err));
    ASSERT_TRUE(
        svc::applySpecOverride(&big, "seeds=[1,2,3,4]", &err));

    auto c = connect();
    ASSERT_NE(c, nullptr);
    Json req = Json::object();
    req.set("op", "submit");
    req.set("spec", big);
    Json respA;
    ASSERT_TRUE(c->request(req, &respA, &err)) << err;
    ASSERT_TRUE(respA["ok"].asBool()) << respA.dump();

    Json respB;
    ASSERT_TRUE(c->request(req, &respB, &err)) << err;
    ASSERT_TRUE(respB["ok"].asBool()) << respB.dump();
    std::string idB = respB["id"].asString();

    req = Json::object();
    req.set("op", "cancel");
    req.set("id", idB);
    Json cresp;
    ASSERT_TRUE(c->request(req, &cresp, &err)) << err;
    ASSERT_TRUE(cresp["ok"].asBool()) << cresp.dump();
    EXPECT_EQ(cresp["state"].asString(), "cancelled");

    // B streams an immediate terminal frame with zero rows.
    req = Json::object();
    req.set("op", "results");
    req.set("id", idB);
    ASSERT_TRUE(c->send(req, &err)) << err;
    Json resp;
    ASSERT_TRUE(c->recv(&resp, &err)) << err;
    ASSERT_TRUE(resp["ok"].asBool());
    std::vector<std::string> rows;
    Json done = collectStream(*c, &rows);
    EXPECT_EQ(done["state"].asString(), "cancelled");
    EXPECT_TRUE(rows.empty());
}

TEST_F(ServerFixture, GracefulShutdownDrainsSubscribers)
{
    Json doc = smallSpecDoc();
    std::vector<std::string> expected = localRows(doc);

    auto c = connect();
    ASSERT_NE(c, nullptr);
    Json req = Json::object();
    req.set("op", "submit");
    req.set("spec", doc);
    req.set("stream", true);
    std::string err;
    ASSERT_TRUE(c->send(req, &err)) << err;
    Json resp;
    ASSERT_TRUE(c->recv(&resp, &err)) << err;
    ASSERT_TRUE(resp["ok"].asBool()) << resp.dump();

    // Shutdown lands while the job is queued or running: the daemon
    // must still deliver a terminal frame (rows drained up to the
    // cancellation point) before closing, never just vanish.
    server_->shutdown();

    std::vector<std::string> rows;
    Json done = collectStream(*c, &rows);
    ASSERT_TRUE(done.isObject());
    std::string state = done["state"].asString();
    EXPECT_TRUE(state == "done" || state == "cancelled") << state;
    // Whatever prefix was completed is byte-exact.
    ASSERT_LE(rows.size(), expected.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i], expected[i]) << "row " << i;

    // After the drain the daemon closes the connection and run()
    // returns (TearDown joins the loop thread; a hang here is the
    // failure mode this guards).
    std::string payload;
    EXPECT_FALSE(c->recvRaw(&payload, &err));
}

TEST_F(ServerFixture, StatusReportsJobsAndMetrics)
{
    Json doc = smallSpecDoc();
    auto c = connect();
    ASSERT_NE(c, nullptr);
    std::vector<std::string> rows;
    std::string id;
    submitAndCollect(*c, doc, &rows, &id);

    Json req = Json::object();
    req.set("op", "status");
    Json resp;
    std::string err;
    ASSERT_TRUE(c->request(req, &resp, &err)) << err;
    ASSERT_TRUE(resp["ok"].asBool());
    ASSERT_TRUE(resp["jobs"].isArray());
    ASSERT_EQ(resp["jobs"].size(), 1u);
    const Json &j = resp["jobs"].at(0);
    EXPECT_EQ(j["id"].asString(), id);
    EXPECT_EQ(j["state"].asString(), "done");
    EXPECT_EQ(j["done"].asNumber(), 4.0);
    const Json &m = resp["metrics"];
    ASSERT_TRUE(m.isObject());
    EXPECT_EQ(m["queue_depth"].asNumber(), 0.0);
    EXPECT_GE(m["jobs_done"].asNumber(), 1.0);
    EXPECT_TRUE(m.has("cache_hit_rate"));
    EXPECT_TRUE(m.has("bytes_streamed"));
}

TEST_F(ServerFixture, ShardDefaultIsPoolThreadsPlusOne)
{
    // The default shard is the global pool's workers plus the helping
    // dispatcher, and the points_inflight gauge reports it while a job
    // runs.
    const std::size_t shard = ThreadPool::global().numThreads() + 1;
    EXPECT_EQ(svc::defaultShardPoints(), shard);
    auto &inflight =
        obs::MetricsRegistry::global().gauge("svc.points_inflight");

    // Twenty shards of fresh points (10 * shard loads x 2 seeds): the
    // gauge reads shard from the first shard's rows until the last
    // shard lands, then 0. Sample it as each row arrives.
    Json doc = smallSpecDoc();
    Json loads = Json::array();
    for (std::size_t k = 0; k < 10 * shard; ++k)
        loads.push(0.1 + 0.8 * double(k) / double(10 * shard));
    doc.set("loads", loads);
    Json seeds = Json::array();
    seeds.push(101);
    seeds.push(201);
    doc.set("seeds", seeds);
    doc.ref("sim").set("measure_cycles", 4000);

    auto c = connect();
    ASSERT_NE(c, nullptr);
    std::vector<std::string> rows;
    std::set<double> seen;
    submitAndCollect(*c, doc, &rows, nullptr,
                     [&] { seen.insert(inflight.value()); });
    EXPECT_EQ(rows.size(), 20 * shard);
    seen.erase(0.0);
    EXPECT_EQ(seen, std::set<double>{double(shard)});
}

TEST_F(ServerFixture, InflightGaugeCoversTheFirstShard)
{
    // A job that fits in one shard has every point in flight from the
    // moment it starts running, before its first row. Checkpointing
    // keeps the long point cancellable.
    Json doc = smallSpecDoc();
    std::string err;
    ASSERT_TRUE(svc::applySpecOverride(&doc, "loads=[0.5]", &err));
    ASSERT_TRUE(svc::applySpecOverride(&doc, "seeds=[301,302]", &err));
    ASSERT_TRUE(
        svc::applySpecOverride(&doc, "checkpoint_cycles=1000", &err));
    doc.ref("sim").set("measure_cycles", 100000000);
    ASSERT_LE(2u, svc::defaultShardPoints());

    auto c = connect();
    ASSERT_NE(c, nullptr);
    Json req = Json::object();
    req.set("op", "submit");
    req.set("spec", doc);
    Json resp;
    ASSERT_TRUE(c->request(req, &resp, &err)) << err;
    ASSERT_TRUE(resp["ok"].asBool()) << resp.dump();
    const std::string id = resp["id"].asString();

    bool sawRunning = false;
    req = Json::object();
    req.set("op", "status");
    for (int poll = 0; poll < 30000 && !sawRunning; ++poll) {
        ASSERT_TRUE(c->request(req, &resp, &err)) << err;
        ASSERT_EQ(resp["jobs"].size(), 1u);
        const Json &j = resp["jobs"].at(0);
        const std::string state = j["state"].asString();
        ASSERT_TRUE(state == "queued" || state == "running") << state;
        if (state == "running") {
            sawRunning = true;
            EXPECT_EQ(j["done"].asNumber(), 0.0);
            EXPECT_EQ(resp["metrics"]["points_inflight"].asNumber(),
                      j["points"].asNumber());
            EXPECT_EQ(j["points"].asNumber(), 2.0);
        } else {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    EXPECT_TRUE(sawRunning);

    req = Json::object();
    req.set("op", "cancel");
    req.set("id", id);
    ASSERT_TRUE(c->request(req, &resp, &err)) << err;
    ASSERT_TRUE(resp["ok"].asBool()) << resp.dump();
    req.set("op", "results");
    ASSERT_TRUE(c->send(req, &err)) << err;
    ASSERT_TRUE(c->recv(&resp, &err)) << err;
    ASSERT_TRUE(resp["ok"].asBool());
    std::vector<std::string> rows;
    Json done = collectStream(*c, &rows);
    EXPECT_EQ(done["state"].asString(), "cancelled");
    EXPECT_TRUE(rows.empty());
}

// -- checkpointed path (direct runCampaign, no daemon needed) ---------

TEST(SvcCheckpoint, CheckpointedPathMatchesBatchBytes)
{
    Json doc = smallSpecDoc();
    std::string err;
    ASSERT_TRUE(svc::applySpecOverride(&doc, "loads=[0.1]", &err));
    std::vector<std::string> batch = localRows(doc);
    ASSERT_EQ(batch.size(), 2u);

    ASSERT_TRUE(
        svc::applySpecOverride(&doc, "checkpoint_cycles=100", &err));
    CampaignSpec spec;
    ASSERT_TRUE(svc::parseCampaignSpec(doc, &spec, &err)) << err;
    EXPECT_EQ(spec.checkpointCycles, 100u);

    std::string snap = "svc_ckpt_test_tmp";
    std::filesystem::remove_all(snap);
    std::filesystem::create_directories(snap);
    sim::SimCache cache(256);
    std::vector<std::string> rows;
    svc::RunCampaignOptions opt;
    opt.cache = &cache;
    opt.snapshotDir = snap;
    opt.onRows = [&](std::size_t, std::vector<std::string> r) {
        for (auto &s : r)
            rows.push_back(std::move(s));
    };
    svc::CampaignOutcome out = svc::runCampaign(spec, opt);
    EXPECT_FALSE(out.cancelled);
    ASSERT_EQ(rows.size(), batch.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i], batch[i]) << "row " << i;
    // Completed points clean their snapshots up.
    std::size_t snaps = 0;
    for (auto &e : std::filesystem::directory_iterator(snap))
        snaps += e.path().extension() == ".snap";
    EXPECT_EQ(snaps, 0u);
    std::filesystem::remove_all(snap);
}

TEST(SvcCheckpoint, CancelMidPointLeavesASnapshotTheResumeUses)
{
    Json doc = smallSpecDoc();
    std::string err;
    ASSERT_TRUE(svc::applySpecOverride(&doc, "loads=[0.1]", &err));
    ASSERT_TRUE(svc::applySpecOverride(&doc, "seeds=[1]", &err));
    std::vector<std::string> reference = localRows(doc);
    ASSERT_EQ(reference.size(), 1u);

    ASSERT_TRUE(
        svc::applySpecOverride(&doc, "checkpoint_cycles=100", &err));
    CampaignSpec spec;
    ASSERT_TRUE(svc::parseCampaignSpec(doc, &spec, &err)) << err;

    std::string snap = "svc_resume_test_tmp";
    std::filesystem::remove_all(snap);
    std::filesystem::create_directories(snap);
    sim::SimCache cache(256);

    // First attempt: the cancel callback trips on its second poll —
    // after the first checkpoint slice's snapshot is on disk, before
    // the point completes. This is the kill -9 mid-sweep shape,
    // minus the kill.
    int polls = 0;
    svc::RunCampaignOptions opt;
    opt.cache = &cache;
    opt.snapshotDir = snap;
    opt.cancelled = [&polls] { return ++polls >= 2; };
    std::vector<std::string> rows;
    opt.onRows = [&](std::size_t, std::vector<std::string> r) {
        for (auto &s : r)
            rows.push_back(std::move(s));
    };
    svc::CampaignOutcome out = svc::runCampaign(spec, opt);
    EXPECT_TRUE(out.cancelled);
    EXPECT_EQ(out.pointsDone, 0u);
    EXPECT_TRUE(rows.empty());
    std::size_t snaps = 0;
    for (auto &e : std::filesystem::directory_iterator(snap))
        snaps += e.path().extension() == ".snap";
    ASSERT_EQ(snaps, 1u) << "abandoned point must leave its snapshot";

    // Second attempt resumes from the snapshot and must produce the
    // uninterrupted reference bytes.
    opt.cancelled = nullptr;
    out = svc::runCampaign(spec, opt);
    EXPECT_FALSE(out.cancelled);
    EXPECT_EQ(out.pointsDone, 1u);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], reference[0]);
    // ...and cleans the snapshot up on completion.
    snaps = 0;
    for (auto &e : std::filesystem::directory_iterator(snap))
        snaps += e.path().extension() == ".snap";
    EXPECT_EQ(snaps, 0u);
    std::filesystem::remove_all(snap);
}

} // namespace
} // namespace hirise
