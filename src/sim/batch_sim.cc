#include "sim/batch_sim.hh"

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "common/simd.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

#ifdef HIRISE_CHECK_ENABLED
#include "check/invariants.hh"
#endif

namespace hirise::sim {

namespace {

/** Same registry names as the scalar simulator, so campaign metrics
 *  aggregate identically whichever engine served a point. */
struct BatchMetrics
{
    obs::Counter &injected;
    obs::Counter &delivered;
    obs::Counter &flits;
    obs::Counter &inFlightCensored;

    static BatchMetrics &
    get()
    {
        static BatchMetrics m{
            obs::MetricsRegistry::global().counter(
                "sim.packets_injected"),
            obs::MetricsRegistry::global().counter(
                "sim.packets_delivered"),
            obs::MetricsRegistry::global().counter(
                "sim.flits_delivered"),
            obs::MetricsRegistry::global().counter(
                "sim.in_flight_at_measure_end"),
        };
        return m;
    }
};

/** Cold out-of-line metric bumps, as in network_sim.cc. The tracer
 *  record() calls are structurally dead here — usable() keeps batched
 *  runs off armed tracers — and no-op if reached. */
[[gnu::cold]] [[gnu::noinline]] void
recordInject(std::uint32_t src, std::uint32_t dst, std::uint64_t id)
{
    BatchMetrics::get().injected.inc();
    obs::CycleTracer::global().record(obs::Ev::Inject, src, dst, 0, id);
}

/** Bulk form for virtual-queue replicas: one bump covers the whole
 *  cycle's injections (same final counter value as n recordInject
 *  calls; the tracer is off whenever a BatchSim exists). */
[[gnu::cold]] [[gnu::noinline]] void
recordInjectBulk(std::uint64_t n)
{
    BatchMetrics::get().injected.inc(n);
}

[[gnu::cold]] [[gnu::noinline]] void
recordGrant(std::uint32_t in, std::uint32_t out, std::uint32_t vc,
            std::uint64_t packet)
{
    obs::CycleTracer::global().record(obs::Ev::Grant, in, out, vc,
                                      packet);
}

[[gnu::cold]] [[gnu::noinline]] void
recordRelease(std::uint32_t in, std::uint32_t out,
              std::uint32_t packet_len, std::uint64_t packet)
{
    BatchMetrics::get().delivered.inc();
    BatchMetrics::get().flits.inc(packet_len);
    obs::CycleTracer::global().record(obs::Ev::Release, in, out, 0,
                                      packet);
}

} // namespace

bool
BatchSim::usable()
{
    return !obs::CycleTracer::global().enabled();
}

BatchSim::BatchSim(const SwitchSpec &spec, const SimConfig &base,
                   std::vector<std::shared_ptr<traffic::TrafficPattern>>
                       patterns,
                   std::vector<BatchPoint> points,
                   const FabricFactory &make_fabric)
    : spec_(spec), base_(base), pts_(std::move(points)),
      R_(static_cast<std::uint32_t>(pts_.size())), N_(spec.radix),
      wpr_((spec.radix + BitVec::kWordBits - 1) / BitVec::kWordBits),
      patterns_(std::move(patterns)),
      dstFree_(std::size_t(R_) * wpr_, 0),
      connected_(std::size_t(R_) * wpr_, 0),
      eligible_(std::size_t(R_) * wpr_, 0),
      fillPend_(std::size_t(R_) * wpr_, 0),
      reqScratch_(spec.radix, fabric::kNoRequest),
      candVcScratch_(spec.radix, net::InputPort::kNoVc)
{
    sim_assert(R_ >= 1, "batch needs at least one replica");
    sim_assert(patterns_.size() == R_,
               "one pattern per replica required (%zu != %u)",
               patterns_.size(), R_);
    sim_assert(!base_.trace, "traced runs must use NetworkSim");
    sim_assert(usable(), "batching is disabled while a tracer is armed");

    ports_.assign(std::size_t(R_) * N_,
                  net::InputPort(base_.numVcs, base_.vcDepth));
    fabrics_.reserve(R_);
    for (std::uint32_t r = 0; r < R_; ++r) {
        fabrics_.push_back(make_fabric ? make_fabric()
                                       : fabric::makeFabric(spec_));
        sim_assert(fabrics_.back() != nullptr,
                   "fabric factory returned null");
        plane(dstFree_, r).fill(); // no output is held at reset
    }
    activeReq_.reserve(N_);

    injKeys_.resize(std::size_t(N_) * R_);
    destKeys_.resize(std::size_t(N_) * R_);
    part_.resize(std::size_t(R_) * N_);
    thr_.resize(R_);
    allMemoryless_ = true;
    for (std::uint32_t r = 0; r < R_; ++r) {
        sim_assert(patterns_[r] != nullptr, "null pattern");
        allMemoryless_ = allMemoryless_ && patterns_[r]->memoryless();
        thr_[r] = bernoulliThreshold(pts_[r].load);
        for (std::uint32_t i = 0; i < N_; ++i) {
            // Replica-major: a replica's keys for four consecutive
            // inputs are contiguous, so a cycle's draws batch four
            // lanes per AVX2 step inside that replica's fused walk.
            injKeys_[std::size_t(r) * N_ + i] = counterKey(
                pts_[r].seed,
                traffic::TrafficPattern::lane(
                    i, traffic::TrafficPattern::kLaneInject));
            destKeys_[std::size_t(r) * N_ + i] = counterKey(
                pts_[r].seed,
                traffic::TrafficPattern::lane(
                    i, traffic::TrafficPattern::kLaneDest));
            part_[std::size_t(r) * N_ + i] =
                patterns_[r]->participates(i) ? 1 : 0;
        }
    }

    satVirt_.assign(R_, 0);
    satQ_.resize(R_);
    for (std::uint32_t r = 0; r < R_; ++r) {
        if (base_.legacySatQueues || !allMemoryless_ ||
            !VirtualSourceQueues::saturates(pts_[r].load))
            continue;
        satVirt_[r] = 1;
        satQ_[r].init(*patterns_[r], N_, base_.packetLen,
                      pts_[r].seed);
    }

    lanes_.resize(R_);
    for (auto &lane : lanes_) {
        lane.perInputLatency.resize(N_);
        lane.perInputPackets.assign(N_, 0);
    }
}

void
BatchSim::setFaultSchedule(const FaultSchedule &sched)
{
    sim_assert(cycle_ == 0,
               "fault schedule must be attached before stepping");
    if (sched.empty())
        return;
    faultMgrs_.clear();
    faultMgrs_.reserve(R_);
    for (std::uint32_t r = 0; r < R_; ++r) {
        sim_assert(fabrics_[r]->supportsChannelFaults(),
                   "fabric '%s' cannot take channel faults",
                   toString(spec_.topo));
        // Each lane's manager draws from its own seed, matching the
        // scalar run NetworkSim(spec, base with points[r]) bit for
        // bit.
        faultMgrs_.emplace_back(sched, spec_, pts_[r].seed);
    }
    faultsOn_ = true;
    brokenScratch_.reserve(N_);
}

void
BatchSim::injectPacket(std::uint32_t r, std::uint32_t i,
                       std::uint32_t dst)
{
    Lane &lane = lanes_[r];
    net::Packet p;
    p.id = lane.nextId++;
    p.src = i;
    p.dst = dst;
    sim_assert(p.dst < N_, "pattern dst out of range");
    p.lenFlits = static_cast<std::uint16_t>(base_.packetLen);
    p.genCycle = cycle_;
    port(r, i).sourceQueue().push_back(p);
    plane(fillPend_, r).set(i);
    ++lane.injected;
    if (measuring_) {
        lane.measFlitsOffered += p.lenFlits;
        ++lane.measPacketsInjected;
    }
    if (obs::on()) [[unlikely]]
        recordInject(i, p.dst, p.id);
}

void
BatchSim::injectStateful(std::uint32_t r)
{
    // Stateful patterns own the injection decision: honour their
    // contract (injectAt exactly once per (src, cycle), cycles
    // strictly increasing per source), exactly as the scalar dense
    // poll does.
    traffic::TrafficPattern &pat = *patterns_[r];
    for (std::uint32_t i = 0; i < N_; ++i) {
        if (pat.injectAt(i, cycle_, pts_[r].load, pts_[r].seed))
            injectPacket(r, i, pat.destAt(i, cycle_, pts_[r].seed));
    }
}

void
BatchSim::injectVirtual(std::uint32_t r)
{
    // Every draw passes this replica's threshold (load >= 1), so each
    // participating input injects exactly one packet this cycle and
    // the whole cycle's injection collapses to accounting: the
    // packets themselves stay virtual (see sim/virtual_queue.hh)
    // until fillVirtual streams them into VCs. This is
    // the saturation-campaign fast path (runAtLoad at load 1.0).
    Lane &lane = lanes_[r];
    const std::uint64_t p = satQ_[r].participants();
    lane.nextId += p;
    lane.injected += p;
    if (measuring_) {
        lane.measFlitsOffered += p * base_.packetLen;
        lane.measPacketsInjected += p;
    }
    if (obs::on()) [[unlikely]]
        recordInjectBulk(p);
}

void
BatchSim::fillVirtual(std::uint32_t r)
{
    // fillPhase over the virtual queues: at saturation a queue can
    // never be empty at fill time (a packet was injected this very
    // cycle), so every participating input attempts a fill, and a
    // consumed head is re-derived from the counter streams — one
    // destAt hash per packet that actually leaves the queue (bounded
    // by delivery throughput), not per injected packet.
    traffic::TrafficPattern &pat = *patterns_[r];
    const char *part = part_.data() + std::size_t(r) * N_;
    VirtualSourceQueues &q = satQ_[r];
    BitSpan elig = plane(eligible_, r);
    for (std::uint32_t i = 0; i < N_; ++i) {
        if (!part[i])
            continue;
        net::InputPort &port_i = port(r, i);
        if (port_i.fillFrom(q.head(i)))
            q.advance(i, pat); // re-derive the next head
        if (!port_i.connected() && port_i.anyVcOccupied())
            elig.set(i);
    }
}

void
BatchSim::injectDrawn(std::uint32_t r)
{
    // Memoryless general case: the inject draw for (input, cycle) is
    // a pure hash of the lane key, so four consecutive inputs' draws
    // batch per step; a quad with at least one passing draw then
    // batches its destination draws the same way (destRow4 is
    // side-effect free, so computing a destination for a lane that
    // does not inject is harmless).
    traffic::TrafficPattern &pat = *patterns_[r];
    const char *part = part_.data() + std::size_t(r) * N_;
    const std::uint64_t *keys = injKeys_.data() + std::size_t(r) * N_;
    const std::uint64_t *dkeys = destKeys_.data() + std::size_t(r) * N_;
    const std::uint64_t thr = thr_[r];
    std::uint64_t d[4];
    std::uint32_t out[4];
    std::uint32_t i = 0;
    for (; i + 4 <= N_; i += 4) {
        simd::counterDraw4(keys + i, cycle_, d);
        unsigned need = 0;
        for (std::uint32_t j = 0; j < 4; ++j) {
            if ((d[j] >> 11) < thr && part[i + j])
                need |= 1u << j;
        }
        if (!need)
            continue;
        pat.destRow4(i, cycle_, pts_[r].seed, dkeys + i, out);
        for (std::uint32_t j = 0; j < 4; ++j) {
            if (need & (1u << j))
                injectPacket(r, i + j, out[j]);
        }
    }
    for (; i < N_; ++i) {
        const std::uint64_t draw = counterDrawKeyed(keys[i], cycle_);
        if ((draw >> 11) < thr && part[i])
            injectPacket(r, i, pat.destAt(i, cycle_, pts_[r].seed));
    }
}

void
BatchSim::fillPhase(std::uint32_t r)
{
    BitSpan pend = plane(fillPend_, r);
    BitSpan elig = plane(eligible_, r);
    pend.forEachSet([&](std::uint32_t i) {
        net::InputPort &p = port(r, i);
        p.fillCycle();
        if (!p.connected() && p.anyVcOccupied())
            elig.set(i);
        if (p.sourceQueue().empty())
            pend.reset(i);
    });
}

void
BatchSim::applyGrant(std::uint32_t r, std::uint32_t i)
{
    auto &req = reqScratch_;
    auto &cand_vc = candVcScratch_;
    sim_assert(req[i] != fabric::kNoRequest,
               "grant to non-requesting input %u", i);
    net::InputPort &p = port(r, i);
    if (measuring_) {
        const net::Flit &head = p.vcs()[cand_vc[i]].front();
        lanes_[r].queueing.add(static_cast<double>(cycle_ -
                                                   head.genCycle));
    }
    if (obs::on()) [[unlikely]]
        recordGrant(i, req[i], cand_vc[i],
                    p.vcs()[cand_vc[i]].front().packet);
    p.connect(cand_vc[i], req[i], base_.packetLen,
              p.vcs()[cand_vc[i]].front().genCycle);
    plane(connected_, r).set(i);
    plane(eligible_, r).reset(i);
    plane(dstFree_, r).reset(req[i]);
}

void
BatchSim::arbitratePhase(std::uint32_t r)
{
    // Mirror of NetworkSim::arbitrateCycleActive over this replica's
    // bit planes: only eligible inputs request, output availability is
    // maintained incrementally, and the request scratch is reset
    // sparsely so the next replica starts from the all-idle state.
    auto &req = reqScratch_;
    auto &cand_vc = candVcScratch_;
    activeReq_.clear();
    const BitVec::Word *dst_free = plane(dstFree_, r).words();
    plane(eligible_, r).forEachSet([&](std::uint32_t i) {
        std::uint32_t v = port(r, i).pickCandidateVcWords(dst_free);
        if (v == net::InputPort::kNoVc)
            return;
        cand_vc[i] = v;
        req[i] = port(r, i).vcDest(v);
        activeReq_.push_back(i);
    });
    if (activeReq_.empty()) {
        fabrics_[r]->advanceIdle(1);
        return;
    }

    const BitVec &grant = fabrics_[r]->arbitrateActive(req, activeReq_);
#ifdef HIRISE_CHECK_ENABLED
    check::verifyGrantMatching(
        std::span<const std::uint32_t>(req), grant, N_,
        [&](std::uint32_t o) { return fabrics_[r]->outputHolder(o); });
#endif
    grant.forEachSet([&](std::uint32_t i) { applyGrant(r, i); });
    for (std::uint32_t i : activeReq_) {
        req[i] = fabric::kNoRequest;
        cand_vc[i] = net::InputPort::kNoVc;
    }
}

void
BatchSim::transferPhase(std::uint32_t r)
{
    Lane &lane = lanes_[r];
    BitSpan conn = plane(connected_, r);
    conn.forEachSet([&](std::uint32_t i) {
        net::InputPort &p = port(r, i);
        sim_assert(p.connected(), "stale connected bit %u", i);
        if (p.consumeJustConnected())
            return; // grant cycle: the buses carried the arbitration
        net::VirtualChannel &vc = p.vcs()[p.connVc()];
        if (vc.empty())
            return; // bubble: flit not yet streamed in from source
        net::Flit f = vc.popFlit();
        std::uint32_t out = p.connOutput();
        sim_assert(f.dst == out, "flit routed to wrong output");
        ++lane.flitsDelivered;
        if (measuring_)
            ++lane.measFlitsDelivered;
        if (faultsOn_) {
            // Flaky-link error draw, attributed to the L2LC this
            // flit crossed (read before a tail flit releases it).
            faultMgrs_[r].onFlitTransfer(
                cycle_, fabrics_[r]->heldChannelId(out));
        }
        bool done = p.transferOne();
        if (done) {
            sim_assert(f.tail, "connection ended mid-packet");
            fabrics_[r]->release(i, out);
            conn.reset(i);
            plane(dstFree_, r).set(out);
            if (p.anyVcOccupied())
                plane(eligible_, r).set(i);
            ++lane.delivered;
            if (measuring_) {
                double lat = static_cast<double>(cycle_ - f.genCycle);
                lane.latency.add(lat);
                lane.latencyHist.add(lat);
                lane.perInputLatency[f.src].add(lat);
                ++lane.perInputPackets[f.src];
                if (f.genCycle >= measureStart_)
                    ++lane.measPacketsCompleted;
            }
            if (obs::on()) [[unlikely]]
                recordRelease(i, out, base_.packetLen, f.packet);
        }
    });
    if (faultsOn_) {
        // Isolations tripped by this cycle's error draws apply after
        // the transfer walk (never mid-iteration).
        brokenScratch_.clear();
        faultMgrs_[r].applyPending(cycle_, *fabrics_[r],
                                   brokenScratch_);
        if (!brokenScratch_.empty())
            handleBroken(r, brokenScratch_);
    }
}

void
BatchSim::handleBroken(std::uint32_t r,
                       const std::vector<fabric::BrokenConn> &broken)
{
    Lane &lane = lanes_[r];
    for (const auto &bc : broken) {
        const std::uint32_t i = bc.input;
        net::InputPort &p = port(r, i);
        sim_assert(p.connected() && p.connOutput() == bc.output,
                   "broken connection %u->%u does not match port "
                   "state",
                   bc.input, bc.output);
        ++lane.packetsDropped;
        if (measuring_ && p.connGenCycle() >= measureStart_)
            ++lane.measPacketsDropped;
        std::uint32_t flits_dropped = 0;
        bool pop_source = false;
        p.breakConnection(flits_dropped, pop_source);
        lane.droppedFlits += flits_dropped;
        if (pop_source) {
            // The dropped packet was still streaming from the (real
            // or virtual) source queue head; retire it there too.
            if (satVirt_[r]) {
                satQ_[r].advance(i, *patterns_[r]);
            } else {
                p.sourceQueue().pop_front();
                if (p.sourceQueue().empty())
                    plane(fillPend_, r).reset(i);
            }
        }
        plane(connected_, r).reset(i);
        plane(dstFree_, r).set(bc.output);
        if (p.anyVcOccupied())
            plane(eligible_, r).set(i);
        else
            plane(eligible_, r).reset(i);
    }
}

void
BatchSim::stepOnce()
{
    if (obs::on()) [[unlikely]]
        obs::setTraceCycle(cycle_);
    // All phases fuse per replica so one cycle walks each replica's
    // ports and planes exactly once — with R replicas the combined
    // working set exceeds cache, and a phase-major order would stream
    // it R times per phase instead. The memoryless injection paths
    // batch their counter draws four consecutive input lanes per AVX2
    // step (the lanes share the cycle, so the key rows are contiguous
    // in the replica-major key arrays).
    for (std::uint32_t r = 0; r < R_; ++r) {
        if (faultsOn_) {
            // Topology changes land at cycle start, before this
            // replica's injection, so its whole cycle sees the new
            // channel set.
            brokenScratch_.clear();
            faultMgrs_[r].beginCycle(cycle_, *fabrics_[r],
                                     brokenScratch_);
            if (!brokenScratch_.empty())
                handleBroken(r, brokenScratch_);
        }
        if (satVirt_[r]) {
            injectVirtual(r);
            fillVirtual(r);
        } else {
            if (!allMemoryless_)
                injectStateful(r);
            else
                injectDrawn(r);
            fillPhase(r);
        }
        arbitratePhase(r);
        transferPhase(r);
    }
    ++cycle_;
#ifdef HIRISE_CHECK_ENABLED
    for (std::uint32_t r = 0; r < R_; ++r)
        checkInvariants(r);
#endif
}

#ifdef HIRISE_CHECK_ENABLED
void
BatchSim::checkInvariants(std::uint32_t r)
{
    std::uint64_t backlog = 0;
    for (std::uint32_t i = 0; i < N_; ++i) {
        backlog += port(r, i).backlogFlits();
        if (satVirt_[r] && part_[std::size_t(r) * N_ + i]) {
            // Virtual queue contents: packets gen [head, cycle_) are
            // injected but unconsumed. backlogFlits() already
            // discounted the head's partially streamed flits.
            backlog += satQ_[r].pendingFlitsBehindHead(
                i, cycle_, base_.packetLen);
        }
    }
    check::verifyFlitConservation(lanes_[r].injected * base_.packetLen,
                                  lanes_[r].flitsDelivered, backlog,
                                  lanes_[r].droppedFlits);
    auto holder = [&](std::uint32_t o) {
        return fabrics_[r]->outputHolder(o);
    };
    check::verifyHolderInjective(N_, holder);
    for (std::uint32_t i = 0; i < N_; ++i) {
        const net::InputPort &p = port(r, i);
        check::verifyVcState(p, base_.vcDepth);
        sim_assert(plane(connected_, r).test(i) == p.connected(),
                   "connected plane bit %u out of sync", i);
        sim_assert(plane(fillPend_, r).test(i) ==
                       !p.sourceQueue().empty(),
                   "fillPend plane bit %u out of sync", i);
        sim_assert(plane(eligible_, r).test(i) ==
                       (!p.connected() && p.anyVcOccupied()),
                   "eligible plane bit %u out of sync", i);
        if (p.connected()) {
            sim_assert(fabrics_[r]->outputHolder(p.connOutput()) == i,
                       "connected port %u does not hold output %u", i,
                       p.connOutput());
        }
    }
    for (std::uint32_t o = 0; o < N_; ++o) {
        sim_assert(plane(dstFree_, r).test(o) ==
                       !fabrics_[r]->outputBusy(o),
                   "dstFree plane bit %u out of sync", o);
    }
}
#endif

void
BatchSim::advanceTo(net::Cycle target)
{
    while (cycle_ < target) {
        if (!measuring_ && cycle_ >= warmEnd() && cycle_ < runEnd()) {
            measuring_ = true;
            measureStart_ = warmEnd();
        }
        stepOnce();
        if (measuring_ && cycle_ >= runEnd())
            measuring_ = false;
    }
}

std::vector<SimResult>
BatchSim::run()
{
    advanceTo(runEnd());
    sim_assert(!measuring_, "measurement window still open");

    const double window = static_cast<double>(runEnd() - warmEnd());
    std::vector<SimResult> results(R_);
    for (std::uint32_t r = 0; r < R_; ++r) {
        Lane &lane = lanes_[r];
        SimResult &res = results[r];
        res.offeredFlitsPerCycle =
            static_cast<double>(lane.measFlitsOffered) / window;
        res.acceptedFlitsPerCycle =
            static_cast<double>(lane.measFlitsDelivered) / window;
        res.avgLatencyCycles = lane.latency.mean();
        res.avgQueueingCycles = lane.queueing.mean();
        res.p99LatencyCycles = lane.latencyHist.quantile(0.99);
        res.packetsDelivered = lane.latency.count();
        res.packetsDropped = lane.packetsDropped;
        sim_assert(lane.measPacketsCompleted + lane.measPacketsDropped <=
                       lane.measPacketsInjected,
                   "more window packets completed than injected");
        res.inFlightAtMeasureEnd = lane.measPacketsInjected -
                                   lane.measPacketsCompleted -
                                   lane.measPacketsDropped;
        res.latencyOverflowPackets = lane.latencyHist.overflowCount();
        if (obs::on()) [[unlikely]] {
            BatchMetrics::get().inFlightCensored.inc(
                res.inFlightAtMeasureEnd);
        }

        res.perInputLatency.resize(N_, 0.0);
        res.perInputThroughput.resize(N_, 0.0);
        std::vector<double> active_tput;
        for (std::uint32_t i = 0; i < N_; ++i) {
            res.perInputLatency[i] = lane.perInputLatency[i].mean();
            res.perInputThroughput[i] =
                static_cast<double>(lane.perInputPackets[i]) / window;
            // Live query, not the part_ snapshot: stateful patterns
            // (trace replay) change participates() as they drain, and
            // the scalar engine evaluates it here, at end of run.
            if (patterns_[r]->participates(i))
                active_tput.push_back(res.perInputThroughput[i]);
        }
        res.fairness = jainFairness(active_tput);

        sim_assert(lane.delivered <= lane.injected,
                   "conservation violated");
    }
    return results;
}

void
BatchSim::Lane::save(snap::Writer &w) const
{
    w.u64(nextId);
    w.u64(injected);
    w.u64(delivered);
    w.u64(flitsDelivered);
    w.u64(droppedFlits);
    w.u64(packetsDropped);
    w.u64(measFlitsDelivered);
    w.u64(measFlitsOffered);
    w.u64(measPacketsInjected);
    w.u64(measPacketsCompleted);
    w.u64(measPacketsDropped);
    latency.save(w);
    queueing.save(w);
    latencyHist.save(w);
    for (const auto &st : perInputLatency)
        st.save(w);
    w.vec(perInputPackets);
}

void
BatchSim::Lane::load(snap::Reader &r)
{
    nextId = r.u64();
    injected = r.u64();
    delivered = r.u64();
    flitsDelivered = r.u64();
    droppedFlits = r.u64();
    packetsDropped = r.u64();
    measFlitsDelivered = r.u64();
    measFlitsOffered = r.u64();
    measPacketsInjected = r.u64();
    measPacketsCompleted = r.u64();
    measPacketsDropped = r.u64();
    latency.load(r);
    queueing.load(r);
    latencyHist.load(r);
    for (auto &st : perInputLatency)
        st.load(r);
    r.vec(perInputPackets);
}

std::uint64_t
BatchSim::configKey() const
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "spec:%d/%u/%u/%u/%u/%d/%d/%u/%u/%llu;"
        "base:%u/%u/%u/%llu/%llu;R=%u;",
        static_cast<int>(spec_.topo), spec_.radix, spec_.layers,
        spec_.channels, spec_.flitBits, static_cast<int>(spec_.arb),
        static_cast<int>(spec_.alloc), spec_.clrgMaxCount,
        spec_.schedIters,
        static_cast<unsigned long long>(spec_.schedSeed), base_.numVcs,
        base_.vcDepth, base_.packetLen,
        static_cast<unsigned long long>(base_.warmupCycles),
        static_cast<unsigned long long>(base_.measureCycles), R_);
    std::string s = buf;
    for (std::uint32_t r = 0; r < R_; ++r) {
        std::snprintf(buf, sizeof(buf), "pt:%.17g/%llu;", pts_[r].load,
                      static_cast<unsigned long long>(pts_[r].seed));
        s += buf;
        s += "pat:" + patterns_[r]->descriptor() + ";";
    }
    if (faultsOn_)
        s += faultMgrs_[0].schedule().descriptor();
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

void
BatchSim::save(snap::Writer &w) const
{
    w.u64(cycle_);
    w.b(measuring_);
    w.u64(measureStart_);
    for (std::uint32_t r = 0; r < R_; ++r) {
        lanes_[r].save(w);
        for (std::uint32_t i = 0; i < N_; ++i)
            ports_[std::size_t(r) * N_ + i].save(w);
        if (satVirt_[r])
            satQ_[r].save(w);
        fabrics_[r]->save(w);
        if (faultsOn_)
            faultMgrs_[r].save(w);
        patterns_[r]->save(w);
    }
    // Bit planes are derived from port + fabric state; rebuilt on
    // load.
}

void
BatchSim::load(snap::Reader &r)
{
    cycle_ = r.u64();
    measuring_ = r.b();
    measureStart_ = r.u64();
    for (std::uint32_t rep = 0; rep < R_; ++rep) {
        lanes_[rep].load(r);
        for (std::uint32_t i = 0; i < N_; ++i)
            port(rep, i).load(r);
        if (satVirt_[rep])
            satQ_[rep].load(r);
        fabrics_[rep]->load(r);
        if (faultsOn_)
            faultMgrs_[rep].load(r);
        patterns_[rep]->load(r);
    }
    rebuildDerived();
}

void
BatchSim::rebuildDerived()
{
    for (std::uint32_t r = 0; r < R_; ++r) {
        BitSpan free = plane(dstFree_, r);
        BitSpan conn = plane(connected_, r);
        BitSpan elig = plane(eligible_, r);
        BitSpan pend = plane(fillPend_, r);
        for (std::uint32_t o = 0; o < N_; ++o) {
            if (fabrics_[r]->outputBusy(o))
                free.reset(o);
            else
                free.set(o);
        }
        for (std::uint32_t i = 0; i < N_; ++i) {
            const net::InputPort &p = port(r, i);
            if (p.connected())
                conn.set(i);
            else
                conn.reset(i);
            if (!p.connected() && p.anyVcOccupied())
                elig.set(i);
            else
                elig.reset(i);
            if (!p.sourceQueue().empty())
                pend.set(i);
            else
                pend.reset(i);
        }
    }
#ifdef HIRISE_CHECK_ENABLED
    for (std::uint32_t r = 0; r < R_; ++r)
        checkInvariants(r);
#endif
}

bool
BatchSim::saveSnapshotFile(const std::string &path) const
{
    snap::Writer w;
    save(w);
    return w.writeFile(path, configKey());
}

bool
BatchSim::loadSnapshotFile(const std::string &path)
{
    snap::Reader r;
    if (!r.readFile(path, configKey()))
        return false;
    load(r);
    sim_assert(r.done(), "snapshot payload not fully consumed");
    return true;
}

} // namespace hirise::sim
