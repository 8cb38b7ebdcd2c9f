/**
 * @file
 * Cycle-accurate single-switch network simulator (paper section V):
 * open-loop injection into unbounded source queues, 4 VCs x 4-flit
 * buffers per input, 4-flit packets, connection-held matrix-switch
 * timing (one arbitration cycle, then one flit per data cycle).
 */

#ifndef HIRISE_SIM_NETWORK_SIM_HH
#define HIRISE_SIM_NETWORK_SIM_HH

#include <memory>
#include <vector>

#include "common/bitvec.hh"
#include "common/random.hh"
#include "common/spec.hh"
#include "common/stats.hh"
#include "fabric/fabric.hh"
#include "net/input_port.hh"
#include "net/packet.hh"
#include "sim/fault.hh"
#include "sim/virtual_queue.hh"
#include "traffic/pattern.hh"

namespace hirise::sim {

struct SimConfig
{
    std::uint32_t numVcs = 4;
    std::uint32_t vcDepth = 4;    //!< flits per VC
    std::uint32_t packetLen = 4;  //!< flits per packet
    double injectionRate = 0.1;   //!< packets/input/cycle (active inputs)
    net::Cycle warmupCycles = 10000;
    net::Cycle measureCycles = 50000;
    std::uint64_t seed = 1;
    /** Arm the process-wide cycle tracer for this run (convenience
     *  switch-on; equivalent to obs::CycleTracer::global().enable()).
     *  Never part of the SimCache key: tracing records events but
     *  must not change any simulated outcome. */
    bool trace = false;
    /**
     * Use the dense per-cycle reference core instead of the
     * event-driven core: scan every input every cycle for injection,
     * fill, and arbitration candidates, and rebuild output-free state
     * from the fabric each cycle. Both cores consume the same
     * counter-based RNG streams and produce bit-identical SimResults
     * (enforced by tests/stepping_test.cc and the fuzzer's
     * stepping-mode axis); dense mode exists for A/B validation and
     * perf baselines. Never part of the SimCache key.
     */
    bool denseStepping = false;
    /**
     * Pin the legacy queued saturation path. At load >= 1 a
     * memoryless run normally takes the virtual-source-queue fast
     * path (sim/virtual_queue.hh): injection collapses to an
     * accounting bump and only per-input head packets materialize.
     * Results are bit-identical either way (tests/sat_fastpath_test
     * .cc), so this is a pure A/B perf knob. Never part of the
     * SimCache key.
     */
    bool legacySatQueues = false;
};

/** Aggregated results over the measurement window. */
struct SimResult
{
    double offeredFlitsPerCycle = 0.0;
    double acceptedFlitsPerCycle = 0.0;
    double avgLatencyCycles = 0.0; //!< packet gen -> tail delivered
    double p99LatencyCycles = 0.0;
    /** Mean cycles from packet creation to winning arbitration
     *  (source queueing + head-of-line + retries); the remainder of
     *  avgLatencyCycles is pure service time. */
    double avgQueueingCycles = 0.0;
    std::uint64_t packetsDelivered = 0;
    /** Packets injected inside the measurement window but still in
     *  flight (source queue, VC, or crossbar) when it closed. Their
     *  latency is right-censored: avgLatencyCycles/p99LatencyCycles
     *  cover delivered packets only, so a large value here means the
     *  latency aggregates are biased low (saturation). See
     *  docs/TESTING.md "Latency censoring". */
    std::uint64_t inFlightAtMeasureEnd = 0;
    /** Delivered-packet latency samples that fell beyond the latency
     *  histogram's last regular bin. Nonzero means p99LatencyCycles
     *  is clamped to the overflow edge and reads ">=", not "=". */
    std::uint64_t latencyOverflowPackets = 0;
    /** Packets dropped over the whole run because a fault forcibly
     *  broke their connection mid-transfer (warmup included). Always
     *  0 without a fault schedule. */
    std::uint64_t packetsDropped = 0;
    /** Mean packet latency per source input (Fig 11a). */
    std::vector<double> perInputLatency;
    /** Delivered packets/cycle per source input (Fig 11c). */
    std::vector<double> perInputThroughput;
    /** Jain fairness index over participating inputs' throughput. */
    double fairness = 1.0;

    double
    acceptedPacketsPerCycle(std::uint32_t packet_len) const
    {
        return acceptedFlitsPerCycle / packet_len;
    }
};

class NetworkSim
{
  public:
    /** Above this per-input injection rate the event heap is skipped
     *  in favour of per-cycle polling (see injHeapOn_): the expected
     *  inter-injection gap is < 1/rate cycles, too short for the
     *  O(log radix) heap churn per injection to pay off. */
    static constexpr double kInjHeapMaxRate = 0.125;

    NetworkSim(const SwitchSpec &spec, const SimConfig &cfg,
               std::shared_ptr<traffic::TrafficPattern> pattern);

    /** As above, but with a caller-supplied fabric (an oracle, a
     *  lockstep differential fabric, or a pre-faulted instance). */
    NetworkSim(const SwitchSpec &spec, const SimConfig &cfg,
               std::shared_ptr<traffic::TrafficPattern> pattern,
               std::unique_ptr<fabric::Fabric> fabric);

    /** Attach a fault schedule. Must be called before the first
     *  step (events are relative to cycle 0); requires a fabric with
     *  failable channels. */
    void setFaultSchedule(const FaultSchedule &sched);

    /** Run warmup + measurement; returns the aggregated result.
     *  Boundaries are absolute (warmup ends at cycle
     *  cfg.warmupCycles, measurement at warmup + measure), so a
     *  restored simulator picks up run() mid-flight and produces a
     *  bit-identical SimResult. */
    SimResult run();

    /** Advance to absolute cycle @p target (no-op when already
     *  there), flipping the measurement window on/off at the exact
     *  run() boundaries. run() == advanceTo(end) + aggregation. */
    void advanceTo(net::Cycle target);

    /** Advance exactly one switch cycle (exposed for unit tests).
     *  Identical observable semantics in both stepping modes. */
    void step() { stepTo(cycle_ + 1); }

    net::Cycle now() const { return cycle_; }
    const fabric::Fabric &fabricRef() const { return *fabric_; }
    net::InputPort &port(std::uint32_t i) { return ports_[i]; }
    const FaultManager &faultManager() const { return faultMgr_; }

    /** Flits still inside source queues, VCs, or in flight. */
    std::uint64_t backlogFlits() const;

    std::uint64_t totalInjectedPackets() const { return injected_; }
    std::uint64_t totalDeliveredPackets() const { return delivered_; }
    std::uint64_t totalDeliveredFlits() const { return flitsDelivered_; }
    std::uint64_t totalDroppedPackets() const { return packetsDropped_; }
    std::uint64_t totalDroppedFlits() const { return droppedFlits_; }

    // -- checkpoint/restore ------------------------------------------

    /** Serialize full simulator state (cycle, ports, fabric, fault
     *  manager, pattern state, measurement accumulators). load() runs
     *  on a freshly constructed sim with identical spec/config/
     *  pattern/schedule; derived structures are rebuilt. */
    void save(snap::Writer &w) const;
    void load(snap::Reader &r);

    /** Content hash of the configuration (spec + SimConfig + pattern
     *  descriptor + fault descriptor); embedded in snapshot files so
     *  cross-configuration restores are rejected. */
    std::uint64_t configKey() const;

    /** save()/load() framed through common/snapshot.hh's versioned,
     *  checksummed file format. False on I/O or validation failure
     *  (the sim is untouched on a failed load). */
    bool saveSnapshotFile(const std::string &path) const;
    bool loadSnapshotFile(const std::string &path);

    /** True when this run takes the virtual-source-queue saturation
     *  fast path (load >= 1, memoryless pattern, legacy path not
     *  pinned). Exposed for tests asserting path activation. */
    bool virtualSourceQueuesActive() const { return satOn_; }

  private:
    /** One pending injection event: input @c input next injects (or,
     *  for scan-chunk probes, must be re-scanned) at @c cycle. */
    struct InjEvent
    {
        net::Cycle cycle;
        std::uint32_t input;
    };

    /** Advance at least one cycle, never past @p bound (so warmup /
     *  measurement boundaries stay exact across fast-forwards). */
    void stepTo(net::Cycle bound);
    void stepOnce();

    void injectDenseCycle();
    void injectEventCycle();
    void injectVirtualCycle(); //!< saturation fast path: accounting only
    void injectPacket(std::uint32_t i, std::uint32_t dst);
    void fillPhase();
    void fillVirtualPhase(); //!< fill straight from virtual queue heads
    void arbitrateCycle();       //!< dense reference: full input scan
    void arbitrateCycleActive(); //!< event mode: eligible-set walk
    void applyGrant(std::uint32_t i);
    void transferCycle();

    /** Tear down connections the fabric broke on channel failure:
     *  drop the in-flight packets, charge the dropped-flit ledger,
     *  and resync the incremental port/output sets. */
    void handleBroken(const std::vector<fabric::BrokenConn> &broken);
    /** Rebuild every derived structure (eligible/connected/fill
     *  bitsets, output availability, injection heap) from restored
     *  port + fabric state. */
    void rebuildDerived();
    net::Cycle warmEnd() const { return cfg_.warmupCycles; }
    net::Cycle runEnd() const
    {
        return cfg_.warmupCycles + cfg_.measureCycles;
    }

    void scheduleNextInjection(std::uint32_t i, net::Cycle from);
    void heapPush(InjEvent ev);
    bool canFastForward() const;
#ifdef HIRISE_CHECK_ENABLED
    void checkInvariants() const;
#endif

    SwitchSpec spec_;
    SimConfig cfg_;
    std::shared_ptr<traffic::TrafficPattern> pattern_;
    std::unique_ptr<fabric::Fabric> fabric_;
    std::vector<net::InputPort> ports_;
    /** Event-driven core enabled (== !cfg_.denseStepping). */
    bool event_;
    /** Pattern has no per-input state: injections can be scheduled
     *  ahead as events and idle spans fast-forwarded. */
    bool memoryless_;
    /** Event mode schedules injections through injHeap_. False at
     *  high injection rates, where nearly every (input, cycle) fires
     *  and the heap churn costs more than the per-cycle poll it
     *  replaces; the counter RNG makes both strategies produce the
     *  same injections, so this is a pure perf knob. Implies no idle
     *  fast-forward (the next injection time is then unknown, and at
     *  such rates quiescent spans do not occur anyway). */
    bool injHeapOn_;
    /** Virtual-source-queue saturation fast path live for this run
     *  (load >= 1, memoryless pattern, legacy path not pinned via
     *  cfg_.legacySatQueues). Source
     *  queues then never materialize: injection is an accounting
     *  bump, fillVirtualPhase() streams from satQ_'s head packets,
     *  and backlogFlits() derives queue depth arithmetically. Both
     *  stepping modes support it (at load >= 1 injHeapOn_ is always
     *  false, so they share the per-cycle injection structure). */
    bool satOn_ = false;
    VirtualSourceQueues satQ_;
    /** Participating inputs of satQ_, for the fast path's fill walk
     *  (ascending order matches the dense injection scan). */
    BitVec satPart_;

    // Per-cycle scratch, preallocated in the constructor and reused
    // every step() so the steady-state loop never touches the heap.
    std::vector<std::uint32_t> reqScratch_;    //!< input -> output
    std::vector<std::uint32_t> candVcScratch_; //!< input -> VC
    /** Free outputs. Dense mode rebuilds it from fabric state every
     *  arbitration; event mode maintains it incrementally (clear on
     *  grant, set on release), which checkInvariants() verifies
     *  against outputBusy(). */
    BitVec dstFreeScratch_;
    /** Inputs currently holding a connection; transferCycle() visits
     *  only these instead of scanning all radix ports (at moderate
     *  load most ports are idle most cycles). */
    BitVec connectedPorts_;
    /** Inputs that could request this cycle: not connected and with at
     *  least one occupied (hence head-ready) VC. Updated at fill,
     *  grant, and release boundaries; the event-mode arbitration walks
     *  only these bits. */
    BitVec eligibleInputs_;
    /** Inputs with a non-empty source queue (covers in-flight fills:
     *  a packet streams out of the queue only after its last flit).
     *  fillPhase() visits only these. */
    BitVec fillPending_;
    /** Min-heap on (cycle, input) of pending injection events, one
     *  outstanding entry per participating input (memoryless event
     *  mode only). Ascending input order at equal cycle keeps packet
     *  ids identical to the dense core's per-cycle input scan. */
    std::vector<InjEvent> injHeap_;
    /** Inputs that submitted a request this cycle, for sparse reset
     *  of reqScratch_/candVcScratch_ (event mode keeps both in their
     *  all-idle state between cycles). */
    std::vector<std::uint32_t> activeReq_;

    /** Cycles scanned per nextInjectionFrom call before conceding a
     *  probe event (bounds single-call latency at very low rates; a
     *  probe re-scans when popped). */
    static constexpr net::Cycle kInjectScanChunk = 1u << 20;

    /** Fault machinery live for this run (non-empty schedule). The
     *  hot path pays one predictable branch per phase when off. */
    bool faultsOn_ = false;
    FaultManager faultMgr_;
    /** Victim scratch for beginCycle/applyPending fault breaks. */
    std::vector<fabric::BrokenConn> brokenScratch_;

    net::Cycle cycle_ = 0;
    net::PacketId nextId_ = 1;
    std::uint64_t injected_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t flitsDelivered_ = 0;
    /** Flits of fault-dropped packets never delivered; completes the
     *  conservation identity injected*len == delivered + backlog +
     *  dropped. */
    std::uint64_t droppedFlits_ = 0;
    std::uint64_t packetsDropped_ = 0;

    // Measurement-window accounting.
    bool measuring_ = false;
    net::Cycle measureStart_ = 0;
    std::uint64_t measFlitsDelivered_ = 0;
    std::uint64_t measFlitsOffered_ = 0;
    /** Packets injected during the window / delivered packets that
     *  were injected during the window; the difference at window
     *  close, net of window-injected drops, is the right-censored
     *  population (inFlightAtMeasureEnd). */
    std::uint64_t measPacketsInjected_ = 0;
    std::uint64_t measPacketsCompleted_ = 0;
    std::uint64_t measPacketsDropped_ = 0;
    RunningStat latency_;
    RunningStat queueing_;
    Histogram latencyHist_{4.0, 4096};
    std::vector<RunningStat> perInputLatency_;
    std::vector<std::uint64_t> perInputPackets_;
};

} // namespace hirise::sim

#endif // HIRISE_SIM_NETWORK_SIM_HH
