/**
 * @file
 * Dynamic fault events: mid-run TSV-channel failure/recovery, whole-
 * layer loss, and flaky links whose CRC-detected error rate triggers
 * automatic isolation (and, after a recovery window, unisolation).
 *
 * A FaultSchedule is pure configuration — a deterministic script of
 * timed events plus flaky-link error processes — and a FaultManager is
 * the per-run state machine that applies it to a fabric. Error draws
 * are counter-based (pure functions of (seed ^ salt, chanId, cycle)),
 * so dense and event-driven stepping agree bit for bit, and
 * event-mode idle fast-forward composes: transfers only happen on
 * stepped cycles, and scheduled events/unisolations are exposed via
 * nextEventCycle() so the fast-forward clamp never jumps one.
 *
 * Failure reasons are tracked per channel as a bitmask (scheduled
 * event vs. isolation) so overlapping causes compose: a channel
 * returns to service only when every reason clears.
 */

#ifndef HIRISE_SIM_FAULT_HH
#define HIRISE_SIM_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/snapshot.hh"
#include "common/spec.hh"
#include "fabric/fabric.hh"
#include "net/packet.hh"

namespace hirise::sim {

/** One scheduled topology change, applied at the start of @c cycle
 *  (before injection/arbitration of that cycle). */
struct FaultEvent
{
    enum class Kind : std::uint8_t
    {
        FailChannel,    //!< (src, dst, chan) goes down
        RecoverChannel, //!< (src, dst, chan) scheduled repair
        FailLayer,      //!< every L2LC touching layer @c src goes down
        RecoverLayer,   //!< scheduled repair of layer @c src's L2LCs
    };

    net::Cycle cycle = 0;
    Kind kind = Kind::FailChannel;
    std::uint32_t src = 0;  //!< src layer; the layer for *Layer kinds
    std::uint32_t dst = 0;  //!< dst layer (channel kinds only)
    std::uint32_t chan = 0; //!< channel k (channel kinds only)
};

/** A link whose flits suffer CRC-detected (and corrected) errors with
 *  probability @c errorRate per transferred flit. Errors never corrupt
 *  data in this model; their only simulated effect is the isolation
 *  threshold below. */
struct FlakyLink
{
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint32_t chan = 0;
    double errorRate = 0.0;
};

/**
 * Deterministic fault script for one run. Part of a simulation's
 * configuration: it feeds the SimCache key and the snapshot config
 * key via descriptor(), and two runs with equal schedules (and equal
 * everything else) are bit-identical.
 */
struct FaultSchedule
{
    std::vector<FaultEvent> events; //!< applied in stable cycle order
    std::vector<FlakyLink> flaky;

    /** Isolate a flaky link when its detected errors within one
     *  windowCycles-aligned window *exceed* this count. */
    std::uint32_t maxErrorsPerWindow = 3;
    net::Cycle windowCycles = 64;
    /** Cycles an isolated link stays out of service before automatic
     *  unisolation; 0 keeps it isolated forever. */
    net::Cycle recoveryCycles = 0;
    /** Mixed into the error-draw stream key so fault randomness never
     *  collides with traffic lanes of the same seed. */
    std::uint64_t seedSalt = 0;

    /** Test-only seeded mutation (check/oracle.hh
     *  Mutation::IsolationThresholdOffByOne): trip isolation at
     *  count == maxErrorsPerWindow instead of count > it. */
    bool mutIsolationOffByOne = false;

    bool
    empty() const
    {
        return events.empty() && flaky.empty();
    }

    /** Fatal on out-of-range layers/channels, self-loops, or a
     *  non-positive error rate / zero window. */
    void validate(const SwitchSpec &spec) const;

    /** Canonical string form for cache/snapshot keys. */
    std::string descriptor() const;
};

/**
 * Per-run fault state machine. The simulator calls, in cycle order:
 *   beginCycle(c)      — at the start of cycle c, before injection
 *   onFlitTransfer(c)  — once per flit crossing an L2LC in cycle c
 *   applyPending(c)    — after the transfer walk of cycle c
 * and tears down any BrokenConn victims the fabric reports. A default-
 * constructed manager is inert (active() == false) and free to call.
 */
class FaultManager
{
  public:
    static constexpr net::Cycle kNever = ~net::Cycle(0);
    static constexpr std::uint32_t kNoFlaky = ~0u;

    FaultManager() = default;
    FaultManager(const FaultSchedule &sched, const SwitchSpec &spec,
                 std::uint64_t seed);

    bool active() const { return nchan_ != 0; }
    const FaultSchedule &schedule() const { return sched_; }

    /** Apply events and unisolations due at @p cycle. Victims of
     *  forced connection breaks are appended to @p broken. */
    void beginCycle(net::Cycle cycle, fabric::Fabric &fab,
                    std::vector<fabric::BrokenConn> &broken);

    /** Earliest cycle > the last beginCycle at which a scheduled
     *  event or pending unisolation is due; kNever if none. The
     *  event-mode idle fast-forward clamps to this so no fault cycle
     *  is jumped over. */
    net::Cycle nextEventCycle() const;

    /** Flaky-link error draw for one flit crossing @p chan_id at
     *  @p cycle (pass fabric::kNoRequest for same-layer transfers —
     *  it is ignored). Queues an isolation when the window threshold
     *  trips; the fabric is not touched until applyPending(). */
    void onFlitTransfer(net::Cycle cycle, std::uint32_t chan_id);

    /** Isolate the channels queued by this cycle's onFlitTransfer
     *  calls, breaking their connections (appended to @p broken). */
    void applyPending(net::Cycle cycle, fabric::Fabric &fab,
                      std::vector<fabric::BrokenConn> &broken);

    // -- introspection (tests, reports) ------------------------------
    /** Failure-reason bitmask of @p chan_id (0 == in service). */
    std::uint8_t reason(std::uint32_t chan_id) const
    {
        return reason_[chan_id];
    }
    bool isolated(std::uint32_t chan_id) const
    {
        return (reason_[chan_id] & kReasonIsolated) != 0;
    }
    std::uint64_t totalLinkErrors() const { return totalErrors_; }
    std::uint64_t totalIsolations() const { return isolations_; }
    std::uint64_t totalUnisolations() const { return unisolations_; }

    static constexpr std::uint8_t kReasonEvent = 1;    //!< scheduled
    static constexpr std::uint8_t kReasonIsolated = 2; //!< threshold

    void save(snap::Writer &w) const;
    void load(snap::Reader &r);

  private:
    void setFailed(std::uint32_t id, std::uint8_t bit,
                   fabric::Fabric &fab,
                   std::vector<fabric::BrokenConn> *broken);
    void clearFailed(std::uint32_t id, std::uint8_t bit,
                     fabric::Fabric &fab);

    // -- configuration (reconstructed, never snapshotted) ------------
    FaultSchedule sched_; //!< events stably sorted by cycle
    std::uint32_t nlay_ = 0;
    std::uint32_t chan_ = 0;
    std::uint32_t nchan_ = 0; //!< layers^2 * channels (0 == inert)
    std::vector<std::uint32_t> flakyOf_;  //!< chanId -> flaky index
    std::vector<std::uint64_t> flakyKey_; //!< counter stream key
    /** Precomputed bernoulliThreshold(errorRate) per flaky link. */
    std::vector<std::uint64_t> errThresh_;

    // -- state (snapshotted) -----------------------------------------
    std::uint64_t nextEvt_ = 0; //!< first unapplied sched_.events idx
    std::vector<std::uint8_t> reason_;    //!< per chanId
    std::vector<net::Cycle> unisolateAt_; //!< per chanId; kNever
    std::vector<std::uint64_t> winIdx_;   //!< per flaky: window index
    std::vector<std::uint32_t> winCount_; //!< per flaky: errors in it
    std::uint32_t numIsolated_ = 0;
    std::uint64_t totalErrors_ = 0;
    std::uint64_t isolations_ = 0;
    std::uint64_t unisolations_ = 0;
    /** Channels tripped this cycle; drained by applyPending within
     *  the same cycle, so it is empty at snapshot boundaries. */
    std::vector<std::uint32_t> pending_;
};

} // namespace hirise::sim

#endif // HIRISE_SIM_FAULT_HH
