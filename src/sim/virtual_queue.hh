/**
 * @file
 * Virtual source queues: NetworkSim's saturated-injection fast path.
 *
 * At offered load >= 1 every Bernoulli draw passes
 * (bernoulliThreshold saturates at 2^53), so each participating input
 * injects exactly one packet per cycle and a source queue's contents
 * become a pure function of the counter streams: input i's k-th
 * packet has genCycle k, id = k * P + rank(i) + 1 (P participating
 * inputs, ranks assigned in ascending input order — exactly the dense
 * per-cycle poll's injection order), and dst = destAt(i, k, seed).
 * Nothing needs to be queued: injection collapses to an accounting
 * bump and only each input's HEAD packet is materialized, re-derived
 * on consumption (one destAt hash per packet that actually leaves the
 * queue, bounded by delivery throughput rather than offered load).
 *
 * Requires a memoryless pattern (injectAt/destAt are pure hashes of
 * (input, cycle, seed)); stateful patterns keep the legacy queued
 * path. Bit-identity with that path is enforced by
 * tests/sat_fastpath_test.cc.
 */

#ifndef HIRISE_SIM_VIRTUAL_QUEUE_HH
#define HIRISE_SIM_VIRTUAL_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/snapshot.hh"
#include "net/packet.hh"
#include "traffic/pattern.hh"

namespace hirise::sim {

class VirtualSourceQueues
{
  public:
    /** True when @p load saturates the injection Bernoulli (every
     *  draw passes, i.e. load >= 1) — the precondition for the
     *  virtual-queue identity. The pattern must also be memoryless;
     *  callers check that separately. */
    static bool
    saturates(double load)
    {
        return bernoulliThreshold(load) == (std::uint64_t(1) << 53);
    }

    /** Build cycle-0 head packets for every participating input of
     *  @p pat. Idempotent: re-init resets to cycle 0. */
    void
    init(traffic::TrafficPattern &pat, std::uint32_t radix,
         std::uint32_t packet_len, std::uint64_t seed)
    {
        seed_ = seed;
        p_ = 0;
        heads_.assign(radix, net::Packet{});
        part_.assign(radix, 0);
        for (std::uint32_t i = 0; i < radix; ++i) {
            if (!pat.participates(i))
                continue;
            net::Packet &head = heads_[i];
            head.id = p_ + 1; // rank'th injection of cycle 0
            head.src = i;
            head.dst = pat.destAt(i, 0, seed);
            head.lenFlits = static_cast<std::uint16_t>(packet_len);
            head.genCycle = 0;
            part_[i] = 1;
            ++p_;
        }
    }

    /** Number of participating inputs (P in the id identity). */
    std::uint32_t participants() const { return p_; }

    bool participates(std::uint32_t i) const { return part_[i] != 0; }

    net::Packet &head(std::uint32_t i) { return heads_[i]; }
    const net::Packet &head(std::uint32_t i) const { return heads_[i]; }

    /** The head fully streamed into a VC: re-derive the next one —
     *  the packet this input injected one cycle later, P ids down the
     *  lane's id sequence. */
    void
    advance(std::uint32_t i, traffic::TrafficPattern &pat)
    {
        net::Packet &head = heads_[i];
        head.genCycle += 1;
        head.id += p_;
        head.dst = pat.destAt(i, head.genCycle, seed_);
    }

    /** Flits injected but not yet streamed out of input @p i's
     *  virtual queue as of @p cycle, excluding the head's own flits
     *  (InputPort::backlogFlits already counts the partially streamed
     *  head): packets with genCycle in [head, cycle) are pending. */
    std::uint64_t
    pendingFlitsBehindHead(std::uint32_t i, std::uint64_t cycle,
                           std::uint32_t packet_len) const
    {
        return (cycle - heads_[i].genCycle) * packet_len;
    }

    /** Only the head packets are state; participation, rank count,
     *  and seed are configuration re-derived by init(). */
    void save(snap::Writer &w) const { w.vec(heads_); }
    void load(snap::Reader &r) { r.vec(heads_); }

  private:
    std::vector<net::Packet> heads_;
    std::vector<std::uint8_t> part_;
    std::uint32_t p_ = 0;
    std::uint64_t seed_ = 0;
};

} // namespace hirise::sim

#endif // HIRISE_SIM_VIRTUAL_QUEUE_HH
