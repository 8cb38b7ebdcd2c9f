#include "net/input_port.hh"

#include "common/logging.hh"

namespace hirise::net {

void
InputPort::fillCycle()
{
    if (sourceQueue_.empty())
        return;
    if (fillFrom(sourceQueue_.front()))
        sourceQueue_.pop_front();
}

bool
InputPort::fillFrom(const Packet &head)
{
    // Continue streaming the current packet into its VC.
    if (fillVc_ != kNoVc) {
        VirtualChannel &vc = vcs_[fillVc_];
        if (vc.full())
            return false; // backpressure: wait for the crossbar
        vc.pushFlit(head.flit(fillIdx_));
        ++fillIdx_;
        if (fillIdx_ == head.lenFlits) {
            fillVc_ = kNoVc;
            fillIdx_ = 0;
            return true;
        }
        return false;
    }

    // Allocate a free VC (idle, empty) for the next packet.
    for (std::uint32_t v = 0; v < vcs_.size(); ++v) {
        if (!vcs_[v].busy() && vcs_[v].empty()) {
            fillVc_ = v;
            vcs_[v].pushFlit(head.flit(0));
            fillIdx_ = 1;
            if (fillIdx_ == head.lenFlits) {
                fillVc_ = kNoVc;
                fillIdx_ = 0;
                return true;
            }
            return false;
        }
    }
    return false;
}

std::uint32_t
InputPort::pickCandidateVc(const BitVec *dst_free)
{
    sim_assert(!connected(), "busy input must not arbitrate");
    const std::uint32_t n = static_cast<std::uint32_t>(vcs_.size());
    for (std::uint32_t k = 0; k < n; ++k) {
        std::uint32_t v = (rrNext_ + k) % n;
        if (!vcs_[v].headReady())
            continue;
        if (dst_free && !dst_free->test(vcs_[v].front().dst))
            continue;
        rrNext_ = (v + 1) % n;
        return v;
    }
    return kNoVc;
}

void
InputPort::breakConnection(std::uint32_t &flits_dropped,
                           bool &pop_source)
{
    sim_assert(connected(), "breaking an idle port");
    flits_dropped = connFlitsLeft_;
    pop_source = false;
    if (fillVc_ == connVc_) {
        // The dropped packet was still streaming from the source
        // queue head (a VC holds exactly one packet head-to-tail, so
        // the streaming packet is the connected one). Cancel the
        // stream; the caller pops the head we never finished pulling.
        fillVc_ = kNoVc;
        fillIdx_ = 0;
        pop_source = true;
    }
    vcs_[connVc_].clear();
    connVc_ = kNoVc;
    connFlitsLeft_ = 0;
    justConnected_ = false;
}

void
InputPort::save(snap::Writer &w) const
{
    w.u64(sourceQueue_.size());
    for (std::size_t i = 0; i < sourceQueue_.size(); ++i)
        sourceQueue_[i].save(w);
    for (const auto &vc : vcs_)
        vc.save(w);
    w.u32(fillVc_);
    w.pod(fillIdx_);
    w.u32(rrNext_);
    w.u32(connVc_);
    w.u32(connOutput_);
    w.u32(connFlitsLeft_);
    w.u64(connGenCycle_);
    w.b(justConnected_);
}

void
InputPort::load(snap::Reader &r)
{
    sourceQueue_.clear();
    std::uint64_t n = r.u64();
    sourceQueue_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        Packet p;
        p.load(r);
        sourceQueue_.push_back(p);
    }
    for (auto &vc : vcs_)
        vc.load(r);
    fillVc_ = r.u32();
    fillIdx_ = r.pod<std::uint16_t>();
    rrNext_ = r.u32();
    connVc_ = r.u32();
    connOutput_ = r.u32();
    connFlitsLeft_ = r.u32();
    connGenCycle_ = r.u64();
    justConnected_ = r.b();
}

std::uint64_t
InputPort::backlogFlits() const
{
    std::uint64_t n = 0;
    for (const auto &vc : vcs_)
        n += vc.size();
    for (std::size_t i = 0; i < sourceQueue_.size(); ++i)
        n += sourceQueue_[i].lenFlits;
    // The packet currently streaming sits in both the source queue
    // and (partially) a VC; discount the flits counted twice.
    if (fillVc_ != kNoVc)
        n -= fillIdx_;
    return n;
}

} // namespace hirise::net
