/**
 * @file
 * Synthetic traffic patterns (paper section V): uniform random,
 * hotspot, bursty, the adversarial pattern of section III-B, the
 * inter-layer-only pathological pattern of section VI-B, and the
 * standard permutation patterns, plus trace replay.
 *
 * Patterns draw from counter-based streams (common/random.hh): every
 * decision is a pure function of (seed, input, cycle), so injection is
 * order-independent across inputs and skippable across cycles. The
 * event-driven simulator core depends on both properties; the dense
 * reference core consumes the exact same streams, which is what makes
 * the two stepping modes bit-identical.
 */

#ifndef HIRISE_TRAFFIC_PATTERN_HH
#define HIRISE_TRAFFIC_PATTERN_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/snapshot.hh"

namespace hirise::traffic {

/**
 * A traffic pattern decides which inputs inject and where packets go.
 *
 * Stream-lane layout: each input owns kLaneDomains consecutive lanes
 * of the counter stream space, one per draw purpose, so the draws an
 * input makes at one cycle are mutually independent and independent of
 * every other input's.
 */
class TrafficPattern
{
  public:
    static constexpr std::uint64_t kLaneInject = 0;
    static constexpr std::uint64_t kLaneDest = 1;
    static constexpr std::uint64_t kLaneBurstLen = 2;
    static constexpr std::uint64_t kLaneDomains = 3;

    static constexpr std::uint64_t
    lane(std::uint32_t src, std::uint64_t domain)
    {
        return std::uint64_t(src) * kLaneDomains + domain;
    }

    virtual ~TrafficPattern() = default;

    /**
     * Does @p src generate a new packet at @p cycle under @p rate
     * (packets/input/cycle)? Default: Bernoulli draw on the input's
     * inject lane.
     *
     * Memoryless patterns must make this a pure function of
     * (seed, src, cycle). Stateful patterns (memoryless() == false)
     * may keep per-input state, under the contract that the simulator
     * calls injectAt exactly once per (src, cycle) with cycles
     * strictly increasing per source.
     */
    virtual bool
    injectAt(std::uint32_t src, std::uint64_t cycle, double rate,
             std::uint64_t seed)
    {
        return participates(src) &&
               counterBernoulli(
                   counterDraw(seed, lane(src, kLaneInject), cycle),
                   rate);
    }

    /** Destination for the packet @p src injects at @p cycle. Called
     *  at most once per (src, cycle), only after injectAt returned
     *  true there. */
    virtual std::uint32_t destAt(std::uint32_t src, std::uint64_t cycle,
                                 std::uint64_t seed) = 0;

    // Exists only for e2ebench; goes in the next benchmark change.
    virtual void
    destRow4(std::uint32_t src0, std::uint64_t cycle,
             std::uint64_t seed, const std::uint64_t keys[4],
             std::uint32_t out[4])
    {
        (void)keys;
        for (int j = 0; j < 4; ++j)
            out[j] = destAt(src0 + std::uint32_t(j), cycle, seed);
    }

    /**
     * True when injectAt is the pure per-cycle Bernoulli above (no
     * per-input state), which makes nextInjectionFrom() valid and
     * lets the simulator schedule injections as events instead of
     * polling every input every cycle.
     */
    virtual bool memoryless() const { return true; }

    /**
     * First cycle in [from, limit) where @p src injects, or @p limit
     * when there is none in range. A tight scan over the input's
     * counter stream (one hash + integer threshold compare per cycle),
     * exactly equal to evaluating injectAt cycle by cycle — that
     * equality is what keeps event-driven stepping bit-identical to
     * dense stepping. @pre memoryless().
     */
    std::uint64_t
    nextInjectionFrom(std::uint32_t src, std::uint64_t from,
                      double rate, std::uint64_t seed,
                      std::uint64_t limit) const
    {
        if (!participates(src))
            return limit;
        const std::uint64_t thr = bernoulliThreshold(rate);
        if (thr == 0) // rate 0: no draw can ever pass
            return limit;
        const std::uint64_t key =
            counterKey(seed, lane(src, kLaneInject));
        for (std::uint64_t t = from; t < limit; ++t) {
            if ((counterDrawKeyed(key, t) >> 11) < thr)
                return t;
        }
        return limit;
    }

    /** Inputs outside the pattern never inject (adversarial cases). */
    virtual bool participates(std::uint32_t) const { return true; }

    /**
     * Mean destination distribution: the long-run probability that a
     * packet injected by @p src targets @p dst. Rows of participating
     * sources sum to 1; non-participants' rows are all zero. Feeds
     * the offline MWM fluid throughput bound (sim/mwm_bound.hh).
     * Returns a negative value when the pattern has no analytic rate
     * matrix (trace replay); the bound rejects such patterns.
     */
    virtual double
    rateTo(std::uint32_t /*src*/, std::uint32_t /*dst*/) const
    {
        return -1.0;
    }

    /** Fraction of inputs that inject (for load accounting). */
    virtual double activeFraction() const { return 1.0; }

    virtual std::string name() const = 0;

    /**
     * Canonical, parameter-laden identity string for memoization
     * (sim::SimCache). Two patterns with equal descriptors must
     * produce identical injection/destination sequences for the same
     * seed; every constructor parameter that affects behavior has to
     * appear here.
     */
    virtual std::string descriptor() const { return name(); }

    /** Checkpoint/restore of per-input pattern state. Memoryless
     *  patterns have none (default no-op); stateful ones must save
     *  everything injectAt/destAt depend on. */
    virtual void save(snap::Writer & /*w*/) const {}
    virtual void load(snap::Reader & /*r*/) {}
};

/** Uniform random over all outputs except self. */
class UniformRandom : public TrafficPattern
{
  public:
    explicit UniformRandom(std::uint32_t radix) : radix_(radix) {}
    std::uint32_t
    destAt(std::uint32_t src, std::uint64_t cycle,
           std::uint64_t seed) override
    {
        auto d = static_cast<std::uint32_t>(counterBelow(
            counterDraw(seed, lane(src, kLaneDest), cycle),
            radix_ - 1));
        return d >= src ? d + 1 : d;
    }
    double
    rateTo(std::uint32_t src, std::uint32_t dst) const override
    {
        return src == dst ? 0.0 : 1.0 / double(radix_ - 1);
    }
    std::string name() const override { return "uniform-random"; }
    std::string
    descriptor() const override
    {
        return "uniform-random/r" + std::to_string(radix_);
    }

  private:
    std::uint32_t radix_;
};

/** Every participating input targets one output (paper Fig 11a). */
class Hotspot : public TrafficPattern
{
  public:
    Hotspot(std::uint32_t radix, std::uint32_t hot)
        : radix_(radix), hot_(hot)
    {}
    std::uint32_t
    destAt(std::uint32_t, std::uint64_t, std::uint64_t) override
    {
        return hot_;
    }
    bool
    participates(std::uint32_t src) const override
    {
        return src != hot_; // the hot output's own input stays silent
    }
    double
    activeFraction() const override
    {
        return double(radix_ - 1) / double(radix_);
    }
    double
    rateTo(std::uint32_t src, std::uint32_t dst) const override
    {
        return participates(src) && dst == hot_ ? 1.0 : 0.0;
    }
    std::string name() const override { return "hotspot"; }
    std::string
    descriptor() const override
    {
        return "hotspot/r" + std::to_string(radix_) + "/h" +
               std::to_string(hot_);
    }

  private:
    std::uint32_t radix_;
    std::uint32_t hot_;
};

/**
 * Markov on/off uniform-random traffic: geometric burst and idle
 * period lengths; within a burst the input injects every cycle to a
 * per-burst destination. Mean offered load matches the requested rate.
 *
 * Stateful (per-input burst countdown), so memoryless() is false and
 * the simulator polls it cycle by cycle. The burst-start, length, and
 * destination draws still come from the input's own counter lanes at
 * the burst's start cycle, so inputs remain mutually independent.
 */
class Bursty : public TrafficPattern
{
  public:
    Bursty(std::uint32_t radix, double mean_burst_len)
        : radix_(radix), meanBurst_(mean_burst_len),
          state_(radix), burstDst_(radix, 0)
    {}

    bool injectAt(std::uint32_t src, std::uint64_t cycle, double rate,
                  std::uint64_t seed) override;
    std::uint32_t destAt(std::uint32_t src, std::uint64_t cycle,
                         std::uint64_t seed) override;
    bool memoryless() const override { return false; }
    /** Burst destinations are uniform over non-self, so the mean
     *  rate matrix matches UniformRandom's. */
    double
    rateTo(std::uint32_t src, std::uint32_t dst) const override
    {
        return src == dst ? 0.0 : 1.0 / double(radix_ - 1);
    }
    std::string name() const override { return "bursty"; }
    std::string descriptor() const override;
    void
    save(snap::Writer &w) const override
    {
        w.vec(state_);
        w.vec(burstDst_);
    }
    void
    load(snap::Reader &r) override
    {
        r.vec(state_);
        r.vec(burstDst_);
    }

  private:
    std::uint32_t radix_;
    double meanBurst_;
    std::vector<std::uint32_t> state_; //!< remaining flits in burst
    std::vector<std::uint32_t> burstDst_;
};

/**
 * The paper's adversarial example (III-B2 / Fig 11c): inputs
 * {3,7,11,15} on layer 1 and {20} on layer 2 all request output 63.
 */
class Adversarial : public TrafficPattern
{
  public:
    Adversarial(std::vector<std::uint32_t> sources, std::uint32_t dst,
                std::uint32_t radix);
    std::uint32_t
    destAt(std::uint32_t, std::uint64_t, std::uint64_t) override
    {
        return dst_;
    }
    bool
    participates(std::uint32_t src) const override
    {
        return src < active_.size() && active_[src];
    }
    double
    activeFraction() const override
    {
        return double(numActive_) / double(active_.size());
    }
    double
    rateTo(std::uint32_t src, std::uint32_t dst) const override
    {
        return participates(src) && dst == dst_ ? 1.0 : 0.0;
    }
    std::string name() const override { return "adversarial"; }
    std::string descriptor() const override;

  private:
    std::vector<bool> active_;
    std::uint32_t numActive_;
    std::uint32_t dst_;
};

/**
 * Pathological inter-layer pattern (section VI-B): a group of inputs
 * that share one L2LC all send to distinct outputs on another layer,
 * so throughput is capped by the single vertical channel.
 */
class InterLayerOnly : public TrafficPattern
{
  public:
    /**
     * @param ports_per_layer N/L
     * @param channels       c (inputs 0..c-1 groups share channels)
     * @param src_layer      the sending layer
     * @param dst_layer      the receiving layer
     */
    InterLayerOnly(std::uint32_t ports_per_layer, std::uint32_t channels,
                   std::uint32_t src_layer, std::uint32_t dst_layer);
    std::uint32_t destAt(std::uint32_t src, std::uint64_t cycle,
                         std::uint64_t seed) override;
    bool participates(std::uint32_t src) const override;
    double activeFraction() const override;
    double rateTo(std::uint32_t src, std::uint32_t dst) const override;
    std::string name() const override { return "inter-layer-only"; }
    std::string descriptor() const override;

  private:
    std::uint32_t ppl_, channels_, srcLayer_, dstLayer_;
};

/** Bit-reversal-style permutations for coverage. */
class Transpose : public TrafficPattern
{
  public:
    explicit Transpose(std::uint32_t radix);
    std::uint32_t
    destAt(std::uint32_t src, std::uint64_t, std::uint64_t) override
    {
        return perm_[src];
    }
    double
    rateTo(std::uint32_t src, std::uint32_t dst) const override
    {
        return dst == perm_[src] ? 1.0 : 0.0;
    }
    std::string name() const override { return "transpose"; }
    std::string
    descriptor() const override
    {
        return "transpose/r" + std::to_string(perm_.size());
    }

  private:
    std::vector<std::uint32_t> perm_;
};

class BitComplement : public TrafficPattern
{
  public:
    explicit BitComplement(std::uint32_t radix) : radix_(radix) {}
    std::uint32_t
    destAt(std::uint32_t src, std::uint64_t, std::uint64_t) override
    {
        return (radix_ - 1) - src;
    }
    double
    rateTo(std::uint32_t src, std::uint32_t dst) const override
    {
        return dst == (radix_ - 1) - src ? 1.0 : 0.0;
    }
    std::string name() const override { return "bit-complement"; }
    std::string
    descriptor() const override
    {
        return "bit-complement/r" + std::to_string(radix_);
    }

  private:
    std::uint32_t radix_;
};

} // namespace hirise::traffic

#endif // HIRISE_TRAFFIC_PATTERN_HH
