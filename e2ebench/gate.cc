#include "gate.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace e2e {

std::uint64_t
opsDigest(const std::vector<std::string> &ops)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](unsigned char c) {
        h ^= c;
        h *= 0x100000001b3ull;
    };
    for (const std::string &op : ops) {
        for (char c : op)
            mix(static_cast<unsigned char>(c));
        mix('\n');
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::size_t
countMismatches(const std::vector<std::string> &got,
                const std::vector<std::string> &ref)
{
    std::size_t n = std::min(got.size(), ref.size());
    std::size_t bad = std::max(got.size(), ref.size()) - n;
    for (std::size_t i = 0; i < n; ++i)
        bad += got[i] != ref[i];
    return bad;
}

namespace {

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!sameBits(a[i], b[i]))
            return false;
    }
    return true;
}

} // namespace

bool
resultsIdentical(const hirise::sim::SimResult &a,
                 const hirise::sim::SimResult &b)
{
    return sameBits(a.offeredFlitsPerCycle, b.offeredFlitsPerCycle) &&
           sameBits(a.acceptedFlitsPerCycle, b.acceptedFlitsPerCycle) &&
           sameBits(a.avgLatencyCycles, b.avgLatencyCycles) &&
           sameBits(a.p99LatencyCycles, b.p99LatencyCycles) &&
           sameBits(a.avgQueueingCycles, b.avgQueueingCycles) &&
           a.packetsDelivered == b.packetsDelivered &&
           a.inFlightAtMeasureEnd == b.inFlightAtMeasureEnd &&
           a.latencyOverflowPackets == b.latencyOverflowPackets &&
           a.packetsDropped == b.packetsDropped &&
           sameBits(a.perInputLatency, b.perInputLatency) &&
           sameBits(a.perInputThroughput, b.perInputThroughput) &&
           sameBits(a.fairness, b.fairness);
}

} // namespace e2e
