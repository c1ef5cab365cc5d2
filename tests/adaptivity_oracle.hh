/**
 * @file
 * Test-only reference for cdg::measureAdaptiveness: one possible-class-
 * set DP per destination over concrete (node, class-set) states, memoised
 * in a hash map. It walks the real links and reads every channel's class
 * from the ClassMap, so it assumes no translation symmetry; the library's
 * offset-keyed DP must reproduce its report bit for bit.
 */

#ifndef EBDA_TESTS_ADAPTIVITY_ORACLE_HH
#define EBDA_TESTS_ADAPTIVITY_ORACLE_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "cdg/adaptivity.hh"
#include "cdg/class_map.hh"
#include "core/turns.hh"
#include "util/stats.hh"

namespace ebda::cdg::oracle {

/** State key: a node and the classes the packet may occupy there. */
struct StateKey
{
    topo::NodeId node;
    std::uint64_t mask;

    bool
    operator==(const StateKey &o) const
    {
        return node == o.node && mask == o.mask;
    }
};

struct StateKeyHash
{
    std::size_t
    operator()(const StateKey &k) const
    {
        std::uint64_t h = k.mask * 0x9e3779b97f4a7c15ULL;
        h ^= (h >> 29);
        h += static_cast<std::uint64_t>(k.node) * 0xbf58476d1ce4e5b9ULL;
        h ^= (h >> 32);
        return static_cast<std::size_t>(h);
    }
};

/**
 * Per-destination DP context. Counts, for a (node, possible-class-set)
 * state, how many minimal physical suffix paths to the destination are
 * realisable.
 */
class PathCounter
{
  public:
    PathCounter(const topo::Network &net, const ClassMap &map,
                const core::TurnSet &turns, topo::NodeId dest)
        : net(net), map(map), turns(turns), dest(dest)
    {
    }

    double
    count(topo::NodeId at, std::uint64_t mask)
    {
        if (mask == 0)
            return 0.0;
        if (at == dest)
            return 1.0;
        const StateKey key{at, mask};
        auto it = memo.find(key);
        if (it != memo.end())
            return it->second;

        double total = 0.0;
        for (std::uint8_t d = 0; d < net.numDims(); ++d) {
            const int off = net.minimalOffset(at, dest, d);
            if (off == 0)
                continue;
            const core::Sign travel =
                off > 0 ? core::Sign::Pos : core::Sign::Neg;
            const auto link = net.linkFrom(at, d, travel);
            if (!link)
                continue;
            total += count(net.link(*link).dst, nextMask(mask, *link));
        }
        memo.emplace(key, total);
        return total;
    }

    /** Possible classes after crossing the link from possible set mask. */
    std::uint64_t
    nextMask(std::uint64_t mask, topo::LinkId link)
    {
        std::uint64_t next = 0;
        for (int v = 0; v < net.vcsOnLink(link); ++v) {
            const ClassIndex k2 = map.classOf(net.channel(link, v));
            if (k2 == kUnclassified)
                continue;
            const auto bit2 = 1ULL << k2;
            if (next & bit2)
                continue;
            std::uint64_t m = mask;
            while (m) {
                const int k1 = std::countr_zero(m);
                m &= m - 1;
                if (turns.allows(map.classAt(k1), map.classAt(k2))) {
                    next |= bit2;
                    break;
                }
            }
        }
        return next;
    }

  private:
    const topo::Network &net;
    const ClassMap &map;
    const core::TurnSet &turns;
    const topo::NodeId dest;
    std::unordered_map<StateKey, double, StateKeyHash> memo;
};

/** The report a per-destination measurement produces, accumulated in
 *  the same (dest, src) order as the library. */
inline AdaptivenessReport
measure(const topo::Network &net, const ClassMap &map,
        const core::TurnSet &turns)
{
    const std::uint64_t all_classes =
        map.numClasses() == 64 ? ~0ULL
                               : (1ULL << map.numClasses()) - 1;

    AdaptivenessReport report;
    std::size_t pairs = 0;
    double fraction_sum = 0.0;
    StatAccumulator fraction_stats;

    for (topo::NodeId dest = 0; dest < net.numNodes(); ++dest) {
        PathCounter counter(net, map, turns, dest);
        for (topo::NodeId src = 0; src < net.numNodes(); ++src) {
            if (src == dest)
                continue;
            const double allowed = counter.count(src, all_classes);
            const double total = countMinimalPaths(net, src, dest);
            const double fraction = total > 0 ? allowed / total : 0.0;

            ++pairs;
            fraction_sum += fraction;
            fraction_stats.add(fraction);
            report.minFraction = std::min(report.minFraction, fraction);
            report.totalPaths += total;
            report.allowedPaths += allowed;
            if (allowed + 0.5 < total)
                report.fullyAdaptive = false;
            if (allowed < 0.5)
                report.disconnectedMinimal = true;
        }
    }
    report.averageFraction = pairs ? fraction_sum / pairs : 1.0;
    report.fractionStddev = fraction_stats.stddev();
    return report;
}

/** Expect every field of two reports to be bitwise equal. */
inline void
expectBitIdentical(const AdaptivenessReport &got,
                   const AdaptivenessReport &want, const std::string &what)
{
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    EXPECT_EQ(bits(got.averageFraction), bits(want.averageFraction)) << what;
    EXPECT_EQ(bits(got.minFraction), bits(want.minFraction)) << what;
    EXPECT_EQ(got.fullyAdaptive, want.fullyAdaptive) << what;
    EXPECT_EQ(got.disconnectedMinimal, want.disconnectedMinimal) << what;
    EXPECT_EQ(bits(got.totalPaths), bits(want.totalPaths)) << what;
    EXPECT_EQ(bits(got.allowedPaths), bits(want.allowedPaths)) << what;
    EXPECT_EQ(bits(got.fractionStddev), bits(want.fractionStddev)) << what;
}

/** Measure a scheme both ways on one network and compare bitwise. */
inline void
expectMatchesOracle(const topo::Network &net,
                    const core::PartitionScheme &scheme,
                    const std::string &label)
{
    const ClassMap map(net, scheme);
    const core::TurnSet turns = core::TurnSet::extract(scheme);
    expectBitIdentical(measureAdaptiveness(net, map, turns),
                       measure(net, map, turns),
                       label + " " + scheme.toString());
}

} // namespace ebda::cdg::oracle

#endif // EBDA_TESTS_ADAPTIVITY_ORACLE_HH
