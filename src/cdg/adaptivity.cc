#include "adaptivity.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/channel_class.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace ebda::cdg {

using core::Sign;

namespace {

/** Dense id of an interned class-set mask; id 0 is the empty set. */
using MaskId = std::int32_t;

constexpr MaskId kNoMask = -1;

/** Class-table slot no channel of the network filled. */
constexpr ClassIndex kNoChannel = -2;

/** True when the network has every link of a mesh of its radices (a
 *  withoutLinks() copy keeps the Mesh kind but loses links). */
bool
isCompleteMesh(const topo::Network &net)
{
    if (net.kind() != topo::TopologyKind::Mesh)
        return false;
    std::size_t links = 0;
    for (const int k : net.dims())
        links += 2 * net.numNodes() / static_cast<std::size_t>(k)
               * static_cast<std::size_t>(k - 1);
    return net.numLinks() == links;
}

/**
 * Realisable minimal path counts over (offset, source parity, class
 * set) states, shared by every (src, dest) pair of one measurement.
 *
 * A state is the offset dest - at, the parity of `at` along each axis
 * some parity class names, and the set of classes the packet may occupy
 * after arriving at `at`. On a complete mesh these three fix the count:
 * every hop of the box exists and a channel's class reads only its dim,
 * sign, VC and source parity. The constructor checks the class half of
 * that claim on every channel of the network.
 */
class PathCounter
{
  public:
    PathCounter(const topo::Network &net, const ClassMap &map,
                const core::TurnSet &turns)
        : numDims(net.numDims())
    {
        // Offsets are mixed-radix numbers with digits o_d + k_d - 1 in
        // [0, 2 k_d - 2]; node positions use the same strides so that
        // offsetIndex(src, dest) is one subtraction.
        offsetStride.assign(numDims + 1, 1);
        for (std::uint8_t d = 0; d < numDims; ++d) {
            const auto k = static_cast<std::size_t>(net.dims()[d]);
            offsetStride[d + 1] = offsetStride[d] * (2 * k - 1);
            center += (k - 1) * offsetStride[d];
        }
        numOffsets = offsetStride[numDims];
        offsetDigits.resize(numOffsets * numDims);
        for (std::size_t off = 0; off < numOffsets; ++off) {
            for (std::uint8_t d = 0; d < numDims; ++d) {
                const int k = net.dims()[d];
                offsetDigits[off * numDims + d] =
                    static_cast<int>(off / offsetStride[d]
                                     % static_cast<std::size_t>(2 * k - 1))
                    - (k - 1);
            }
        }

        axisBit.assign(numDims, 0);
        std::uint32_t axes = 0;
        for (std::size_t i = 0; i < map.numClasses(); ++i) {
            const auto &cls = map.classAt(static_cast<ClassIndex>(i));
            if (cls.parity != core::Parity::Any
                && cls.parityAxis < numDims
                && axisBit[cls.parityAxis] == 0) {
                axisBit[cls.parityAxis] = 1U << axes++;
            }
        }
        numParities = 1U << axes;

        nodePos.resize(net.numNodes());
        nodeParity.resize(net.numNodes());
        for (topo::NodeId n = 0; n < net.numNodes(); ++n) {
            std::size_t pos = 0;
            std::uint32_t par = 0;
            for (std::uint8_t d = 0; d < numDims; ++d) {
                const int c = net.coordAlong(n, d);
                pos += static_cast<std::size_t>(c) * offsetStride[d];
                if (c % 2 != 0)
                    par |= axisBit[d];
            }
            nodePos[n] = pos;
            nodeParity[n] = par;
        }

        for (const int v : net.vcs())
            maxVcs = std::max(maxVcs, v);
        vcsPerDim = net.vcs();
        hopClass.assign(static_cast<std::size_t>(numDims) * 2 * maxVcs
                            * numParities,
                        kNoChannel);
        for (topo::LinkId l = 0; l < net.numLinks(); ++l) {
            const topo::Link &lk = net.link(l);
            for (int v = 0; v < net.vcsOnLink(l); ++v) {
                ClassIndex &slot = hopClass[hopSlot(
                    lk.dim, lk.travelSign, v, nodeParity[lk.src])];
                const ClassIndex k = map.classOf(net.channel(l, v));
                EBDA_ASSERT(slot == kNoChannel || slot == k,
                            "channel ", net.channelName(net.channel(l, v)),
                            " breaks the translation symmetry of the"
                            " class map");
                slot = k;
            }
        }

        allowedInto.assign(map.numClasses(), 0);
        for (std::size_t k2 = 0; k2 < map.numClasses(); ++k2)
            for (std::size_t k1 = 0; k1 < map.numClasses(); ++k1)
                if (turns.allows(map.classAt(static_cast<ClassIndex>(k1)),
                                 map.classAt(static_cast<ClassIndex>(k2))))
                    allowedInto[k2] |= 1ULL << k1;

        intern(0);
    }

    /** Offset index of dest - src (center >= nodePos[src]). */
    std::size_t
    offsetIndex(topo::NodeId src, topo::NodeId dest) const
    {
        return center + nodePos[dest] - nodePos[src];
    }

    std::size_t offsetCount() const { return numOffsets; }

    std::uint32_t parityOf(topo::NodeId n) const { return nodeParity[n]; }

    /** Intern a class-set mask, growing the transition and memo
     *  tables by one block for a new mask. */
    MaskId
    intern(std::uint64_t mask)
    {
        const auto [it, fresh] =
            maskIds.try_emplace(mask, static_cast<MaskId>(masks.size()));
        if (fresh) {
            masks.push_back(mask);
            next.resize(next.size() + numDims * 2 * numParities, kNoMask);
            memo.resize(memo.size() + numOffsets * numParities, -1.0);
        }
        return it->second;
    }

    /**
     * Realisable minimal paths from a node of parity state `par` to the
     * node at offset `off` from it, arriving with class set `m`. The
     * sum runs over dimensions in ascending order, as a per-destination
     * walk would, so every value is bit-identical to one.
     */
    double
    count(std::size_t off, std::uint32_t par, MaskId m)
    {
        // An empty set means the walk was not realisable, even if it
        // geometrically reached the destination.
        if (m == 0)
            return 0.0;
        if (off == center)
            return 1.0;
        const std::size_t slot =
            (static_cast<std::size_t>(m) * numOffsets + off) * numParities
            + par;
        if (memo[slot] >= 0.0)
            return memo[slot];

        double total = 0.0;
        for (std::uint8_t d = 0; d < numDims; ++d) {
            const int o = offsetDigits[off * numDims + d];
            if (o == 0)
                continue;
            const Sign travel = o > 0 ? Sign::Pos : Sign::Neg;
            const MaskId m2 = step(m, d, travel, par);
            const std::size_t stride = offsetStride[d];
            total += count(o > 0 ? off - stride : off + stride,
                           par ^ axisBit[d], m2);
        }
        // Recursion may have grown the memo; `slot` is still valid
        // because tables only grow by appending whole mask blocks.
        memo[slot] = total;
        return total;
    }

  private:
    std::size_t
    hopSlot(std::uint8_t d, Sign travel, int vc, std::uint32_t par) const
    {
        return ((static_cast<std::size_t>(d) * 2
                 + static_cast<std::size_t>(travel))
                    * maxVcs
                + static_cast<std::size_t>(vc))
                   * numParities
             + par;
    }

    /** Possible classes after one hop along (d, travel) from a node of
     *  parity state par, entered with class set m. */
    MaskId
    step(MaskId m, std::uint8_t d, Sign travel, std::uint32_t par)
    {
        const std::size_t slot =
            ((static_cast<std::size_t>(m) * numDims + d) * 2
             + static_cast<std::size_t>(travel))
                * numParities
            + par;
        if (next[slot] != kNoMask)
            return next[slot];
        const std::uint64_t mask = masks[static_cast<std::size_t>(m)];
        std::uint64_t to = 0;
        for (int v = 0; v < vcsPerDim[d]; ++v) {
            const ClassIndex k2 = hopClass[hopSlot(d, travel, v, par)];
            EBDA_ASSERT(k2 != kNoChannel, "hop without a channel");
            if (k2 != kUnclassified
                && (mask & allowedInto[static_cast<std::size_t>(k2)]))
                to |= 1ULL << k2;
        }
        const MaskId id = intern(to);
        next[slot] = id;
        return id;
    }

    const std::uint8_t numDims;
    std::vector<std::size_t> offsetStride;
    std::size_t center = 0;
    std::size_t numOffsets = 0;
    /** o_d of every offset index, numDims per index. */
    std::vector<int> offsetDigits;

    /** Parity-state bit of each axis a parity class names, else 0. */
    std::vector<std::uint32_t> axisBit;
    std::uint32_t numParities = 1;
    std::vector<std::size_t> nodePos;
    std::vector<std::uint32_t> nodeParity;

    int maxVcs = 0;
    std::vector<int> vcsPerDim;
    /** Class of the channel (dim, travel, VC) leaving a node of a
     *  parity state: kUnclassified or kNoChannel when there is none. */
    std::vector<ClassIndex> hopClass;
    /** Bit k1 of allowedInto[k2] is set when k1 -> k2 is allowed. */
    std::vector<std::uint64_t> allowedInto;

    std::vector<std::uint64_t> masks;
    std::unordered_map<std::uint64_t, MaskId> maskIds;
    /** (mask, dim, travel, parity) -> next mask id, kNoMask unknown. */
    std::vector<MaskId> next;
    /** (mask, offset, parity) -> count, negative when unknown. */
    std::vector<double> memo;
};

} // namespace

double
countMinimalPaths(const topo::Network &net, topo::NodeId src,
                  topo::NodeId dest)
{
    // Multinomial (sum |off_d|)! / prod |off_d|! computed via lgamma to
    // stay finite for large meshes.
    double log_paths = 0.0;
    int total = 0;
    for (std::uint8_t d = 0; d < net.numDims(); ++d) {
        const int off = std::abs(net.minimalOffset(src, dest, d));
        total += off;
        log_paths -= std::lgamma(off + 1.0);
    }
    log_paths += std::lgamma(total + 1.0);
    return std::exp(log_paths);
}

AdaptivenessReport
measureAdaptiveness(const topo::Network &net,
                    const core::PartitionScheme &scheme,
                    const core::TurnExtractionOptions &opts)
{
    const ClassMap map(net, scheme);
    const core::TurnSet turns = core::TurnSet::extract(scheme, opts);
    return measureAdaptiveness(net, map, turns);
}

AdaptivenessReport
measureAdaptiveness(const topo::Network &net, const ClassMap &map,
                    const core::TurnSet &turns)
{
    EBDA_ASSERT(isCompleteMesh(net),
                "adaptiveness measurement requires a complete mesh network");
    EBDA_ASSERT(map.numClasses() <= 64,
                "class-set DP limited to 64 classes, scheme has ",
                map.numClasses());

    const std::uint64_t all_classes =
        map.numClasses() == 64 ? ~0ULL
                               : (1ULL << map.numClasses()) - 1;

    PathCounter counter(net, map, turns);
    // On injection the packet may start in any class the first link
    // supports; model this as the full class set feeding the first hop.
    const MaskId start = counter.intern(all_classes);
    std::vector<double> total_paths(counter.offsetCount(), -1.0);

    AdaptivenessReport report;
    std::size_t pairs = 0;
    double fraction_sum = 0.0;
    StatAccumulator fraction_stats;

    for (topo::NodeId dest = 0; dest < net.numNodes(); ++dest) {
        for (topo::NodeId src = 0; src < net.numNodes(); ++src) {
            if (src == dest)
                continue;
            const std::size_t off = counter.offsetIndex(src, dest);
            const double allowed =
                counter.count(off, counter.parityOf(src), start);
            double &total = total_paths[off];
            if (total < 0.0)
                total = countMinimalPaths(net, src, dest);
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

} // namespace ebda::cdg
