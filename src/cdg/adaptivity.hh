/**
 * @file
 * Exact adaptiveness measurement of a partition scheme on a mesh.
 *
 * The degree of adaptiveness of (source, dest) is the fraction of
 * minimal physical paths the scheme's turn set can realise with some
 * class assignment. The paper's "fully adaptive" claim for the Section 4
 * constructions means this fraction is 1 for every pair; deterministic
 * routing scores 1/#paths.
 *
 * Realisability is decided exactly with a possible-class-set dynamic
 * program: walking a physical path, the set of classes the packet may
 * occupy after each hop is a deterministic function of the previous set
 * and the hop's channel classes, so counting realisable paths is a DP
 * over (position, class-set) states — no per-path enumeration and no VC
 * overcounting.
 *
 * One DP serves every pair, by the paper's own argument that classes,
 * not concrete channels, decide. A channel's class reads only its
 * dimension, sign and VC plus the parity of its source coordinate along
 * the axis a parity class names (Definition 6). On a complete mesh every
 * minimal hop inside the (source, dest) box exists and each dimension
 * has one VC count, so the realisable path count depends only on the
 * offset dest - source, the source's parity along the scheme's parity
 * axes, and the class set. The DP is keyed by exactly those, in dense
 * tables, and sums in the same order a per-destination walk would, so
 * the report is bit-identical to one.
 *
 * Precondition: the network is a complete Network::mesh. Tori (wrap
 * links make minimal walks non-monotone), partial 3D meshes and faulted
 * copies (missing links break the offset symmetry) are rejected.
 */

#ifndef EBDA_CDG_ADAPTIVITY_HH
#define EBDA_CDG_ADAPTIVITY_HH

#include <cstdint>

#include "cdg/class_map.hh"
#include "core/turns.hh"

namespace ebda::cdg {

/** Aggregate adaptiveness statistics over all (src, dest) pairs. */
struct AdaptivenessReport
{
    /** Average over pairs of allowed/total minimal paths. */
    double averageFraction = 0.0;
    /** Smallest fraction over all pairs. */
    double minFraction = 1.0;
    /** True when every minimal path of every pair is realisable. */
    bool fullyAdaptive = true;
    /** True when some pair has zero realisable minimal path (the scheme
     *  cannot route that pair minimally). */
    bool disconnectedMinimal = false;
    /** Total and allowed minimal path counts summed over pairs. */
    double totalPaths = 0.0;
    double allowedPaths = 0.0;
    /**
     * Standard deviation of the per-pair fraction — the *evenness* of
     * adaptiveness across the network. Chiu's motivation for Odd-Even
     * is precisely a lower spread than West-First, whose westbound
     * traffic is fully deterministic.
     */
    double fractionStddev = 0.0;
};

/**
 * Measure adaptiveness of a scheme's turn set on a complete mesh
 * network; any other network is rejected (see the file comment).
 *
 * Schemes are limited to 64 classes (class sets are bitmasks).
 */
AdaptivenessReport measureAdaptiveness(const topo::Network &net,
                                       const core::PartitionScheme &scheme,
                                       const core::TurnExtractionOptions
                                           &opts = {});

/** As above with a pre-built class map and turn set (used for explicit
 *  turn models that have no partition structure). */
AdaptivenessReport measureAdaptiveness(const topo::Network &net,
                                       const ClassMap &map,
                                       const core::TurnSet &turns);

/** Number of minimal paths between two mesh nodes (multinomial). */
double countMinimalPaths(const topo::Network &net, topo::NodeId src,
                         topo::NodeId dest);

} // namespace ebda::cdg

#endif // EBDA_CDG_ADAPTIVITY_HH
