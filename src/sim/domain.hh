/**
 * @file
 * A simulation domain: the set of nodes one pass of the pipeline
 * stages runs over, with every piece of mutable state those stages
 * keep between cycles.
 *
 * The stages (Simulator::generate / fillInjectionVcs,
 * VcAllocator::allocate, SwitchAllocator::traverse / eject) take a
 * Domain and touch nothing outside it but the shared Fabric entries
 * *at* its nodes. A domain owns:
 *  - its active sets (members are indices at its own nodes);
 *  - the VC and switch arbiter rotations, the input-port usage stamps
 *    and the rotation-start table;
 *  - the per-cycle scratch vectors and its route-call count;
 *  - its packet-slot source and its statistics;
 *  - its side of the channels a partition cuts (the Boundary).
 *
 * The classic loop and the event loop run the whole fabric as one
 * domain. The sharded loop runs one domain per shard between cycle
 * barriers. The stages never ask which: what differs is data.
 *  - Cut channels. A channel whose endpoints sit in different domains
 *    is *cut*. Its sender reads the downstream space from a sender-side
 *    credit counter and posts flits into a mailbox; its receiver posts
 *    credits back. The whole-fabric domain has no Boundary, so no
 *    channel is ever cut there.
 *  - Packet slots. The whole-fabric domain recycles slots through
 *    Fabric::pktFreelist and numbers packets with
 *    Fabric::nextPacketSeq. A shard takes slots from its own pool,
 *    topped up between cycles, and numbers packets
 *    cycle * numNodes + node, which needs no shared counter. Slot ids
 *    set the order of fault purges and `seq` picks the protocol
 *    recovery victim, so both schemes are kept exactly.
 */

#ifndef EBDA_SIM_DOMAIN_HH
#define EBDA_SIM_DOMAIN_HH

#include <cstdint>
#include <vector>

#include "sim/active_set.hh"
#include "sim/router.hh"
#include "util/stats.hh"

namespace ebda::sim {

/** One flit crossing a cut channel: the channel it was sent into plus
 *  the flit itself (arrival already stamped by the sender). */
struct FlitMsg
{
    topo::ChannelId chan;
    Flit flit;
};

/**
 * Double-buffered message queue for one ordered domain pair: flits for
 * cut channels producer -> consumer, credits for cut channels the
 * other way. The producer appends to parity (cycle & 1) during its
 * cycle; the consumer drains the opposite parity at the top of its
 * next cycle, so a buffer is never touched by two domains between the
 * same pair of barriers, whatever order the domains run in.
 */
struct Mailbox
{
    std::uint16_t producer = 0;
    std::uint16_t consumer = 0;
    std::vector<FlitMsg> flits[2];
    std::vector<topo::ChannelId> credits[2];
};

/**
 * The channels a partition cuts, shared by all its domains. Every
 * entry has one writer: a channel's credit counter belongs to its
 * sender, and a mailbox half to its producer (or, one cycle later, to
 * its consumer).
 */
struct Boundary
{
    /** Per channel: the mailbox carrying its flits, -1 if not cut. */
    std::vector<std::int32_t> sendBoxOf;
    /** Per channel: the mailbox carrying its credits back upstream. */
    std::vector<std::int32_t> creditBoxOf;
    /** Sender-side free-slot counters; read only for cut channels. */
    std::vector<std::int32_t> credits;
    std::vector<Mailbox> mailboxes;
};

/** A node set and the pipeline state kept for it (see file comment).
 *  alignas keeps neighbouring shards' hot counters on separate cache
 *  lines. */
struct alignas(64) Domain
{
    /** The whole fabric as one domain: no cut channels, slots from the
     *  fabric's freelist. */
    explicit Domain(Fabric &fab);

    /** A part of the fabric: `nodes` (ascending), channels cut as
     *  `boundary` records, slots from its own pool. */
    Domain(Fabric &fab, std::vector<topo::NodeId> nodes,
           Boundary *boundary);

    Domain(const Domain &) = delete;
    Domain &operator=(const Domain &) = delete;

    Fabric &fab;
    /** Nodes of this domain, ascending: the generation order. */
    std::vector<topo::NodeId> nodes;

    /** @name Active sets over the fabric-wide universes
     *  @{ */
    /** Input VCs holding flits without an output allocation. */
    ActiveSet allocActive;
    /** Links with at least one owned output VC. */
    ActiveSet linkActive;
    /** Nodes with at least one eject-routed VC. */
    ActiveSet ejectActive;
    /** Nodes with queued packets awaiting an injection VC. */
    ActiveSet injectActive;
    /** @} */

    /** @name VC allocation state
     *  @{ */
    /** Rotating priority offset; advances by one per cycle. */
    std::size_t vcArbOffset = 0;
    /** Free legal candidates of the VC under allocation (capacity
     *  reserved at construction and kept across cycles). */
    std::vector<topo::ChannelId> free;
    /** Candidate buffer for the route table's virtual fallback. */
    std::vector<topo::ChannelId> scratch;
    /** Route-compute queries made by this domain. */
    std::uint64_t routeCalls = 0;
    /** @} */

    /** @name Switch allocation state
     *  @{ */
    /** Rotating grant offset; advances by one per cycle. */
    std::size_t swArbOffset = 0;
    /** Input-port usage stamps (one flit per port per cycle). */
    std::vector<std::uint64_t> portUsedStamp;
    /** rotStart[n] == swArbOffset % n for every VC/ejection arity in
     *  the fabric, maintained incrementally. */
    std::vector<std::uint32_t> rotStart;
    /** @} */

    /** @name Packet-slot source
     *  @{ */
    /** A shard's own slots (unused by the whole-fabric domain). */
    std::vector<std::uint32_t> pool;
    /** Where slots come from and return to: Fabric::pktFreelist or
     *  `pool`. */
    std::vector<std::uint32_t> &slots;
    /** Number packets cycle * numNodes + node instead of drawing from
     *  Fabric::nextPacketSeq. */
    bool seqByCycle;
    /** @} */

    /** Cut channels, or nullptr when this domain is the whole fabric. */
    Boundary *boundary;
    /** Inbound mailbox indices, ascending by producer domain. */
    std::vector<std::uint32_t> inbox;

    /** @name Statistics
     *  A shard's in-flight counters are modular deltas: a flit is
     *  counted in by the domain that injects it and out by the domain
     *  that ejects it, so only the sum over all domains is a count.
     *  @{ */
    Histogram latencyHist;
    StatAccumulator latencyStat;
    StatAccumulator hopsStat;
    std::uint64_t packetsEjected = 0;
    std::uint64_t measuredEjectedFlits = 0;
    std::uint64_t generatedFlits = 0;
    std::uint64_t measuredGenerated = 0;
    /** Buffer pushes plus ejection pops (flit-moves/s numerator). */
    std::uint64_t flitMoves = 0;
    /** Flits buffered or in a mailbox. */
    std::uint64_t inFlight = 0;
    /** Measured packets generated and not yet ejected or lost. */
    std::uint64_t measuredInFlight = 0;
    /** Some flit moved in the last executed cycle. */
    bool moved = false;
    /** @} */

    /** True when `c` leads out of this domain into another one. */
    bool
    isCut(topo::ChannelId c) const
    {
        return boundary && boundary->sendBoxOf[c] >= 0;
    }

    /** Free downstream slots of channel `c` as this domain may see
     *  them: the buffer itself, or the sender-side credit counter
     *  (one cycle behind) for a cut channel. */
    int
    spaceAt(topo::ChannelId c) const
    {
        if (isCut(c))
            return boundary->credits[c];
        return fab.cfg.vcDepth - static_cast<int>(fab.ivcs[c].buf.size());
    }

    /** Post `flit` into cut channel `c`, spending one credit now so
     *  the sender's view of the space stays conservative. */
    void
    send(topo::ChannelId c, const Flit &flit, std::uint64_t cycle)
    {
        --boundary->credits[c];
        boundary->mailboxes[static_cast<std::size_t>(
                                boundary->sendBoxOf[c])]
            .flits[cycle & 1]
            .push_back(FlitMsg{c, flit});
    }

    /** A flit left input VC `idx`: return the slot upstream when its
     *  channel is cut (a local sender reads the buffer directly). */
    void
    returnCredit(std::size_t idx, std::uint64_t cycle)
    {
        if (!boundary || idx >= boundary->creditBoxOf.size())
            return;
        const std::int32_t b = boundary->creditBoxOf[idx];
        if (b >= 0)
            boundary->mailboxes[static_cast<std::size_t>(b)]
                .credits[cycle & 1]
                .push_back(static_cast<topo::ChannelId>(idx));
    }

    /** Deliver the flits and credits other domains posted last
     *  cycle. */
    void drainInbox(std::uint64_t cycle);

    /** Claim a packet slot and stamp `rec.seq` (see file comment). */
    std::uint32_t
    allocPacket(PacketRec rec)
    {
        rec.seq = seqByCycle
            ? rec.genCycle * fab.net.numNodes() + rec.src
            : fab.nextPacketSeq++;
        if (slots.empty()) {
            fab.packets.push_back(rec);
            return static_cast<std::uint32_t>(fab.packets.size() - 1);
        }
        const std::uint32_t id = slots.back();
        slots.pop_back();
        fab.packets[id] = rec;
        return id;
    }

    /** Release a packet slot. Only once the packet has fully left the
     *  system: tail ejected, or lost with no flit, queue entry or retry
     *  entry left. */
    void freePacket(std::uint32_t id) { slots.push_back(id); }

    /** Re-derive both arbiter rotations for the top of `cycle` after
     *  skipped idle cycles. They advance unconditionally once per
     *  cycle, so they are pure functions of the cycle count. */
    void resync(std::uint64_t cycle);
};

} // namespace ebda::sim

#endif // EBDA_SIM_DOMAIN_HH
