#include "sim/switch_allocator.hh"

#include "sim/protocol.hh"

namespace ebda::sim {

bool
SwitchAllocator::traverse(Domain &dom, std::uint64_t cycle,
                          std::vector<Router> &routers)
{
    bool moved = false;
    ++dom.swArbOffset;
    std::vector<std::uint32_t> &rotStart = dom.rotStart;
    std::vector<std::uint64_t> &portUsedStamp = dom.portUsedStamp;

    // Hoisted loop invariants: the sweep visits every active link
    // every cycle, so per-flit work must not re-derive them.
    const SwitchingMode switching = fab.cfg.switching;
    const int packet_length = fab.cfg.packetLength;
    const int vc_depth = fab.cfg.vcDepth;
    const std::uint64_t pipe_extra =
        static_cast<std::uint64_t>(fab.cfg.routerLatency - 1);
    // Rotated starting positions for every VC/ejection arity in the
    // fabric. The offset advances by exactly one per traverse, so
    // rotStart[n] == swArbOffset % n is maintained incrementally —
    // no division per link or node visit, none per cycle either.
    for (std::size_t n = 1; n < rotStart.size(); ++n) {
        if (++rotStart[n] >= n)
            rotStart[n] = 0;
    }

    dom.linkActive.sweep(
        dom.swArbOffset % fab.net.numLinks(), [&](std::size_t li) -> bool {
            const topo::LinkId l = static_cast<topo::LinkId>(li);
            // Channel base + VC arity in one 8-byte probe record.
            const LinkProbe lp = linkInfo[li];
            const int nvc = static_cast<int>(lp.nvc);
            const topo::ChannelId base = lp.base;
            // Rotated VC order: v walks v0, v0+1, ..., wrapping by
            // conditional subtract instead of a modulo per probe.
            int v = static_cast<int>(rotStart[lp.nvc]);
            for (int vi = 0; vi < nvc; ++vi, ++v) {
                if (v >= nvc)
                    v -= nvc;
                const topo::ChannelId out =
                    base + static_cast<topo::ChannelId>(v);
                ChannelState &cs = fab.chan[out];
                const std::uint32_t holder = cs.owner;
                if (holder == topo::kInvalidId)
                    continue;
                InputVc &vc = fab.ivcs[holder];
                if (vc.buf.empty() || vc.buf.front().arrival >= cycle)
                    continue; // nothing movable yet: not a stall
                // One lookup of the downstream buffer for the space
                // probe, the push and the routed re-check alike. A cut
                // channel's buffer belongs to another domain: only its
                // credit counter may be read.
                const bool cut = dom.isCut(out);
                InputVc &down = fab.ivcs[out];
                const int space = cut
                    ? dom.boundary->credits[out]
                    : vc_depth - static_cast<int>(down.buf.size());
                if (space <= 0) {
                    ++routers[vc.atNode].stalls.creditStarved;
                    continue;
                }
                if (vc.buf.front().head
                    && !headMayAdvance(switching, packet_length, vc,
                                       space)) {
                    ++routers[vc.atNode].stalls.creditStarved;
                    continue;
                }
                if (portUsedStamp[vc.port] == cycle) {
                    ++routers[vc.atNode].stalls.switchLost;
                    continue;
                }

                Flit flit = fab.popFlit(holder, vc, cycle);
                dom.returnCredit(holder, cycle);
                portUsedStamp[vc.port] = cycle;
                // The flit becomes movable routerLatency cycles after
                // the hop (pipeline depth).
                flit.arrival = cycle + pipe_extra;
                // Across a cut the receiver pushes (and counts the
                // move) when it drains its mailbox next cycle.
                if (cut)
                    dom.send(out, flit, cycle);
                else
                    fab.pushFlit(out, down, flit, cycle, dom.flitMoves);
                ++cs.load;
                if (flit.head)
                    ++fab.packets[flit.pkt].hops;
                if (flit.tail) {
                    cs.owner = topo::kInvalidId;
                    --fab.ownedOnLink[l];
                    vc.routed = false;
                    vc.out = topo::kInvalidId;
                    vc.curPkt = topo::kInvalidId;
                    // The next packet's head (if any) needs an output.
                    if (!vc.buf.empty())
                        dom.allocActive.schedule(holder);
                }
                // The moved flit may be a head waiting for allocation
                // downstream.
                if (!cut && !down.routed)
                    dom.allocActive.schedule(out);
                moved = true;
                break; // one flit per output link per cycle
            }
            return fab.ownedOnLink[l] > 0;
        });
    return moved;
}

bool
SwitchAllocator::eject(Domain &dom, std::uint64_t cycle,
                       std::vector<Router> &routers, bool measuring)
{
    bool moved = false;

    dom.ejectActive.sweep(0, [&](std::size_t ni) -> bool {
        const topo::NodeId n = static_cast<topo::NodeId>(ni);
        const auto &locals = routers[n].localIvcs;
        const std::size_t nloc = locals.size();
        // Rotated candidate order over the eject-routed VCs only: the
        // per-node mask replaces a scan of every local VC (most are
        // not eject-routed, and skipping one is side-effect free).
        // Splitting the mask at the rotated start position and
        // scanning each half ascending reproduces the original
        // p0, p0+1, ..., nloc-1, 0, ..., p0-1 visiting order exactly.
        const std::size_t p0 = dom.rotStart[nloc];
        const std::uint64_t mask = fab.ejectMask[n];
        const std::uint64_t low = (std::uint64_t{1} << p0) - 1;
        std::uint64_t ranges[2] = {mask & ~low, mask & low};
        bool granted = false;
        for (std::uint64_t m : ranges) {
            while (m && !granted) {
                const auto p = static_cast<std::size_t>(
                    std::countr_zero(m));
                m &= m - 1;
                const std::size_t idx = locals[p];
                InputVc &vc = fab.ivcs[idx];
                if (vc.buf.empty() || vc.buf.front().arrival >= cycle)
                    continue;
                if (dom.portUsedStamp[vc.port] == cycle) {
                    ++routers[vc.atNode].stalls.switchLost;
                    continue;
                }
                const Flit flit = fab.popFlit(idx, vc, cycle);
                dom.returnCredit(idx, cycle);
                dom.portUsedStamp[vc.port] = cycle;
                --dom.inFlight;
                ++dom.flitMoves;
                moved = true;
                if (flit.tail) {
                    vc.routed = false;
                    vc.eject = false;
                    vc.curPkt = topo::kInvalidId;
                    --fab.ejectPending[n];
                    fab.ejectMask[n] &=
                        ~(std::uint64_t{1} << vc.localPos);
                    if (!vc.buf.empty())
                        dom.allocActive.schedule(idx);
                    PacketRec &pkt = fab.packets[flit.pkt];
                    ++dom.packetsEjected;
                    if (measuring)
                        ++dom.measuredEjectedFlits;
                    if (pkt.measured) {
                        const auto latency = cycle - pkt.genCycle;
                        dom.latencyHist.add(latency);
                        dom.latencyStat.add(
                            static_cast<double>(latency));
                        dom.hopsStat.add(
                            static_cast<double>(pkt.hops));
                        --dom.measuredInFlight;
                    }
                    if (proto) {
                        if (pkt.msgClass == 0)
                            proto->onRequestDelivered(n, pkt, cycle);
                        else
                            proto->onReplyDelivered(n);
                    }
                    // Tail gone, stats recorded: the slot can host
                    // the next generated packet.
                    dom.freePacket(flit.pkt);
                } else if (measuring) {
                    ++dom.measuredEjectedFlits;
                }
                granted = true; // one ejected flit per node per cycle
            }
            if (granted)
                break;
        }
        return fab.ejectPending[n] > 0;
    });
    return moved;
}

} // namespace ebda::sim
