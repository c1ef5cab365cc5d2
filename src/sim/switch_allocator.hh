/**
 * @file
 * The switch-allocation + traversal pipeline stage, extracted from the
 * monolithic simulator.
 *
 * One flit per output link per cycle, one flit per input port per
 * cycle, one ejected flit per node per cycle, granted round-robin via
 * a rotating offset shared by link order, per-link VC order and
 * per-node ejection order — the exact rotation the monolithic loop
 * used, so grants are bit-identical.
 *
 * The stage sweeps only the domain's links with owned output VCs and
 * nodes with eject-routed VCs (skipped entries are provable no-ops),
 * attributes refusals to the upstream router's stall counters
 * (credit-starved vs. switch-lost), and reactivates the VC-allocation
 * set when a tail departure exposes the next packet's head. A flit
 * sent into a cut channel goes to the downstream domain's mailbox,
 * and a flit leaving a cut channel returns a credit upstream
 * (sim/domain.hh).
 */

#ifndef EBDA_SIM_SWITCH_ALLOCATOR_HH
#define EBDA_SIM_SWITCH_ALLOCATOR_HH

#include <cstdint>
#include <vector>

#include "sim/domain.hh"

namespace ebda::sim {

class ProtocolState;

/** Switch allocation: link traversal and ejection. */
class SwitchAllocator
{
  public:
    explicit SwitchAllocator(Fabric &fab) : fab(fab)
    {
        // Per-link probe record: channel base + VC arity in one 8-byte
        // load.
        linkInfo.reserve(fab.net.numLinks());
        for (topo::LinkId l = 0; l < fab.net.numLinks(); ++l)
            linkInfo.push_back(
                {fab.net.linkChannelBase(l),
                 static_cast<std::uint32_t>(fab.net.vcsOnLink(l))});
    }

    /**
     * Network traversal: move at most one flit per active output link
     * of the domain. Advances the domain's rotating grant offset
     * (shared with ejection).
     *
     * @return true when any flit moved.
     */
    bool traverse(Domain &dom, std::uint64_t cycle,
                  std::vector<Router> &routers);

    /**
     * Ejection: consume at most one flit per active node of the
     * domain. Must run after traverse() in the same cycle (shares the
     * per-cycle input port grants). `measuring` is true while the
     * measurement window is open.
     *
     * @return true when any flit ejected.
     */
    bool eject(Domain &dom, std::uint64_t cycle,
               std::vector<Router> &routers, bool measuring);

    /**
     * Pure switching-mode gate for moving a head flit out of vc into
     * an output buffer with the given free space. Inline: traverse
     * evaluates this for every movable head every cycle.
     */
    static bool
    headMayAdvance(SwitchingMode switching, int packet_length,
                   const InputVc &vc, int space_at_out)
    {
        switch (switching) {
          case SwitchingMode::Wormhole:
            return true;
          case SwitchingMode::VirtualCutThrough:
            // The downstream buffer must be able to accept the entire
            // packet so a blocked packet never straddles routers.
            return space_at_out >= packet_length;
          case SwitchingMode::StoreAndForward:
            // Additionally the whole packet must already be buffered
            // here.
            if (space_at_out < packet_length)
                return false;
            if (vc.buf.size() < static_cast<std::size_t>(packet_length))
                return false;
            {
                const Flit &last =
                    vc.buf[static_cast<std::size_t>(packet_length) - 1];
                return last.tail && last.pkt == vc.buf.front().pkt;
            }
        }
        return true;
    }

    /** Request–reply protocol layer (sim/protocol.hh), or nullptr.
     *  When set, ejected request tails convert their reserved endpoint
     *  slot into a pending reply; ejected reply tails complete the
     *  round trip. */
    ProtocolState *proto = nullptr;

  private:
    /** Per-link switch-probe record: first channel and VC arity,
     *  fetched with one load in the traversal inner loop. */
    struct LinkProbe
    {
        topo::ChannelId base;
        std::uint32_t nvc;
    };

    Fabric &fab;
    /** Probe records indexed by LinkId. */
    std::vector<LinkProbe> linkInfo;
};

} // namespace ebda::sim

#endif // EBDA_SIM_SWITCH_ALLOCATOR_HH
