#include "sim/domain.hh"

#include <algorithm>
#include <numeric>

namespace ebda::sim {

namespace {

std::vector<topo::NodeId>
allNodes(const topo::Network &net)
{
    std::vector<topo::NodeId> nodes(net.numNodes());
    std::iota(nodes.begin(), nodes.end(), topo::NodeId{0});
    return nodes;
}

} // namespace

Domain::Domain(Fabric &fabric)
    : Domain(fabric, allNodes(fabric.net), nullptr)
{
}

Domain::Domain(Fabric &fabric, std::vector<topo::NodeId> node_set,
               Boundary *cut)
    : fab(fabric), nodes(std::move(node_set)),
      allocActive(fabric.ivcs.size()),
      linkActive(fabric.net.numLinks()),
      ejectActive(fabric.net.numNodes()),
      injectActive(fabric.net.numNodes()),
      portUsedStamp(fabric.net.numLinks() + fabric.net.numNodes(),
                    UINT64_MAX),
      slots(cut ? pool : fabric.pktFreelist), seqByCycle(cut != nullptr),
      boundary(cut), latencyHist(4096)
{
    const topo::Network &net = fab.net;
    // The rotated orders need `offset % arity` for every VC arity of a
    // link and every ejection-domain size of a node; one start per
    // distinct arity replaces a division per visit. A node's ejection
    // domain holds every VC terminating there, and a head's candidates
    // are at most the VCs leaving its node.
    std::size_t max_rot = 1;
    std::vector<std::size_t> in_vcs(
        net.numNodes(), static_cast<std::size_t>(fab.cfg.injectionVcs));
    std::vector<std::size_t> out_vcs(net.numNodes(), 0);
    for (topo::LinkId l = 0; l < net.numLinks(); ++l) {
        const auto nvc = static_cast<std::size_t>(net.vcsOnLink(l));
        max_rot = std::max(max_rot, nvc);
        in_vcs[net.link(l).dst] += nvc;
        out_vcs[net.link(l).src] += nvc;
    }
    max_rot = std::max(max_rot,
                       *std::max_element(in_vcs.begin(), in_vcs.end()));
    rotStart.assign(max_rot + 1, 0);
    free.reserve(*std::max_element(out_vcs.begin(), out_vcs.end()));
}

void
Domain::drainInbox(std::uint64_t cycle)
{
    const std::size_t parity = (cycle + 1) & 1;
    for (const std::uint32_t m : inbox) {
        Mailbox &mb = boundary->mailboxes[m];
        for (const FlitMsg &msg : mb.flits[parity]) {
            InputVc &down = fab.ivcs[msg.chan];
            fab.pushFlit(msg.chan, down, msg.flit, cycle, flitMoves);
            if (!down.routed)
                allocActive.schedule(msg.chan);
        }
        mb.flits[parity].clear();
        for (const topo::ChannelId c : mb.credits[parity])
            ++boundary->credits[c];
        mb.credits[parity].clear();
    }
}

void
Domain::resync(std::uint64_t cycle)
{
    vcArbOffset = static_cast<std::size_t>(
        cycle % static_cast<std::uint64_t>(fab.ivcs.size()));
    swArbOffset = static_cast<std::size_t>(cycle);
    for (std::size_t n = 1; n < rotStart.size(); ++n)
        rotStart[n] =
            static_cast<std::uint32_t>(cycle % static_cast<std::uint64_t>(n));
}

} // namespace ebda::sim
