/**
 * @file
 * The route-compute + VC-allocation pipeline stage, extracted from the
 * monolithic simulator.
 *
 * A head flit at the front of an unrouted input VC asks the routing
 * relation for candidate output channels, keeps those whose output VC
 * is unowned (and empty, in atomic mode), and applies the configured
 * selection policy. Rotating priority across input VCs approximates a
 * separable round-robin allocator; the rotation offset advances by one
 * every cycle, exactly as the monolithic scan did, so arbitration is
 * bit-identical.
 *
 * The stage sweeps only the domain's active set of VCs that hold flits
 * and lack an output (every skipped VC is a provable no-op for the
 * original scan), charges failed allocations to the owning router's
 * stall counters, and activates the downstream link / ejection sets
 * for the switch stage. Free space and emptiness of a cut channel are
 * read from the sender-side credit counter (sim/domain.hh).
 */

#ifndef EBDA_SIM_VC_ALLOCATOR_HH
#define EBDA_SIM_VC_ALLOCATOR_HH

#include <cstdint>
#include <vector>

#include "routing/route_table.hh"
#include "sim/domain.hh"

namespace ebda::sim {

class ProtocolState;

/** Route computation and output-VC allocation. */
class VcAllocator
{
  public:
    /** `route` is the compiled table over the simulator's effective
     *  relation — zero-allocation candidate lookup in steady state. */
    VcAllocator(Fabric &fab, const routing::RouteTable &route)
        : fab(fab), route(route)
    {
    }

    /**
     * One allocation pass over the domain's scheduled input VCs. Newly
     * routed VCs activate their output link (or their node's ejection
     * port) for the switch stage; VCs that fail stay scheduled and
     * charge a stall to their router.
     */
    void allocate(Domain &dom, std::vector<Router> &routers);

    /**
     * Pure selection-policy kernel: pick one of the free candidates.
     * `free` must be non-empty; `space(c)` is the free downstream
     * space of candidate c (MaxCredits), `rotation` the allocator's
     * rotating offset (RoundRobin), `rng` the node's stream (Random).
     * Inline: called for every successful head allocation every cycle.
     */
    template <typename Space>
    static topo::ChannelId
    selectOutput(SelectionPolicy policy,
                 const std::vector<topo::ChannelId> &free, Space &&space,
                 std::size_t rotation, Rng &rng)
    {
        topo::ChannelId best = topo::kInvalidId;
        switch (policy) {
          case SelectionPolicy::MaxCredits: {
              int best_space = -1;
              for (topo::ChannelId c : free) {
                  const int s = space(c);
                  if (s > best_space) {
                      best_space = s;
                      best = c;
                  }
              }
              break;
          }
          case SelectionPolicy::RoundRobin:
            best = free[rotation % free.size()];
            break;
          case SelectionPolicy::Random:
            best = free[rng.nextBounded(free.size())];
            break;
          case SelectionPolicy::FirstCandidate:
            best = free.front();
            break;
        }
        return best;
    }

    /** @name Stranded-packet reporting (fault path)
     *  With `collectStranded` set, every swept VC whose head found no
     *  route candidate at all (a dead end of the degraded relation, not
     *  mere congestion) is appended to `stranded` for the simulator to
     *  purge the same cycle. Off by default: fault-free runs take the
     *  exact pre-fault code path.
     *  @{ */
    bool collectStranded = false;
    std::vector<std::size_t> stranded;
    /** @} */

    /** Request–reply protocol layer (sim/protocol.hh), or nullptr.
     *  When set, heads at their destination only eject-route while the
     *  endpoint reply buffer has space (endpoint backpressure), and
     *  the candidate sweep filters channels by message class. */
    ProtocolState *proto = nullptr;

  private:
    Fabric &fab;
    const routing::RouteTable &route;
};

} // namespace ebda::sim

#endif // EBDA_SIM_VC_ALLOCATOR_HH
