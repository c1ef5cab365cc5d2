/**
 * @file
 * A Booksim-style cycle-level wormhole network simulator, decomposed
 * into per-router pipeline stages over a shared buffer fabric.
 *
 * Model (one cycle minimum per hop, credit-equivalent backpressure):
 *  - Every concrete channel (link x VC) is an input VC buffer of
 *    `vcDepth` flits at the link's downstream router; injection ports
 *    add `injectionVcs` buffers per node (sim/router.hh).
 *  - Route computation + VC allocation (sim/vc_allocator.hh): a head
 *    flit at the front of an unrouted input VC asks the routing
 *    relation for candidate output channels, keeps those whose output
 *    VC is unowned (wormhole: a VC is owned from head allocation until
 *    the tail is sent into it), and takes the one with most free
 *    downstream space. Rotating priority across input VCs approximates
 *    a separable round-robin allocator.
 *  - Switch allocation (sim/switch_allocator.hh): one flit per output
 *    link per cycle, one flit per input link per cycle, one ejected
 *    flit per node per cycle, granted round-robin; a flit moves only
 *    if the downstream buffer has space.
 *  - Wormhole, non-atomic buffers by default: a freed output VC may be
 *    reallocated while earlier packets still drain downstream, so a
 *    buffer can hold flits of several packets — the operating mode
 *    EbDa's theorems cover and Duato's Assumption 3 forbids. With
 *    `atomicVcAllocation` a VC is only allocated when its downstream
 *    buffer is empty (Duato-safe mode).
 *  - Progress watchdog: if no flit moves for `watchdogCycles` while
 *    flits are in flight, the run is declared deadlocked, the frozen
 *    fabric is walked for a concrete wait-for cycle, and the witness
 *    is cross-referenced against the Dally relation-CDG
 *    (sim/forensics.hh) — the runtime complement to the CDG verifier.
 *
 * Scheduling: the stages run over a *domain* (sim/domain.hh) and sweep
 * its *active sets* (sim/active_set.hh) — the input VCs that hold
 * flits and lack an output, the links with owned output VCs, the nodes
 * with pending ejections — instead of rescanning the whole fabric each
 * cycle, visiting members in exactly the rotated order the monolithic
 * scan used. Results are bit-identical to the original single-loop
 * simulator (tests/test_golden_sim.cc pins this against captured
 * pre-refactor outputs); per-cycle cost scales with traffic in flight
 * rather than fabric size. One per-cycle body (beginCycle, step,
 * endCycle) serves all three drivers: the classic loop and the event
 * loop run the whole fabric as one domain, the sharded loop
 * (sim/shard_sched.hh) one domain per shard.
 *
 * Simplifications vs. a full Booksim: single-stage router pipeline (no
 * extra RC/VA/SA latency cycles) and instantaneous credit return. Both
 * shift latency curves by a constant; saturation ordering and deadlock
 * behaviour — what the benches compare — are unaffected.
 */

#ifndef EBDA_SIM_SIMULATOR_HH
#define EBDA_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include <memory>

#include "sim/domain.hh"
#include "sim/fault_injector.hh"
#include "sim/forensics.hh"
#include "sim/protocol.hh"
#include "sim/router.hh"
#include "sim/scheduler.hh"
#include "sim/simconfig.hh"
#include "sim/switch_allocator.hh"
#include "sim/traffic.hh"
#include "sim/vc_allocator.hh"
#include "util/ring_queue.hh"
#include "util/stats.hh"

namespace ebda::sim {

class EventOracle;
struct ShardRun;

/**
 * The simulator: holds the fabric, the pipeline stages, the per-cycle
 * body and the per-run bookkeeping; the driver resolved from the
 * config (sim/scheduler.hh) decides which cycles to execute and over
 * which domains. Construct once per run.
 */
class Simulator
{
  public:
    Simulator(const topo::Network &net,
              const cdg::RoutingRelation &routing,
              const TrafficGenerator &traffic, const SimConfig &config);

    /** Execute warmup, measurement and drain under the backend
     *  resolved from cfg.schedMode; return the results. */
    SimResult run();

    /** @name Cooperative abort hooks (sweep job budgets)
     *  Must be set before run(). The callback is polled every 1024
     *  cycles; returning true marks the result aborted and stops the
     *  run. A cycle limit of 0 means unlimited.
     *  @{ */
    void setAbortCheck(std::function<bool()> cb)
    {
        abortCheck = std::move(cb);
    }
    void setCycleLimit(std::uint64_t limit) { cycleLimit = limit; }
    /** @} */

    /** @name Measurement-phase hooks (perf instrumentation)
     *  Invoked at the top of the first measurement cycle and at the
     *  top of the first post-measurement cycle respectively, by every
     *  driver. bench_cycle_rate brackets its wall-clock window and
     *  tests/test_zero_alloc.cc its allocation count with these, to
     *  cover exactly the steady-state loop — construction, warmup and
     *  drain excluded. Unset by default.
     *  @{ */
    void
    setMeasurePhaseHooks(std::function<void()> onStart,
                         std::function<void()> onEnd)
    {
        measureStartHook = std::move(onStart);
        measureEndHook = std::move(onEnd);
    }
    /** @} */

    /** @name Post-run observability
     *  Valid after run() returns.
     *  @{ */

    /** Per-router state (stall attribution lives here). */
    const std::vector<Router> &routers() const { return routerTable; }

    /** Per-channel time-weighted occupancy over the whole run. */
    std::vector<ChannelOccupancy>
    channelOccupancy() const
    {
        return fab.channelOccupancy(finalCycle);
    }

    /** Forensic dump of the frozen fabric; meaningful only when the
     *  run deadlocked. */
    const DeadlockForensics &forensics() const { return forensicsDump; }

    /** The fault injector (schedule, liveness masks). */
    const FaultInjector &faults() const { return injector; }

    /** The compiled route table (valid from construction). */
    const routing::RouteTable &routeTable() const { return table; }

    /** The shared buffer fabric (arena, packet table, flit-move
     *  counter). Valid from construction. */
    const Fabric &fabric() const { return fab; }

    /** The request–reply protocol state, or nullptr when the layer is
     *  disabled. Valid from construction. */
    const ProtocolState *protocol() const { return proto.get(); }

    /** Flit moves so far (buffer pushes plus ejections). Live during a
     *  classic or event run; a sharded run adds its shards' counts
     *  when it ends. */
    std::uint64_t flitMoves() const { return whole.flitMoves; }

    /** @} */

  private:
    /** The sharded driver (shard_sched.cc) runs the same per-cycle
     *  body over one domain per shard. */
    friend struct ShardRun;

    /** @name The per-cycle body every driver runs
     *  @{ */
    /** Top of `cycle`: count the wakeup, fire the measurement-phase
     *  hooks, enforce the cycle limit and poll the abort callback.
     *  False when the run stops here (aborted). */
    bool beginCycle(std::uint64_t cycle);
    /** The pipeline of one domain for `cycle`: fault and retry upkeep,
     *  mailbox delivery, generation (from `events` in event mode),
     *  injection, VC allocation, traversal and ejection. Returns true
     *  when a flit moved. */
    bool step(Domain &dom, std::uint64_t cycle, EventOracle *events);
    /** Bottom of `cycle`, given whether any flit moved and the
     *  fabric-wide in-flight counts: progress, the watchdog (recovery
     *  or deadlock forensics) and drain termination. False when the
     *  run stops after this cycle. */
    bool endCycle(std::uint64_t cycle, bool moved, std::uint64_t inFlight,
                  std::uint64_t measuredInFlight, SimResult &result);
    /** @} */

    /** The classic and the event driver: the whole fabric as one
     *  domain, every cycle in order — with `events`, jumping over the
     *  cycles on which nothing can happen. Returns the final cycle. */
    std::uint64_t runWhole(SimResult &result, EventOracle *events);

    /** @name Pipeline stages (any domain)
     *  @{ */
    void generate(Domain &dom, std::uint64_t cycle, bool measuring);
    /** Queue a generated packet at its source. */
    void enqueuePacket(Domain &dom, topo::NodeId src, topo::NodeId dest,
                       std::uint64_t cycle, bool measuring);
    void fillInjectionVcs(Domain &dom, std::uint64_t cycle);
    /** @} */

    /** Fault events due at `cycle`, retry release and the periodic
     *  stranded scan (whole-fabric domain only). */
    void faultUpkeep(std::uint64_t cycle);
    /** Purge the packets VC allocation found stranded this cycle. */
    void purgeStranded(std::uint64_t cycle);

    /** @name Request–reply protocol path (no-ops when disabled)
     *  @{ */
    /** Inject ready replies into (reply-class) injection VCs, freeing
     *  their endpoint slots. Runs between generate() and the request
     *  injection fill each cycle. */
    void injectReplies(std::uint64_t cycle, bool measuring);
    /** Watchdog escalation for protocol runs: abort-and-retransmit the
     *  oldest in-fabric request through the fault-recovery backoff
     *  machinery (falls back to the kill-all drain when no request is
     *  in flight). */
    void recoverProtocolWedge(std::uint64_t cycle);
    /** injector.purge plus endpoint-slot release for eject-reserved
     *  victims — every purge site goes through this so protocol runs
     *  never leak reply-buffer slots. */
    std::vector<std::uint32_t>
    purgePackets(const std::vector<std::uint8_t> &kill,
                 std::uint64_t cycle);
    /** injector.apply with endpoint-slot release for any eject-reserved
     *  request the event purged (the injector picks its own victims,
     *  so the reservations are snapshotted pre-purge). */
    std::vector<std::uint32_t> applyFaultEvents(std::uint64_t cycle);
    /** @} */

    /** @name Fault path (all no-ops when the FaultPlan is empty)
     *  @{ */
    /** Classify purged packets: schedule a source retransmit with
     *  capped exponential backoff, or declare them lost. */
    void handleDropped(const std::vector<std::uint32_t> &purged,
                       std::uint64_t cycle);
    /** Move due retry-queue packets back into their source queues. */
    void releaseRetries(std::uint64_t cycle);
    /** Drop queued packets whose source or destination died. */
    void dropDeadQueuedPackets();
    /** Purge packets whose head waits on an empty degraded candidate
     *  set (they can never move again; without this the drain phase
     *  would hang on them). */
    void strandedScan(std::uint64_t cycle);
    /** Watchdog escalation: drain-and-reroute recovery pass. */
    void recoverWedged(std::uint64_t cycle);
    /** Count the loss and recycle the packet's table slot. */
    void losePacket(std::uint32_t id);
    /** @} */

    const topo::Network &net;
    const cdg::RoutingRelation &routing;
    const TrafficGenerator &traffic;
    SimConfig cfg;

    /** Run phases: [0, measureStart) warmup, [measureStart,
     *  measureEnd) measurement, then drain until hardStop. */
    std::uint64_t measureStart;
    std::uint64_t measureEnd;
    std::uint64_t hardStop;

    FaultInjector injector;
    FaultedRelationView faultedView;
    /** The relation the pipeline routes through: the degraded view
     *  when a FaultPlan is present, the base relation otherwise. */
    const cdg::RoutingRelation &effective;

    /** Compiled route table over `effective` — every route-compute
     *  call site queries this. Fault events filter its rows in place,
     *  keeping it exactly equal to the degraded virtual view. */
    routing::RouteTable table;

    Fabric fab;
    std::vector<Router> routerTable;
    VcAllocator vcAlloc;
    SwitchAllocator swAlloc;

    /** Request–reply endpoint state (sim/protocol.hh); nullptr when
     *  the layer is disabled, so the one-way hot path never tests
     *  more than a pointer. */
    std::unique_ptr<ProtocolState> proto;

    /** The whole fabric as one domain: the domain the classic and
     *  event drivers run, and the one a sharded run's domains fold
     *  their statistics into. */
    Domain whole;

    /** Per-node queues of generated packets awaiting injection VCs.
     *  Ring queues: steady-state push/pop/erase never allocates (a
     *  deque's chunked storage would, at every chunk boundary). */
    std::vector<RingQueue<std::uint32_t>> sourceQueues;

    /** Cycles generation ran for, skipped idle cycles included. */
    std::uint64_t genCycles = 0;
    /** Loop iterations begun (SimResult::wakeups). */
    std::uint64_t wakeups = 0;
    /** Last cycle on which a flit moved or the fabric was empty. */
    std::uint64_t lastProgress = 0;

    /** @name Fault-path state
     *  @{ */
    /** A dropped packet awaiting its backoff deadline. */
    struct RetryEntry
    {
        std::uint32_t pkt;
        std::uint64_t ready;
        /** Fault events applied when the retry was scheduled. The
         *  liveness masks are immutable between events, so release
         *  skips the dead/routable re-check while the epoch is
         *  unchanged — handleDropped already computed it. */
        std::size_t epoch;
    };
    std::vector<RetryEntry> retryQueue;
    std::uint64_t packetsDroppedCount = 0;
    std::uint64_t packetsLostCount = 0;
    std::uint64_t retransmitCount = 0;
    std::uint64_t recoveryPassCount = 0;
    std::uint64_t faultCheckCount = 0;
    std::uint64_t faultCheckCleanCount = 0;
    /** Stranded-packet scan cadence (cycles). */
    std::uint64_t strandedPeriod = 0;
    /** @} */

    std::function<bool()> abortCheck;
    std::uint64_t cycleLimit = 0;
    bool abortedFlag = false;

    /** Measurement-phase boundary hooks (see setMeasurePhaseHooks). */
    std::function<void()> measureStartHook;
    std::function<void()> measureEndHook;

    /** Fallback buffer for the simulator's own candidatesView calls
     *  (injection routability checks, stranded scans). */
    std::vector<topo::ChannelId> routeScratch;

    std::uint64_t finalCycle = 0;
    DeadlockForensics forensicsDump;
};

/**
 * Convenience: run one simulation with the given parameters.
 */
SimResult runSimulation(const topo::Network &net,
                        const cdg::RoutingRelation &routing,
                        const TrafficGenerator &traffic,
                        const SimConfig &config);

} // namespace ebda::sim

#endif // EBDA_SIM_SIMULATOR_HH
