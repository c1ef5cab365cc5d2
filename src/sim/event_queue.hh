/**
 * @file
 * The event driver: the simulator's one cycle loop (sim/simulator.hh)
 * plus an idle-skip oracle and a batched injection engine.
 *
 * Model: in this single-cycle-per-hop simulator every in-flight flit
 * is eligible to move every cycle, so while the fabric holds flits
 * the event loop must execute every cycle — there it is the cycle
 * loop with different bookkeeping. The win is elsewhere: at low
 * injection rates almost all cycles are *empty* (no flits in flight,
 * no queued packets), and an empty cycle's only side effects are
 *  - one Bernoulli draw per live node (the injection coin),
 *  - the unconditional advance of the two arbiter rotations,
 *  - the genCycles counter.
 * All three are reproducible out of band: the injection draws by
 * running the per-node xoshiro256** streams forward in a block-batched
 * engine (below), the rotations by closed-form resync (Domain::resync),
 * and the counter by adding the span length. So the oracle sits on a
 * timestamp-ordered EventQueue of deadlines — injection timers from
 * the draw engine, measurement-phase boundaries, the abort-poll
 * cadence, the cycle limit — and when the fabric is empty it jumps
 * straight to the earliest one. Idle routers are never touched.
 *
 * Trace equivalence (tests/test_sched_equiv.cc): both drivers consume
 * identical per-router RNG streams and execute the same per-cycle body
 * on every non-empty cycle, so every SimResult field except the trailing
 * schedMode/wakeups pair is identical by construction. The injection
 * engine guarantees the stream part: its vectorized pass is the exact
 * xoshiro256** recurrence (any divergence from interleaved destination
 * draws is impossible because a lane that hits is re-played through
 * the scalar Rng — including TrafficGenerator::dest — from a
 * pre-block state snapshot, and the replayed state is written back).
 * By induction over blocks the engine's streams equal the streams the
 * cycle loop would have produced.
 *
 * Runs the oracle cannot accelerate run the loop without it
 * (wakeups == cycles, results again identical by construction): fault
 * plans (fault events, retry deadlines and stranded scans make almost
 * every cycle a potential event), the protocol layer (service timers
 * and reply injection fire off the injection-draw schedule), the
 * Random selection policy (draws interleave with allocation, so
 * streams cannot be precomputed), and degenerate injection rates
 * (p <= 0 or p >= 1 per-flit packet rate).
 */

#ifndef EBDA_SIM_EVENT_QUEUE_HH
#define EBDA_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/scheduler.hh"
#include "sim/simconfig.hh"
#include "topo/network.hh"

namespace ebda::sim {

/** What a queued deadline means (tie-break order at equal cycles). */
enum class EventKind : std::uint8_t
{
    /** First measurement cycle: hooks fire, generation turns measured. */
    MeasureStart,
    /** First post-measurement cycle: hooks fire, drain accounting. */
    MeasureEnd,
    /** Cooperative-abort poll cadence (every 1024 cycles). */
    AbortPoll,
    /** setCycleLimit deadline: the run aborts at this cycle. */
    CycleLimit,
    /** Next cycle on which some node's injection coin lands. */
    Injection,
};

/** A deadline: execute the cycle it names. */
struct SchedEvent
{
    std::uint64_t cycle;
    EventKind kind;
};

/**
 * Timestamp-ordered deadline queue: a binary min-heap over
 * (cycle, kind). Deadlines are sparse — a handful live at any time —
 * so a flat heap beats anything fancier.
 */
class EventQueue
{
  public:
    void
    push(std::uint64_t cycle, EventKind kind)
    {
        heap.push_back({cycle, kind});
        std::push_heap(heap.begin(), heap.end(), later);
    }

    bool empty() const { return heap.empty(); }

    /** Earliest deadline; queue must be non-empty. */
    const SchedEvent &top() const { return heap.front(); }

    /** Remove and return the earliest deadline. */
    SchedEvent
    pop()
    {
        std::pop_heap(heap.begin(), heap.end(), later);
        const SchedEvent ev = heap.back();
        heap.pop_back();
        return ev;
    }

  private:
    static bool
    later(const SchedEvent &a, const SchedEvent &b)
    {
        if (a.cycle != b.cycle)
            return a.cycle > b.cycle;
        return a.kind > b.kind;
    }

    std::vector<SchedEvent> heap;
};

class InjectionEngine;
class Router;
class TrafficGenerator;

/**
 * What the event driver adds to the cycle loop: the injection engine
 * that stands in for Simulator::generate, and the idle-skip oracle
 * over the deadline queue. Only for runs whose injection draws are the
 * sole consumer of the per-node RNG streams (see applies()).
 */
class EventOracle
{
  public:
    /**
     * @param routers      per-node routers; their RNG states seed the
     *                     engine (the objects are not modified)
     * @param traffic      destination generator for replayed hits
     * @param packet_rate  per-cycle Bernoulli probability, in (0, 1)
     * @param measure_start first measurement cycle
     * @param measure_end   first post-measurement cycle
     * @param cycle_limit   abort deadline (0: none)
     * @param hard_stop     end of the drain phase
     * @param abort_poll    an abort callback is polled every 1024
     *                      cycles
     */
    EventOracle(const std::vector<Router> &routers,
                const TrafficGenerator &traffic, double packet_rate,
                std::uint64_t measure_start, std::uint64_t measure_end,
                std::uint64_t cycle_limit, std::uint64_t hard_stop,
                bool abort_poll);
    ~EventOracle();

    /** True when the event driver reproduces the cycle loop for a run
     *  of this config: no fault plan, no protocol layer, no Random
     *  selection (its draws interleave with allocation) and a packet
     *  rate strictly inside (0, 1). Otherwise (almost) every cycle is
     *  a potential event and the cycle loop is the event loop. */
    static bool applies(const SimConfig &cfg);

    /**
     * The fabric is empty at the top of `cycle` and no packet awaits
     * injection: return the first cycle at or after it on which
     * anything can happen (an injection, a phase boundary, an abort
     * poll, the cycle limit), or the hard stop. Every cycle before it
     * is a provable no-op apart from the side effects the caller
     * reproduces in closed form.
     */
    std::uint64_t idleUntil(std::uint64_t cycle);

    /** Pop the next injection landing at `cycle` (non-decreasing
     *  between calls), in ascending node order; false when none is
     *  left at this cycle. */
    bool nextHit(std::uint64_t cycle, topo::NodeId &node,
                 topo::NodeId &dest);

  private:
    std::unique_ptr<InjectionEngine> engine;
    EventQueue deadlines;
    std::uint64_t hardStop;
};

/** The SIMD path the injection draw engine dispatched to on this
 *  machine: "avx512", "avx2" or "scalar" (bench_sched_mode prints it
 *  so perf numbers are interpretable across hosts). */
const char *injectionEngineSimdPath();

} // namespace ebda::sim

#endif // EBDA_SIM_EVENT_QUEUE_HH
