/**
 * @file
 * Scheduling modes: how simulated time advances.
 *
 * There is one per-cycle body (Simulator::beginCycle / step /
 * endCycle: hooks and abort polling, the pipeline stages over a
 * domain, progress, watchdog and drain termination) and three drivers
 * that run it:
 *
 *  - the cycle loop executes every cycle in order over the whole
 *    fabric as one domain — bit-identical to the pre-refactor
 *    simulator (tests/test_golden_sim.cc pins this);
 *  - the event loop (sim/event_queue.hh) is the same loop plus an
 *    idle-skip oracle and a batched injection engine: spans where the
 *    fabric is empty and no injection is due are jumped in one step.
 *    While flits are in flight every cycle is executed, because in
 *    this single-cycle-per-hop model every in-flight flit is eligible
 *    to move each cycle. Both consume identical per-router RNG
 *    streams, so results are trace-equivalent
 *    (tests/test_sched_equiv.cc diffs the full result JSON);
 *  - the sharded loop (sim/shard_sched.hh) runs one domain per spatial
 *    shard between cycle barriers, on several threads.
 *
 * Mode selection: SimConfig::schedMode is a tri-state. Auto defers to
 * the EBDA_SCHED_MODE environment variable if set ("cycle"/"event"),
 * otherwise to the load heuristic in resolveSchedMode — event mode
 * pays off exactly where most cycles are empty, i.e. at low injection
 * rates; near saturation the cycle loop's linear scan wins. An
 * explicit Cycle/Event setting always wins (so equivalence tests stay
 * meaningful under a CI-wide EBDA_SCHED_MODE override). Cycle mode
 * runs sharded when resolveShardCount (sim/shard_partition.hh) asks
 * for more than one shard.
 */

#ifndef EBDA_SIM_SCHEDULER_HH
#define EBDA_SIM_SCHEDULER_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace ebda::sim {

/** How simulated time advances (SimConfig::schedMode). */
enum class SchedMode : std::uint8_t
{
    /** Resolve via EBDA_SCHED_MODE, else the injection-rate
     *  heuristic. The default: existing configs keep their exact
     *  serialized form (Auto is never emitted to JSON). */
    Auto,
    /** Execute every cycle (the pre-seam loop, bit for bit). */
    Cycle,
    /** Skip provably idle cycles via the event queue. */
    Event,
};

std::string toString(SchedMode mode);
std::optional<SchedMode> schedModeFromString(const std::string &text);

/**
 * Resolve Auto to a concrete backend for a run at the given injection
 * rate: the EBDA_SCHED_MODE environment variable ("cycle" / "event")
 * wins when set; otherwise event mode below the load heuristic's
 * cutoff, cycle mode at or above it. Explicit Cycle/Event pass through
 * untouched. The sweep runner calls this per job (after cache-key
 * computation, so both modes share cache entries); Simulator::run
 * calls it for direct users.
 *
 * `numNodes` scales the cutoff to the fabric: what makes a cycle worth
 * skipping is the *fabric-wide* arrival rate (rate x nodes), so on
 * fabrics larger than the reference the cutoff shrinks proportionally
 * — a 0.005 rate that leaves a 64-node mesh mostly idle keeps a
 * 4096-node dragonfly busy every cycle. At or below the reference
 * size (and with numNodes 0, the legacy form) the cutoff is exactly
 * kEventModeRateThreshold, so existing resolutions are unchanged.
 */
SchedMode resolveSchedMode(SchedMode requested, double injectionRate,
                           std::size_t numNodes = 0);

/** Auto picks event mode strictly below this injection rate
 *  (flits/node/cycle) at the reference fabric size. At 0.01 on the
 *  benchmarked 16x16 mesh the cycle loop already spends most of its
 *  time on empty cycles. */
inline constexpr double kEventModeRateThreshold = 0.01;

/** Fabric size the rate threshold was calibrated on (16x16 mesh).
 *  Larger fabrics scale the cutoff down by refNodes/numNodes. */
inline constexpr std::size_t kEventModeRefNodes = 256;

} // namespace ebda::sim

#endif // EBDA_SIM_SCHEDULER_HH
